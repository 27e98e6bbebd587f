"""The identity engine: sweeps, reports, determinism, fault injection."""

import json

import pytest

from dowlab.exact import LambdaPoly
from dowlab import identities as idn
from dowlab import whitney as wh


def test_catalog_is_large_enough():
    assert len(idn.CATALOG) >= 24


def test_spot_runs_pass():
    assert idn.run_identity("orthogonality", 6, [1, 2], [1], 0).status == "pass"
    assert idn.run_identity("thm12_zero", 6, [1, 2], [1], 0).status == "pass"
    assert idn.run_identity("eq75", 8, [1], [1, 2, 3], 0).status == "pass"
    assert idn.run_identity("lemma15", 10, [1], [1], 7).status == "pass"
    assert idn.run_identity("thm21", 6, [1, 2], [1], 0).status == "pass"
    assert idn.run_identity("thm6", 6, [1, 2], [1], 0).status == "pass"
    assert idn.run_identity("cor2", 8, [1], [1], 0).status == "pass"


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        idn.run_identity("nosuch", 4, [1], [1], 0)


def test_transform_pair_and_delta_at_twelve():
    assert idn.run_identity("thm25", 12, [1], [1], 3).status == "pass"
    assert idn.run_identity("lemma24", 12, [1], [1], 0).status == "pass"


def test_trivial_sweep_has_no_failures():
    reports = idn.verify_all(0, [1], [1], 0)
    assert len(reports) == len(idn.CATALOG)
    assert all(r.status != "fail" for r in reports)


def test_determinism_same_seed():
    a = idn.verify_all(3, [1], [1], 11)
    b = idn.verify_all(3, [1], [1], 11)
    doc_a = json.dumps(idn.report_document(a, 3, [1], [1], 11), sort_keys=True)
    doc_b = json.dumps(idn.report_document(b, 3, [1], [1], 11), sort_keys=True)
    assert doc_a == doc_b


def test_discrepancy_entries_are_decided():
    for ident in ("thm16", "thm20", "cor22", "cor22_remark", "eq81"):
        report = idn.run_identity(ident, 6, [1, 2], [1, 2], 0)
        assert report.status == "paper-discrepancy"
        assert report.finding is not None
        assert "fails at" in report.finding, f"{ident} finding undecided on this range"


def test_fault_injection_yields_counterexample(monkeypatch):
    real = wh.whitney2

    def corrupted(m, n, k):
        value = real(m, n, k)
        if (m, n, k) == (1, 3, 1):
            return value + 1
        return value

    monkeypatch.setattr(wh, "whitney2", corrupted)
    report = idn.run_identity("thm6", 4, [1], [1], 0)
    assert report.status == "fail"
    assert report.counterexample is not None
    assert report.counterexample["params"] == {"m": 1, "n": 3, "k": 1}
    # counterexample sides are canonical grammar strings
    LambdaPoly.parse(report.counterexample["lhs"])
    LambdaPoly.parse(report.counterexample["rhs"])


def test_report_document_shape():
    reports = [idn.run_identity("cor4", 4, [1], [1], 0)]
    doc = idn.report_document(reports, 4, [1], [1], 0)
    assert doc["version"] == 1
    assert doc["seed"] == 0
    assert doc["n_max"] == 4
    assert doc["m_set"] == [1]
    assert doc["r_set"] == [1]
    entry = doc["reports"][0]
    assert entry["id"] == "cor4"
    assert entry["status"] == "pass"
    assert "counterexample" not in entry
    assert idn.all_passed(reports)


def test_all_passed_flags_failures():
    bad = idn.IdentityReport(id="x", params_tested=1, status="fail")
    good = idn.IdentityReport(id="y", params_tested=1, status="pass")
    finding = idn.IdentityReport(id="z", params_tested=1, status="paper-discrepancy")
    assert not idn.all_passed([good, bad])
    assert idn.all_passed([good, finding])
