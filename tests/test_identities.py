"""The identity engine: sweeps, reports, determinism, fault injection, route independence."""

import importlib.util
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from dowlab.exact import LambdaPoly
from dowlab import bases, series
from dowlab import bernoulli_euler as be
from dowlab import identities as idn
from dowlab import stirling as st
from dowlab import whitney as wh
from test_whitney import forbidden


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


@pytest.mark.parametrize(
    "ident, inner, keys",
    [
        # one inner sum per pair 0 <= l <= j <= 12, whatever m and n
        ("thm8", wh._t8_inner, 91),
        # one inner double sum per m in {1, 2, 3} and pair 0 <= k <= i <= 12
        ("thm18", wh._t18_inner, 3 * 91),
        # one l-sum per pair 0 <= k <= j <= 12, whatever m and n
        ("thm8", wh._t8_outer, 91),
    ],
)
def test_explicit_side_builds_each_inner_sum_once(ident, inner, keys):
    # all of them, since a warm l-sum of thm8 would skip its inner sums
    for cache in (wh._t8_outer, wh._t8_inner, wh._t18_inner):
        cache.cache_clear()
    assert idn.run_identity(ident, 12, (1, 2, 3), (1, 2, 3), 0).status == "pass"
    info = inner.cache_info()
    assert info.misses == keys
    assert info.hits > info.misses


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


def test_sweep_stops_at_the_first_mismatch():
    def points():
        yield {"n": 0}, LambdaPoly.const(1), 1
        yield {"n": 1}, LambdaPoly([0, 2]), LambdaPoly([0, 3])
        raise AssertionError("resumed after a mismatch")

    counterexample = {"params": {"n": 1}, "lhs": "2*l", "rhs": "3*l"}
    assert idn._sweep(points()) == (2, counterexample, None)


def test_sweep_returns_the_finding_of_a_sweep_without_mismatch():
    def points():
        yield {"n": 0}, LambdaPoly.const(1), 1
        yield {"n": 1}, 0, LambdaPoly.const(0)
        return "decided"

    assert idn._sweep(points()) == (2, None, "decided")


# One row per shape of the points an entry yields: the module attribute the
# entry reads, the arguments whose value is corrupted (for a triangle store,
# its parameters without n_max, and then entry (3, 1) is corrupted), and the
# counterexample expected.
FAULTS = {
    "thm6": (wh, "whitney2", (1, 3, 1), {"m": 1, "n": 3, "k": 1}),
    "eq17": (st, "deg_stirling2", (3, 1), {"n": 3, "k": 1}),
    "eq73": (st, "deg_r_stirling1_unsigned_rows", (2,), {"r": 2, "n": 3, "k": 1}),
    "eq68": (wh, "r_whitney1_rows", (2, 1), {"m": 2, "r": 1, "n": 3, "k": 1}),
    "orthogonality": (wh, "whitney2", (1, 3, 1), {"m": 1, "n": 3, "j": 1}),
    "eq74": (st, "deg_r_stirling1_unsigned_rows", (2,), {"r": 2, "n": 3, "k": 1}),
    "thm20": (st, "deg_stirling1", (3, 1), {"m": 1, "n": 3, "k": 1}),
}


@pytest.mark.parametrize("ident", FAULTS)
def test_fault_injection_yields_counterexample(monkeypatch, ident):
    module, name, at, params = FAULTS[ident]
    real = getattr(module, name)
    is_store = hasattr(real, "cache_info")

    def corrupted(*args):
        value = real(*args)
        if is_store and args[:-1] == at:
            rows = [list(row) for row in value]
            rows[3][1] = rows[3][1] + 1
            return rows
        if not is_store and args == at:
            return value + 1
        return value

    monkeypatch.setattr(module, name, corrupted)
    report = idn.run_identity(ident, 4, [1, 2], [1, 2], 0)
    assert report.status == "fail"
    assert report.counterexample is not None
    assert report.counterexample["params"] == params
    # counterexample sides are canonical grammar strings
    LambdaPoly.parse(report.counterexample["lhs"])
    LambdaPoly.parse(report.counterexample["rhs"])


def test_thm10_counterexample_keeps_both_floats(monkeypatch):
    # thm10 is the one tolerance comparison: a point whose exact side moves
    # by 1e-6 fails, and the counterexample shows the two floats compared
    real = wh.dowling_poly
    at = (1, 2, Fraction(1))

    def corrupted(m, n, x):
        value = real(m, n, x)
        return value + Fraction(1, 10**6) if (m, n, x) == at else value

    monkeypatch.setattr(wh, "dowling_poly", corrupted)
    report = idn.run_identity("thm10", 4, [1, 2], [1], 0)
    assert report.status == "fail"
    ce = report.counterexample
    assert ce["params"] == {"m": 1, "n": 2, "x": "1", "lambda": "0"}
    truncated, exact = float(ce["lhs"]), float(ce["rhs"])
    assert ce["lhs"] == repr(truncated) and ce["rhs"] == repr(exact)
    assert exact == float(real(*at).eval(0) + Fraction(1, 10**6))
    assert abs(truncated - exact) == pytest.approx(1e-6)


def test_catalog_order_matches_the_benchmark():
    # the benchmark names one per-layer metric per entry, in catalog order
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    prefix, suffix = "identities.entry.", ".s"
    entries = [
        metric["name"][len(prefix) : -len(suffix)]
        for metric in bench["per_layer"]
        if metric["name"].startswith(prefix)
    ]
    assert list(idn.CATALOG) == entries
    discrepancies = {ident for ident, entry in idn.CATALOG.items() if entry.discrepancy}
    assert discrepancies == {"thm16", "thm20", "cor22", "cor22_remark", "eq81"}


def test_benchmark_span_targets_exist():
    # the benchmark's tracer wraps each (module, path) of its span list and
    # skips, without failing, any it cannot find
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for targets in tracer.SPANS.values():
        for module_name, target in targets:
            owner = importlib.import_module(f"dowlab.{module_name}")
            for attr in target.split("."):
                owner = getattr(owner, attr, None)
            if owner is None:
                missing.append(f"{module_name}.{target}")
    assert missing == []


# The code that only one route reaches; an explicit formula has none of its own.
# The product and quotient of the series ring count as GF code too: the series
# oracles of thm3, thm9 and thm27 reach them without gf_triangle.  So does the
# first-order solver behind powers and log_l of a series.
ROUTE_PRIMITIVES = {
    "recurrence": [(st, "_recurrence"), (wh, "_recurrence")],
    "newton": [(bases, "newton_rows"), (st, "newton_rows"), (wh, "newton_rows"),
               (bases, "newton_convert")],
    "gf": [(series, "gf_triangle"), (st, "gf_triangle"), (wh, "gf_triangle"),
           (series.TruncatedSeries, "__mul__"), (series.TruncatedSeries, "divide"),
           (series, "_first_order")],
    "explicit": [],
}
SWEEP = idn.SweepParams(n_max=6, m_set=(1, 2, 3), r_set=(1, 2), seed=0)


def clear_caches() -> None:
    for module in (bases, series, st, wh, be):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_declared_route_sharings():
    rows = idn.ROWS
    assert rows and all(idn.CATALOG[ident].checker is row for ident, row in rows.items())
    for row in rows.values():
        assert row.lhs.route and row.lhs.route <= set(ROUTE_PRIMITIVES)
        assert row.rhs.route and row.rhs.route <= set(ROUTE_PRIMITIVES)
    # any new sharing must be declared here on purpose
    shared = {ident for ident, row in rows.items() if row.lhs.route & row.rhs.route}
    assert shared == {"thm8", "thm18"}


@pytest.mark.parametrize("side_name", ("lhs", "rhs"))
@pytest.mark.parametrize("ident", sorted(idn.ROWS))
def test_row_side_needs_no_route_of_the_other_side(monkeypatch, ident, side_name):
    # Each side alone, with cold caches and with every route that only the
    # other side declares patched to raise, reproduces the other side's values.
    row = idn.ROWS[ident]
    other_name = "rhs" if side_name == "lhs" else "lhs"
    side, other = getattr(row, side_name), getattr(row, other_name)
    seen = {}

    def record(*args):
        read = other.values(*args)

        def value(*point):
            seen[args, point] = read(*point)
            return seen[args, point]

        return value

    def replay(*args):
        return lambda *point: seen[args, point]

    recorded = replace(row, **{other_name: idn.Side(other.route, record)})(SWEEP)
    assert recorded[0] > 0 and recorded[1] is None
    for route in other.route - side.route:
        for module, name in ROUTE_PRIMITIVES[route]:
            monkeypatch.setattr(module, name, forbidden)
    clear_caches()
    assert replace(row, **{other_name: idn.Side(other.route, replay)})(SWEEP) == recorded


def test_eq29_reads_the_bell_numbers_off_another_route(monkeypatch):
    # Corrupt S2deg(3, 1) in the Newton store behind deg_bell_number: eq29's
    # other side comes from the GF exp(e_l(t) - 1), so eq29 must fail at
    # n = 2 (B(3)), before eq30 sees the corrupted value.
    real = st.deg_r_stirling2_rows

    def corrupted(r, n_max):
        rows = [list(row) for row in real(r, n_max)]
        if r == 0 and n_max >= 3:
            rows[3][1] = rows[3][1] + 1
        return rows

    monkeypatch.setattr(st, "deg_r_stirling2_rows", corrupted)
    clear_caches()
    try:
        report = idn.run_identity("eq29_30", 4, [1], [1], 0)
    finally:
        clear_caches()
    assert report.status == "fail"
    assert report.counterexample["params"] == {"n": 2, "part": "eq29"}


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
