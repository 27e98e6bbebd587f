"""The identity engine: sweeps, reports, determinism, fault injection, route independence."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dowlab.exact import CACHES, LambdaPoly
from dowlab import cli, newton, series
from dowlab import dobinski as dob
from dowlab.families import Family
from dowlab import identities as idn
from dowlab import stirling as st
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
    reports = [idn.run_identity(ident, 0, [1], [1], 0) for ident in idn.CATALOG]
    assert len(reports) == len(idn.CATALOG)
    assert all(r.status != "fail" for r in reports)


# The entries that read degenerate Stirling or Whitney numbers at a rescaled
# l, and the rescaled triangles they read them from, as (kernel, key of m):
# the Stirling ones are the r = 0 rows of the two Newton kernels, the W one
# the second-kind kernel at (m(m+1), m+1, m).
RESCALED_ENTRIES = ("thm13", "thm19", "thm20", "thm21", "cor22", "cor22_remark", "thm23", "thm26")
RESCALED_STORES = (
    (newton._second_kind_rows, lambda m: (m, 0, 1)),
    (newton._first_kind_rows, lambda m: (m, 0)),
    (newton._second_kind_rows, lambda m: (m * (m + 1), m + 1, m)),
)


def count_newton_rows(monkeypatch) -> list[int]:
    """Route the ``newton_rows`` of the Newton kernels and of whitney through a
    counter; the list it returns gets one entry per triangle begun, the number
    of rows drawn from it."""
    built = []
    real = newton.newton_rows

    def counted(*args):
        built.append(0)
        at = len(built) - 1  # triangles built side by side each count their own
        for row in real(*args):
            built[at] += 1
            yield row

    monkeypatch.setattr(newton, "newton_rows", counted)
    monkeypatch.setattr(wh, "newton_rows", counted)
    return built


@pytest.mark.parametrize(
    "ident, inner, keys",
    [
        # one inner sum per pair 0 <= l <= j <= 12, whatever m and n
        ("thm8", wh._t8_inner, 91),
        # one inner double sum per m in {1, 2, 3} and pair 0 <= k <= i <= 12
        ("thm18", wh._t18_inner, 3 * 91),
        # one l-sum per pair 0 <= k <= j <= 12, whatever m and n
        ("thm8", wh._t8_outer, 91),
        # one rescaled row per m in {1, 2, 3} and row 0..12, whatever n and k;
        # the ids name the per-row caches that these row stores replaced, and
        # their counts
        pytest.param("thm13", st._second_kind_rows, 3 * 13, id="thm13-_row_over_m-39"),
        pytest.param("thm19", st._first_kind_rows, 3 * 13, id="thm19-_row_over_m-39"),
        pytest.param("thm21", st._second_kind_rows, 3 * 13, id="thm21-_thm21_row-39"),
    ],
)
def test_explicit_side_builds_each_inner_sum_once(ident, inner, keys, monkeypatch, clear_caches):
    built = count_newton_rows(monkeypatch)
    # all of them, since a warm l-sum of thm8 would skip its inner sums
    clear_caches()
    assert idn.run_identity(ident, 12, (1, 2, 3), (1, 2, 3), 0).status == "pass"
    info = inner.cache_info()
    if hasattr(inner, "entry"):
        # per m one rescaled store and the W or V store of the other side,
        # whose rows are each drawn once
        assert (info.misses, sum(built)) == (6, 2 * keys)
    else:
        assert info.misses == keys
    assert info.hits > info.misses


def test_rescaled_entries_rescale_no_lambda(monkeypatch, clear_caches):
    # each rescaled value is an entry of a Newton-kernel triangle, so none is
    # made by substituting for l, even with every cache cold
    calls = []
    real = LambdaPoly.scale_lambda
    monkeypatch.setattr(LambdaPoly, "scale_lambda", lambda *a: calls.append(a) or real(*a))
    clear_caches()
    for ident in RESCALED_ENTRIES:
        assert idn.run_identity(ident, 10, (1, 2, 3), (1, 2, 3), 0).status != "fail"
    assert calls == []


def test_rescaled_stores_hold_one_triangle_per_m(monkeypatch, clear_caches):
    # a cold run builds rows 0..12 once for each m and rescaled triangle (nine)
    # and for each W and V triangle that the other sides read (W at m = 1..4,
    # V at m = 1..3), however many (n, k) read them; no other Newton-kernel
    # triangle is read
    built = count_newton_rows(monkeypatch)
    clear_caches()
    for ident in RESCALED_ENTRIES:
        assert idn.run_identity(ident, 12, (1, 2, 3), (1, 2, 3), 0).status != "fail"
    kernels = (st._second_kind_rows, st._first_kind_rows)
    assert [store.cache_info().currsize for store in kernels] == [10, 6]
    assert built == [13] * 16
    # each of the nine rescaled ones is held: reading its row 12 again builds nothing
    for store, key in RESCALED_STORES:
        for m in (1, 2, 3):
            store.entry(*key(m), 12, 0)
    assert built == [13] * 16


def test_determinism_same_seed():
    a = [idn.run_identity(ident, 3, [1], [1], 11) for ident in idn.CATALOG]
    b = [idn.run_identity(ident, 3, [1], [1], 11) for ident in idn.CATALOG]
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
        yield {"n": 0}, LambdaPoly.coerce(1), 1
        yield {"n": 1}, LambdaPoly([0, 2]), LambdaPoly([0, 3])
        raise AssertionError("resumed after a mismatch")

    counterexample = {"params": {"n": 1}, "lhs": "2*l", "rhs": "3*l"}
    assert idn._sweep(points()) == (2, counterexample, None)


def test_sweep_returns_the_finding_of_a_sweep_without_mismatch():
    def points():
        yield {"n": 0}, LambdaPoly.coerce(1), 1
        yield {"n": 1}, 0, LambdaPoly.coerce(0)
        return "decided"

    assert idn._sweep(points()) == (2, None, "decided")


# One row per shape of the points an entry yields: the module attribute the
# entry reads, the arguments whose value is corrupted (for a triangle store,
# its parameters without n_max, and then entry (3, 1) is corrupted), and the
# counterexample expected.
FAULTS = {
    "thm6": (wh, "whitney2", (1, 3, 1), {"m": 1, "n": 3, "k": 1}),
    "eq17": (st, "deg_stirling2", (3, 1), {"n": 3, "k": 1}),
    "eq73": (st, "_first_kind_rows", (1, 2), {"r": 2, "n": 3, "k": 1}),
    "eq68": (wh, "r_whitney1_rows", (2, 1), {"m": 2, "r": 1, "n": 3, "k": 1}),
    "orthogonality": (wh, "whitney2", (1, 3, 1), {"m": 1, "n": 3, "j": 1}),
    "eq74": (st, "_first_kind_rows", (1, 2), {"r": 2, "n": 3, "k": 1}),
    "thm20": (st, "_first_kind_rows", (1, 0), {"m": 1, "n": 3, "k": 1}),
    "thm21": (wh, "whitney2", (2, 3, 1), {"m": 1, "n": 3, "k": 1}),
    "thm23": (wh, "dowling_poly", (1, 3, Fraction(1, 2)), {"m": 1, "n": 3, "x": "1/2"}),
    "thm26": (wh, "dowling_poly", (1, 3, Fraction(1, 2)), {"m": 1, "n": 3, "x": "1/2"}),
    # a labelled part: its tail ends the params
    "eq75": (wh, "whitney1", (2, 3, 1), {"m": 2, "n": 3, "k": 1, "part": "r=1"}),
    # a probe fails on its compared sides, whatever its printed reading finds
    "thm16": (wh, "whitney2", (1, 3, 1), {"m": 1, "n": 2, "k": 1}),
}


@pytest.mark.parametrize("ident", FAULTS)
def test_fault_injection_yields_counterexample(monkeypatch, ident):
    module, name, at, params = FAULTS[ident]
    real = getattr(module, name)
    is_store = name.endswith("_rows")

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
    assert report.status == "fail" and report.finding is None
    assert report.counterexample is not None
    assert report.counterexample["params"] == params
    # counterexample sides are canonical grammar strings
    LambdaPoly.parse(report.counterexample["lhs"])
    LambdaPoly.parse(report.counterexample["rhs"])


def test_thm10_counterexample_keeps_both_floats(monkeypatch):
    # thm10 is the one tolerance comparison: a point whose exact side moves
    # by 1e-6 fails, and the counterexample shows the two floats compared.
    # The exact side is the evaluator's row sum of the W rows at (m, 1, 1), n, x
    real = dob._row_sum
    at = ((1, 1, 1), 2, Fraction(1))

    def corrupted(store, params, n, x, ordered):
        value = real(store, params, n, x, ordered)
        return value + Fraction(1, 10**6) if (params, n, x) == at else value

    monkeypatch.setattr(dob, "_row_sum", corrupted)
    report = idn.run_identity("thm10", 4, [1, 2], [1], 0)
    assert report.status == "fail"
    ce = report.counterexample
    assert ce["params"] == {"m": 1, "n": 2, "x": "1", "lambda": "0"}
    truncated, exact = float(ce["lhs"]), float(ce["rhs"])
    assert ce["lhs"] == repr(truncated) and ce["rhs"] == repr(exact)
    assert exact == float(wh.dowling_poly(1, 2, Fraction(1)).eval(0) + Fraction(1, 10**6))
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
    discrepancies = {ident for ident, entry in idn.CATALOG.items()
                     if isinstance(entry.checker, idn.Probe)}
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


FAMILIES = [family.value for family in Family]
EXPORT_ARGS = ["--m", "2", "--r", "2", "--n-max", "4"]


def test_benchmark_tracer_wraps_the_lazily_registered_modules():
    # the tracer wraps what sys.modules holds right after ``import
    # dowlab.cli``, where identities and bernoulli_euler have not run yet;
    # its pass over each module runs them, so their spans and the catalog's
    # checkers are wrapped all the same
    root = Path(__file__).resolve().parents[1]
    check = f"""
import sys
sys.path.insert(0, {str(root / "perfbench")!r})
import dowlab.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
idn, be = sys.modules["dowlab.identities"], sys.modules["dowlab.bernoulli_euler"]
assert tracer.missing == [], tracer.missing
assert tracer.catalog == list(idn.CATALOG) and len(tracer.catalog) >= 24
assert hasattr(be.deg_bernoulli, "__wrapped__") and idn.be is be
assert hasattr(idn.CATALOG["thm27_bernoulli"].checker, "__wrapped__")
# the traced catalog reports what an untraced one does: a cache on a span
# target whose result is not rows fails the tracer's row count here
assert dowlab.cli.main(["verify", "--n-max", "4"]) == 0
# and so does every export, whose rows come from the generators behind the
# wrapped row stores
for family in {FAMILIES!r}:
    assert dowlab.cli.main(["triangle", "--family", family, *{EXPORT_ARGS!r}]) == 0
"""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    untraced = io.StringIO()
    with contextlib.redirect_stdout(untraced):
        assert cli.main(["verify", "--n-max", "4"]) == 0
        for family in FAMILIES:
            assert cli.main(["triangle", "--family", family, *EXPORT_ARGS]) == 0
    assert done.stdout == untraced.getvalue()


def test_each_route_forbids_its_primitives(forbid_route):
    # the bindings forbidden for a route derive from its module; they hold
    # the code that only that route reaches, wherever it is bound: the row
    # kernels and their row step, the GF triangles, the product and quotient of the series ring
    # (the series oracles of thm3, thm9 and thm27 reach them without
    # gf_triangle) and the first-order solver behind powers and log_l
    primitives = {
        "newton": [(newton, "newton_rows"), (wh, "newton_rows"), (newton, "row_step")],
        "gf": [(series, "gf_triangle"), (st, "gf_triangle"),
               (series.TruncatedSeries, "__mul__"), (series.TruncatedSeries, "divide"),
               (series, "_first_order")],
        "explicit": [],
    }
    for route, bindings in primitives.items():
        forbidden = forbid_route(route)
        assert all(binding in forbidden for binding in bindings), route
        assert all(getattr(owner, name).__name__ == "_forbidden" for owner, name in bindings)


SWEEP = idn.SweepParams(n_max=6, m_set=(1, 2, 3), r_set=(1, 2), seed=0)


# The declared forms of an entry; each lists its rows with ``rows()``.
DECLARED = (idn.Row, idn.Parts, idn.Probe)


def test_declared_route_sharings(routes):
    rows = idn.ROWS
    # every row of every declared entry, keyed by the entry's id and its tail
    declared = [
        (ident, row)
        for ident, entry in idn.CATALOG.items()
        if isinstance(entry.checker, DECLARED)
        for row in entry.checker.rows()
    ]
    assert rows and len(rows) == len(declared)
    assert all(any(rows[key] is row for key in rows if key.partition("[")[0] == ident)
               for ident, row in declared)
    for row in rows.values():
        assert row.lhs.route and row.lhs.route <= set(routes)
        assert row.rhs.route and row.rhs.route <= set(routes)
    # any new sharing must be declared here on purpose.  Every row triangle is
    # the Newton route's, so these rows read it on both sides: the explicit
    # sides read its tables; thm6, thm7 and the r=1 parts of eq75 and eq77
    # read one kernel key on both sides; the others compare two of its tables
    # or two sums over them.  Only a GF side can catch a row_step defect.
    shared = {ident for ident, row in rows.items() if row.lhs.route & row.rhs.route}
    assert shared == {
        "cor2", "eq29_30[eq30]", "cor4", "cor11",
        "thm6", "thm7", "eq75[r=1]", "eq77[r=1]", "eq75[bracket]", "eq77[m=1]",
        "thm8", "thm13", "thm16", "thm17", "thm18", "thm19", "thm20", "thm21",
        "cor22", "cor22_remark", "thm23", "thm26",
        "classical_limits[W]", "classical_limits[V]", "classical_limits[S1]",
        "classical_limits[S2]",
    }


def test_only_entries_without_a_route_pair_are_hand_written():
    # a new cross-route entry is declared, so the route tests above see it
    written = {i for i, e in idn.CATALOG.items() if not isinstance(e.checker, DECLARED)}
    assert written == {
        "eq12", "thm10", "thm12_zero", "lemma15", "lemma24", "thm25",
        "orthogonality", "stirling_orthogonality",
    }


def with_side(row: idn.Row, name: str, side: idn.Side) -> idn.Row:
    """``row`` with its side ``name``, "lhs" or "rhs", replaced by ``side``."""
    lhs, rhs = (side, row.rhs) if name == "lhs" else (row.lhs, side)
    return idn.Row(row.run, lhs, rhs, row.tail)


@pytest.mark.parametrize("side_name", ("lhs", "rhs"))
@pytest.mark.parametrize("ident", sorted(idn.ROWS))
def test_row_side_needs_no_route_of_the_other_side(forbid_route, clear_caches, ident, side_name):
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

    recorded = with_side(row, other_name, idn.Side(other.route, record))(SWEEP)
    assert recorded[0] > 0 and recorded[1] is None
    for route in other.route - side.route:
        forbid_route(route)
    clear_caches()
    assert with_side(row, other_name, idn.Side(other.route, replay))(SWEEP) == recorded


def test_eq29_reads_the_bell_numbers_off_another_route(monkeypatch, clear_caches):
    # Corrupt S2deg(3, 1) in the Newton store behind deg_bell_number, the
    # second-kind kernel at (1, 0, 1): eq29's other side comes from the GF
    # exp(e_l(t) - 1), so eq29 must fail at n = 2 (B(3)), before eq30 sees
    # the corrupted value.
    real = st._second_kind_rows

    def corrupted(m, r, s, n_max):
        rows = [list(row) for row in real(m, r, s, n_max)]
        if (m, r, s) == (1, 0, 1) and n_max >= 3:
            rows[3][1] = rows[3][1] + 1
        return rows

    monkeypatch.setattr(st, "_second_kind_rows", corrupted)
    clear_caches()
    try:
        report = idn.run_identity("eq29_30", 4, [1], [1], 0)
    finally:
        clear_caches()
    assert report.status == "fail"
    assert report.counterexample["params"] == {"n": 2, "part": "eq29"}


def test_a_cold_catalog_builds_each_gf_triangle_once(clear_caches):
    # thm1, thm5, eq74, eq75 and eq77 ask for triangles that eq17, eq18,
    # eq68 and eq71 build: 37 requests for 23 distinct triangles
    clear_caches()
    for ident in idn.CATALOG:
        idn.run_identity(ident, 10, (1, 2, 3), (1, 2, 3), 0)
    info = series.gf_triangle.cache_info()
    assert (info.misses, info.hits) == (23, 14)
    assert info.currsize == 23


def test_a_cold_catalog_builds_each_kernel_triangle_once(clear_caches):
    # each Newton kernel is one store over its key: the rescaled triangles of
    # thm13, thm19-20, thm23 and thm26 at r = 0 for m = 1..3, the r-Whitney
    # triangles at {1,2,3}^2, and for the second kind the rescaled W triangle
    # of thm21 and cor22 at (m(m+1), m+1, m), whose m = 1 key is the
    # r-Whitney triangle at (2, 2), and W at m = 4, which thm21 and cor22 read
    # at m + 1; S1deg, S2deg and the Bell numbers at m = 1, r = 0, the
    # r-Stirling triangles at (1, r) and W and V at m = 1..3 are among those
    # keys, not stores apart
    clear_caches()
    for ident in idn.CATALOG:
        idn.run_identity(ident, 10, (1, 2, 3), (1, 2, 3), 0)
    for store, stores in ((st._second_kind_rows, 15), (st._first_kind_rows, 12)):
        info = store.cache_info()
        assert (info.misses, info.currsize) == (stores, stores)


def test_a_warm_run_reports_what_a_cold_run_reports(clear_caches):
    # the warm run reads back every memo and row store the cold one filled
    def report():
        reports = [idn.run_identity(ident, 6) for ident in idn.CATALOG]
        return json.dumps(idn.report_document(reports, 6, (1, 2, 3), (1, 2, 3), 0))

    clear_caches()
    cold = report()
    held = [cache.cache_info().currsize for cache in CACHES]
    assert report() == cold
    assert [cache.cache_info().currsize for cache in CACHES] == held


@pytest.mark.parametrize("ident", sorted(idn.CATALOG))
def test_a_bad_n_max_or_seed_is_refused_before_the_entry_runs(ident):
    held = [cache.cache_info().currsize for cache in CACHES]
    for bad, error, message in (
        ({"n_max": -1}, ValueError, "^n_max must be an integer >= 0, got -1$"),
        ({"n_max": True}, TypeError, "^expected an int, got bool$"),
        ({"n_max": 2.0}, TypeError, "^expected an int, got float$"),
        ({"seed": True}, TypeError, "^expected an int, got bool$"),
    ):
        with pytest.raises(error, match=message):
            idn.run_identity(ident, **bad)
        with pytest.raises(error, match=message):
            for each in idn.CATALOG:
                idn.run_identity(each, **bad)
        assert [cache.cache_info().currsize for cache in CACHES] == held


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
    # a report's status is read off what its sweep found
    bad = idn.IdentityReport(id="x", params_tested=1, counterexample={"params": {}})
    good = idn.IdentityReport(id="y", params_tested=1)
    finding = idn.IdentityReport(id="z", params_tested=1, finding="printed form fails")
    assert [r.status for r in (bad, good, finding)] == ["fail", "pass", "paper-discrepancy"]
    assert not idn.all_passed([good, bad])
    assert idn.all_passed([good, finding])
