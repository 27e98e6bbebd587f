"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import math
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from dowlab.identities import CATALOG  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_metric_and_workload_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_per_layer_names_match_what_the_trace_produces():
    empty = tracer.merge([])
    empty["catalog"] = list(CATALOG)
    produced = list(tracer.layer_metrics(empty)) + ["trace.overhead_ratio"]
    assert sorted(produced) == sorted(m["name"] for m in SPEC["per_layer"])
    entries = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("identities.entry.")]
    assert entries == [f"identities.entry.{ident}.s" for ident in CATALOG]


def test_digest_check_catches_a_one_byte_change(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"1\n1, 1\n1 - l, 4 - l, 1\n")
    expected = run.sha256_file(path)
    assert run.digest_problem(path, expected, "W") is None
    data = bytearray(path.read_bytes())
    data[7] ^= 1
    path.write_bytes(bytes(data))
    assert run.digest_problem(path, expected, "W") is not None


def small_job(work: Path) -> list[run.Process]:
    def no_check(data):
        return [(1, None) for _ in data["calls"]]

    calls = [
        ["verify", "--n-max", "3", "--m-set", "1,2", "--r-set", "1,2", "--out", str(work / "v.json")],
        ["triangle", "--family", "VR", "--m", "2", "--r", "2", "--n-max", "12", "--symbolic",
         "--out", str(work / "vr.csv")],
        ["dobinski", "--m", "2", "--n", "3", "--x", "3/2", "--lambda", "1/4", "--terms", "200"],
        ["dobinski", "--m", "1", "--n", "3", "--x", "300", "--lambda", "0", "--terms", "916"],
        ["triangle", "--family", "nope", "--n-max", "2"],
    ]
    return [run.Process(calls, no_check)]


def test_wrappers_leave_results_unchanged_and_counts_repeat(work):
    plain = run.run_job(small_job(work), False, time.perf_counter() + 120)
    first = run.run_job(small_job(work), True, time.perf_counter() + 120)
    second = run.run_job(small_job(work), True, time.perf_counter() + 120)
    assert not plain.errors and not first.errors
    assert 0.2 < plain.scaled_s / plain.wall_s < 5
    assert first.outputs == plain.outputs == second.outputs
    snap = tracer.merge(first.snapshots)
    assert snap["missing"] == []
    one = tracer.layer_metrics(snap)
    two = tracer.layer_metrics(tracer.merge(second.snapshots))
    counts = [k for k in one if k.endswith(".calls") or k.startswith("cache.") or k == "identities.points"]
    assert {k: one[k] for k in counts} == {k: two[k] for k in counts}
    assert one["exact.mul.calls"] > 0 and one["series.gf_triangle.calls"] > 0
    assert one["whitney.dobinski.calls"] > 0 and one["exact.str.calls"] > 0
    assert one["cache.row_builds"] > 0 and one["cache.row_hits"] > 0


def test_speed_scale_leaves_out_the_outer_tenths():
    assert speed.scale([speed.UNIT_REF_S] * 18 + [1e-9, 1.0]) == pytest.approx(1.0)
    assert speed.scale([2 * speed.UNIT_REF_S] * 2) == pytest.approx(0.5)


def test_setup_is_measured_from_start_to_the_end_of_the_import(work):
    raw, scaled = run.measure_setup()
    assert len(raw) == len(scaled) == run.SETUP_SAMPLES
    assert all(0 < t < 30 for t in raw + scaled)


def test_span_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(200000)))
    outer = t.wrap("outer", lambda: inner() + inner())
    outer()
    calls_o, self_o, incl_o, _ = t.stats["outer"]
    calls_i, self_i, incl_i, _ = t.stats["inner"]
    assert (calls_o, calls_i) == (1, 2)
    assert self_i == pytest.approx(incl_i)
    assert self_o == pytest.approx(incl_o - incl_i)


def test_entry_table_lists_the_slowest_entries_in_catalog_order():
    snap = tracer.merge([])
    snap["catalog"] = ["a", "b", "c", "d"]
    snap["spans"] = {f"{tracer.ENTRY_PREFIX}{k}": [1, 0.0, t] for k, t in zip("abcd", (1.0, 4.0, 0.5, 2.0))}
    snap["entry_points"] = {"a": 10, "b": 20, "c": 30, "d": 40}
    lines = tracer.entry_table(snap, top=3)
    assert lines[0].split() == ["id", "elapsed_s", "params_tested", "points_per_s"]
    assert [line.split()[0] for line in lines[1:]] == ["a", "b", "d"]
    assert lines[2].split() == ["b", "4.000", "20", "5.0"]


def test_dobinski_sweep_is_seeded_and_stratified():
    first = run.dobinski_points(random.Random("dobinski:3"))
    assert first == run.dobinski_points(random.Random("dobinski:3"))
    assert first != run.dobinski_points(random.Random("dobinski:4"))
    assert len(first) == 3 * 9 * len(run.DOBINSKI_DECADES)
    for m in (1, 2, 3):
        for decade in run.DOBINSKI_DECADES:
            logs = sorted(
                (_log10(p["x"]) - decade) * 9 for p in first if p["m"] == m
                and decade <= _log10(p["x"]) < decade + 1
            )
            assert [int(v) for v in logs] == list(range(9))


def test_a_seed_attempts_and_fails_the_same_operations_on_every_run(work, monkeypatch):
    def few_points(rng):
        points = [p for p in full_sweep(rng) if p["m"] == 1]
        return points[:2] + [max(points, key=lambda p: Fraction(p["x"]))]

    full_sweep = run.dobinski_points
    monkeypatch.setattr(run, "dobinski_points", few_points)
    assert run.job_count("dobinski", 2.5 * run.NOMINAL_JOB_S["dobinski"]) == 2
    first = run.run_untraced("dobinski", 5, 2.5 * run.NOMINAL_JOB_S["dobinski"], {})
    second = run.run_untraced("dobinski", 5, 2.5 * run.NOMINAL_JOB_S["dobinski"], {})
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["problems"] == second["problems"]
    assert first["attempted"] == 6 and first["failed"] == 2


def test_every_run_attempts_the_same_dobinski_points_in_its_own_order():
    first = run.make_jobs("dobinski", 1, {}, 2)
    second = run.make_jobs("dobinski", 2, {}, 2)
    for (one,), (two,) in zip(first, second):
        assert one.calls != two.calls and sorted(one.calls) == sorted(two.calls)
    assert sorted(first[0][0].calls) != sorted(first[1][0].calls)


def test_runs_draw_an_even_mix_of_the_choices():
    draws = run.balanced(run.VR_R, 6, random.Random("export:1"))
    assert sorted(draws) == [1, 1, 2, 2, 3, 3]
    assert draws == run.balanced(run.VR_R, 6, random.Random("export:1"))
    assert len(set(run.balanced(run.VERIFY_SEEDS, 2, random.Random("verify:1")))) == 2


def _log10(text: str) -> float:
    return math.log10(Fraction(text))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
