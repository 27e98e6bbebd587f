"""The dowlab benchmark: three workloads, each a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 32 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``verify``: ``dowlab verify --n-max 10`` over m, r in {1,2,3}, at a verify
  seed drawn from ``VERIFY_SEEDS``.  One job is one CLI process.
* ``export``: ``dowlab triangle --symbolic --format csv`` for W (m=3,
  n_max=80, recurrence route), then VR (m=3, n_max=40, Newton route) with
  r drawn from ``VR_R``.  One job is the two processes, one after the other.
* ``dobinski``: a stratified sweep of ``dobinski`` calls in one process.
  Sweep j is the same in every run; the seed orders its points.

Every job runs in a fresh interpreter (cold caches) with DOWLAB_THREADS
removed, and jobs never overlap; the run and every process it starts stay on
one CPU.  Every time is scaled by the host speed measured inside the timed
process (see speed.py).  Outputs are checked against the SHA-256
digests in ``reference.json``; a mismatch, a verify status other than
``pass``/``paper-discrepancy``, a nonzero exit or an escaped exception is a
failed operation.  With ``--trace 0`` the run makes as many jobs as fit in
``--seconds`` at the times in ``NOMINAL_JOB_S``, so that the operations it
attempts do not depend on the clock, and prints the end-to-end metrics; with
``--trace 1`` it runs one job untraced and the same job traced, and prints
the per-layer metrics.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

VERIFY_SEEDS = tuple(range(8))
VR_R = (1, 2, 3)
# Set-up samples taken before every job and after the last, spread over the run.
SETUP_SAMPLES = 5
PROCESS_LIMIT_S = 150.0
DOBINSKI_DECADES = (-2, -1, 0, 1, 2)  # x from 10^-2 up to 10^3, one point per decade
# Seconds budgeted per job, about what one takes on a 2-vCPU Xeon with
# CPython 3.11.  A run makes as many jobs as fit in --seconds at these times,
# never counted by the clock, so that every run attempts the same operations
# and fails the same ones.
NOMINAL_JOB_S = {"verify": 16.0, "export": 5.8, "dobinski": 7.3}

# An outcome check turns one job.py result into (units, problem-or-None) per call.
Check = Callable[[dict], list[tuple[int, Optional[str]]]]


@dataclass
class Process:
    calls: list[list[str]]
    check: Check


@dataclass
class JobRun:
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s scaled by the host speed, process by process
    peak_rss_mb: float = 0.0
    units: int = 0
    attempted: int = 0
    ok: int = 0
    problems: list[str] = field(default_factory=list)  # failed operations
    errors: list[str] = field(default_factory=list)  # outputs that could not be checked
    snapshots: list[dict] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # every call's outcome, in order


class SetupError(Exception):
    """The checkout cannot run the benchmark at all (no result is printed)."""


# -- environment ----------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DOWLAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU.  A shared host runs its
    vCPUs at different speeds, so a job and the speed samples taken in it,
    on a thread of its own, must run on the same one."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


# -- processes --------------------------------------------------------------------


def run_child(argv: list[str], limit_s: float) -> tuple[float, float, int]:
    """Run one child process to its end: (wall seconds, peak RSS MB, exit code)."""
    with open(WORK / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_job(processes: list[Process], trace: bool, deadline: float) -> JobRun:
    """Run the job's processes one after the other; kill any still running at ``deadline``."""
    job = JobRun()
    for proc in processes:
        spec, result = WORK / "spec.json", WORK / "result.json"
        spec.write_text(json.dumps({"calls": proc.calls, "trace": trace}))
        if result.exists():
            result.unlink()
        argv = [sys.executable, str(HERE / "job.py"), str(spec), str(result)]
        wall, rss, code = run_child(argv, max(0.1, deadline - time.perf_counter()))
        job.wall_s += wall
        job.peak_rss_mb = max(job.peak_rss_mb, rss)
        job.attempted += len(proc.calls)
        if code != 0 or not result.exists():
            job.errors.append(f"job process exited with {code}: {proc.calls[0][:2]}")
            continue
        data = json.loads(result.read_text())
        job.scaled_s += wall * speed.scale(data["speed"])
        if trace:
            job.snapshots.append(data["trace"])
        for units, problem in proc.check(data):
            job.units += units
            if problem is None:
                job.ok += 1
            else:
                job.problems.append(problem)
        for call_argv, call in zip(proc.calls, data["calls"]):
            out = Path(call_argv[call_argv.index("--out") + 1]) if "--out" in call_argv else None
            file_digest = sha256_file(out) if out is not None and out.exists() else None
            job.outputs.append(json.dumps([call["exit"], call["error"], call["stdout"], file_digest]))
    return job


def call_problem(call: dict, what: str) -> Optional[str]:
    if call["error"] is not None:
        return f"{what}: {call['error']}"
    if call["exit"] != 0:
        return f"{what}: exit {call['exit']}"
    return None


def digest_problem(path: Path, expected: str, what: str) -> Optional[str]:
    if not path.exists():
        return f"{what}: no output file"
    actual = sha256_file(path)
    if actual != expected:
        return f"{what}: output digest {actual[:12]} != reference {expected[:12]}"
    return None


# -- workloads -----------------------------------------------------------------------


def verify_process(vseed: int, reference: dict) -> Process:
    out = WORK / "verify.json"
    what = f"verify --seed {vseed}"

    def check(data: dict) -> list[tuple[int, Optional[str]]]:
        problem = call_problem(data["calls"][0], what) or digest_problem(
            out, reference["verify"][str(vseed)], what
        )
        if problem is not None:
            return [(0, problem)]
        reports = json.loads(out.read_text())["reports"]
        bad = [r["id"] for r in reports if r["status"] not in ("pass", "paper-discrepancy")]
        if bad:
            return [(0, f"{what}: status not pass for {', '.join(bad)}")]
        return [(sum(r["params_tested"] for r in reports), None)]

    argv = ["verify", "--n-max", "10", "--m-set", "1,2,3", "--r-set", "1,2,3",
            "--seed", str(vseed), "--out", str(out)]
    return Process([argv], check)


def export_process(key: str, argv: list[str], n_max: int, reference: dict) -> Process:
    out = WORK / f"{key}.csv"

    def check(data: dict) -> list[tuple[int, Optional[str]]]:
        problem = call_problem(data["calls"][0], key) or digest_problem(
            out, reference["export"][key], key
        )
        return [(0, problem) if problem else ((n_max + 1) * (n_max + 2) // 2, None)]

    return Process([argv + ["--symbolic", "--format", "csv", "--out", str(out)]], check)


def export_job(r: int, reference: dict) -> list[Process]:
    return [
        export_process("W-m3-n80", ["triangle", "--family", "W", "--m", "3", "--n-max", "80"],
                       80, reference),
        export_process(f"VR-m3-r{r}-n40",
                       ["triangle", "--family", "VR", "--m", "3", "--r", str(r), "--n-max", "40"],
                       40, reference),
    ]


def dobinski_points(rng: random.Random) -> list[dict]:
    """One point per (m, n, decade of x); within each (m, decade) the nine n
    values take the nine sub-strata of the decade in random order, so every
    sweep holds the same spread of x and the same share of large x."""
    points = []
    for m in (1, 2, 3):
        for decade in DOBINSKI_DECADES:
            strata = list(range(9))
            rng.shuffle(strata)
            for n in range(9):
                log_x = decade + (strata[n] + rng.random()) / 9
                scale = 10 ** (3 - decade)  # four significant digits
                x = Fraction(round(10**log_x * scale), scale)
                den = rng.randint(1, 9)
                lam = Fraction(rng.randrange(den), den)
                terms = math.ceil(math.e * x / m) + 100
                points.append({"m": m, "n": n, "x": str(x), "lambda": str(lam), "terms": terms})
    return points


def dobinski_process(points: list[dict]) -> Process:
    calls = [
        ["dobinski", "--m", str(p["m"]), "--n", str(p["n"]), "--x", p["x"],
         "--lambda", p["lambda"], "--terms", str(p["terms"])]
        for p in points
    ]

    def check(data: dict) -> list[tuple[int, Optional[str]]]:
        out = []
        for point, call in zip(points, data["calls"]):
            what = "dobinski m={m} n={n} x={x} lambda={lambda} terms={terms}".format(**point)
            problem = call_problem(call, what)
            if problem is None and not call["stdout"].rstrip().endswith(" pass"):
                problem = f"{what}: {call['stdout'].strip()}"
            out.append((0, problem) if problem else (1, None))
        return out

    return Process(calls, check)


def balanced(values: tuple, count: int, rng: random.Random) -> list:
    """``count`` draws from ``values`` in seeded rounds that use every value
    once, so that the few jobs of one run hold an even mix of the choices."""
    draws: list = []
    while len(draws) < count:
        draws += rng.sample(values, len(values))
    return draws[:count]


def make_jobs(workload: str, seed: int, reference: dict, count: int) -> list[list[Process]]:
    """The processes of each of ``count`` jobs, made from --seed only."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [[verify_process(v, reference)] for v in balanced(VERIFY_SEEDS, count, rng)]
    if workload == "export":
        return [export_job(r, reference) for r in balanced(VR_R, count, rng)]
    # Sweep j is the same in every run and --seed only orders its points, so
    # that every run attempts, and fails, the same Dobinski points: which
    # points fail depends on n and lambda near x/m ~ 100.
    sweeps = [dobinski_points(random.Random(f"dobinski-sweep:{j}")) for j in range(count)]
    return [[dobinski_process(rng.sample(points, len(points)))] for points in sweeps]


# -- runs ------------------------------------------------------------------------------


def check_checkout() -> None:
    if not (ROOT / "src" / "dowlab" / "__init__.py").is_file():
        raise SetupError(f"no src/dowlab under {ROOT}: run from the root of a dowlab checkout")
    probe = WORK / "probe.txt"
    code = "import dowlab, sys; open(sys.argv[1], 'w').write(dowlab.__file__)"
    _, _, status = run_child([sys.executable, "-c", code, str(probe)], 60)
    if status != 0 or not probe.exists():
        raise SetupError("import dowlab failed: " + (WORK / "stderr.txt").read_text()[-2000:])
    found = Path(probe.read_text()).resolve()
    if ROOT.resolve() / "src" not in found.parents:
        raise SetupError(f"import dowlab found {found}, not the checkout's src/dowlab")


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times (interpreter start plus ``import dowlab``), each in a fresh
    process: as measured, and scaled by the host speed measured in it."""
    result = WORK / "setup.json"
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        _, _, code = run_child([sys.executable, str(HERE / "setup_time.py"), str(result)], 60)
        if code != 0:
            raise SetupError("setup_time.py failed: " + (WORK / "stderr.txt").read_text()[-2000:])
        data = json.loads(result.read_text())
        raw.append(data["imported_at"] - start)
        scaled.append(raw[-1] * speed.scale(data["samples"]))
    return raw, scaled


def quantile_line(name: str, values: list[float]) -> str:
    if len(values) < 2:
        return f"{name}: n={len(values)} values={values}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{name}: n={len(values)} median={q2:.4f} q1={q1:.4f} q3={q3:.4f}"


def job_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_JOB_S[workload]))


def run_untraced(workload: str, seed: int, seconds: float, reference: dict) -> dict:
    raw_setup: list[float] = []
    setup: list[float] = []
    jobs: list[JobRun] = []
    deadline = time.perf_counter() + PROCESS_LIMIT_S
    # closed loop, one job at a time
    for processes in make_jobs(workload, seed, reference, job_count(workload, seconds)):
        raw, scaled = measure_setup()
        raw_setup += raw
        setup += scaled
        jobs.append(run_job(processes, False, deadline))
    raw, scaled = measure_setup()
    raw_setup += raw
    setup += scaled
    walls = [j.scaled_s for j in jobs]
    print(quantile_line("unscaled setup_s", raw_setup))
    print(quantile_line("unscaled wall_s", [j.wall_s for j in jobs]))
    print(quantile_line("setup_s", setup))
    print(quantile_line("wall_s", walls))
    attempted = sum(j.attempted for j in jobs)
    ok = sum(j.ok for j in jobs)
    metrics = {
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(j.units / wall for j, wall in zip(jobs, walls)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in jobs),
        "ok_ratio": ok / attempted,
    }
    return {
        "attempted": attempted,
        "failed": attempted - ok,
        "problems": [p for j in jobs for p in j.problems],
        "errors": [e for j in jobs for e in j.errors],
        "metrics": metrics,
    }


def run_traced(workload: str, seed: int, reference: dict) -> dict:
    processes = make_jobs(workload, seed, reference, 1)[0]
    deadline = time.perf_counter() + PROCESS_LIMIT_S
    plain = run_job(processes, False, deadline)
    traced = run_job(processes, True, deadline)
    errors = plain.errors + traced.errors
    if traced.outputs != plain.outputs:
        errors.append("traced outputs differ from untraced outputs")
    snap = tracer.merge(traced.snapshots)
    if snap["missing"]:
        print("untraced (not found): " + ", ".join(snap["missing"]))
    metrics = tracer.layer_metrics(snap)
    metrics["trace.overhead_ratio"] = traced.scaled_s / plain.scaled_s
    if metrics["identities.points"]:
        print("slowest catalog entries, in catalog order:")
        print("\n".join(tracer.entry_table(snap)))
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.attempted + traced.attempted - plain.ok - traced.ok,
        "problems": plain.problems + traced.problems,
        "errors": errors,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "export", "dobinski"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    WORK.mkdir(exist_ok=True)
    try:
        cpu = pin_to_one_cpu()
        check_checkout()
        env = environment(cpu)
        print("environment: " + json.dumps(env))
        if args.trace:
            run = run_traced(args.workload, args.seed, reference)
            wanted = spec["per_layer"]
        else:
            run = run_untraced(args.workload, args.seed, args.seconds, reference)
            wanted = spec["end_to_end"]
        print("loadavg at end: " + json.dumps([round(v, 2) for v in os.getloadavg()]))
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in run["errors"] + run["problems"]:
        print("FAILED " + problem)
    # A failed Dobinski point is the program refusing or missing its
    # tolerance and counts only as a failed operation; on the exact
    # workloads every failed operation is a wrong output.
    correct = not run["errors"] and (args.workload == "dobinski" or not run["problems"])
    metrics = {
        m["name"]: {"value": run["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
