"""Byte-identity guard: SHA-256 digests of exported text that must never change.

The triangle and Bernoulli/Euler digests were taken from the
Fraction-per-coefficient implementation of ``LambdaPoly``, before the
integer-numerator kernel replaced it; the ``verify`` digests were taken
before the memo caches of the catalog's sub-terms were added, and the
n_max 10 ones are the benchmark's own, read from ``perfbench/reference.json``;
the Dobinski digest before its quotient was rounded from integers; the JSON and
LaTeX triangle digests before the export was streamed row by row; the
large-x Dobinski digest before the truncated sum moved from one backward
Horner pass to binary splitting; the S1, S2, S1deg, S2deg, S1degR, S2degR, V
and WR digests before the Newton kernel took its linear factors as pairs
over a ring given as a parameter; the verify digest at n_max 16 before the
exact kernel took fast paths for integral and one-coefficient operands.  Both
Dobinski digests were taken again when ``diff`` came to be printed from the
exact bracket of the difference rather than from two doubles; their
``truncated``, ``exact`` and ``status`` fields are those of the earlier digests.
Any change that alters one byte of a symbolic or rational result fails here in
seconds.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dowlab.identities  # loads every module that makes a cache
from dowlab import cli, exact
from dowlab.bernoulli_euler import deg_bernoulli, deg_euler

TRIANGLES = {
    "W m=3 n_max=30 symbolic": (
        ["--family", "W", "--m", "3", "--n-max", "30", "--symbolic"],
        "21cfc22a2a2295ac2f2f6bef4f31074466e90c0020bb6f6766705366da249777",
    ),
    "VR m=2 r=3 n_max=20 symbolic": (
        ["--family", "VR", "--m", "2", "--r", "3", "--n-max", "20", "--symbolic"],
        "6513bcf9d4abd0e4799e7c2c6f490d463e38760fd42c262e019eebcaa233a219",
    ),
    "W m=3 n_max=20 at l=1/3": (
        ["--family", "W", "--m", "3", "--n-max", "20", "--lambda", "1/3"],
        "6360237899e26a02dc0a6d7ad7decd48774047e9ac92a1ba24862d8392e9d6e9",
    ),
    "S1 n_max=25 symbolic": (
        ["--family", "S1", "--n-max", "25", "--symbolic"],
        "29f9313fc7909efc4e48aaefe5b009326144873cf4b2c5b53630a5fe12c41592",
    ),
    "S2 n_max=25 symbolic": (
        ["--family", "S2", "--n-max", "25", "--symbolic"],
        "e48d4f7565f9f893ce14f1d5c43a29f504a50b72b65f4badc3ed474a6feff801",
    ),
    "S1deg n_max=20 symbolic": (
        ["--family", "S1deg", "--n-max", "20", "--symbolic"],
        "8a616c244820cf7de3799fe80137ffc2645d3ce2be241f5f0e89cfb1b2c99ced",
    ),
    "S2deg n_max=20 symbolic": (
        ["--family", "S2deg", "--n-max", "20", "--symbolic"],
        "4d7da85e08e3ade6f31cf234b3f59afec35463a78efccc893578979cd75a47e8",
    ),
    "S1degR r=0 n_max=20 symbolic": (
        ["--family", "S1degR", "--r", "0", "--n-max", "20", "--symbolic"],
        "f5ca121791a75f269c024f300e3f62102c75a87a9577b242a2a195d0f899f0ba",
    ),
    "S1degR r=2 n_max=20 symbolic": (
        ["--family", "S1degR", "--r", "2", "--n-max", "20", "--symbolic"],
        "311f48b47c6e5569552fd847f7c61447b0454d99cd9e519332ffa8b236b2ed99",
    ),
    "S2degR r=2 n_max=20 symbolic": (
        ["--family", "S2degR", "--r", "2", "--n-max", "20", "--symbolic"],
        "8b4964dd6243ce6ce1c0e5fac4047b58f00416e347bdf57b25b8d0d71494745a",
    ),
    "V m=3 n_max=20 symbolic": (
        ["--family", "V", "--m", "3", "--n-max", "20", "--symbolic"],
        "92886c91d6b71fd8991eadf012df465861828c94768c5c2a54c4e43bff6d84ef",
    ),
    "WR m=3 r=2 n_max=20 symbolic": (
        ["--family", "WR", "--m", "3", "--r", "2", "--n-max", "20", "--symbolic"],
        "0783db45fff3280b6cce4283ca7b2a0b1a3343a1780e1e5f45c26f0ae76d55d1",
    ),
    "WR m=3 r=2 n_max=20 at l=-3/7": (
        ["--family", "WR", "--m", "3", "--r", "2", "--n-max", "20", "--lambda", "-3/7"],
        "d865d47be6d5f4837c078c8c5d14452b523b53a7a7614f2ac19a2b7f1296fab7",
    ),
}

# Two of the triangles above in the other export formats.
TRIANGLE_FORMATS = {
    ("W m=3 n_max=30 symbolic", "json"):
        "5364d4b565f8e558e67e727ac625155adb284d36cbb97e3a6ea2150126028642",
    ("W m=3 n_max=30 symbolic", "latex"):
        "07ded32d62f1725bde9701447cbb72fb7e0d8a6ae9fa061c765a4a22e5b421ef",
    ("W m=3 n_max=20 at l=1/3", "json"):
        "caea7b9056379086125961b717fdd1c9c4d7934f5e649cd0b85ed38fd32447bb",
    ("W m=3 n_max=20 at l=1/3", "latex"):
        "260aad02ad69b886266602c3f794581087aecee70d483e6fc090e637a47f1d03",
}

# `dowlab verify --n-max 6 --seed S` with the default m and r sets.
VERIFY = {
    0: "1eb95e0bf91ce2715df0490b71e8e8278866465dc208918efc05262480dee56b",
    7: "a1a79bb199a2b14e211dc1af7fcdb5443eaa4915b57d9f296565c3562d7019c5",
}

# `dowlab verify --n-max 16 --seed 0` with the default m and r sets: past
# the benchmark's n_max 10, where more of the catalog's operands have
# several coefficients.
VERIFY_N16 = (
    ["--n-max", "16", "--seed", "0"],
    "8b68cdbcfa664d89841a86d8c4faa052d2780d614d20a7c55e2ca1caacc8d01b",
)


# The commands of the export workload in perfbench/run.py, under the keys of
# their digests in perfbench/reference.json, which is read as data: W at
# r = 1 and VR at r = 1, 2, 3, both from the Newton kernels, at the sizes the
# benchmark runs.
BENCHMARK_EXPORTS = {
    "W-m3-n80": ["--family", "W", "--m", "3", "--n-max", "80"],
    **{
        f"VR-m3-r{r}-n40": ["--family", "VR", "--m", "3", "--r", str(r), "--n-max", "40"]
        for r in (1, 2, 3)
    },
}
BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# The verify seeds of perfbench/reference.json, whose digests are read as data
# too; each runs the command of the verify workload in perfbench/run.py.
BENCHMARK_VERIFY_SEEDS = tuple(range(8))

# `dowlab dobinski --format json` over this grid, one process, in this order;
# terms = ceil(e |x| / m) + 100 as in the benchmark's sweeps.
DOBINSKI_GRID = (
    (1, 2, 3),
    (0, 4, 8),
    ("-5/2", "1/100", "7", "150", "9871/10"),
    ("0", "1/3", "-3/7"),
)
DOBINSKI_DIGEST = "8cb994ba556cc87f862cf83b6b80401006f9367946816cf5782cf89401d8a319"

# The same command at large x, where the sum runs to tens of thousands of
# terms; the product is taken in the order x, n, m, lambda.
DOBINSKI_LARGE_X_GRID = ((2500, 10000), (0, 8), (1, 3), ("0", "1/3"))
DOBINSKI_LARGE_X_DIGEST = "56319bc990c3b3d15fa8f26a06f87cb9cb4ad9dc807bee143337498929c41df6"


# Memo caches of repeated sub-terms and row stores, by name; each must stay bounded.
CACHES = {cache.__name__: cache for cache in exact.CACHES}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TRIANGLES))
def test_triangle_export_digest(case):
    args, digest = TRIANGLES[case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["triangle", *args]) == 0
    assert sha256(out.getvalue()) == digest


@pytest.mark.parametrize("case, fmt", sorted(TRIANGLE_FORMATS))
def test_triangle_format_digest(case, fmt):
    args, _ = TRIANGLES[case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["triangle", *args, "--format", fmt]) == 0
    assert sha256(out.getvalue()) == TRIANGLE_FORMATS[case, fmt]


def test_benchmark_exports_cover_the_reference():
    assert sorted(BENCHMARK_EXPORTS) == sorted(json.loads(BENCHMARK_REFERENCE.read_text())["export"])


@pytest.mark.parametrize("key", sorted(BENCHMARK_EXPORTS))
def test_benchmark_export_digest(key, tmp_path):
    digest = json.loads(BENCHMARK_REFERENCE.read_text())["export"][key]
    out = tmp_path / f"{key}.csv"
    argv = ["triangle", *BENCHMARK_EXPORTS[key], "--symbolic", "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", sorted(VERIFY))
def test_verify_report_digest(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--n-max", "6", "--seed", str(seed)]) == 0
    assert sha256(out.getvalue()) == VERIFY[seed]


def test_memos_change_no_result(monkeypatch):
    # Every memo is bound to the function it wraps, in every module that
    # binds it, so each sub-term is computed afresh; the row stores stay,
    # since the Newton route's rows are their contents.  The report is the
    # default one byte for byte, so a memo may be deleted without changing a
    # result.
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("dowlab.")]
    stores = {
        fn.cache_info.__self__ for m in modules for fn in vars(m).values() if hasattr(fn, "entry")
    }
    memos = {id(cache): cache for cache in exact.CACHES if cache not in stores}
    unbound = set()
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in memos:
                monkeypatch.setattr(module, name, value.__wrapped__)
                unbound.add(id(value))
    assert len(stores) == 4 and unbound == set(memos)
    for cache in exact.CACHES:
        cache.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--n-max", "6", "--seed", "0"]) == 0
    assert [memo.cache_info().misses for memo in memos.values()] == [0] * len(memos)
    assert sha256(out.getvalue()) == VERIFY[0]


def test_benchmark_verify_seeds_cover_the_reference():
    verify = json.loads(BENCHMARK_REFERENCE.read_text())["verify"]
    assert sorted(BENCHMARK_VERIFY_SEEDS) == sorted(map(int, verify))


@pytest.mark.parametrize("seed", BENCHMARK_VERIFY_SEEDS)
def test_benchmark_verify_digest(seed, tmp_path):
    digest = json.loads(BENCHMARK_REFERENCE.read_text())["verify"][str(seed)]
    out = tmp_path / "verify.json"
    argv = ["verify", "--n-max", "10", "--m-set", "1,2,3", "--r-set", "1,2,3", "--seed", str(seed)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_report_digest_at_n_max_16():
    args, digest = VERIFY_N16
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", *args]) == 0
    assert sha256(out.getvalue()) == digest


def test_dobinski_output_digest():
    out = io.StringIO()
    for m, n, x, lam in itertools.product(*DOBINSKI_GRID):
        terms = math.ceil(math.e * abs(Fraction(x)) / m) + 100
        argv = ["dobinski", "--m", str(m), "--n", str(n), "--x", x, "--lambda", lam,
                "--terms", str(terms), "--format", "json"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    assert sha256(out.getvalue()) == DOBINSKI_DIGEST


def test_dobinski_large_x_digest():
    out = io.StringIO()
    for x, n, m, lam in itertools.product(*DOBINSKI_LARGE_X_GRID):
        terms = math.ceil(math.e * x / m) + 100
        argv = ["dobinski", "--m", str(m), "--n", str(n), "--x", str(x), "--lambda", lam,
                "--terms", str(terms), "--format", "json"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    assert sha256(out.getvalue()) == DOBINSKI_LARGE_X_DIGEST


@pytest.mark.parametrize("name", sorted(CACHES))
def test_memo_cache_is_bounded(name):
    maxsize = CACHES[name].cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


def test_non_integer_coefficients_digest():
    # No exported triangle has a non-integer symbolic coefficient, so the
    # Bernoulli and Euler rows stand in: their coefficients have mixed
    # denominators such as 1/6, 49/4 and 863/12.
    lines = [str(deg_bernoulli(n, k)) for k in (1, 2, 3) for n in range(13)]
    lines += [str(deg_euler(n, Fraction(1, 2))) for n in range(13)]
    text = "".join(line + "\n" for line in lines)
    assert sha256(text) == "65f20ed2bea4e3ce3cacf4bda1a4dd51ef4ca8e84c88835cab259b21312be5cd"
