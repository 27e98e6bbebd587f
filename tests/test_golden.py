"""Byte-identity guard: SHA-256 digests of exported text that must never change.

The triangle and Bernoulli/Euler digests were taken from the
Fraction-per-coefficient implementation of ``LambdaPoly``, before the
integer-numerator kernel replaced it; the ``verify`` digests were taken
before the memo caches of the catalog's sub-terms were added, and the
n_max 10 one before the catalog's sums moved onto ``exact.dot``; the
Dobinski digest before its quotient was rounded from integers; the JSON and
LaTeX triangle digests before the export was streamed row by row; the
large-x Dobinski digest before the truncated sum moved from one backward
Horner pass to binary splitting; the S1, S2, S1deg, S2deg, S1degR, S2degR, V
and WR digests before the Newton kernel took its linear factors as pairs
over a ring given as a parameter; the verify digest at n_max 16 before the
exact kernel took fast paths for integral and one-coefficient operands.  Any
change that alters one byte of a symbolic or rational result fails here in
seconds.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import math
import pkgutil
from fractions import Fraction

import pytest

import dowlab
from dowlab import cli
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

# The command of the verify workload in perfbench/run.py, at seed 3.
VERIFY_N10 = (
    ["--n-max", "10", "--m-set", "1,2,3", "--r-set", "1,2,3", "--seed", "3"],
    "6571fe5787718d9e492c4ab7d0cff74be251a375e28af191a01380398b329e94",
)

# `dowlab verify --n-max 16 --seed 0` with the default m and r sets: past
# the benchmark's n_max 10, where more of the catalog's operands have
# several coefficients.
VERIFY_N16 = (
    ["--n-max", "16", "--seed", "0"],
    "8b68cdbcfa664d89841a86d8c4faa052d2780d614d20a7c55e2ca1caacc8d01b",
)


# `dowlab dobinski --format json` over this grid, one process, in this order;
# terms = ceil(e |x| / m) + 100 as in the benchmark's sweeps.
DOBINSKI_GRID = (
    (1, 2, 3),
    (0, 4, 8),
    ("-5/2", "1/100", "7", "150", "9871/10"),
    ("0", "1/3", "-3/7"),
)
DOBINSKI_DIGEST = "028d7f39f6e67b13d89e6b6db6f9573d0d6725eda629501f302b4d8131ad6980"

# The same command at large x, where the sum runs to tens of thousands of
# terms; the product is taken in the order x, n, m, lambda.
DOBINSKI_LARGE_X_GRID = ((2500, 10000), (0, 8), (1, 3), ("0", "1/3"))
DOBINSKI_LARGE_X_DIGEST = "2b3633fb48e66d89e89cc3b984068b18fe62bba48d2e7c41b81e835d68d6c1d1"


def module_caches() -> dict:
    """Every object with ``cache_info`` bound in a dowlab module, by name."""
    caches = {}
    for info in pkgutil.iter_modules(dowlab.__path__):
        module = importlib.import_module(f"dowlab.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                # two caches under one name would hide one of them from the test
                assert caches.setdefault(value.__name__, value) is value, value.__name__
    return caches


# Memo caches of repeated sub-terms and row stores; each must stay bounded.
CACHES = module_caches()


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


@pytest.mark.parametrize("seed", sorted(VERIFY))
def test_verify_report_digest(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--n-max", "6", "--seed", str(seed)]) == 0
    assert sha256(out.getvalue()) == VERIFY[seed]


def test_verify_report_digest_at_n_max_10():
    args, digest = VERIFY_N10
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", *args]) == 0
    assert sha256(out.getvalue()) == digest


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


def test_cache_discovery_finds_the_known_caches():
    known = {"_factorial_product", "_bell_row_sum", "_row_sum", "_forward_differences"}
    known |= {"whitney2_rows", "r_whitney1_rows", "_stirling1_rows", "deg_r_stirling2_rows"}
    known |= {"_t8_outer", "_t8_inner", "_t18_inner", "_thm16_inner"}
    assert known <= set(CACHES)


def test_non_integer_coefficients_digest():
    # No exported triangle has a non-integer symbolic coefficient, so the
    # Bernoulli and Euler rows stand in: their coefficients have mixed
    # denominators such as 1/6, 49/4 and 863/12.
    lines = [str(deg_bernoulli(n, k)) for k in (1, 2, 3) for n in range(13)]
    lines += [str(deg_euler(n, Fraction(1, 2))) for n in range(13)]
    text = "".join(line + "\n" for line in lines)
    assert sha256(text) == "65f20ed2bea4e3ce3cacf4bda1a4dd51ef4ca8e84c88835cab259b21312be5cd"
