"""Command-line front end: triangle export, evaluation, verification, Dobinski.

Exit codes: 0 success, 1 identity failure (or Dobinski outside tolerance),
2 usage error, an arithmetic error such as a float overflow, an --out path
that cannot be written, or a stdout that cannot be written (a closed pipe, a
full disk).  Output goes to stdout unless --out is given, in which case the
file is written atomically (temp file + rename) with the mode a new file
gets from the umask.  A triangle is written row by row as it is rendered:
if rendering fails part way, stdout holds a prefix of the document, while
--out leaves the target as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional

from .exact import LambdaPoly
from .stirling import Family
from .whitney import DobinskiRequest, build_triangle, dobinski_eval, family_rows
from .identities import CATALOG, all_passed, report_document, run_identity, verify_all

FAMILY_ALIASES = {
    "W": Family.WDEG,
    "V": Family.VDEG,
    "WR": Family.WDEG_R,
    "VR": Family.VDEG_R,
}

FORMATS = ("csv", "json", "latex")


class UsageError(Exception):
    pass


def _parse_family(text: str) -> Family:
    if text in FAMILY_ALIASES:
        return FAMILY_ALIASES[text]
    try:
        return Family(text)
    except ValueError:
        names = ", ".join([f.value for f in Family] + list(FAMILY_ALIASES))
        raise UsageError(f"unknown family {text!r}; choose one of: {names}")


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational like 3 or -1/4, got {text!r}")


def _parse_int_set(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        raise UsageError(f"{what} must not be empty")
    return values


def latex_poly(text: str) -> str:
    """Canonical grammar -> LaTeX body."""
    return text.replace("l", "\\lambda")


def _entry_strings(cfg: argparse.Namespace) -> Iterator[list[str]]:
    """The entry strings of the triangle, one row list at a time.

    The rows are drawn from the family's row generator as they are rendered,
    so one row is held at a time and no row store is filled.  The generator
    is made by this call, which checks m and r, so every argument error is
    raised before any output is opened.
    """
    rows = islice(family_rows(cfg.family, cfg.m, cfg.r), cfg.n_max + 1)
    lam = cfg.lam
    if lam is None:
        return (list(map(str, row)) for row in rows)
    return ([str(value.eval(lam)) for value in row] for row in rows)


def _render_triangle(cfg: argparse.Namespace) -> Iterator[str]:
    """The export document in ``cfg.fmt`` as text chunks, one row per chunk."""
    rows = _entry_strings(cfg)
    if cfg.fmt == "csv":
        return (", ".join(row) + "\n" for row in rows)
    if cfg.fmt == "latex":
        return (" & ".join(map(latex_poly, row)) + " \\\\\n" for row in rows)
    return _json_chunks(cfg, rows)


def _json_chunks(cfg: argparse.Namespace, rows: Iterator[list[str]]) -> Iterator[str]:
    """``json.dumps(document, indent=2) + "\n"``, written out one row at a time.

    The row list and every row are non-empty, so none of them is the
    one-line ``[]`` that ``json.dumps`` writes for an empty list.
    """
    header = {
        "family": cfg.family.value,
        "m": cfg.m,
        "r": cfg.r,
        "lambda": "symbolic" if cfg.lam is None else str(cfg.lam),
        "n_max": cfg.n_max,
    }
    yield json.dumps(header, indent=2)[: -len("\n}")] + ',\n  "rows": ['
    separator = "\n"
    for row in rows:
        yield separator + "    [\n      " + ",\n      ".join(map(json.dumps, row)) + "\n    ]"
        separator = ",\n"
    yield "\n  ]\n}\n"


def _umask() -> int:
    # os.umask reads the mask only by setting it, so set it back at once
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _discard_stdout(stdout) -> None:
    """Point the stdout descriptor at devnull once a write to it failed, so
    the interpreter's flush at exit does not fail again and print a warning."""
    try:
        fd = stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind it, such as an in-process capture
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_output(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the text ``chunks`` (a str is one chunk) to stdout, or to ``out``.

    Each chunk is written as it comes.  ``out`` is written to a temp file in
    its directory that is renamed onto it at the end, so a failure at any
    point leaves ``out`` as it was and removes the temp file.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if out is None:
        stdout = sys.stdout
        try:
            for chunk in chunks:
                stdout.write(chunk)
            stdout.flush()
        except OSError as exc:
            _discard_stdout(stdout)
            raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    directory = os.path.dirname(os.path.abspath(out))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".dowlab-")
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file 0600; give it what open() gives a new file
            os.fchmod(fd, 0o666 & ~_umask())
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, out)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


@contextmanager
def _unlimited_int_str() -> Iterator[None]:
    """Lift the interpreter's limit on the digits of int <-> str conversions
    (CPython 3.11 and later; 4300 by default) for the duration, so that exact
    results of any size render.  The limit is process-wide, so it is restored
    afterwards: inputs are parsed under it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# -- subcommands --------------------------------------------------------------


def cmd_triangle(cfg: argparse.Namespace) -> int:
    with _unlimited_int_str():
        _write_output(_render_triangle(cfg), cfg.out)
    return 0


def cmd_eval(cfg: argparse.Namespace) -> int:
    if cfg.poly is not None:
        try:
            value = LambdaPoly.parse(cfg.poly)
        except ValueError as exc:
            raise UsageError(str(exc))
    else:
        triangle = build_triangle(cfg.family, cfg.m, cfg.r, max(cfg.n, 0))
        try:
            value = triangle.value(cfg.n, cfg.k)
        except IndexError as exc:
            raise UsageError(str(exc))
    with _unlimited_int_str():
        text = str(value) if cfg.lam is None else str(value.eval(cfg.lam))
        _write_output(text + "\n", cfg.out)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.ident is not None:
        if cfg.ident not in CATALOG:
            raise UsageError(f"unknown identity id {cfg.ident!r}")
        reports = [run_identity(cfg.ident, cfg.n_max, cfg.m_set, cfg.r_set, cfg.seed)]
    else:
        reports = verify_all(cfg.n_max, cfg.m_set, cfg.r_set, cfg.seed)
    document = report_document(reports, cfg.n_max, cfg.m_set, cfg.r_set, cfg.seed)
    _write_output(json.dumps(document, indent=2) + "\n", cfg.out)
    return 0 if all_passed(reports) else 1


def cmd_dobinski(cfg: argparse.Namespace) -> int:
    request = DobinskiRequest(
        m=cfg.m, n=cfg.n, x=cfg.x, lam=cfg.lam, terms=cfg.terms, tol=cfg.tol
    )
    truncated, exact = dobinski_eval(request)
    diff = abs(truncated - exact)
    ok = request.passes(truncated, exact)
    status = "pass" if ok else "fail"
    if cfg.fmt == "json":
        line = json.dumps(
            {"truncated": truncated, "exact": exact, "diff": diff, "tol": cfg.tol, "status": status}
        )
    else:
        line = f"truncated={truncated!r} exact={exact!r} diff={diff:.3e} tol={cfg.tol:g} {status}"
    _write_output(line + "\n", cfg.out)
    return 0 if ok else 1


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dowlab",
        description="Exact degenerate Whitney/Stirling/Dowling number toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options that mean the same in every subcommand that takes them: --out,
    # and the triangle and lambda whose entries triangle and eval print
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    entry = argparse.ArgumentParser(add_help=False)
    entry.add_argument("--m", type=int, default=1)
    entry.add_argument("--r", type=int, default=1)
    entry.add_argument("--lambda", dest="lam", default=None, metavar="Q")
    entry.add_argument("--symbolic", action="store_true")

    tri = sub.add_parser("triangle", parents=[entry, out], help="export one triangle family")
    tri.add_argument("--family", required=True)
    tri.add_argument("--n-max", type=int, required=True)
    tri.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")

    ev = sub.add_parser(
        "eval", parents=[entry, out], help="evaluate a polynomial or a triangle entry"
    )
    ev.add_argument("--poly", default=None, help="polynomial in the canonical grammar")
    ev.add_argument("--family", default=None)
    ev.add_argument("--n", type=int, default=0)
    ev.add_argument("--k", type=int, default=0)

    ver = sub.add_parser("verify", parents=[out], help="run the identity catalog")
    ver.add_argument("--id", dest="ident", default=None)
    ver.add_argument("--n-max", type=int, default=8)
    ver.add_argument("--m-set", default="1,2,3")
    ver.add_argument("--r-set", default="1,2,3")
    ver.add_argument("--seed", type=int, default=0)

    dob = sub.add_parser("dobinski", parents=[out], help="truncated series vs exact Dowling value")
    dob.add_argument("--m", type=int, required=True)
    dob.add_argument("--n", type=int, required=True)
    dob.add_argument("--x", required=True)
    dob.add_argument("--lambda", dest="lam", required=True, metavar="Q")
    dob.add_argument("--terms", type=int, default=200)
    dob.add_argument("--tol", type=float, default=1e-9)
    dob.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check ``args`` and convert their values in place; the namespace is the
    command's config.  When several arguments are bad, the first check that
    fails, in the order below, gives the error."""
    if args.command in ("triangle", "eval"):
        if args.command == "eval" and (args.poly is None) == (args.family is None):
            raise UsageError("eval needs exactly one of --poly or --family")
        if args.family is not None:
            args.family = _parse_family(args.family)
        if args.command == "triangle" and args.n_max < 0:
            raise UsageError("--n-max must be >= 0")
        if args.lam is not None and args.symbolic:
            raise UsageError("--lambda and --symbolic are mutually exclusive")
        if args.lam is not None:
            args.lam = _parse_rational(args.lam, "--lambda")
    elif args.command == "verify":
        args.m_set = _parse_int_set(args.m_set, "--m-set")
        args.r_set = _parse_int_set(args.r_set, "--r-set")
        if args.n_max < 0:
            raise UsageError("--n-max must be >= 0")
    elif args.command == "dobinski":
        args.x = _parse_rational(args.x, "--x")
        if args.lam == "symbolic":
            raise UsageError("dobinski needs a numeric --lambda")
        args.lam = _parse_rational(args.lam, "--lambda")
        if args.terms < 1:
            raise UsageError("--terms must be >= 1")
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise UsageError("--tol must be positive and finite")
    return args


COMMANDS = {
    "triangle": cmd_triangle,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "dobinski": cmd_dobinski,
}


# Options whose value may be negative: the rationals, and --tol, which then
# gets its own error.  argparse reads a value such as -5/2, -1e3 or -inf
# after a space as an option of its own, so such a pair is joined into
# --x=-5/2 before parsing.
SIGNED_OPTIONS = ("--x", "--lambda", "--tol")


def _join_negative_values(argv: list[str]) -> list[str]:
    out = list(argv)
    i = 0
    while i < len(out) - 1:
        value = out[i + 1]
        if out[i] in SIGNED_OPTIONS and value.startswith("-") and not value.startswith("--"):
            out[i : i + 2] = [f"{out[i]}={value}"]
        i += 1
    return out


# The parser of this process, built by the first ``main`` call; parsing does
# not change it, so later calls (and calls after a usage error or --help)
# reuse it.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, IndexError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
