"""Command-line front end: triangle export, evaluation, verification, Dobinski.

Exit codes: 0 success, 1 identity failure (or Dobinski outside tolerance),
2 usage error, an arithmetic error such as a float overflow, memory running
out, an --out path that cannot be written, or a stdout that cannot be written
(a closed pipe, a full disk).  Output goes to stdout unless --out is given,
in which case the file is written atomically (temp file + rename) with the
mode a new file gets from the umask.  A triangle is written row by row as it is rendered:
if rendering fails part way, stdout holds a prefix of the document, while
--out leaves the target as it was.  ``verify`` also writes a line per
catalog entry to stderr as the entry finishes, when stderr is a terminal, and
a failing ``dobinski`` one note on the size of the first omitted term.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from types import ModuleType
from typing import Iterable, Iterator, Optional

from .exact import LambdaPoly


def _lazy_module(name: str) -> ModuleType:
    """The module ``dowlab.<name>``, put in sys.modules now and run on its
    first attribute read (importlib's LazyLoader); a module already in
    sys.modules is returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        loader.exec_module(module)
    return module


# The import graph of the commands, described here and nowhere else.
# ``import dowlab.cli`` runs only ``dowlab``, ``exact`` and ``cli``, and each
# command runs what it reads: ``triangle`` and ``eval`` the export table
# ``families`` with the row route ``newton``; ``dobinski`` the evaluator
# ``dobinski`` with ``newton``; ``verify`` every module, ``whitney`` with
# ``bases``, ``series`` and ``stirling``, and the catalog's ``identities`` and
# ``bernoulli_euler``.  No module that
# ``triangle``, ``eval`` or ``dobinski`` runs imports ``dataclasses`` (and with
# it ``inspect``, ``ast`` and ``tokenize``).  The CLI registers every other
# module here, to run on its first attribute read, for the benchmark's tracer:
# it wraps the span targets of the modules in sys.modules after ``import
# dowlab.cli``, and its first read of a lazy module runs it.  A module left out
# would be loaded by another after the tracer looked, and its spans would go
# unwrapped.  Once the tracer imports the modules itself, these become plain
# imports inside the commands.  Under CPython 3.11 a lazy module is not safe
# when two threads race its first read; the CLI reads it from one thread.
for _name in ("newton", "bases", "series", "stirling", "whitney", "bernoulli_euler"):
    _lazy_module(_name)
families = _lazy_module("families")
dobinski = _lazy_module("dobinski")
identities = _lazy_module("identities")

# The short names of the four Whitney families, by the value of their Family
FAMILY_ALIASES = {"W": "Wdeg", "V": "Vdeg", "WR": "WdegR", "VR": "VdegR"}

FORMATS = ("csv", "json", "latex")


class UsageError(Exception):
    pass


def _parse_family(text: str) -> families.Family:
    try:
        return families.Family(FAMILY_ALIASES.get(text, text))
    except ValueError:
        names = ", ".join([f.value for f in families.Family] + list(FAMILY_ALIASES))
        raise UsageError(f"unknown family {text!r}; choose one of: {names}")


def _parse_rational(text: str, what: str) -> Fraction:
    # Fraction builds 10^|e| for a decimal exponent e, and no digit limit bounds
    # |e|: it may be ten times the int <-> str digit limit (4300 before CPython
    # 3.11), so that 1e5000 still renders, and is unbounded once that is lifted
    limit = 10 * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if limit and digits.isdigit() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise UsageError(f"{what} must have a decimal exponent of at most {limit}, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational like 3 or -1/4, got {text!r}")


def _parse_int_set(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated integer list, got {text!r}")
    if len(set(values)) != len(values):
        raise UsageError(f"{what} must not repeat a value, got {text!r}")
    return values


def latex_poly(text: str) -> str:
    """Canonical grammar -> LaTeX body."""
    return text.replace("l", "\\lambda")


def _entry_strings(cfg: argparse.Namespace) -> Iterator[list[str]]:
    """The entry strings of the triangle, one row list at a time.

    The rows are drawn from the family's row generator as they are rendered,
    so one row is held at a time and no row store is filled: W at m=3, n_max
    160 peaks near 38 MB where the held triangle took about 119 MB, and with
    ``--lambda 1/2`` at n_max 300 near 40 MB where it took 957 MB.  The time
    still grows as the symbolic triangle, n^3 coefficients.  The generator
    is made by this call, which checks m and r, so every argument error is
    raised before any output is opened.
    """
    rows = islice(families.family_rows(cfg.family, cfg.m, cfg.r), cfg.n_max + 1)
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


def _new_file(directory: str) -> tuple[int, str]:
    """A new file in ``directory`` under a random name, open for writing, and
    its path.  The kernel gives it the mode that ``open()`` gives a new file,
    0o666 less the umask, so the umask is never set, and no thread that makes
    a file meanwhile sees it change."""
    for tries_left in reversed(range(100)):
        path = os.path.join(directory, f".dowlab-{os.urandom(8).hex()}")
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), path
        except FileExistsError:  # the name is taken: draw another
            if not tries_left:
                raise


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
        fd, tmp_path = _new_file(directory)
        with os.fdopen(fd, "w") as handle:
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
        rows = families.family_rows(cfg.family, cfg.m, cfg.r)  # refuses a bad m or r first
        if not 0 <= cfg.k <= cfg.n:
            raise UsageError(f"({cfg.n}, {cfg.k}) outside triangle of size {max(cfg.n, 0)}")
        value = next(islice(rows, cfg.n, None))[cfg.k]
    with _unlimited_int_str():
        text = str(value) if cfg.lam is None else str(value.eval(cfg.lam))
        _write_output(text + "\n", cfg.out)
    return 0


def _entry_lines(report, seconds: float) -> str:
    """An entry's progress line, then its finding and counterexample, indented."""
    text = f"{report.status:18s} {report.id:24s} ({report.params_tested} points, {seconds:.3f}s)\n"
    if report.finding:
        text += f"{'':18s} finding: {report.finding}\n"
    if report.counterexample:
        text += f"{'':18s} counterexample: {json.dumps(report.counterexample)}\n"
    return text


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.ident is not None and cfg.ident not in identities.CATALOG:
        raise UsageError(f"unknown identity id {cfg.ident!r}")
    # a person at a terminal sees each entry as it finishes; a pipe or a file
    # as stderr gets nothing, and the report is the same either way
    progress = sys.stderr if sys.stderr.isatty() else None
    reports = []
    started = time.perf_counter()
    for ident in identities.CATALOG if cfg.ident is None else (cfg.ident,):
        entry_started = time.perf_counter()
        reports.append(identities.run_identity(ident, cfg.n_max, cfg.m_set, cfg.r_set, cfg.seed))
        if progress is not None:
            progress.write(_entry_lines(reports[-1], time.perf_counter() - entry_started))
    elapsed = time.perf_counter() - started
    document = identities.report_document(reports, cfg.n_max, cfg.m_set, cfg.r_set, cfg.seed)
    _write_output(json.dumps(document, indent=2) + "\n", cfg.out)
    if progress is not None:
        progress.write(f"\n{len(reports)} identities in {elapsed:.1f}s -> {cfg.out or 'stdout'}\n")
    return 0 if identities.all_passed(reports) else 1


def cmd_dobinski(cfg: argparse.Namespace) -> int:
    request = dobinski.DobinskiRequest(
        m=cfg.m, n=cfg.n, x=cfg.x, lam=cfg.lam, terms=cfg.terms, tol=cfg.tol
    )
    result = dobinski.dobinski_eval(request)
    status = "pass" if result.passed else "fail"
    if cfg.fmt == "json":
        line = json.dumps({"truncated": result.truncated, "exact": result.exact,
                           "diff": result.diff, "tol": cfg.tol, "status": status})
    else:
        line = (f"truncated={result.truncated!r} exact={result.exact!r} diff={result.diff:.3e}"
                f" tol={cfg.tol:g} {status}")
    _write_output(line + "\n", cfg.out)
    if not result.passed:
        term = dobinski.omitted_term(request)
        sys.stderr.write(
            f"note: the first omitted term e^-z z^T/T! F(T), at T = {cfg.terms},"
            f" has size {term or 0:.3e}, and the tail from T on is at least --tol:"
            " more --terms are needed\n"  # a Decimal zero would print its exponent
        )
    return 0 if result.passed else 1


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


def _check_size(option: str, count: int) -> None:
    """Refuse a count at sys.maxsize and above before the run starts: islice's
    indices stop there, and no run that long ends before memory or time does."""
    if count >= sys.maxsize:
        raise UsageError(f"{option} must be below {sys.maxsize}")


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check ``args`` and convert their values in place; the namespace is the
    command's config.  When several arguments are bad, the first check that
    fails, in the order below, gives the error."""
    if args.command in ("triangle", "eval"):
        if args.command == "eval" and (args.poly is None) == (args.family is None):
            raise UsageError("eval needs exactly one of --poly or --family")
        if args.family is not None:
            args.family = _parse_family(args.family)
        option, count = ("--n-max", args.n_max) if args.command == "triangle" else ("--n", args.n)
        if args.command == "triangle" and count < 0:
            raise UsageError("--n-max must be >= 0")
        if args.family is not None:
            _check_size(option, count)
        if args.lam is not None and args.symbolic:
            raise UsageError("--lambda and --symbolic are mutually exclusive")
        if args.lam is not None:
            args.lam = _parse_rational(args.lam, "--lambda")
    elif args.command == "verify":
        args.m_set = _parse_int_set(args.m_set, "--m-set")
        args.r_set = _parse_int_set(args.r_set, "--r-set")
        if args.n_max < 0:
            raise UsageError("--n-max must be >= 0")
        _check_size("--n-max", args.n_max)
    elif args.command == "dobinski":
        args.x = _parse_rational(args.x, "--x")
        if args.lam == "symbolic":
            raise UsageError("dobinski needs a numeric --lambda")
        args.lam = _parse_rational(args.lam, "--lambda")
        if args.terms < 1:
            raise UsageError("--terms must be >= 1")
        _check_size("--n", args.n)
        _check_size("--terms", args.terms)
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise UsageError("--tol must be positive and finite")
    return args


COMMANDS = {
    "triangle": cmd_triangle,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "dobinski": cmd_dobinski,
}


# Options whose value may start with a minus: the rationals, a polynomial
# such as -l, the integer sets, and --tol, which then gets its own error.
# argparse reads a value such as -5/2, -1e3, -l or -1,2 after a space as an
# option of its own, so such a pair is joined into --x=-5/2 before parsing.
SIGNED_OPTIONS = ("--x", "--lambda", "--tol", "--poly", "--m-set", "--r-set")


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
    except (UsageError, ValueError, IndexError, ArithmeticError) as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"  # written once the handler has let go of the frames
    sys.stderr.write(f"error: {message}\n")
    return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
