"""Exact arithmetic for degenerate Whitney, Stirling, Dowling, Bernoulli and
Euler number families, with an identity engine that cross-checks every
family along independent computation routes.

The names listed in ``__all__`` load their defining module on first read
(PEP 562): ``import dowlab`` runs none of the modules, ``dowlab.whitney2``
imports ``dowlab.whitney`` and what it needs, and ``import dowlab.exact``
runs only ``exact``.  The submodules ``dowlab.exact`` ... ``dowlab.identities``
also resolve after a bare ``import dowlab``.

``import dowlab.cli`` puts every module in ``sys.modules`` but runs the
catalog's two, ``identities`` and ``bernoulli_euler``, only on their first
attribute read (``importlib.util.LazyLoader``), which only ``verify`` makes.
The registration exists for the benchmark's tracer (``perfbench/tracer.py``),
which wraps the span targets of the modules it finds in ``sys.modules`` after
``import dowlab.cli``; once the tracer imports the modules itself, it becomes
a plain import inside ``cmd_verify``.  Under CPython 3.11 a lazily registered
module is not safe when two threads race its first read.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module of the package and the public names it defines.
_EXPORTS = {
    "exact": ("LAMBDA", "LambdaPoly", "Rational"),
    "bases": (
        "NodeSequence",
        "XPoly",
        "basis_poly",
        "binom",
        "gen_binom",
        "lambda_falling",
        "lambda_rising",
        "newton_convert",
    ),
    "series": (
        "TruncatedSeries",
        "binomial_series",
        "deg_exp",
        "deg_log",
        "gf_triangle",
        "one_series",
        "t_series",
    ),
    "stirling": (
        "Family",
        "deg_bell",
        "deg_bell_number",
        "deg_r_stirling1_unsigned",
        "deg_r_stirling2",
        "deg_stirling1",
        "deg_stirling2",
        "stirling1",
        "stirling2",
    ),
    "whitney": (
        "DobinskiRequest",
        "build_triangle",
        "dobinski_eval",
        "dowling_number",
        "dowling_poly",
        "r_whitney1",
        "r_whitney2",
        "tanny_dowling_poly",
        "whitney1",
        "whitney1_alt",
        "whitney2",
        "whitney2_alt",
    ),
    "bernoulli_euler": ("deg_bernoulli", "deg_bernoulli_gf", "deg_euler"),
    "identities": (
        "CATALOG",
        "IdentityReport",
        "all_passed",
        "report_document",
        "run_identity",
        "verify_all",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module behind ``name`` on its first read and keep the
    value in the package namespace, so later reads are plain lookups."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
