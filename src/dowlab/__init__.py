"""Exact arithmetic for degenerate Whitney, Stirling, Dowling, Bernoulli and
Euler number families, with an identity engine that cross-checks every
family along independent computation routes.  Each route is one module that
reads only ``exact``: ``newton``, which builds every row triangle, and
``series``, which extracts them from generating functions; ``stirling`` and
``whitney`` read their triangles off both, ``families`` reads each exported
triangle off ``newton``, and ``dobinski``, the one inexact path, reads the W
rows of ``newton``.

The names listed in ``__all__`` load their defining module on first read
(PEP 562): ``import dowlab`` runs none of the modules, ``dowlab.whitney2``
imports ``dowlab.whitney`` and what it needs, ``dowlab.dobinski_eval`` runs
only ``exact``, ``newton`` and ``dobinski``, and ``import dowlab.exact``
runs only ``exact``.  The submodules ``dowlab.exact`` ... ``dowlab.identities``
also resolve after a bare ``import dowlab``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module of the package and the public names it defines.
_EXPORTS = {
    "exact": ("LAMBDA", "LambdaPoly"),
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
    "newton": (),
    "families": ("Family",),
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
        "deg_bell",
        "deg_bell_number",
        "deg_stirling1",
        "deg_stirling2",
        "stirling1",
        "stirling2",
    ),
    "dobinski": ("DobinskiRequest", "dobinski_eval"),
    "whitney": (
        "build_triangle",
        "dowling_number",
        "dowling_poly",
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
