"""Fixtures shared by the test modules.

They are fixtures, not importable helpers, so that no test module imports
another one or this file, whatever pytest's import mode.
"""

import sys

import pytest
from hypothesis import settings

from dowlab import newton, series
from dowlab.bases import basis_poly, newton_convert
from dowlab.exact import CACHES

# Hypothesis profiles.  Tier-1, the default, draws its examples from a seed
# fixed by each test and keeps no example database, so its verdict depends on
# the commit alone.  ``pytest --hypothesis-profile=explore`` draws at random,
# from the seed that ``--hypothesis-seed`` gives if any (pass it to replay a
# run), with five times as many examples; a test that sets its own count
# scales it by the active profile's, so explore raises it too.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=500, deadline=None, print_blob=True)
settings.load_profile("tier1")

# The module that holds each route's code; an explicit formula has none of its own.
ROUTE_MODULES = {"newton": newton, "gf": series, "explicit": None}


def _forbidden(*args, **kwargs):
    raise AssertionError("one triangle route reached the code of another")


def _clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


def _route_bindings(route: str) -> list[tuple[object, str]]:
    """Each (owner, name) that binds, in any loaded dowlab module, a function
    that the module of ``route`` defines.  The product and quotient of the
    series ring count as GF code too: the series oracles of thm3 and thm9
    reach them without ``gf_triangle``."""
    module = ROUTE_MODULES[route]
    if module is None:
        return []
    own = [
        value
        for value in vars(module).values()
        if callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]
    bindings = [
        (loaded, name)
        for key, loaded in sorted(sys.modules.items())
        if key.partition(".")[0] == "dowlab"
        for name, value in vars(loaded).items()
        if any(value is fn for fn in own)
    ]
    if route == "gf":
        bindings += [(series.TruncatedSeries, "__mul__"), (series.TruncatedSeries, "divide")]
    return bindings


@pytest.fixture
def forbidden():
    """A stand-in that fails the test when called."""
    return _forbidden


@pytest.fixture
def clear_caches():
    """``clear_caches()`` empties every memo and row store of the package."""
    return _clear_caches


@pytest.fixture
def routes():
    """The routes a catalog side may name, each with the module of its code."""
    return ROUTE_MODULES


@pytest.fixture
def forbid_route(monkeypatch):
    """``forbid_route(route)`` replaces every binding of the route's code with
    a function that fails the test, and returns the (owner, name) pairs."""

    def forbid(route: str) -> list[tuple[object, str]]:
        bindings = _route_bindings(route)
        for owner, name in bindings:
            monkeypatch.setattr(owner, name, _forbidden)
        return bindings

    return forbid


@pytest.fixture
def converted_rows():
    """``converted_rows(roots, nodes, n_max)``: rows 0..n_max of the Newton
    coefficients of (X - b_0)...(X - b_{n-1}) over the nodes a_k, each row
    one ``newton_convert`` of the whole product, so no row step is shared."""

    def rows(roots, nodes, n_max):
        return tuple(
            tuple(newton_convert(basis_poly(n, roots), nodes[:n])) for n in range(n_max + 1)
        )

    return rows
