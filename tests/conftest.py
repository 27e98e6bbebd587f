"""Fixtures shared by the test modules.

They are fixtures, not importable helpers, so that no test module imports
another one or this file, whatever pytest's import mode.
"""

import sys

import pytest

from dowlab import newton, series
from dowlab.exact import CACHES

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
    series ring count as GF code too: the series oracles of thm3, thm9 and
    thm27 reach them without ``gf_triangle``."""
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
