"""The export table: each triangle family and the route that builds its rows.

``family_rows`` is the one table that ``triangle``, ``eval --family`` and
``whitney.build_triangle`` read.  Every family's rows come from
``newton``, so this module reads nothing of the package but it and
``exact``, and an export runs no other module.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator

from .exact import LambdaPoly
from .newton import _first_kind_rows, _second_kind_rows, _stirling1_rows, _stirling2_rows


class Family(str, Enum):
    """Triangle families exportable through the CLI."""

    S1 = "S1"
    S2 = "S2"
    S1DEG = "S1deg"
    S2DEG = "S2deg"
    S1DEG_R = "S1degR"
    S2DEG_R = "S2degR"
    WDEG = "Wdeg"
    VDEG = "Vdeg"
    WDEG_R = "WdegR"
    VDEG_R = "VdegR"


def _alternating(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Each row n of ``rows`` with entry k times (-1)^(n-k)."""
    for n, row in enumerate(rows):
        yield tuple(-v if (n - k) % 2 else v for k, v in enumerate(row))


def _const_rows(rows: Iterator[tuple[int, ...]]) -> Iterator[tuple[LambdaPoly, ...]]:
    return (tuple(map(LambdaPoly.coerce, row)) for row in rows)


# Each family's primary route, as its endless rows at (m, r): the generator its row
# store wraps, bound here so that a wrapper later put on the store's name is not used.
_PRIMARY: dict[Family, Callable[[int, int], Iterator]] = {
    Family.S1: lambda m, r, rows=_stirling1_rows.__wrapped__: _const_rows(rows()),
    Family.S2: lambda m, r, rows=_stirling2_rows.__wrapped__: _const_rows(rows()),
    Family.S1DEG: lambda m, r, rows=_first_kind_rows.__wrapped__: rows(1, 0),
    Family.S2DEG: lambda m, r, rows=_second_kind_rows.__wrapped__: rows(1, 0, 1),
    Family.S1DEG_R: lambda m, r, rows=_first_kind_rows.__wrapped__: _alternating(rows(1, r)),
    Family.S2DEG_R: lambda m, r, rows=_second_kind_rows.__wrapped__: rows(1, r, 1),
    Family.WDEG: lambda m, r, rows=_second_kind_rows.__wrapped__: rows(m, 1, 1),
    Family.VDEG: lambda m, r, rows=_first_kind_rows.__wrapped__: rows(m, 1),
    Family.WDEG_R: lambda m, r, rows=_second_kind_rows.__wrapped__: rows(m, r, 1),
    Family.VDEG_R: lambda m, r, rows=_first_kind_rows.__wrapped__: rows(m, r),
}


def family_rows(family: Family | str, m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """The endless rows 0, 1, 2, ... of ``family`` at (m, r), by its primary route.

    The rows come straight from the generator that the family's row store
    wraps, so no store is filled and each row can be dropped once it is used.
    The m and r that the family reads are checked by this call, before any
    row is built, on the one domain m >= 1, r >= 0 of the kernels; the ones it
    does not read are ignored.
    """
    return _PRIMARY[Family(family)](m, r)
