"""The recurrence route: T(n, k) = T(n-1, k-1) + w(n, k) T(n-1, k) from
T(0, 0) = 1, one ``exact.row_step`` per row (``_recurrence``).

It builds the signed Stirling numbers of the first kind (w = 1 - n, over the
integers) and the degenerate Whitney numbers W (w = mk + 1 - (n-1) l) and V
(w = m - nm - 1 + kl), each served by a row store.  Like the other two
routes' modules, this one reads nothing of the package but ``exact``.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator

from .exact import ONE, LambdaPoly, _check_m, linear, row_step, row_store


def _recurrence(one, weight: Callable[[int, int], object]) -> Iterator[tuple]:
    """Rows of T(n, k) = T(n-1, k-1) + weight(n, k) T(n-1, k), from T(0, 0) = one."""
    row = (one,)
    for n in count(1):
        yield row
        row = row_step(row, [weight(n, k) for k in range(n)])


@row_store
def _stirling1_rows() -> Iterator[tuple]:
    return _recurrence(1, lambda n, k: 1 - n)


@row_store
def whitney2_rows(m: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """Second-kind triangle from the two-term recurrence."""
    _check_m(m)
    return _recurrence(ONE, lambda n, k: linear(m * k + 1, 1 - n))


@row_store
def whitney1_rows(m: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """First-kind triangle from the two-term recurrence."""
    _check_m(m)
    return _recurrence(ONE, lambda n, k: linear(m - n * m - 1, k))
