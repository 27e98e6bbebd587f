"""The Newton route: each triangle is the change of basis that defines it.

``newton_rows`` extends the Newton coefficients of a product of monic linear
factors row by row; each triangle is one choice of roots and nodes.  The
kernels ``_second_kind_rows`` and ``_first_kind_rows`` hold every degenerate
Stirling and r-Whitney triangle of the route, each read at its own key, and
``_stirling2_rows`` the classical second kind; each is served by a row store.
At r = 0, and at (m(m+1), m+1, m) for the second kind, the kernels hold the
triangles that thm13, thm19-21, cor22, thm23 and thm26 read at l/m or at
m l/(m+1), cleared of a power of m or m+1, so no l is ever substituted.
Like the other two routes' modules, this one reads nothing of the package
but ``exact``.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator

from .exact import LAMBDA, ONE, LambdaPoly, _check_m, _check_r, linear, muladd, row_store


def newton_rows(
    one,
    root: Callable[[int], object],
    node: Callable[[int], object],
) -> Iterator[tuple]:
    """Endless rows of the monic products (X - b_0)...(X - b_{n-1}), n = 0, 1, ...

    Row n is the tuple of Newton coefficients c_0..c_n of the nth product
    over the nodes a_k = node(k), where b_j = root(j); row 0 is ``(one,)``.
    Roots, nodes and ``one`` share one ring: ``ONE`` for Q[l], ``1`` for
    plain integers.  The kth node may not depend on the row.

    A product that is monic only in u = sX is passed as roots s b_j and
    nodes s a_k, and then c_k comes out times s^(n-k).

    Row n + 1 extends row n with one ``muladd`` per entry:
    X N_k = N_{k+1} + a_k N_k in the basis N_k = (X - a_0)...(X - a_{k-1}),
    so multiplying by X - b_n gives c'_k = c_{k-1} + (a_k - b_n) c_k, with
    c'_{n+1} = c_n.
    """
    nodes = []
    row = (one,)
    for n in count():
        yield row
        b = root(n)
        nodes.append(node(n))
        row = (
            (nodes[0] - b) * row[0],
            *(muladd(row[k - 1], nodes[k] - b, row[k]) for k in range(1, n + 1)),
            row[n],
        )


@row_store
def _stirling2_rows() -> Iterator[tuple]:
    # Defining relation x^n = sum S_2(n,k) (x)_k, solved by Newton conversion.
    return newton_rows(1, lambda j: 0, lambda k: k)


@row_store
def _second_kind_rows(m: int, r: int, s: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """W_{m,r}(n, k | s l): (mx+r)_{n,s l} = sum_k W m^k (x)_k in u = mx, over the
    nodes 0, m, 2m, ... with roots j s l - r, for any int s.  Readers take s = 1,
    but thm21 and cor22 read (m+1)^(n-k) W_m(n, k | m l/(m+1)) at (m(m+1), m+1, m)."""
    _check_m(m)
    _check_r(r)
    return newton_rows(ONE, lambda j: linear(-r, j * s), lambda k: m * k)


@row_store
def _first_kind_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """w_{m,r}: m^n (x)_n = prod_j (u - (r+jm)) = sum_k w (u)_{k,l} in u = mx + r."""
    _check_m(m)
    _check_r(r)
    return newton_rows(ONE, lambda j: r + j * m, lambda k: LAMBDA * k)
