"""The row route: each triangle is the change of basis that defines it.

``newton_rows`` extends the Newton coefficients of a product of monic linear
factors row by row; each triangle is one choice of roots and nodes, and
every row triangle of the package comes from it.  Its row step is the
paper's recurrence.  With roots j l - r and nodes m k, row n + 1 is
W_{m,r}(n+1, k) = W_{m,r}(n, k-1) + (mk + r - n l) W_{m,r}(n, k), and with
roots r + j m and nodes k l it is
w_{m,r}(n+1, k) = w_{m,r}(n, k-1) + (k l - nm - r) w_{m,r}(n, k).
The kernels ``_second_kind_rows`` and ``_first_kind_rows`` hold every
degenerate Stirling and r-Whitney triangle, each read at its own key (W and
V at r = 1), and ``_stirling1_rows`` and ``_stirling2_rows`` the classical
first and second kinds; each is served by a row store.  At r = 0, and at
(m(m+1), m+1, m) for the second kind, the kernels hold the triangles that
thm13, thm19-21, cor22, thm23 and thm26 read at l/m or at m l/(m+1),
cleared of a power of m or m+1, so no l is ever substituted.  ``row_step``
builds a row and ``linear`` a weight of it.  The GF route (``series``)
never steps a row, so a defect here shows as a disagreement between the
two routes.  This module reads nothing of the package but ``exact``.
"""

from __future__ import annotations

from itertools import count, zip_longest
from operator import add, mul
from typing import Callable, Iterable, Iterator

from .exact import (LAMBDA, ONE, ZERO, LambdaPoly, _canonical, _check_counts, _check_m, _raw, dot,
                    row_store)


def linear(c0: int, c1: int) -> LambdaPoly:
    """``c0 + c1*l`` from two ints, in canonical form (``c1``, or both, may be 0):
    the multiplier of a row step, built without a pass over a list."""
    if c1:
        return _raw((c0, c1), 1)
    return _raw((c0,) if c0 else (), 1)


def row_step(row: tuple, weights: Iterable) -> tuple:
    """The row after ``row``: r'_k = r_{k-1} + w_k r_k with r_{-1} = 0, for one
    weight w_k per entry r_k, and then r'_n = r_{n-1}.

    Entries are LambdaPolys with exact scalar weights, or all are plain ints.
    Where r_{k-1}, r_k and w_k are integral and w_k has degree <= 1, as in
    every row of the package, each coefficient is written once into one int
    list; any other entry goes through ``dot``.
    """
    if type(row[0]) is int:
        return (*map(add, (0, *row), map(mul, weights, row)), row[-1])
    out, p = [], ZERO
    for w, q in zip(weights, row):
        w = LambdaPoly.coerce(w)
        if p.den != 1 or q.den != 1 or w.den != 1 or len(w.nums) > 2:
            out.append(dot(((1, p, ONE), (1, w, q))))
        else:
            w0, w1 = (*w.nums, 0, 0)[:2]
            b = q.nums
            terms = zip_longest(p.nums, b, (0, *b), fillvalue=0)
            out.append(_canonical([x + w0 * y + w1 * z for x, y, z in terms], 1))
        p = q
    return (*out, p)


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

    Row n + 1 is one ``row_step`` of row n with the weights a_k - b_n:
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
        row = row_step(row, [a - b for a in nodes])


@row_store
def _stirling1_rows() -> Iterator[tuple]:
    # Defining relation (x)_n = sum S_1(n,k) x^k: roots 0, 1, ..., every node 0.
    return newton_rows(1, lambda j: j, lambda k: 0)


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
    _check_counts(r=r)
    return newton_rows(ONE, lambda j: linear(-r, j * s), lambda k: m * k)


@row_store
def _first_kind_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """w_{m,r}: m^n (x)_n = prod_j (u - (r+jm)) = sum_k w (u)_{k,l} in u = mx + r."""
    _check_m(m)
    _check_counts(r=r)
    return newton_rows(ONE, lambda j: r + j * m, lambda k: LAMBDA * k)
