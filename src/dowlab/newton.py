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
cleared of a power of m or m+1, so no l is ever substituted.  Every root
and node over Q[l] is linear in l with int coefficients, and is passed as
the int pair (c0, c1) for c0 + c1 l; ``row_step`` builds a row from them,
so every row is integral.  ``_row_sum`` sums a row of the second-kind
kernel against the powers of x, so only this module knows which store a
Bell, Dowling or Dobinski row sum reads.  The GF route (``series``) never
steps a row, so a defect here shows as a disagreement between the two
routes.  This module reads nothing of the package but ``exact``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, zip_longest
from operator import add
from typing import Callable, Iterator

from .exact import ONE, LambdaPoly, _canonical, _check_counts, _check_m, bounded, dot, row_store


def row_step(row: tuple, root, nodes: list) -> tuple:
    """The row after ``row`` for the root b: r'_k = r_{k-1} + (a_k - b) r_k with
    r_{-1} = 0, over the nodes a_k, and then r'_n = r_{n-1}.

    The ring is read off the row, here only.  Over the ints, entries, root and
    nodes are ints.  Over Q[l] the entries are integral LambdaPolys and the
    root and nodes int pairs (c0, c1) for c0 + c1 l, so each weight a_k - b is
    a pair and each entry's coefficients are written once into one int list.
    """
    if type(row[0]) is int:
        return (*map(add, (0, *row), [(a - root) * q for a, q in zip(nodes, row)]), row[-1])
    b0, b1 = root
    out, p = [], ()
    for (a0, a1), q in zip(nodes, row):
        w0, w1, q = a0 - b0, a1 - b1, q.nums
        terms = zip_longest(p, q, (0, *q), fillvalue=0)
        out.append(_canonical([x + w0 * y + w1 * z for x, y, z in terms], 1))
        p = q
    return (*out, row[-1])


def newton_rows(
    one,
    root: Callable[[int], object],
    node: Callable[[int], object],
) -> Iterator[tuple]:
    """Endless rows of the monic products (X - b_0)...(X - b_{n-1}), n = 0, 1, ...

    Row n is the tuple of Newton coefficients c_0..c_n of the nth product
    over the nodes a_k = node(k), where b_j = root(j); row 0 is ``(one,)``.
    With ``one`` = 1 the roots and nodes are ints; with ``one`` = ``ONE`` (Q[l])
    each is an int pair (c0, c1) for c0 + c1 l, the one form the paper's
    weights take.  The kth node may not depend on the row.

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
        nodes.append(node(n))
        row = row_step(row, root(n), nodes)


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
    return newton_rows(ONE, lambda j: (-r, j * s), lambda k: (m * k, 0))


@row_store
def _first_kind_rows(m: int, r: int) -> Iterator[tuple[LambdaPoly, ...]]:
    """w_{m,r}: m^n (x)_n = prod_j (u - (r+jm)) = sum_k w (u)_{k,l} in u = mx + r."""
    _check_m(m)
    _check_counts(r=r)
    return newton_rows(ONE, lambda j: (r + j * m, 0), lambda k: (0, k))


# thm23 and cor22 read every earlier row sum at each n, so each is built once per key.
@bounded(4096)  # memo: +20%/+25% catalog CPU at n_max 10/20 without it (see exact)
def _row_sum(params: tuple, n: int, x: Fraction, ordered: bool) -> LambdaPoly:
    """sum_k T(n,k) x^k over row n of ``_second_kind_rows(*params, n)``, weighted
    by k! when ``ordered``: the degenerate Bell polynomials at (1, 0, 1),
    m^n Bdeg_n(x/m) at l -> l/m at (m, 0, 1), the (Tanny-)Dowling polynomials of W
    at (m, 1, 1).  At x = p/q, int weights p^k q^(n-k) (times k!) over q^n."""
    row = _second_kind_rows(*params, n)[n]
    p, q = x.numerator, x.denominator
    terms = []
    weight = 1  # p^k, times k! when ordered
    for k in range(n + 1):
        terms.append((weight * q ** (n - k), row[k], ONE))
        weight *= p * (k + 1) if ordered else p
    return dot(terms) / q**n
