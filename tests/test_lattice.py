"""The Dowling lattice itself as an oracle for the Whitney numbers.

Both routes and every explicit side of the catalog start from the paper's
defining relations, so a convention that all of them share passes every
comparison between them.  Here the numbers are counted in the lattice those
relations describe (T. A. Dowling, J. Combin. Theory Ser. B 14 (1973);
M. Benoumhani, Discrete Math. 159 (1996)).

An element of Q_n(Z_m) is a zero set Z of the points 1..n and a partition of
the other points into blocks, each with a Z_m-colouring taken up to a common
factor; its rank is n less its number of blocks.  x <= y when Z_x lies in Z_y
and each block of x lies in Z_y or in one block of y that colours it alike up
to a common factor.  Then, at lambda = 0, W_m(n, k) counts the elements with
k blocks and V_m(n, k) sums mu(0, x) over them; the lambda-coefficients of
W(n, k | l) follow from (y)_{n,l} = sum_j s(n, j) l^(n-j) y^j, with the
signed Stirling numbers s(n, j) read off the partition lattice
Pi_n = Q_(n-1)(Z_1), and V(. | l) is the inverse matrix of W(. | l).  The
lattice's characteristic polynomial prod_j (t - 1 - jm) checks the Moebius
function itself.  Nothing of ``newton`` or ``series`` is read but the values
under test.  The lattices for n <= 4 and m <= 3 take about 0.05 s in all.
"""

from functools import lru_cache
from itertools import combinations, product

import pytest

from dowlab import stirling as st
from dowlab import whitney as wh
from dowlab.exact import ONE, ZERO, LambdaPoly

N_MAX = 4
# lambda, made here: a mutant that negates exact.LAMBDA must not reach the lift
LAMBDA = LambdaPoly((0, 1))
SIZES = [(m, n) for m in (1, 2, 3) for n in range(N_MAX + 1)]


def set_partitions(points: tuple) -> list[tuple]:
    """Every partition of ``points`` into blocks, each block an increasing tuple."""
    if not points:
        return [()]
    first, rest = points[0], points[1:]
    out = []
    for partition in set_partitions(rest):
        out.append(((first,), *partition))
        for i, block in enumerate(partition):
            out.append((*partition[:i], (first, *block), *partition[i + 1:]))
    return out


class Element:
    """One element of Q_n(Z_m): its zero set, and each block as a tuple of
    (point, colour) pairs whose first colour is 0, one colouring per class."""

    def __init__(self, zero: frozenset, blocks: tuple) -> None:
        self.zero, self.blocks = zero, blocks
        # each point of a block: the block's first point and the point's colour
        self.home = {p: (block[0][0], c) for block in blocks for p, c in block}

    def below(self, other: "Element", m: int) -> bool:
        """self <= other in Q_n(Z_m)."""
        if not self.zero <= other.zero:
            return False
        for block in self.blocks:
            if all(p in other.zero for p, _ in block):
                continue
            if any(p not in other.home for p, _ in block):
                return False  # split between other's zero set and its blocks
            first, shift = other.home[block[0][0]]
            if any(other.home[p] != (first, (shift + c) % m) for p, c in block):
                return False
        return True


@lru_cache(maxsize=None)
def lattice(m: int, n: int) -> tuple[list[Element], list[int]]:
    """The elements of Q_n(Z_m) by increasing rank, and mu(0, x) of each."""
    points = tuple(range(1, n + 1))
    elements = []
    for size in range(n + 1):
        for zero in combinations(points, size):
            rest = tuple(p for p in points if p not in zero)
            for partition in set_partitions(rest):
                shades = [product(range(m), repeat=len(block) - 1) for block in partition]
                for colours in product(*shades):
                    blocks = tuple(
                        tuple(zip(block, (0, *c))) for block, c in zip(partition, colours)
                    )
                    elements.append(Element(frozenset(zero), blocks))
    elements.sort(key=lambda x: -len(x.blocks))  # by rank, n less the blocks
    assert [len(x.blocks) for x in elements].count(n) == 1  # one bottom element
    mus = [1]
    for i in range(1, len(elements)):
        x = elements[i]
        lower = zip(elements[:i], mus)
        mus.append(-sum(mu for y, mu in lower if len(y.blocks) > len(x.blocks) and y.below(x, m)))
    return elements, mus


def by_blocks(m: int, n: int) -> tuple[list[int], list[int]]:
    """W_m(n, k) and V_m(n, k) at lambda = 0, k = 0..n: the number of elements
    with k blocks, and the sum of their mu(0, x)."""
    elements, mus = lattice(m, n)
    count, mobius = [0] * (n + 1), [0] * (n + 1)
    for x, mu in zip(elements, mus):
        count[len(x.blocks)] += 1
        mobius[len(x.blocks)] += mu
    return count, mobius


def stirling1(n: int, j: int) -> int:
    """s(n, j), signed, off Pi_n = Q_(n-1)(Z_1): its elements with j - 1 blocks
    are the partitions of 1..n into j blocks, the zero set the block of n."""
    if n == 0:
        return int(j == 0)
    return by_blocks(1, n - 1)[1][j - 1] if j >= 1 else 0


def whitney2_lifted(m: int, n: int, k: int) -> LambdaPoly:
    """W_m(n, k | l) = sum_j s(n, j) l^(n-j) W_m(j, k)."""
    total = ZERO
    for j in range(k, n + 1):
        total = total + LAMBDA ** (n - j) * (stirling1(n, j) * by_blocks(m, j)[0][k])
    return total


def whitney1_inverse(m: int, n_max: int) -> list[list[LambdaPoly]]:
    """The inverse matrix of W_m(. | l), rows 0..n_max, by a triangular solve:
    V(n, k) = [n = k] - sum_{k <= j < n} W(n, j) V(j, k), since W(n, n) = 1."""
    v: list[list[LambdaPoly]] = []
    for n in range(n_max + 1):
        row = []
        for k in range(n + 1):
            acc = ONE if n == k else ZERO
            for j in range(k, n):
                acc = acc - whitney2_lifted(m, n, j) * v[j][k]
            row.append(acc)
        v.append(row)
    return v


@pytest.mark.parametrize("m, n", SIZES)
def test_the_characteristic_polynomial_is_the_product(m, n):
    # sum_k V(n, k) t^k = prod_{j < n} (t - 1 - jm), low degree first
    want = [1]
    for j in range(n):
        want = [a - (1 + j * m) * b for a, b in zip([0, *want], [*want, 0])]
    assert by_blocks(m, n)[1] == want


@pytest.mark.parametrize("m, n", SIZES)
def test_second_kind_counts_the_elements_by_blocks(m, n):
    count, _ = by_blocks(m, n)
    assert [wh.whitney2(m, n, k).eval(0) for k in range(n + 1)] == count


@pytest.mark.parametrize("m, n", SIZES)
def test_first_kind_sums_the_moebius_function_by_blocks(m, n):
    _, mobius = by_blocks(m, n)
    assert [wh.whitney1(m, n, k).eval(0) for k in range(n + 1)] == mobius


@pytest.mark.parametrize("m, n", SIZES)
def test_the_dowling_number_is_the_lattice_size(m, n):
    assert wh.dowling_number(m, n).eval(0) == len(lattice(m, n)[0])


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_the_partition_lattice_gives_the_signed_stirling_numbers(n):
    assert [st.stirling1(n, j) for j in range(n + 1)] == [stirling1(n, j) for j in range(n + 1)]


@pytest.mark.parametrize("m, n", SIZES)
def test_every_lambda_coefficient_of_the_second_kind(m, n):
    assert [wh.whitney2(m, n, k) for k in range(n + 1)] == [
        whitney2_lifted(m, n, k) for k in range(n + 1)
    ]


@pytest.mark.parametrize("m", (1, 2, 3))
def test_the_first_kind_is_the_inverse_matrix(m):
    inverse = whitney1_inverse(m, N_MAX)
    assert [[wh.whitney1(m, n, k) for k in range(n + 1)] for n in range(N_MAX + 1)] == inverse
