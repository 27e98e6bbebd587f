"""Stirling triangles (classical, degenerate, r-shifted) and Bell polynomials.

Expected values come from oracles that never touch the library's polynomial
machinery: set-partition enumeration for the second kind and plain integer
convolution for falling-factorial expansions.
"""

import sys
import threading
from itertools import product

import pytest

from dowlab.exact import LAMBDA, LambdaPoly
from dowlab import stirling as st

l = LAMBDA


def partitions_into_blocks(n: int, k: int) -> int:
    """Brute force: number of ways to partition {0..n-1} into k nonempty blocks."""
    count = 0
    for assignment in product(range(k), repeat=n):
        blocks = [set() for _ in range(k)]
        for element, block in enumerate(assignment):
            blocks[block].add(element)
        if all(blocks):
            # normalize by ordered first elements to count set partitions once
            firsts = [min(b) for b in blocks]
            if firsts == sorted(firsts):
                count += 1
    return count


def falling_coeffs(n: int) -> list[int]:
    """Integer convolution expansion of x(x-1)...(x-n+1), ascending powers."""
    coeffs = [1]
    for j in range(n):
        shifted = [0] + coeffs
        scaled = [-j * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


class TestClassical:
    def test_stirling2_against_partitions(self):
        for n in range(7):
            for k in range(n + 1):
                assert st.stirling2(n, k) == partitions_into_blocks(n, k)

    def test_stirling2_spot_values(self):
        assert st.stirling2(4, 2) == 7
        assert st.stirling2(3, 1) == 1
        assert st.stirling2(9, 9) == 1

    def test_stirling1_against_expansion(self):
        for n in range(9):
            expansion = falling_coeffs(n)
            for k in range(n + 1):
                assert st.stirling1(n, k) == expansion[k]

    def test_stirling1_spot_values(self):
        assert st.stirling1(3, 1) == 2
        assert st.stirling1(4, 2) == 11
        assert st.stirling1(6, 6) == 1

    def test_stirling2_recurrence_crosscheck(self):
        # newton-based table vs the classical recurrence
        def s2(n, k):
            return st.stirling2(n, k) if 0 <= k <= n else 0

        for n in range(1, 11):
            for k in range(1, n + 1):
                assert st.stirling2(n, k) == k * s2(n - 1, k) + s2(n - 1, k - 1)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            st.stirling1(3, 4)
        with pytest.raises(IndexError):
            st.stirling2(3, -1)


class TestDegenerate:
    def test_first_kind_spot(self):
        assert st.deg_stirling1(2, 1) == l - 1
        assert st.deg_stirling1(5, 5) == LambdaPoly((1,))

    def test_second_kind_spot(self):
        assert st.deg_stirling2(2, 1) == 1 - l
        assert st.deg_stirling2(3, 2) == LambdaPoly((3, -3))
        assert st.deg_stirling2(6, 6) == LambdaPoly((1,))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_second_kind_column_one(self, n):
        from dowlab.bases import lambda_falling

        assert st.deg_stirling2(n, 1) == lambda_falling(1, n, l)

    def test_lambda_zero_limits(self):
        for n in range(13):
            for k in range(n + 1):
                assert st.deg_stirling1(n, k).eval(0) == st.stirling1(n, k)
                assert st.deg_stirling2(n, k).eval(0) == st.stirling2(n, k)

    def test_or_zero_accessors(self):
        assert st.deg_stirling2_or_zero(1, 2) == LambdaPoly()
        assert st.deg_stirling2_or_zero(1, -1) == LambdaPoly()
        assert st.deg_stirling2_or_zero(2, 1) == st.deg_stirling2(2, 1)

    def test_orthogonality(self):
        for n in range(13):
            for j in range(n + 1):
                acc = LambdaPoly()
                for k in range(j, n + 1):
                    acc = acc + st.deg_stirling1(n, k) * st.deg_stirling2(k, j)
                assert acc == LambdaPoly.const(1 if n == j else 0)

    def test_gf_crosscheck(self):
        n_max = 12
        assert st.deg_stirling2_rows_gf(n_max) == st.deg_stirling2_rows(n_max)
        assert st.deg_stirling1_rows_gf(n_max) == st.deg_stirling1_rows(n_max)


class TestBell:
    def test_values(self):
        assert st.deg_bell(0, 7) == LambdaPoly((1,))
        assert st.deg_bell(2, 1) == LambdaPoly((2, -1))
        assert st.deg_bell(3, 1) == LambdaPoly((5, -6, 2))

    def test_row_sum_recurrence(self):
        for n in range(13):
            acc = LambdaPoly()
            for k in range(n + 1):
                acc = acc + st.deg_stirling2(n + 1, k + 1)
            assert st.deg_bell_number(n + 1) == acc

    def test_inexact_x_refused(self):
        assert st.deg_bell(3, 1) == LambdaPoly((5, -6, 2))
        # an equal float or bool must not hit the cached value of x = 1
        for bad in (1.0, True, 0.1):
            with pytest.raises(TypeError):
                st.deg_bell(3, bad)


class TestRShifted:
    def test_second_kind_spot(self):
        # (x+r)_{1,l} = x + r
        assert st.deg_r_stirling2(1, 0, 2) == LambdaPoly((2,))
        assert st.deg_r_stirling2(1, 1, 2) == LambdaPoly((1,))
        assert st.deg_r_stirling2(5, 5, 3) == LambdaPoly((1,))

    def test_second_kind_r_zero_reduction(self):
        # deg_stirling2_rows is the r = 0 store itself, so the GF oracle is the check
        assert st.deg_r_stirling2_rows(0, 10) == st.deg_stirling2_rows_gf(10)

    def test_first_kind_spot(self):
        # <x+r>_1 = x + r
        assert st.deg_r_stirling1_unsigned(1, 0, 2) == LambdaPoly((2,))
        assert st.deg_r_stirling1_unsigned(1, 1, 2) == LambdaPoly((1,))
        assert st.deg_r_stirling1_unsigned(4, 4, 1) == LambdaPoly((1,))

    def test_first_kind_hand_value(self):
        # <x>_2 = x(x+1) = x(x+l) + (1-l)x
        assert st.deg_r_stirling1_unsigned(2, 1, 0) == 1 - l

    def test_first_kind_classical_limit(self):
        for n in range(9):
            for k in range(n + 1):
                got = st.deg_r_stirling1_unsigned(n, k, 0).eval(0)
                assert got == abs(st.stirling1(n, k))

    @pytest.mark.parametrize("r", (0, 1, 2, 3))
    def test_gf_crosscheck(self, r):
        n_max = 12
        assert st.deg_r_stirling2_rows_gf(r, n_max) == st.deg_r_stirling2_rows(r, n_max)
        assert st.deg_r_stirling1_unsigned_rows_gf(r, n_max) == st.deg_r_stirling1_unsigned_rows(
            r, n_max
        )

    @pytest.mark.parametrize(
        "oracle, store",
        [
            (st.deg_r_stirling2_rows_gf, st.deg_r_stirling2_rows),
            (st.deg_r_stirling1_unsigned_rows_gf, st.deg_r_stirling1_unsigned_rows),
        ],
    )
    @pytest.mark.parametrize(
        "r, error, message",
        [(-1, ValueError, "r must be an integer >= 0, got -1"),
         (True, TypeError, "expected an int, got bool")],
    )
    def test_gf_oracle_refuses_an_r_like_its_store(self, oracle, store, r, error, message):
        with pytest.raises(error) as from_store:
            store(r, 2)
        with pytest.raises(error) as from_oracle:
            oracle(r, 2)
        assert str(from_oracle.value) == str(from_store.value) == message


class TestTriangleType:
    def test_strict_and_lenient_access(self):
        rows = st.deg_stirling2_rows(4)
        assert rows[2][1] == st.deg_stirling2(2, 1) == 1 - l
        with pytest.raises(IndexError):
            st.deg_stirling2(1, 3)
        with pytest.raises(IndexError):
            st.deg_stirling2(-1, 0)
        assert st.deg_stirling2_or_zero(1, 3) == st.deg_stirling2_or_zero(-1, 0) == 0


# Each accessor with int arguments; every one of them must refuse an equal
# float or bool even after the int call has filled the caches.
INT_ONLY = {
    "stirling1": (st.stirling1, (3, 1)),
    "stirling2": (st.stirling2, (3, 1)),
    "deg_stirling1": (st.deg_stirling1, (3, 1)),
    "deg_stirling2": (st.deg_stirling2, (3, 1)),
    "deg_stirling2_or_zero": (st.deg_stirling2_or_zero, (3, 1)),
    "deg_stirling1_rows": (st.deg_stirling1_rows, (3,)),
    "deg_stirling2_rows": (st.deg_stirling2_rows, (3,)),
    "deg_r_stirling2": (st.deg_r_stirling2, (3, 1, 1)),
    "deg_r_stirling1_unsigned": (st.deg_r_stirling1_unsigned, (3, 1, 1)),
    "deg_r_stirling2_rows": (st.deg_r_stirling2_rows, (1, 3)),
    "deg_r_stirling1_unsigned_rows": (st.deg_r_stirling1_unsigned_rows, (1, 3)),
    "deg_bell": (st.deg_bell, (1, 1)),
}


def equal_non_ints(value: int) -> list:
    """The float equal to ``value``, and the bool too where one is equal."""
    return [float(value)] + ([bool(value)] if value in (0, 1) else [])


class TestIntArguments:
    @pytest.mark.parametrize("name", sorted(INT_ONLY))
    def test_equal_float_or_bool_refused_after_int(self, name):
        fn, args = INT_ONLY[name]
        fn(*args)
        for i, value in enumerate(args):
            for bad in equal_non_ints(value):
                with pytest.raises(TypeError):
                    fn(*args[:i], bad, *args[i + 1 :])

    def test_negative_index_is_still_an_index_error(self):
        for fn in (st.stirling1, st.stirling2, st.deg_stirling1, st.deg_stirling2):
            with pytest.raises(IndexError):
                fn(-1, 0)
        with pytest.raises(IndexError):
            st.deg_r_stirling2(2, -1, 0)


class TestRowStore:
    # deg_r_stirling2_rows(r) reads the second-kind kernel at (1, r), and
    # deg_stirling1_rows the first-kind kernel at (1, 0)
    def test_refused_call_stores_nothing(self):
        store, rows = st._second_kind_rows, st.deg_r_stirling2_rows
        store.cache_clear()
        rows(1, 3)
        for bad in ((-1, 3), (1.0, 3), (1, -1)):
            with pytest.raises((ValueError, TypeError)):
                rows(*bad)
        assert store.cache_info().currsize == 1
        assert rows(2, 4)[4][4] == LambdaPoly((1,))
        assert store.cache_info().currsize == 2

    def test_least_recently_used_store_is_evicted(self):
        store, rows = st._second_kind_rows, st.deg_r_stirling2_rows
        store.cache_clear()
        for r in range(st.STORES_HELD):
            rows(r, 2)
        rows(0, 2)  # touched again, so r = 1 is now the least recently used
        rows(st.STORES_HELD, 2)  # the 65th parameter tuple
        info = store.cache_info()
        assert info.currsize == st.STORES_HELD == 64
        rows(0, 2)
        assert store.cache_info().hits == info.hits + 1
        rows(1, 2)
        assert store.cache_info().misses == info.misses + 1

    def test_interrupted_build_is_not_kept(self, monkeypatch):
        store, rows = st._first_kind_rows, st.deg_stirling1_rows
        expected = rows(6)
        store.cache_clear()
        calls = []
        newton_rows = st.newton_rows

        def flaky_rows(one, root, node):
            # the store asks for one root per row: the fourth call is
            # root(3), so the build of row 4 is interrupted
            def flaky(j):
                calls.append(j)
                if len(calls) == 4:
                    raise KeyboardInterrupt
                return root(j)

            return newton_rows(one, flaky, node)

        monkeypatch.setattr(st, "newton_rows", flaky_rows)
        with pytest.raises(KeyboardInterrupt):
            rows(6)
        assert calls == [0, 1, 2, 3]
        assert store.cache_info().currsize == 0
        assert rows(6) == expected

    def test_threads_extend_one_store_in_order(self):
        rows = st._first_kind_rows  # the kernel behind S1degR, here at r = 2
        expected = rows(1, 2, 24)
        rows.cache_clear()
        results, errors = [], []

        def worker(first):
            try:
                for n in range(first, 25, 4):
                    results.append(rows(1, 2, n) == expected[: n + 1])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 25 and all(results)

    def test_threads_read_entries_while_others_extend(self):
        # entry(...) and rows(...) drive the same store under its one lock
        rows = st._first_kind_rows
        expected = rows(1, 3, 24)
        rows.cache_clear()
        results, errors = [], []

        def worker(first):
            try:
                for n in range(first, 25, 4):
                    if first % 2:
                        results.append(rows(1, 3, n) == expected[: n + 1])
                    else:
                        results.append(rows.entry(1, 3, n, n // 2) == expected[n][n // 2])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 25 and all(results)
