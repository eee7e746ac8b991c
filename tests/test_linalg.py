import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader.exact_arith import pdivexact, pmul, psub
from deltader.linalg import (
    canonical_basis,
    nullspace_bareiss,
    nullspace_gauss,
    pencil_eliminate,
    rref,
    spans_equal,
)

F = Fraction


def identity(n):
    return [[F(int(r == c)) for c in range(n)] for r in range(n)]


def random_matrix(rng, rows, cols):
    def entry():
        if rng.random() < 0.35:
            return F(0)
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def sparse(m):
    """Dense rows as the {column: nonzero entry} rows the production route takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in m]


@st.composite
def rational_matrices(draw):
    """Dense, very sparse (at most 5% nonzero) or empty matrices, with zero and
    duplicate rows mixed in."""
    cols = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["dense", "sparse", "empty"]))
    if kind == "empty":
        return [], cols
    rows = draw(st.integers(1, 10 if kind == "dense" else 40))
    value = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)
    if kind == "dense":
        m = [[draw(value) for _ in range(cols)] for _ in range(rows)]
    else:
        m = [[F(0)] * cols for _ in range(rows)]
        cells = draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), value),
            max_size=rows * cols // 20,
        ))
        for r, c, x in cells:
            m[r][c] = x
    extra = draw(st.lists(st.integers(0, rows - 1), max_size=3))
    m += [list(m[r]) for r in extra]  # duplicates
    m += [[F(0)] * cols] * draw(st.integers(0, 2))  # zero rows
    return m, cols


class TestRref:
    def test_hand_case(self):
        m = [[F(2), F(4)], [F(1), F(2)]]
        reduced, pivots = rref(m)
        assert pivots == [0]
        assert reduced[0] == [F(1), F(2)]

    def test_identity_fixed_point(self):
        reduced, pivots = rref(identity(3))
        assert reduced == identity(3)
        assert pivots == [0, 1, 2]

    def test_rank(self):
        assert len(rref([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]])[1]) == 2
        assert len(rref([])[1]) == 0


class TestCanonicalBasis:
    def test_scaling_invariance(self):
        v = [F(2), F(4), F(0)]
        w = [F(1), F(2), F(0)]
        assert canonical_basis([v]) == canonical_basis([w])
        assert spans_equal([v], [w])

    def test_distinct_spans_differ(self):
        assert not spans_equal([[F(1), F(0)]], [[F(0), F(1)]])

    def test_zero_vectors_dropped(self):
        assert canonical_basis([[F(0), F(0)]]) == ()


class TestNullspaceRoutes:
    def test_zero_matrix_gives_full_space(self):
        basis = nullspace_bareiss([{}], 3)
        assert basis == tuple(tuple(row) for row in identity(3))
        assert nullspace_gauss([[F(0)] * 3], 3) == basis

    def test_no_rows_gives_full_space(self):
        assert nullspace_bareiss([], 2) == ((F(1), F(0)), (F(0), F(1)))

    def test_full_rank_gives_empty_kernel(self):
        assert nullspace_bareiss(sparse(identity(4)), 4) == ()

    def test_hand_kernel(self):
        # x + y + z = 0, y - z = 0  ->  kernel spanned by (-2, 1, 1)
        m = [[F(1), F(1), F(1)], [F(0), F(1), F(-1)]]
        basis = nullspace_bareiss(sparse(m), 3)
        assert basis == ((F(1), F(-1, 2), F(-1, 2)),)
        assert nullspace_gauss(m, 3) == basis

    def test_routes_agree_on_random_matrices(self):
        rng = random.Random(424242)
        for _ in range(60):
            rows = rng.randint(0, 8)
            cols = rng.randint(1, 10)
            m = random_matrix(rng, rows, cols)
            got = nullspace_bareiss(sparse(m), cols)
            want = nullspace_gauss(m, cols)
            assert got == want

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_sparse_route_matches_gauss_oracle(self, case):
        m, cols = case
        assert nullspace_bareiss(sparse(m), cols) == nullspace_gauss(m, cols)

    def test_integer_and_unscaled_rows_agree(self):
        # rows may hold ints or Fractions; scaling a row changes nothing
        m = [{0: 2, 2: F(-1, 3)}, {1: F(5), 2: 7}]
        scaled = [{0: 12, 2: -2}, {1: -5, 2: -7}]
        assert nullspace_bareiss(m, 3) == nullspace_bareiss(scaled, 3)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_matrix(rng, 5, 7)
            for v in nullspace_bareiss(sparse(m), 7):
                assert all(
                    sum(row[j] * v[j] for j in range(7)) == 0 for row in m
                )


class TestIntPolynomials:
    def test_mul_and_sub(self):
        assert pmul((1, 1), (1, 1)) == (1, 2, 1)
        assert psub((1, 2, 1), (1, 2, 1)) == ()
        assert pmul((), (1, 2)) == ()

    def test_exact_division(self):
        assert pdivexact((1, 2, 1), (1, 1)) == (1, 1)
        with pytest.raises(ArithmeticError):
            pdivexact((1, 1), (2,))

    def test_division_by_zero_polynomial(self):
        for a in ((1, 1), ()):
            with pytest.raises(ZeroDivisionError):
                pdivexact(a, ())


class TestPencilEliminate:
    def test_regular_pencil(self):
        d = (0, 1)
        one = (1,)
        rows = [[one, d], [d, one]]
        pivots, r = pencil_eliminate(rows, 2)
        assert r == 2
        assert [p.coeffs for p in pivots] == [(F(1),), (F(1), F(0), F(-1))]

    def test_identically_singular_pencil(self):
        d = (0, 1)
        rows = [[(1,), d], [(2,), (0, 2)]]
        pivots, r = pencil_eliminate(rows, 2)
        assert r == 1
        assert pivots[0].coeffs == (F(1),)

    def test_prefers_low_degree_pivots(self):
        d = (0, 1)
        rows = [[d, (1,)], [(2, 1), d]]
        pivots, r = pencil_eliminate(rows, 2)
        assert r == 2
        # the constant at (row 0, col 1) beats both degree-1 entries in col 0
        assert pivots[0].coeffs == (F(1),)

    def test_degree_ties_break_by_column(self):
        d = (0, 1)
        rows = [[d, (1,)], [(3,), d]]
        pivots, r = pencil_eliminate(rows, 2)
        assert r == 2
        assert pivots[0].coeffs == (F(3),)

    def test_zero_matrix(self):
        pivots, r = pencil_eliminate([[(), ()], [(), ()]], 2)
        assert pivots == [] and r == 0
