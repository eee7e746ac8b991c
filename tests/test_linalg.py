import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import linalg
from deltader.exact_arith import Poly, pdivexact
from deltader.linalg import nullspace_bareiss, pencil_eliminate
from conftest import canonical
from oracle import canonical_basis, nullspace_gauss, rref, spans_equal

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
    """Dense rows as the {column: nonzero entry} rows nullspace_bareiss takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def canonical_kernel(basis, ncols):
    """The dense canonical tuples of a basis of nullspace_bareiss rows."""
    return tuple(canonical(v, ncols) for v in basis)


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
        assert basis == ({0: 1}, {1: 1}, {2: 1})
        assert nullspace_gauss([[F(0)] * 3], 3) == canonical_kernel(basis, 3)

    def test_no_rows_gives_full_space(self):
        assert nullspace_bareiss([], 2) == ({0: 1}, {1: 1})

    def test_full_rank_gives_empty_kernel(self):
        assert nullspace_bareiss(sparse(identity(4)), 4) == ()

    def test_hand_kernel(self):
        # x + y + z = 0, y - z = 0  ->  kernel spanned by (-2, 1, 1)
        m = [[F(1), F(1), F(1)], [F(0), F(1), F(-1)]]
        basis = nullspace_bareiss(sparse(m), 3)
        assert basis == ({0: 2, 1: -1, 2: -1},)
        assert nullspace_gauss(m, 3) == canonical_kernel(basis, 3) == ((F(1), F(-1, 2), F(-1, 2)),)

    def test_routes_agree_on_random_matrices(self):
        rng = random.Random(424242)
        for _ in range(60):
            rows = rng.randint(0, 8)
            cols = rng.randint(1, 10)
            m = random_matrix(rng, rows, cols)
            got = nullspace_bareiss(sparse(m), cols)
            want = nullspace_gauss(m, cols)
            assert canonical_kernel(got, cols) == want

    @settings(max_examples=150, deadline=None)
    @given(
        case=rational_matrices(),
        integral=st.booleans(),
        empty=st.integers(0, 2),
        untouched=st.integers(0, 3),
    )
    def test_sparse_route_matches_gauss_oracle(self, case, integral, empty, untouched):
        # rows of Fractions or of ints (each scaled by the lcm of its denominators),
        # with empty rows and, at the right, columns no row touches
        m, cols = case
        rows = sparse(m) + [{}] * empty
        if integral:
            rows = [{c: int(x * lcm(*(y.denominator for y in r.values()))) for c, x in r.items()}
                    for r in rows]
        ncols = cols + untouched
        dense = [row + [F(0)] * untouched for row in m]
        # pivots are taken from the last column down: the free columns are those
        # that are no pivot of the matrix with its columns reversed
        _, pivots = rref([row[::-1] for row in dense])
        free = set(range(ncols)) - {ncols - 1 - p for p in pivots}
        got = nullspace_bareiss(rows, ncols)
        assert len(got) == len(free)
        for v in got:
            lead = min(v)
            assert all(type(x) is int and x for x in v.values())
            assert v[lead] > 0 and gcd(*v.values()) == 1
            assert v.keys() & free == {lead}
        assert canonical_kernel(got, ncols) == nullspace_gauss(dense, ncols)
        span = linalg.rref(rows, ncols)
        assert all(gcd(*v.values()) == 1 and v[min(v)] > 0 for v in span)
        assert canonical_kernel(span, ncols) == canonical_basis(dense)

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
                assert all(sum(row[j] * x for j, x in v.items()) == 0 for row in m)


def _ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pmul(a, b):
    """The product of two coefficient tuples, schoolbook."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _psub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return _ptrim(out)


def tuple_pencil_eliminate(rows, ncols):
    """Reference route: the same elimination with coefficient tuples as entries.

    Same pivot rule (minimal degree, then column, then row) and the same
    Bareiss steps, on polynomials held as tuples, divided by ``pdivexact``.
    """
    m = [list(r) for r in rows if any(r)]
    pivots = []
    t = 0
    prev = (1,)
    while t < len(m) and t < ncols:
        keys = [(len(m[r][c]) - 1, c, r) for r in range(t, len(m))
                for c in range(t, ncols) if m[r][c]]
        if not keys:
            break
        _, c, r = min(keys)
        m[t], m[r] = m[r], m[t]
        for row in m[t:]:
            row[t], row[c] = row[c], row[t]
        top = m[t]
        piv = top[t]
        pivots.append(Poly(piv))
        for row in m[t + 1:]:
            mult = row[t]
            for j in range(t + 1, ncols):
                num = _psub(_pmul(piv, row[j]), _pmul(mult, top[j]))
                row[j] = pdivexact(num, prev) if num else ()
            row[t] = ()
        m = m[: t + 1] + [r for r in m[t + 1:] if any(r)]
        prev = piv
        t += 1
    return pivots, t


class TestIntPolynomials:
    def test_mul_and_sub(self):
        # the reference route's own arithmetic
        assert _pmul((1, 1), (1, 1)) == (1, 2, 1)
        assert _psub((1, 2, 1), (1, 2, 1)) == ()
        assert _pmul((), (1, 2)) == ()
        assert _psub((1,), (0, -1)) == (1, 1)

    def test_exact_division(self):
        assert pdivexact((1, 2, 1), (1, 1)) == (1, 1)
        with pytest.raises(ArithmeticError):
            pdivexact((1, 1), (2,))

    def test_division_by_zero_polynomial(self):
        for a in ((1, 1), ()):
            with pytest.raises(ZeroDivisionError):
                pdivexact(a, ())


def _tuples(rows, cols):
    """Pencil rows as the reference route takes them: dense lists, in the order of
    ``cols``, of the coefficient tuples of a + b*d."""
    return [[_ptrim([a.get(c, 0), b.get(c, 0)]) for c in cols] for a, b in rows]


def _combine(u, x, v, y):
    """u*x - v*y for two {column: integer} maps, zeros dropped."""
    out = {c: u * x.get(c, 0) - v * y.get(c, 0) for c in x.keys() | y.keys()}
    return {c: z for c, z in out.items() if z}


@st.composite
def pencil_blocks(draw):
    """Up to 12 rows of A + d*B as ``(a, b)`` pairs of {column: integer} maps, on
    up to 6 distinct columns listed in any order, some of which no row touches.
    Coefficients are small (many ties and cancellations) or up to +-2^64.  Empty
    rows, rows that are integer combinations of others, and up to four scaled
    copies of rows, which tie with their originals in the pivot rule, are mixed in."""
    cols = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    small = st.integers(-3, 3)
    coeff = draw(st.sampled_from([
        small,
        st.one_of(small, st.sampled_from([2**64, -2**64, 2**64 - 1, 1 - 2**64])),
        st.integers(-2**64, 2**64),
    ]))
    part = st.dictionaries(st.sampled_from(cols), coeff.filter(bool))
    rows = draw(st.lists(st.tuples(part, part), min_size=1, max_size=8))
    for r in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        if draw(st.booleans()):
            rows[r] = ({}, {})
        else:
            a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            u, v = draw(small), draw(small)
            rows[r] = tuple(_combine(u, x, v, y) for x, y in zip(rows[a], rows[b]))
    for r in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
        scale = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        copy = tuple({c: scale * x for c, x in part.items()} for part in rows[r])
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows, cols


class TestPencilAgainstTuples:
    """``pencil_eliminate`` on packed integers against the tuple reference route."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pencil_blocks())
    def test_same_pivots_and_rank(self, case):
        rows, cols = case
        want = tuple_pencil_eliminate(_tuples(rows, cols), len(cols))
        assert pencil_eliminate(rows, cols) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 2**63, 2**64 - 1, 2**64, 2**64 + 1])
    def test_coefficients_at_the_row_norm_bound(self, n):
        # a lone entry's coefficients reach its row norm, which is the bound, or half
        # of it; the second pivot of a diagonal pencil is the product of both row norms
        for a, b in [(n, 0), (-n, 0), (0, n), (0, -n), (n, -n), (-n, n)]:
            rows = [({0: a} if a else {}, {0: b} if b else {})]
            pivots, rank = pencil_eliminate(rows, [0])
            assert rank == 1 and pivots == [Poly([a, b])]
            assert pivots[0].degree == int(b != 0)
        for lead in (n, -n):
            rows = [({0: n}, {}), ({}, {1: lead})]
            pivots, rank = pencil_eliminate(rows, [0, 1])
            assert rank == 2 and pivots == [Poly([n]), Poly([0, n * lead])]
            assert pivots == tuple_pencil_eliminate(_tuples(rows, [0, 1]), 2)[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 2**63, 2**64 - 1, 2**64, 2**64 + 1])
    def test_minors_at_hadamards_bound(self, n):
        # the determinants of these reach Hadamard's bound, the product of the rows'
        # l2 norms, so their coefficients reach sqrt(P), the bound k is sized by
        rows = [({0: n, 1: n}, {}), ({0: n, 1: -n}, {})]
        pivots, rank = pencil_eliminate(rows, [0, 1])
        assert rank == 2 and pivots == [Poly([n]), Poly([-2 * n * n])]
        assert (pivots, rank) == tuple_pencil_eliminate(_tuples(rows, [0, 1]), 2)
        sylvester = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        for sign in (1, -1):
            # entry (i, j) is +-n in the even columns and +-n*d in the odd ones
            rows = [tuple({j: sign * h * n for j, h in enumerate(row) if j % 2 == odd}
                          for odd in (0, 1)) for row in sylvester]
            pivots, rank = pencil_eliminate(rows, [0, 1, 2, 3])
            assert rank == 4 and pivots[-1].degree == 2
            assert abs(pivots[-1].coeffs[-1]) == 16 * n**4
            assert (pivots, rank) == tuple_pencil_eliminate(_tuples(rows, range(4)), 4)


class TestPencilEliminate:
    def test_regular_pencil(self):
        # [[1, d], [d, 1]]
        pivots, r = pencil_eliminate([({0: 1}, {1: 1}), ({1: 1}, {0: 1})], [0, 1])
        assert r == 2
        assert [p.coeffs for p in pivots] == [(F(1),), (F(1), F(0), F(-1))]

    def test_identically_singular_pencil(self):
        # [[1, d], [2, 2d]]
        pivots, r = pencil_eliminate([({0: 1}, {1: 1}), ({0: 2}, {1: 2})], [0, 1])
        assert r == 1
        assert pivots[0].coeffs == (F(1),)

    def test_prefers_low_degree_pivots(self):
        # [[d, 1], [2 + d, d]]
        pivots, r = pencil_eliminate([({1: 1}, {0: 1}), ({0: 2}, {0: 1, 1: 1})], [0, 1])
        assert r == 2
        # the constant at (row 0, col 1) beats both degree-1 entries in col 0
        assert pivots[0].coeffs == (F(1),)

    def test_degree_ties_break_by_column(self):
        # [[d, 1], [3, d]]
        rows = [({1: 1}, {0: 1}), ({0: 3}, {1: 1})]
        pivots, r = pencil_eliminate(rows, [0, 1])
        assert r == 2
        assert pivots[0].coeffs == (F(3),)
        # in the order [1, 0] column 1 comes first, and its constant 1 with it
        assert pencil_eliminate(rows, [1, 0])[0][0].coeffs == (F(1),)

    def test_zero_matrix(self):
        pivots, r = pencil_eliminate([({}, {}), ({}, {})], [0, 1])
        assert pivots == [] and r == 0
