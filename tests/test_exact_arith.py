import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltader import delta_solver, lie_core
from deltader.exact_arith import (
    Poly,
    parse_rational,
    pdivexact,
    poly_normalize,
    poly_rational_roots,
    strip_rational_roots,
)


# ---------------------------------------------------------------------------
# independent oracle for rational roots: naive divisor enumeration plus
# direct power-sum evaluation, sharing no code with the implementation
# ---------------------------------------------------------------------------


def value_at(p, x):
    """p(x) by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def times(*factors):
    """The product of integer polynomials given as coefficient lists."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return Poly(out)


def naive_divisors(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_rational_roots(coeffs):
    """All rational roots of an integer-coefficient polynomial, brute force."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert coeffs, "zero polynomial"

    def value(x):
        return sum(Fraction(c) * x**i for i, c in enumerate(coeffs))

    roots = set()
    if coeffs[0] == 0 and value(Fraction(0)) == 0:
        roots.add(Fraction(0))
    low = next((c for c in coeffs if c != 0), None)
    for a in naive_divisors(low):
        for b in naive_divisors(coeffs[-1]):
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if value(cand) == 0:
                    roots.add(cand)
    return sorted(roots, key=lambda r: (r.numerator, r.denominator))


def divisor_pair_rational_roots(p):
    """All rational roots by the plain rational root test, for any size.

    Every +-a/b with a dividing the trailing and b the leading coefficient
    of the integer-normalized polynomial is evaluated in Fractions, with no
    divisibility filter.
    """
    q = poly_normalize(p)
    low = next(k for k, c in enumerate(q.coeffs) if c)
    roots = {Fraction(0)} if low else set()
    q = Poly(q.coeffs[low:])
    if q.degree >= 1:
        candidates = {
            Fraction(sign * a, b)
            for a in sympy.divisors(q.coeffs[0])
            for b in sympy.divisors(q.coeffs[-1])
            for sign in (1, -1)
        }
        roots.update(x for x in candidates if value_at(q, x) == 0)
    return sorted(roots, key=lambda r: (r.numerator, r.denominator))


BOUND = 2**20


@st.composite
def factored_polynomials(draw):
    """Products of (b*d - s) with |s|, |b| <= 2^20, scaled by an integer.

    Draws in roots +-1, the root 0 with multiplicity, repeated roots, an
    optional rootless cofactor d^2 + k, and negative or non-unit scalings.
    """
    nonzero = st.integers(-BOUND, BOUND).filter(bool)
    linear = st.one_of(
        st.tuples(nonzero, nonzero),
        st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
    )
    factors = draw(st.lists(linear, min_size=1, max_size=2))
    if draw(st.booleans()):
        factors = [factors[0], factors[0]]
    polys = [[draw(nonzero)]] + [[-s, b] for s, b in factors]
    if draw(st.booleans()):
        polys.append([draw(st.integers(1, BOUND)), 0, 1])
    return times(*polys, [0] * draw(st.integers(0, 3)) + [1])


class TestRationalScalars:
    def test_canonical_form(self):
        q = Fraction(2, -4)
        assert q.denominator > 0
        assert q == Fraction(-1, 2)
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_parse_and_format_round_trip(self):
        for text in ["3/4", "-3/4", "7", "-7", "0", "1000000000000000001/3"]:
            q = parse_rational(text)
            assert parse_rational(str(q)) == q
        assert str(Fraction(3, 4)) == "3/4"
        assert str(Fraction(-7)) == "-7"

    def test_parse_rejects_non_rationals(self):
        for text in ["1.5", "3 / 4", "a", "", "1/2/3", "1e3", "١", "-٢", "1/٣"]:
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_parse_normalizes(self):
        assert parse_rational("2/4") == Fraction(1, 2)
        assert parse_rational("-6/4") == Fraction(-3, 2)


class TestPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert all(type(c) is int for c in Poly([1, 2, 0]).coeffs)
        assert not Poly([0, 0]) and Poly([0, 0]) == ()
        assert Poly().degree == -1

    def test_rejects_non_integer_coefficients(self):
        for coeffs in ([Fraction(1, 2)], [1, Fraction(3)], [0.5], [1, 2.0]):
            with pytest.raises(TypeError):
                Poly(coeffs)

    def test_eval_linear_vanishes_at_its_root(self):
        assert value_at(Poly([2, 3]), Fraction(-2, 3)) == 0
        assert poly_rational_roots(Poly([2, 3])) == [Fraction(-2, 3)]

    def test_eval_zero_poly(self):
        assert value_at(Poly(), 7) == 0
        assert not Poly()
        assert Poly([7])

    def test_eval_quadratic(self):
        assert value_at(Poly([-1, 0, 1]), 2) == 3
        assert poly_rational_roots(Poly([-1, 0, 1])) == [Fraction(-1), Fraction(1)]

    def test_arithmetic(self):
        # the test-local product the root oracles build on, and exact division undoing it
        p = (-1, 1)  # d - 1
        q = (1, 1)  # d + 1
        assert times(p, q) == Poly([-1, 0, 1])
        assert times((2,), p) == Poly([-2, 2])
        assert times((), q) == times(p, ()) == Poly()
        assert pdivexact(times(p, q).coeffs, q) == p
        assert pdivexact(times((2,), p).coeffs, (2,)) == p

    def test_immutability_and_hash(self):
        p = Poly([1, 2])
        for name in ("coeffs", "degree", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())
        assert hash(Poly([1, 2])) == hash(p)
        assert Poly([1, 2]) == p
        # a Poly is the tuple of its coefficients; slices are plain tuples
        assert Poly([1, 2, 0]) == (1, 2) and hash(Poly([1, 2, 0])) == hash((1, 2))
        assert type(p.coeffs) is tuple and type(p[:1]) is tuple

    def test_string_form(self):
        assert str(Poly()) == "0"
        assert str(Poly([2, 3])) == "2 + 3*d"
        assert str(Poly([-1, 0, 1])) == "-1 + 1*d^2"
        assert str(Poly([0, -1, 0, 5])) == "-1*d + 5*d^3"

    def test_deflate(self):
        # dividing out a linear factor b*d - s is exact at a root s/b only
        p = times((-1, 1), (-2, 3)).coeffs
        assert pdivexact(p, (-1, 1)) == (-2, 3)
        assert pdivexact(p, (-2, 3)) == (-1, 1)
        with pytest.raises(ArithmeticError):
            pdivexact(p, (-5, 1))
        assert pdivexact((), (-3, 1)) == ()


class TestNormalize:
    def test_content_removal(self):
        assert poly_normalize(Poly([-6, 6])) == Poly([-1, 1])
        assert poly_normalize(Poly([4, 0, -6])) == Poly([-2, 0, 3])

    def test_sign_and_content(self):
        assert poly_normalize(Poly([2, -4])) == Poly([-1, 2])

    def test_zero_fixed_point(self):
        assert poly_normalize(Poly()) == Poly()

    def test_idempotent_and_root_preserving(self):
        rng = random.Random(7)
        for _ in range(200):
            scale = rng.choice([-1, 1]) * rng.randint(1, 6)
            p = Poly([scale * rng.randint(-10, 10) for _ in range(rng.randint(1, 5))])
            q = poly_normalize(p)
            assert poly_normalize(q) == q
            if p:
                assert poly_rational_roots(p) == poly_rational_roots(q)


class TestRationalRoots:
    def test_linear(self):
        assert poly_rational_roots(Poly([2, 2])) == [Fraction(-1)]

    def test_cubic_with_three_roots(self):
        p = times([-1, 1], [2, 3], [-2, 5])
        roots = poly_rational_roots(p)
        assert set(roots) == {Fraction(1), Fraction(-2, 3), Fraction(2, 5)}
        # deterministic order: lexicographic in (numerator, denominator)
        assert roots == [Fraction(-2, 3), Fraction(1), Fraction(2, 5)]

    def test_no_rational_roots(self):
        assert poly_rational_roots(Poly([1, 0, 1])) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_rational_roots(Poly())

    def test_constant_has_no_roots(self):
        assert poly_rational_roots(Poly([5])) == []

    def test_multiplicity_deduplicated(self):
        p = times([-1, 1], [-1, 1])
        assert poly_rational_roots(p) == [Fraction(1)]

    def test_root_zero(self):
        p = Poly([0, 0, 3, 3])  # 3d^2(d + 1)
        assert poly_rational_roots(p) == [Fraction(-1), Fraction(0)]

    def test_large_prime_coefficient(self):
        big = 10**15 + 37
        assert poly_rational_roots(Poly([-big, 1])) == [Fraction(big)]

    def test_exhaustive_small_grid_against_oracle(self):
        for coeffs in product(range(-4, 5), repeat=3):
            if all(c == 0 for c in coeffs):
                continue
            assert poly_rational_roots(Poly(coeffs)) == naive_rational_roots(coeffs)

    def test_random_degree_four_against_oracle(self):
        rng = random.Random(20210513)
        for _ in range(300):
            coeffs = [rng.randint(-10, 10) for _ in range(rng.randint(1, 5))]
            if all(c == 0 for c in coeffs):
                continue
            assert poly_rational_roots(Poly(coeffs)) == naive_rational_roots(coeffs)

    def test_roots_verify_by_evaluation(self):
        rng = random.Random(99)
        for _ in range(100):
            coeffs = [rng.randint(-8, 8) for _ in range(4)]
            if all(c == 0 for c in coeffs):
                continue
            p = Poly(coeffs)
            for r in poly_rational_roots(p):
                assert value_at(p, r) == 0

    def test_roots_plus_and_minus_one(self):
        # (d - 1) and (d + 1) make b - s = 0 and b + s = 0: a divisibility
        # test is skipped there, and the value must decide
        p = times([-1, 1], [1, 1], [-3, 7])
        assert poly_rational_roots(p) == [Fraction(-1), Fraction(1), Fraction(3, 7)]
        assert poly_rational_roots(times([-1, 1], [1, 0, 1])) == [Fraction(1)]
        assert poly_rational_roots(times([1, 1], [1, 1])) == [Fraction(-1)]

    def test_non_reduced_pairs_give_one_root(self):
        # q(0) = -2 and leading coefficient 2: the pair 2/2 repeats 1/1
        p = times([-1, 2], [-2, 1], [-1, 1])
        assert poly_rational_roots(p) == [Fraction(1), Fraction(1, 2), Fraction(2)]

    def test_pivot_sized_constants(self):
        # two 26-bit roots make a 52-bit constant, as in the pivots of sl2 V(n)
        r1, r2 = Fraction(-(2**25 + 35), 3), Fraction(2**26 - 5, 2**20 + 7)
        p = times([-r1.numerator, r1.denominator], [-r2.numerator, r2.denominator],
                  [2**20 + 1, 0, 1])
        assert poly_rational_roots(p) == sorted([r1, r2], key=lambda r: (r.numerator, r.denominator))

    def test_sixty_digit_coefficients(self):
        # n is the product of two primes of 27 and 33 digits: no root may
        # cost a factorization
        n = (2**89 - 1) * (2**107 - 1)
        assert poly_rational_roots(Poly([1, 0, -n])) == []
        p = times([-(2**61 - 1), 2**89 - 1], [1, 0, 1])
        assert poly_rational_roots(p) == [Fraction(2**61 - 1, 2**89 - 1)]

    @settings(max_examples=50, deadline=None)
    @given(factored_polynomials())
    @example(Poly([0, 0, -1, 0, 1]))  # d^2 (d - 1)(d + 1)
    @example(Poly([-(BOUND**2), 0, BOUND**2]))  # b - s and b + s both 0 after content
    def test_products_of_linear_factors_against_divisor_pairs(self, p):
        roots = poly_rational_roots(p)
        assert roots == divisor_pair_rational_roots(p)
        for r in roots:
            assert value_at(p, r) == 0


class TestStripRationalRoots:
    def test_divides_each_root_out_as_often_as_it_divides(self):
        p = times([1, 0, 1], [-1, 2], [-1, 2], [0, 1])  # (d^2 + 1)(2d - 1)^2 d
        assert strip_rational_roots(p, [Fraction(1, 2), Fraction(0)]) == Poly([1, 0, 1])
        assert strip_rational_roots(p, [Fraction(1, 2)]) == times([1, 0, 1], [0, 1])
        assert strip_rational_roots(p, [Fraction(3)]) == p
        assert type(strip_rational_roots(p, [])) is Poly

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=4),
           st.lists(st.tuples(st.fractions(-BOUND, BOUND, max_denominator=BOUND),
                              st.integers(1, 3)), max_size=3, unique_by=lambda t: t[0]))
    def test_gives_back_a_rootless_cofactor(self, coeffs, powers):
        # p * prod (b*d - s)^k with p free of rational roots strips back to p
        p = Poly(coeffs)
        assume(p and not poly_rational_roots(p))
        q = times(p, *([-r.numerator, r.denominator] for r, k in powers for _ in range(k)))
        assert strip_rational_roots(q, poly_rational_roots(q)) == p


def test_the_attributes_the_benchmark_tracer_reads(monkeypatch):
    # perfbench/tracer.py notes the degree of every pivot pencil_eliminate
    # returns and the coefficients of every argument of poly_rational_roots
    pivots, arguments = [], []
    eliminate, roots = delta_solver.pencil_eliminate, delta_solver.poly_rational_roots

    def spy_eliminate(*args):
        out = eliminate(*args)
        pivots.extend(out[0])
        return out

    def spy_roots(p):
        arguments.append(p)
        return roots(p)

    monkeypatch.setattr(delta_solver, "pencil_eliminate", spy_eliminate)
    monkeypatch.setattr(delta_solver, "poly_rational_roots", spy_roots)
    L, _ = lie_core.sl_n(3)
    delta_solver.scan(L, lie_core.adjoint_module(L))
    assert max(p.degree for p in pivots) >= 1 and arguments
    assert all(p.degree == len(p.coeffs) - 1 >= 0 for p in pivots)
    assert all(type(p.coeffs) is tuple and p.coeffs == tuple(p) and p.coeffs[-1]
               and all(type(c) is int for c in p.coeffs) for p in arguments)
