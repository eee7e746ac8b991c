"""Exact scalars and univariate polynomials over the rationals.

Scalars are ``fractions.Fraction`` values (aliased ``Rational``), which are
always kept in canonical form: positive denominator, reduced, zero as 0/1.
Polynomials are immutable coefficient lists, lowest degree first, with the
indeterminate printed as ``d``.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Trial division handles cofactors below this; anything larger goes to sympy.
_TRIAL_LIMIT = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or "-p/q" into a Fraction.  Decimals are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or integer fraction: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(q)


class Poly:
    """Univariate polynomial with Fraction coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x) -> Fraction:
        return poly_eval(self, x)

    def deflate(self, root: Fraction) -> "Poly":
        """Divide exactly by (d - root); raises ValueError unless root is a root."""
        # synthetic division, highest coefficient first; the last carry is
        # the remainder, the value at root
        out = []
        carry = Fraction(0)
        for c in reversed(self.coeffs):
            carry = c + carry * root
            out.append(carry)
        if carry != 0:
            raise ValueError(f"{root} is not a root")
        return Poly(list(reversed(out[:-1])))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*d")
            else:
                terms.append(f"{c}*d^{k}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def poly_eval(p: Poly, x) -> Fraction:
    """Evaluate p at x by Horner's rule, exactly."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_normalize(p: Poly) -> Poly:
    """Scale to coprime integer coefficients with positive leading one.

    The zero polynomial is a fixed point.  Normalization preserves the
    root set and is idempotent.
    """
    if p.is_zero():
        return p
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c * den for c in p.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c.numerator)
    if p.coeffs[-1] < 0:
        g = -g
    return Poly([c / g for c in ints])


def poly_rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, sorted by (numerator, denominator).

    Let q be p scaled to coprime integer coefficients, with its powers of d
    divided out (a zero constant term contributes the root 0).  Every
    rational root s/b in lowest terms has s dividing q(0) and b dividing the
    leading coefficient, and by Gauss's lemma q = (b*d - s) * r with r
    integral, so (b - s) divides q(1) and (b + s) divides q(-1).  Each
    coprime divisor pair +-s/b is tested: it is rejected when one of those
    two divisibilities fails (a test is skipped when its divisor is 0),
    and otherwise confirmed by the exact integer value
    sum q_k s^k b^(n-k) = b^n q(s/b).  No Fraction is built until a root is
    confirmed.  The zero polynomial is rejected since every value is a root
    of it.
    """
    if p.is_zero():
        raise ValueError("zero polynomial: every value is a root")
    if p.degree == 0:
        return []
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = gcd(*ints)
    low = next(k for k, c in enumerate(ints) if c)
    q = [c // g for c in ints[low:]]
    roots = [Fraction(0)] if low else []
    if len(q) > 1:
        at_one = sum(q)
        at_minus_one = sum(q[0::2]) - sum(q[1::2])
        numerators = _divisors(abs(q[0]))
        for b in _divisors(abs(q[-1])):
            # q_k * b^(n-k) for n = deg q, leading term first
            scaled = [c * b**j for j, c in enumerate(reversed(q))]
            for a in numerators:
                if gcd(a, b) != 1:
                    continue
                for s in (a, -a):
                    if b != s and at_one % (b - s):
                        continue
                    if b != -s and at_minus_one % (b + s):
                        continue
                    value = 0
                    for c in scaled:
                        value = value * s + c
                    if value == 0:
                        roots.append(Fraction(s, b))
    return sorted(roots, key=lambda r: (r.numerator, r.denominator))


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0.  Large hard cofactors go to sympy."""
    if n <= 0:
        raise ValueError(f"can only factor positive integers, got {n}")
    factors: dict[int, int] = {}
    for d in (2, 3, 5):
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    d = 7
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        if d * d > n:
            factors[n] = factors.get(n, 0) + 1
        else:
            from sympy import factorint

            for prime, exp in factorint(n).items():
                factors[int(prime)] = factors.get(int(prime), 0) + exp
    return factors


def _divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending; n must be positive."""
    divs = [1]
    for prime, exp in _factorize(n).items():
        divs = [d * prime**e for d in divs for e in range(exp + 1)]
    return sorted(divs)
