"""Exact scalars and univariate integer polynomials.

Scalars are ``fractions.Fraction`` values, which are always kept in
canonical form: positive denominator, reduced, zero as 0/1.  Polynomials
in ``d`` have integer coefficients: the pivots of the pencil over ZZ[d]
are integer polynomials, and so is every factor the scan splits off them.
A polynomial is a trimmed tuple of ints, lowest degree first, with ``()``
the zero polynomial.  ``Poly`` wraps one for the pivots and the scan's
report; the tuple functions below work on the raw tuples, so that the
pencil's inner loop creates no objects but tuples.
No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Trial division handles cofactors below this; anything larger goes to sympy.
_TRIAL_LIMIT = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or "-p/q" into a Fraction.  Decimals are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or integer fraction: {text!r}")
    return Fraction(text)


Coeffs = tuple[int, ...]  # trimmed, lowest degree first; () is the zero polynomial


def _ptrim(cs: list[int]) -> Coeffs:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    if len(a) == 1:  # from a list: a tuple built from an iterator raised the peak memory
        return tuple([a[0] * y for y in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def psub(a: Coeffs, b: Coeffs) -> Coeffs:
    if not b:
        return a
    out = list(a) + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return _ptrim(out)


def pdivexact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division in ZZ[d]; raises ArithmeticError if it leaves a remainder."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ()
    if len(b) == 1:  # the common case: the previous pivot is a constant
        out = []
        for x in a:
            q, r = divmod(x, b[0])
            if r:
                raise ArithmeticError("inexact polynomial division")
            out.append(q)
        return tuple(out)
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    blead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + len(b) - 1], blead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if q:
            out[k] = q
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


class Poly:
    """Univariate polynomial with integer coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.  Any other coefficient type is
    rejected rather than truncated.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise TypeError(f"Poly coefficients must be integers, got {cs!r}")
        object.__setattr__(self, "coeffs", _ptrim(cs))

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


def poly_normalize(p: Poly) -> Poly:
    """The primitive part: coprime coefficients with positive leading one.

    The zero polynomial is a fixed point.  Normalization preserves the
    root set and is idempotent.
    """
    if p.is_zero():
        return p
    g = gcd(*p.coeffs)
    if p.coeffs[-1] < 0:
        g = -g
    return Poly([c // g for c in p.coeffs])


def poly_rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, sorted by (numerator, denominator).

    Let q be p divided by the gcd of its coefficients, with its powers of d
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
    g = gcd(*p.coeffs)
    low = next(k for k, c in enumerate(p.coeffs) if c)
    q = [c // g for c in p.coeffs[low:]]
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
