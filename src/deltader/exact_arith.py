"""Exact scalars and univariate integer polynomials.

Scalars are ``fractions.Fraction`` values, which are always kept in
canonical form: positive denominator, reduced, zero as 0/1.  Polynomials
in ``d`` have integer coefficients: the pivots of the pencil over ZZ[d]
are integer polynomials, and so is every factor the scan splits off them.
The one polynomial type is ``Poly``: the tuple of its integer
coefficients, lowest degree first, trimmed so that ``()`` is the zero
polynomial.  The helpers take plain tuples, which a ``Poly`` is; a
``Poly`` is built only for the pencil's pivots, their primitive parts and
the scan's residuals.  The pencil elimination holds its entries as single
integers instead (see ``linalg.pencil_eliminate``).  Rational roots are
found by p-adic lifting and rational reconstruction, and each is confirmed
by an exact integer evaluation; no integer is ever factored.  No floating
point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or "-p/q" into a Fraction.  Decimals and q = 0 are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or integer fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def pdivexact(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division in ZZ[d]; raises ArithmeticError if it leaves a remainder.

    The quotient of trimmed tuples is trimmed: it leads with a[-1] / b[-1].
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ()
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
    return tuple(out)


class Poly(tuple):
    """Univariate polynomial with integer coefficients: the tuple of them,
    lowest degree first.

    Trailing zeros are trimmed, so the zero polynomial is the empty tuple
    and otherwise the leading coefficient is nonzero.  Any other
    coefficient type is rejected rather than truncated.  Equality, hashing,
    truth value and immutability are those of the tuple.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int] = ()) -> Poly:
        cs = list(coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise TypeError(f"Poly coefficients must be integers, got {cs!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients as a plain tuple."""
        return tuple(self)

    def __str__(self) -> str:
        terms = [str(c) if k == 0 else f"{c}*d" if k == 1 else f"{c}*d^{k}"
                 for k, c in enumerate(self) if c]
        return " + ".join(terms) or "0"


def poly_normalize(p: Poly) -> Poly:
    """The primitive part: coprime coefficients with positive leading one.

    The zero polynomial is a fixed point.  Normalization preserves the
    root set and is idempotent.
    """
    if not p:
        return p
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return Poly([c // g for c in p])


def poly_rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, sorted by (numerator, denominator).

    Let q be the primitive part of p with its powers of d divided out (a
    zero constant term contributes the root 0), and f = q / gcd(q, q') its
    square-free part.  Nothing is factored; the roots come from a p-adic
    expansion (R. Loos, SIAM J. Comput. 12, 1983):

    * Take the smallest odd prime l not dividing lc(f) at which every root
      r of f mod l, found by evaluating f at 0..l-1, has f'(r) != 0 mod l.
      Such an l exists because f is square-free: only the primes dividing
      lc(f) * disc(f) fail.
    * Newton-lift each root to a modulus m > 2 |lc f| |f(0)|, and run
      extended Euclid on (m, r) up to the first remainder <= |f(0)|.  This
      gives at most one candidate s/b per root.
    * Keep the candidate only if 0 < b <= |lc f|, gcd(s, b) = 1 and the
      exact integer value sum f_k s^k b^(n-k) = b^n f(s/b) is 0.

    This is complete.  A rational root s/b in lowest terms has b dividing
    lc(f) and s dividing f(0) (Gauss's lemma), so l does not divide b and
    s/b reduces to a root of f mod l, which is simple.  By Hensel's lemma
    its lift mod m is unique, so it is s/b mod m, and since m > 2 |s| b
    rational reconstruction recovers s/b.  Every reported root is confirmed
    exactly, and no floating point is used.  The zero polynomial is rejected
    since every value is a root of it.
    """
    if not p:
        raise ValueError("zero polynomial: every value is a root")
    g = gcd(*p)
    low = next(k for k, c in enumerate(p) if c)
    q = tuple(c // g for c in p[low:])
    roots = [Fraction(0)] if low else []
    if len(q) > 1:
        f = pdivexact(q, _gcd_prs(q, _derivative(q)))
        lead, const = abs(f[-1]), abs(f[0])
        df = _derivative(f)
        prime = 1
        while True:
            prime += 2
            if f[-1] % prime and all(prime % k for k in range(3, isqrt(prime) + 1, 2)):
                residues = [x for x in range(prime) if not _value_mod(f, x, prime)]
                if all(_value_mod(df, x, prime) for x in residues):
                    break
        for r in residues:
            m = prime
            while m <= 2 * lead * const:
                m *= m
                r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
            r0, r1, t0, t1 = m, r, 0, 1
            while r1 > const:
                k = r0 // r1
                r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
            s, b = (r1, t1) if t1 > 0 else (-r1, -t1)
            if b > lead or gcd(s, b) != 1:
                continue
            value, power = 0, 1
            for c in reversed(f):
                value = value * s + c * power
                power *= b
            if value == 0:
                roots.append(Fraction(s, b))
    return sorted(roots, key=lambda r: (r.numerator, r.denominator))


def strip_rational_roots(p: Poly, roots: Iterable[Fraction]) -> Poly:
    """Divide out b*d - s for every root s/b, as often as it divides.

    By Gauss's lemma b*d - s divides the integer polynomial p in ZZ[d]
    whenever s/b is a root, so exact integer division suffices; a division
    that leaves a remainder means the root is gone.
    """
    for r in roots:
        factor = (-r.numerator, r.denominator)
        while len(p) > 1:
            try:
                p = pdivexact(p, factor)
            except ArithmeticError:
                break
    return Poly(p)


def _derivative(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * c for k, c in enumerate(a) if k)


def _value_mod(a: tuple[int, ...], x: int, m: int) -> int:
    value = 0
    for c in reversed(a):
        value = (value * x + c) % m
    return value


def _gcd_prs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """A gcd of a and b in ZZ[d], primitive up to sign, for primitive a: a primitive PRS."""
    while b:
        g = gcd(*b)
        b = tuple(c // g for c in b)
        r = list(a)  # the pseudo-remainder of a by b, up to a nonzero constant factor
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            while r and not r[-1]:
                r.pop()
        a, b = b, tuple(r)
    return a
