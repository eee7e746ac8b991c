"""Exact scalars and univariate integer polynomials.

Scalars are ``fractions.Fraction`` values, which are always kept in
canonical form: positive denominator, reduced, zero as 0/1.  Polynomials
in ``d`` have integer coefficients: the pivots of the pencil over ZZ[d]
are integer polynomials, and so is every factor the scan splits off them.
A polynomial is a trimmed tuple of ints, lowest degree first, with ``()``
the zero polynomial.  ``Poly`` wraps one for the pivots and the scan's
report; root isolation and the deflation of found roots work on the raw
tuples.  The pencil elimination holds its entries as single integers
instead (see ``linalg.pencil_eliminate``).  Rational roots are found by
p-adic lifting and rational reconstruction, and each is confirmed by an
exact integer evaluation; no integer is ever factored.  No floating point
is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or "-p/q" into a Fraction.  Decimals and q = 0 are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or integer fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


Coeffs = tuple[int, ...]  # trimmed, lowest degree first; () is the zero polynomial


def _ptrim(cs: list[int]) -> Coeffs:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pdivexact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division in ZZ[d]; raises ArithmeticError if it leaves a remainder."""
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
    if p.is_zero():
        raise ValueError("zero polynomial: every value is a root")
    g = gcd(*p.coeffs)
    low = next(k for k, c in enumerate(p.coeffs) if c)
    q = tuple(c // g for c in p.coeffs[low:])
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


def _derivative(a: Coeffs) -> Coeffs:
    return tuple(k * c for k, c in enumerate(a) if k)


def _value_mod(a: Coeffs, x: int, m: int) -> int:
    value = 0
    for c in reversed(a):
        value = (value * x + c) % m
    return value


def _gcd_prs(a: Coeffs, b: Coeffs) -> Coeffs:
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
            _ptrim(r)
        a, b = b, tuple(r)
    return a
