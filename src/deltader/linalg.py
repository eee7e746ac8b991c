"""Exact linear algebra over the rationals and over integer polynomials.

``nullspace_bareiss`` is the package's one kernel route, for the fixed-d
systems (a few percent nonzero) and for every span question.  It takes
sparse rows (``{column: entry}``), scales each to a primitive integer row
and eliminates fraction-free on those rows only: no Fraction arithmetic, no
dense matrix.  It returns the canonical basis of the kernel, its reduced row
echelon form under the ambient coordinate order, as primitive integer rows
(``delta_solver.vector_to_map`` divides out the pivot).  A subspace is the
kernel of its own kernel, so ``rref`` gets the canonical basis of a span
from two of its calls, and two spans are equal exactly when their kernels
are.  ``tests/oracle.py`` keeps a dense Gauss-Jordan elimination on
Fractions as the independent oracle it is tested against.

``pencil_eliminate`` runs Bareiss elimination over ZZ[d] on one block of
the pencil A + d*B, given as the system's own sparse integer rows (a map of
A's and a map of B's entries per row), recording every pivot polynomial.
Pivots are chosen by lowest degree first (ties by column, then row), which
keeps the degrees of recorded pivots small.  Each entry a + b*d is held as
the single integer a + (b << k), its value at 2^k (Kronecker substitution),
with k sized by Hadamard's bound so that the arithmetic is that of ZZ[d] on
one integer per entry.  The scan calls it once per connected component of
its sparse pencil: rank is additive over the blocks of a block-diagonal
matrix, and each block's last pivot is a maximal minor of that block, which
vanishes wherever the block's rank drops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .exact_arith import Poly

SparseRow = dict[int, Fraction]  # column -> entry; int entries are fine too
PencilRow = tuple[dict[int, int], dict[int, int]]  # the entries of one row in A and in B


def _divide_content(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for x in row.values():
        g = gcd(g, x)
    if g > 1:
        for c in row:
            row[c] //= g


def _primitive(row: SparseRow) -> dict[int, int]:
    """The row scaled to coprime integers, zero entries dropped."""
    den = 1
    for x in row.values():
        den = lcm(den, x.denominator)
    out = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
    _divide_content(out)
    return out


def nullspace_bareiss(rows: list[SparseRow], ncols: int) -> tuple[dict[int, int], ...]:
    """Kernel basis via sparse integer fraction-free elimination.

    Rows (``{column: rational}``) are scaled to primitive integer rows.
    Gauss-Jordan elimination takes pivots from the last column down, each
    from the shortest row holding it, and keeps every row primitive.  A pivot
    row then holds only its pivot and free columns left of it, so the kernel
    vector of free column f (e_f minus the f-entries over the pivots) has
    leading entry f and zeros at the other free columns: the canonical basis,
    as primitive integer rows ``{column: int}`` positive at f, in ascending f.
    """
    work = [r for r in map(_primitive, rows) if r]
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for t, row in enumerate(work):
        for c in row:
            holders.setdefault(c, set()).add(t)
    is_pivot_row = [False] * len(work)
    pivot_row: dict[int, int] = {}  # pivot column -> row index
    for c in range(ncols - 1, -1, -1):
        holding = holders.get(c)
        candidates = [t for t in holding or () if not is_pivot_row[t]]
        if not candidates:
            continue
        t = min(candidates, key=lambda u: (len(work[u]), u))
        is_pivot_row[t] = True
        pivot_row[c] = t
        top = work[t]
        piv = top[c]
        for u in list(holding):
            if u == t:
                continue
            row = work[u]
            g = gcd(piv, row[c])
            a, b = piv // g, row[c] // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, y in top.items():
                x = row.get(k, 0) - b * y
                if x:
                    if k not in row:
                        holders[k].add(u)
                    row[k] = x
                else:
                    del row[k]
                    holders[k].discard(u)
            _divide_content(row)
    # v = v[f] * (e_f - sum of row[f] / row[p] * e_p), scaled only as far as it must be
    kernel = {f: {f: 1} for f in range(ncols) if f not in pivot_row}
    for p, t in pivot_row.items():
        row = work[t]
        for f, x in row.items():
            if f != p:
                v = kernel[f]
                k = abs(row[p]) // gcd(v[f] * x, row[p])
                if k != 1:
                    for c in v:
                        v[c] *= k
                v[p] = -v[f] * x // row[p]
    return tuple(kernel.values())


def rref(rows: list[SparseRow], ncols: int) -> tuple[dict[int, int], ...]:
    """The canonical basis of the span: its reduced row echelon rows, scaled to primitive integers.

    A subspace is the kernel of its own kernel, and ``nullspace_bareiss``
    returns the canonical basis of a kernel, so two of its calls give it.
    """
    return nullspace_bareiss(list(nullspace_bareiss(rows, ncols)), ncols)


def _unpack(v: int, k: int) -> Poly:
    """The polynomial p with p(2^k) = v whose coefficients lie in (-2^(k-1), 2^(k-1)]."""
    mask, half, cs = (1 << k) - 1, 1 << (k - 1), []
    while v:
        c = v & mask
        if c > half:
            c -= 1 << k
        cs.append(c)
        v = (v - c) >> k
    return Poly(cs)


def pencil_eliminate(rows: list[PencilRow], cols: list[int]) -> tuple[list[Poly], int]:
    """Fraction-free elimination over ZZ[d] on rows of a pencil A + d*B.

    Each row is a pair of ``{column: integer}`` maps, its entries in A and
    in B (``DerivationSystem.a_part[r], b_part[r]``), and ``cols`` lists
    the columns in the order the elimination sees them.  Returns the
    recorded pivot polynomials (in pivot order, unnormalized) and the rank
    over the rational function field.  Pivot selection: minimal degree,
    ties broken by column then row index, which favors constant pivots and
    keeps recorded-pivot degrees low.

    Each entry p is held as the single integer p(2^k), a Kronecker
    substitution: a + b*d enters as ``a + (b << k)``.  Evaluation at 2^k is
    a ring homomorphism, so a Bareiss step ``(piv*x - mult*y) / prev`` is
    two integer products, a subtraction and an exact integer division; a
    remainder raises ArithmeticError.  Every entry the elimination produces
    is a minor of the input.  On the unit circle a minor is at most the
    product of its rows' l2 norms (Hadamard's inequality), and |a + b*d| is
    at most |a| + |b| there, so a row's squared l2 norm is at most its row
    value sum_c (|a_c| + |b_c|)^2; every coefficient of a polynomial is at
    most its maximum on the unit circle.  Row values of nonzero rows are at
    least 1, so every coefficient of every minor is at most sqrt(P), P the
    product of the len(cols) largest row values.  With k two more than the
    bit length of isqrt(P) + 1, every coefficient is below 2^(k-2) in
    absolute value.  Then p(2^k) is c*2^(k*n) (n = deg p, c the leading
    coefficient) plus less than 2^(k*n - 1) in absolute value: it is 0 only
    for p = 0, its bit length lies in [k*n, k*n + k - 1], so the bit length
    floor-divided by k is exactly the degree the pivot rule compares, and
    its balanced base-2^k digits are the coefficients of p.  Only the
    recorded pivots are unpacked.

    The Bareiss update writes every nonzero entry of the rows below the
    pivot, and records each row's lowest (degree, column) as it goes, so the
    pivot search is one pass over the rows.
    """
    ncols = len(cols)
    values = [sum((abs(a.get(c, 0)) + abs(b.get(c, 0))) ** 2 for c in a.keys() | b.keys())
              for a, b in rows]
    rows = [r for r, v in zip(rows, values) if v]
    values = sorted(filter(None, values), reverse=True)
    k = (isqrt(prod(values[:ncols])) + 1).bit_length() + 2
    m = [[a.get(c, 0) + (b.get(c, 0) << k) for c in cols] for a, b in rows]
    # keys[i]: (degree, column) of the first lowest-degree entry of row m[i]
    keys = [min([(e.bit_length() // k, c) for c, e in enumerate(row) if e]) for row in m]
    pivot_polys: list[Poly] = []
    t = 0
    prev = 1
    while t < len(m) and t < ncols:
        r = min(range(t, len(m)), key=keys.__getitem__)
        c = keys[r][1]
        m[t], m[r] = m[r], m[t]
        keys[r] = keys[t]
        if c != t:
            # finished rows above t are never read again
            for row in m[t:]:
                row[t], row[c] = row[c], row[t]
        top = m[t]
        piv = top[t]
        pivot_polys.append(_unpack(piv, k))
        exact = prev != 1
        live = t + 1
        for i in range(t + 1, len(m)):
            row = m[i]
            mult = row[t]
            low, col = None, 0  # low: k times the lowest degree so far
            for j in range(t + 1, ncols):
                x, y = row[j], top[j]
                if mult and y:
                    num = piv * x - mult * y
                elif x:
                    num = piv * x
                else:
                    continue
                if exact:
                    num, rem = divmod(num, prev)
                    if rem:
                        raise ArithmeticError("inexact polynomial division")
                row[j] = num
                if num:
                    b = num.bit_length()
                    if low is None or b < low:
                        low, col = b - b % k, j
            row[t] = 0
            if low is not None:  # rows that became zero are dropped
                m[live], keys[live] = row, (low // k, col)
                live += 1
        del m[live:], keys[live:]
        prev = piv
        t += 1
    return pivot_polys, t
