"""Dense reference routines the tests check the package against.

A plain Gauss-Jordan elimination on Fractions (``rref``) and what follows
from it: the canonical basis of a span, span equality, the kernel and a
module's invariants.  It shares no code with
``deltader.linalg.nullspace_bareiss``, the package's only elimination, and
both give the same canonical basis: the reduced row echelon form, with
pivot entries 1 and zero rows dropped.  ``delta_residual``
evaluates the defining equation densely, apart from the package's integer
re-check ``deltader.delta_solver.is_delta_derivation``.  ``jacobi_violation``
checks the Jacobi identity on Fractions, apart from the package's integer
check ``deltader.lie_core._check_jacobi``.
"""

from fractions import Fraction

Vec = list[Fraction]


def rref(rows: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def canonical_basis(vectors: list[Vec]) -> tuple[tuple[Fraction, ...], ...]:
    """Unique canonical basis of the span: RREF rows, zero rows dropped."""
    reduced, pivots = rref(vectors)
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def spans_equal(a: list[Vec], b: list[Vec]) -> bool:
    return canonical_basis(a) == canonical_basis(b)


def nullspace_gauss(rows: list[Vec], ncols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Kernel basis via plain Gauss-Jordan on Fractions."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][f]
        basis.append(v)
    return canonical_basis(basis)


def invariants(V) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the joint kernel of all action matrices of V (its invariants)."""
    return nullspace_gauss([row for i in range(len(V.action)) for row in V.action_matrix(i)],
                           V.dim_v)


def bracket(L, i: int, j: int) -> Vec:
    """[e_i, e_j] of the algebra L as a dense coordinate vector."""
    out = [Fraction(0)] * L.dim
    if i == j:
        return out
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for k, c in L.structure.get((i, j), ()):
        out[k] += sign * c
    return out


def sparse(matrices):
    """Dense action matrices as the {column: value} rows the package stores."""
    return [[{s: x for s, x in enumerate(row) if x} for row in m] for m in matrices]


def delta_residual(D, L, V, delta) -> tuple[int, int, tuple[Fraction, ...]] | None:
    """The first basis pair i < j where D([e_i, e_j]) = d (e_i . D(e_j) - e_j . D(e_i))
    fails, as (i, j, residual) with residual = left side - right side, or None.

    Dense Fraction arithmetic on the bracket and on the action matrices."""
    d = Fraction(delta)
    dim_v = V.dim_v
    rho = [[[row.get(m, 0) for m in range(dim_v)] for row in rows] for rows in V.action]

    def act(a, v):
        return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in rho[a]]

    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            b = bracket(L, i, j)
            lhs = [sum((b[k] * D[k][r] for k in range(L.dim)), Fraction(0)) for r in range(dim_v)]
            rhs = [d * (x - y) for x, y in zip(act(i, D[j]), act(j, D[i]))]
            residual = tuple(x - y for x, y in zip(lhs, rhs))
            if any(residual):
                return i, j, residual
    return None


def jacobi_violation(L) -> tuple[tuple[int, int, int], tuple[Fraction, ...]] | None:
    """The first triple i < j < k where the Jacobi identity fails, with its
    residual, or None; Fraction arithmetic on the nonzero structure constants."""
    n = L.dim
    table = dict(L.structure)  # the nonzero terms of [e_a, e_b] for all a != b
    for (i, j), terms in L.structure.items():
        table[(j, i)] = tuple((k, -c) for k, c in terms)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res: dict[int, Fraction] = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in table.get((x, y), ()):
                        for t, c2 in table.get((m, z), ()):
                            res[t] = res.get(t, 0) + c * c2
                if any(res.values()):
                    return (i, j, k), tuple(Fraction(res.get(t, 0)) for t in range(n))
    return None
