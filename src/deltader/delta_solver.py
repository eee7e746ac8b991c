"""Exact solution spaces of the twisted derivation equation.

A linear map D from an algebra L to a module V is a d-twisted derivation
(here d is a scalar) when

    D([x, y]) = -d * y . D(x) + d * x . D(y)        for all x, y in L,

equivalently D([x, y]) + d * y . D(x) - d * x . D(y) = 0.  Collecting the
unknowns D(e_a) coordinate-wise gives a linear system whose matrix is a
pencil A + d*B: one block of dim_v equations per basis pair i < j in
lexicographic order, and the unknown column index encoding

    column(a, m) = a * dim_v + m

for the m-th coordinate of D(e_a).  Both the pair ordering and the column
encoding are fixed; all golden outputs depend on them.

Kernels at fixed rational d come from fraction-free elimination as primitive
integer rows, each re-verified as it is against the defining equation by code
independent of the elimination; ``vector_to_map`` then divides out its first
entry, so bases are reduced echelon and byte-equal for equal subspaces.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exact_arith import Poly, poly_normalize, poly_rational_roots, strip_rational_roots
from .lie_core import AlgebraMismatch, LieAlgebra, Representation, weight_decomposition
from .linalg import nullspace_bareiss, pencil_eliminate, rref


class ShapeMismatch(Exception):
    pass


class VerificationFailure(Exception):
    """An internal consistency check failed; indicates an elimination bug."""


DerivationMap = tuple[tuple[Fraction, ...], ...]  # dim rows of dim_v coordinates


class DerivationSystem(NamedTuple):
    """The pencil A + d*B of the twisted-derivation equations, stored sparsely.

    ``a_part[r]`` and ``b_part[r]`` map the columns of the nonzero entries
    of row r of A and of B to their coefficients (read-only).  Each row is
    scaled by the lcm of the denominators of its entries in A and B, so the
    coefficients are integers; scaling a row changes no solution.  The
    scan hands the pairs ``(a_part[r], b_part[r])`` to
    ``linalg.pencil_eliminate`` as they are.
    """

    algebra: LieAlgebra
    module: Representation
    rows: int
    cols: int
    a_part: tuple[dict[int, int], ...]  # the constant coefficients
    b_part: tuple[dict[int, int], ...]  # the coefficients of d

    def specialize(self, delta, rows) -> list[dict[int, int]]:
        """The rows ``rows`` of A + d*B at d = p/q, in that order, as
        ``{column: entry}`` maps of nonzeros.

        Each row comes out multiplied by q (and by its scale), so entries
        stay integers: one multiply-add per stored coefficient.
        """
        d = Fraction(delta)
        p, q = d.numerator, d.denominator
        out = []
        for r in rows:
            row = {c: q * a for c, a in self.a_part[r].items()}
            for c, b in self.b_part[r].items():
                x = row.get(c, 0) + p * b
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
            out.append(row)
        return out


class DerivationSpace(NamedTuple):
    """Exact basis of the space of d-twisted derivations at a fixed d.

    ``basis[t][a][m]`` is the m-th coordinate of the image of e_a under the
    t-th basis map.  The flattened basis is in reduced echelon form under
    the fixed column order.  ``weights`` carries one grading eigenvalue per
    basis element when ``solve`` was given a grading element.
    """

    delta: Fraction
    basis: tuple[DerivationMap, ...]
    weights: tuple[Fraction, ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)


class ScanReport(NamedTuple):
    """The rational d at which some block of the pencil can lose rank.

    ``findings`` maps each rational root of a block's last pivot (and 0,
    when asked for) to its verified kernel dimension if that is nonzero, in
    ascending d order.  When the generic rank is full these are exactly the
    rational d with a nontrivial twisted-derivation space.
    ``nonrational_factors`` lists what remains of each last pivot after its
    rational roots are divided out, when of degree >= 2 (primitive, leading
    coefficient positive); their irrational roots are the only values the
    scan does not certify.  ``generic_rank`` is the rank of the pencil over
    the rational function field.
    """

    findings: dict[Fraction, int]
    nonrational_factors: tuple[Poly, ...]
    generic_rank: int


def vector_to_map(v: dict, dim: int, dim_v: int) -> DerivationMap:
    """The map of a nonzero sparse row, divided by the entry at its first column."""
    lead, zero = v[min(v)], Fraction(0)
    return tuple(tuple(Fraction(v[c], lead) if c in v else zero for c in range(a, a + dim_v))
                 for a in range(0, dim * dim_v, dim_v))


def assemble_system(L: LieAlgebra, V: Representation) -> DerivationSystem:
    """Build the equation pencil for (L, V) from the nonzero constants and actions.

    For each pair i < j the block of dim_v rows expresses
    sum_k c_ij^k D(e_k) + d * rho(e_j) D(e_i) - d * rho(e_i) D(e_j) = 0.
    """
    if V.algebra != L:
        raise AlgebraMismatch("module is not a representation of this algebra")
    dim, dim_v = L.dim, V.dim_v
    pairs = tuple((i, j) for i in range(dim) for j in range(i + 1, dim))
    a_part = []
    b_part = []
    for i, j in pairs:
        terms = L.structure.get((i, j), ())
        for r in range(dim_v):
            a = {k * dim_v + r: c for k, c in terms}
            b = {i * dim_v + m: x for m, x in V.action[j][r].items()}
            for m, x in V.action[i][r].items():
                b[j * dim_v + m] = -x
            den = lcm(*(x.denominator for part in (a, b) for x in part.values()))
            a_part.append({c: x.numerator * (den // x.denominator) for c, x in a.items()})
            b_part.append({c: x.numerator * (den // x.denominator) for c, x in b.items()})
    return DerivationSystem(
        algebra=L,
        module=V,
        rows=len(pairs) * dim_v,
        cols=dim * dim_v,
        a_part=tuple(a_part),
        b_part=tuple(b_part),
    )


def is_delta_derivation(v, L: LieAlgebra, V: Representation, delta) -> tuple[bool, tuple | None]:
    """Check the defining equation on all basis pairs, by direct evaluation.

    ``v`` is the map D as a sparse row ``{a * dim_v + m: D(e_a)_m}`` of
    integers or rationals.  Returns (True, None), or (False, (i, j, residual))
    for the first pair where the equation fails.  Independent of the
    elimination: besides v it reads only ``L.brackets`` and ``V.columns``, the
    integer tables L and V built once.  With vden the lcm of the denominators
    of v's entries and d = p/q, every residual is evaluated multiplied by
    q * V.den * L.den * vden, so it vanishes exactly when the rational one does.
    """
    delta = Fraction(delta)
    p, q = delta.numerator, delta.denominator
    dim, dim_v = L.dim, V.dim_v
    if any(not 0 <= c < dim * dim_v for c in v):
        raise ShapeMismatch(f"map must be {dim} x {dim_v}")
    vden = lcm(*(x.denominator for x in v.values()))
    images = [[] for _ in range(dim)]
    for c, x in v.items():
        a, m = divmod(c, dim_v)
        images[a].append((m, vden * x.numerator // x.denominator))
    bracket_images = [[(m, q * V.den * x) for m, x in row] for row in images]
    action_images = [[(m, p * L.den * x) for m, x in row] for row in images]
    for i in range(dim):
        for j in range(i + 1, dim):
            residual = [0] * dim_v
            for k, c in L.brackets.get((i, j), ()):
                for r, x in bracket_images[k]:
                    residual[r] += c * x
            for m, x in action_images[i]:  # + d * e_j . D(e_i)
                for r, y in V.columns[j][m]:
                    residual[r] += y * x
            for m, x in action_images[j]:  # - d * e_i . D(e_j)
                for r, y in V.columns[i][m]:
                    residual[r] -= y * x
            if any(residual):
                scale = q * V.den * L.den * vden
                return False, (i, j, tuple(Fraction(x, scale) for x in residual))
    return True, None


def _space_from_vectors(L: LieAlgebra, V: Representation, delta, vectors) -> DerivationSpace:
    for v in vectors:
        ok, witness = is_delta_derivation(v, L, V, delta)
        if not ok:
            raise VerificationFailure(
                f"kernel element fails the defining equation at pair {witness[:2]}"
            )
    maps = tuple(vector_to_map(v, L.dim, V.dim_v) for v in vectors)
    return DerivationSpace(delta=Fraction(delta), basis=maps)


def kernel_at(system: DerivationSystem, delta) -> DerivationSpace:
    """Exact kernel of the pencil specialized at one rational value."""
    delta = Fraction(delta)
    vectors = nullspace_bareiss(system.specialize(delta, range(system.rows)), system.cols)
    return _space_from_vectors(system.algebra, system.module, delta, vectors)


def solve(
    L: LieAlgebra,
    V: Representation,
    delta,
    use_grading: int | None = None,
) -> DerivationSpace:
    """Compute the twisted-derivation space at one rational value.

    With ``use_grading`` set to the index of a basis element whose adjoint
    and module actions are diagonal, the column of coordinate m of D(e_a)
    has the weight eigenvalue(a) - eigenvalue(m), and no equation couples
    two weights.  The elimination therefore never mixes them, every
    canonical basis element is homogeneous, and each is tagged with its
    weight (a basis element that is not homogeneous is an internal error).

    Degenerate inputs behave as the equations dictate: a one-dimensional
    algebra has no basis pairs, hence no equations, and every map
    qualifies (dimension dim V); a zero-dimensional module always gives
    the zero space.
    """
    system = assemble_system(L, V)
    if use_grading is None:
        return kernel_at(system, delta)
    lam: dict[int, Fraction] = {}
    mu: dict[int, Fraction] = {}
    for w, alg_idx, mod_idx in weight_decomposition(L, V, use_grading):
        for a in alg_idx:
            lam[a] = w
        for m in mod_idx:
            mu[m] = w
    space = kernel_at(system, delta)
    weights = []
    for D in space.basis:
        found = {lam[a] - mu[m] for a, row in enumerate(D) for m, x in enumerate(row) if x}
        if len(found) != 1:
            raise VerificationFailure("kernel element is not homogeneous for the grading")
        weights.append(found.pop())
    return DerivationSpace(delta=space.delta, basis=space.basis, weights=tuple(weights))


def inner_derivations(L: LieAlgebra, V: Representation) -> DerivationSpace:
    """The maps x -> x . v, which solve the equation at d = 1.

    The inner map of v vanishes exactly when v is invariant, so the
    dimension is dim V minus the dimension of the invariants.  The basis is
    the canonical one of the span of the maps of the module basis.
    """
    if V.algebra != L:
        raise AlgebraMismatch("module is not a representation of this algebra")
    dim, dim_v = L.dim, V.dim_v
    generators = [
        {a * dim_v + r: x for a in range(dim) for r in range(dim_v) if (x := V.action[a][r].get(m))}
        for m in range(dim_v)
    ]
    return _space_from_vectors(L, V, Fraction(1), rref(generators, dim * dim_v))


def _components(system: DerivationSystem) -> list[tuple[list[int], list[int]]]:
    """The connected components of the pencil's row-column incidence graph.

    A row joins every column where it has a nonzero entry in A or in B.
    Each component is returned as its rows and its columns, both in
    ascending order; rows without entries and columns no row touches
    belong to no component.  Permuting rows and columns by component makes
    the pencil block diagonal.
    """
    parent = list(range(system.cols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    anchors = []  # a column of each row, None for a row without entries
    for arow, brow in zip(system.a_part, system.b_part):
        keys = arow.keys() | brow.keys()
        anchor = find(next(iter(keys))) if keys else None
        for c in keys:
            parent[find(c)] = anchor
        anchors.append(anchor)
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for r, anchor in enumerate(anchors):
        if anchor is not None:
            blocks.setdefault(find(anchor), ([], []))[0].append(r)
    for c in range(system.cols):
        block = blocks.get(find(c))
        if block is not None:
            block[1].append(c)
    return list(blocks.values())


def _dimension_at(system: DerivationSystem, nullity: int, blocks, delta: Fraction) -> int:
    """The kernel dimension of the pencil at ``delta``, given its generic
    nullity and the blocks ``(rows, cols, rank)`` whose last pivot vanishes
    there.

    Every other block keeps its generic rank.  Each block handed in is
    specialized (its rows only, mapped to block-local columns) and
    eliminated, its kernel replaces its generic cols - rank, and every
    kernel row found is re-checked, its columns renamed to the system's.
    """
    dim = nullity
    for rows, cols, rank in blocks:
        local = {c: t for t, c in enumerate(cols)}
        vectors = nullspace_bareiss(
            [{local[c]: x for c, x in row.items()} for row in system.specialize(delta, rows)],
            len(cols),
        )
        renamed = [{cols[t]: x for t, x in v.items()} for v in vectors]
        _space_from_vectors(system.algebra, system.module, delta, renamed)
        dim += len(vectors) - (len(cols) - rank)
    return dim


def scan(L: LieAlgebra, V: Representation, include_zero: bool = False) -> ScanReport:
    """Find every rational d whose twisted-derivation space is nontrivial.

    Method: split the pencil into the connected components of its
    row-column incidence graph (``_components``).  Ordered by component
    the pencil is block diagonal, so its rank at every d, and over the
    rational function field, is the sum of the block ranks.  Each block is
    eliminated on its own by fraction-free elimination over ZZ[d]
    (``pencil_eliminate``), which gives its generic rank and its last
    pivot.  That pivot is one of the block's maximal nonzero minors
    (Bareiss), so the block keeps its generic rank wherever it is nonzero,
    and a rank drop at d0 makes every maximal minor of the block, this one
    included, vanish there.  The rational roots of the last pivots are
    therefore a superset of the rational exceptional values, and these are
    the candidates; each is recorded with the blocks whose last pivot
    vanishes there.

    The kernel at a candidate is block-local (``_dimension_at``): only the
    blocks recorded for it are specialized and eliminated, their kernel
    vectors are re-checked by code independent of the elimination, and
    every other block adds its generic nullity.  That makes the report
    exact over the rationals.  Irrational rank drops are bounded the same
    way: whatever survives of a last pivot after its rational roots are
    divided out (necessarily of degree >= 2) is reported unresolved in
    ``nonrational_factors``.

    d = 0 is excluded by default: the equation at 0 just says D kills the
    commutant, so the dimension is (dim L - dim [L,L]) * dim V, which is 0
    for perfect algebras and trivially nonzero otherwise.  With
    ``include_zero`` the value is verified and reported like any other.
    """
    system = assemble_system(L, V)
    generic_rank = 0
    drops: dict[Fraction, list[tuple[list[int], list[int], int]]] = {}
    nonrational: set[Poly] = set()
    for rows, cols in _components(system):
        pivots, rank = pencil_eliminate([(system.a_part[r], system.b_part[r]) for r in rows], cols)
        generic_rank += rank
        last = poly_normalize(pivots[-1])
        if last.degree < 1:
            continue
        roots = poly_rational_roots(last)
        for d in roots:
            drops.setdefault(d, []).append((rows, cols, rank))
        residual = strip_rational_roots(last, roots)
        if residual.degree >= 2:
            nonrational.add(residual)
    # The elimination works on untracked integers, so it rarely triggers an
    # automatic collection, let alone a full one, and CPython empties its
    # free lists only in a full collection: without this one, a process
    # that scans job after job keeps growing its allocated blocks.  The
    # cyclic objects it also frees (about 30 after a job, the closures of
    # the previous job's JSON encoder) are not that cost; with no cycles
    # left and no collection, the blocks still grow.  One collection after
    # the last block suffices.
    gc.collect()

    nullity = system.cols - generic_rank
    zero = Fraction(0)
    tried = drops.keys() | {zero} if include_zero else drops.keys() - {zero}
    findings: dict[Fraction, int] = {}
    for delta in sorted(tried):
        dim = _dimension_at(system, nullity, drops.get(delta, ()), delta)
        if delta == zero and dim != (L.dim - L.commutant_dimension()) * V.dim_v:
            raise VerificationFailure("closed form at d=0 disagrees with the kernel")
        if dim >= 1:
            findings[delta] = dim
    factors = tuple(sorted(nonrational, key=lambda q: (q.degree, q)))
    return ScanReport(findings=findings, nonrational_factors=factors, generic_rank=generic_rank)
