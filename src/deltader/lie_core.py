"""Lie algebras over the rationals, given by structure constants, and their
finite-dimensional representations.

Conventions fixed here and relied on by all golden outputs:

* Structure constants are stored sparsely for i < j only; antisymmetry is
  structural, the bracket of arbitrary vectors is computed by bilinear
  expansion.
* The 3-dimensional rank-1 simple algebra ``sl2()`` uses the basis order
  (e-, h, e+) with [h, e-] = -2 e-, [h, e+] = 2 e+, [e+, e-] = h, so the
  ad(h) eigenvalues are (-2, 0, 2); ``weight_decomposition`` always
  reports raw eigenvalues.
* The irreducible (n+1)-dimensional module ``sl2_module(n)`` has basis
  v_0..v_n with e- . v_i = (i+1) v_{i+1}, h . v_i = (n-2i) v_i,
  e+ . v_i = (n-i+1) v_{i-1} (terms out of range are zero); v_i carries
  the bookkeeping weight i, which is (n - eigenvalue)/2.
* Tensor product bases are row-major in (first factor, second factor).
* A module stores the action of each basis element as dim_v sparse rows,
  ``{column: nonzero Fraction}``; ``action_matrix`` is the dense view.

Every algebra and module the package builds comes from
``algebra_from_structure_constants`` or ``representation_from_action``;
each checks its result exhaustively (the Jacobi identity over all basis
triples, the homomorphism identity over all basis pairs).  Builders
compute constants and action rows with shared row helpers and check each
object they build once: a block sum is a module exactly when each block
is, and rho (x) I exactly when rho is.

The command line's descriptor grammar lives here too (README, "Command
line"): ``parse_algebra_atoms`` and ``parse_module_terms`` check a
descriptor and return its atoms without building anything, which is all
``catalog.theorem_findings`` reads.  ``algebra_from_atoms`` and
``module_from_terms`` compile atoms into an ``--input`` file's data, then
build and check each object once; ``parse_*_descriptor`` parse and build.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .linalg import SparseRow, nullspace_bareiss


class JacobiViolation(ValueError):
    """Raised when the Jacobi identity fails on a basis triple."""

    def __init__(self, i: int, j: int, k: int, residual: tuple[Fraction, ...]):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(f"Jacobi identity fails on triple {self.triple}: "
                         f"residual ({', '.join(map(str, residual))})")


class HomomorphismViolation(ValueError):
    """Raised when action matrices fail the bracket relation on a basis pair."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"action matrices violate the bracket relation on pair {self.pair}")


class IndexOutOfRange(ValueError):
    pass


class AlgebraMismatch(ValueError):
    pass


class NotDiagonal(ValueError):
    pass


# (i, j) with i < j  ->  ((k, c), ...) meaning [e_i, e_j] = sum c * e_k
StructureMap = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


class LieAlgebra:
    """An algebra by its sparse structure constants; fields are read-only.

    ``brackets[(a, b)]`` holds the terms (k, den * c) of each nonzero
    [e_a, e_b], a != b, with ``den`` the lcm of the constants' denominators:
    the integer table the Jacobi check and the re-check read, built here once."""

    __slots__ = ("dim", "structure", "basis_labels", "summand_boundaries", "den", "brackets")

    def __init__(self, dim: int, structure: StructureMap, basis_labels: tuple[str, ...],
                 summand_boundaries: tuple[tuple[int, int], ...]):
        den = lcm(*(c.denominator for terms in structure.values() for _, c in terms))
        brackets = {}
        for (i, j), terms in structure.items():
            brackets[(i, j)] = tuple((k, c.numerator * (den // c.denominator)) for k, c in terms)
            brackets[(j, i)] = tuple((k, -c) for k, c in brackets[(i, j)])
        fields = (dim, structure, basis_labels, summand_boundaries, den, brackets)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is read-only")

    def __eq__(self, other) -> bool:
        """Structural equality; labels are cosmetic."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.structure == other.structure
            and self.summand_boundaries == other.summand_boundaries
        )

    def commutant_dimension(self) -> int:
        """Dimension of [L, L]: dim L minus the kernel dimension of the bracket rows."""
        rows = [dict(terms) for terms in self.structure.values()]
        return self.dim - len(nullspace_bareiss(rows, self.dim))


def _check_jacobi(alg: LieAlgebra) -> None:
    """Check every triple i < j < k on nonzero constants only, in integers: on
    ``alg.brackets``, the constants times ``alg.den``; a residual is over den**2."""
    n, table = alg.dim, alg.brackets
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res: dict[int, int] = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in table.get((x, y), ()):
                        for t, c2 in table.get((m, z), ()):
                            res[t] = res.get(t, 0) + c * c2
                if any(res.values()):
                    residual = tuple(Fraction(res.get(t, 0), alg.den ** 2) for t in range(n))
                    raise JacobiViolation(i, j, k, residual)


def algebra_from_structure_constants(
    dim: int,
    entries,
    labels=None,
    summand_boundaries=None,
) -> LieAlgebra:
    """Build and validate a Lie algebra from sparse structure constants.

    ``entries`` is an iterable of (i, j, k, c) with i < j, meaning the
    coefficient of e_k in [e_i, e_j] is c.  Coefficients for a repeated
    (i, j, k) accumulate.  The Jacobi identity is checked on every basis
    triple.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    acc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise IndexOutOfRange(f"index out of range in entry {(i, j, k)}")
        if i >= j:
            raise ValueError(f"structure constants must be given for i < j, got {(i, j)}")
        acc.setdefault((i, j), {})
        acc[(i, j)][k] = acc[(i, j)].get(k, Fraction(0)) + Fraction(c)
    structure: StructureMap = {}
    for key in sorted(acc):
        terms = tuple((k, c) for k, c in sorted(acc[key].items()) if c != 0)
        if terms:
            structure[key] = terms
    if labels is None:
        labels = tuple(f"x{i}" for i in range(dim))
    if summand_boundaries is None:
        summand_boundaries = ((0, dim),) if dim else ()
    alg = LieAlgebra(
        dim=dim,
        structure=structure,
        basis_labels=tuple(labels),
        summand_boundaries=tuple(tuple(b) for b in summand_boundaries),
    )
    _check_jacobi(alg)
    return alg


def _sl_basis(n: int) -> tuple[list[dict[tuple[int, int], int]], list[str]]:
    """slN's basis as nonzero matrix entries, with labels: the units E_ij for
    i > j (lexicographic), the diagonals H_k = E_kk - E_(k+1)(k+1), then E_ij
    for i < j.  For n = 2 this is (E21, H1, E12), labelled (e-, h, e+)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    units = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [{u: 1} for u in units if u[0] > u[1]]
    basis += [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
    basis += [{u: 1} for u in units if u[0] < u[1]]
    labels = [f"H{i + 1}" if i == j else f"E{i + 1}{j + 1}" for i, j in map(min, basis)]
    return basis, ["e-", "h", "e+"] if n == 2 else labels


def _sl_data(n: int) -> tuple[int, list, list[str], list[tuple[int, int]]]:
    """slN as ``algebra_from_structure_constants`` arguments: dimension,
    constants (i, j, k, c), labels and its one summand."""
    basis, labels = _sl_basis(n)
    positions = {min(m): a for a, m in enumerate(basis) if len(m) == 1}
    h_start, dim = n * (n - 1) // 2, len(basis)
    entries = []
    for a in range(dim):
        for b in range(a + 1, dim):
            # [X, Y] through E_ij E_kl = (j == k) E_il
            bracket: dict[tuple[int, int], int] = {}
            for (i, j), x in basis[a].items():
                for (k, l), y in basis[b].items():
                    if j == k:
                        bracket[(i, l)] = bracket.get((i, l), 0) + x * y
                    if l == i:
                        bracket[(k, j)] = bracket.get((k, j), 0) - x * y
            diagonal = [0] * n
            for (i, j), x in bracket.items():
                if i != j:
                    entries.append((a, b, positions[(i, j)], x))
                else:
                    diagonal[i] += x
            partial = 0
            for k in range(n - 1):
                partial += diagonal[k]
                if partial:
                    entries.append((a, b, h_start + k, partial))
    return dim, entries, labels, [(0, dim)]


def _sum_data(parts) -> tuple[int, list, list[str], list[tuple[int, int]]]:
    """Block-concatenate (dim, constants, labels, summands) data; brackets
    across blocks vanish and the blocks' summands are kept, offset."""
    dim, entries, labels, boundaries = 0, [], [], []
    for d, part_entries, part_labels, part_boundaries in parts:
        entries += [(i + dim, j + dim, k + dim, c) for i, j, k, c in part_entries]
        labels += part_labels
        boundaries += [(a + dim, b + dim) for a, b in part_boundaries]
        dim += d
    return dim, entries, labels, boundaries


def sl2() -> LieAlgebra:
    """The rank-1 simple algebra, slN for n = 2: in the basis (e-, h, e+),
    [h, e-] = -2 e-, [h, e+] = 2 e+, [e+, e-] = h."""
    return algebra_from_structure_constants(*_sl_data(2))


class Representation:
    """A module of ``algebra``; fields are read-only, equality is identity.

    ``action`` holds, per basis element, dim_v rows ``{column: nonzero
    Fraction}`` (read-only too); ``columns[a][m]`` lists the nonzero
    coordinates (r, den * x) of e_a . v_m, with ``den`` the lcm of their
    denominators: the integer action the re-check reads, built here once."""

    __slots__ = ("algebra", "dim_v", "action", "weight_labels", "den", "columns")

    def __init__(self, algebra: LieAlgebra, dim_v: int, action: tuple,
                 weight_labels: tuple[int, ...] | None = None):
        den = lcm(*(x.denominator for rows in action for row in rows for x in row.values()))
        columns = [[[] for _ in range(dim_v)] for _ in action]
        for by_column, rows in zip(columns, action):
            for r, row in enumerate(rows):
                for m, x in row.items():
                    by_column[m].append((r, x.numerator * (den // x.denominator)))
        fields = (algebra, dim_v, action, weight_labels, den, columns)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Representation is read-only")

    def action_matrix(self, i: int) -> list[list[Fraction]]:
        """The action of e_i as a dense matrix."""
        m = [[Fraction(0)] * self.dim_v for _ in range(self.dim_v)]
        for r, row in enumerate(self.action[i]):
            for s, x in row.items():
                m[r][s] = x
        return m


def _check_homomorphism(rep: Representation) -> None:
    """Check [rho_i, rho_j] = rho([e_i, e_j]) for every pair i < j, on nonzeros."""
    alg = rep.algebra
    mats = rep.action
    n = rep.dim_v  # entry (r, s) is accumulated under the key r * n + s

    def add_product(acc, left, right, sign):
        for r, row in enumerate(left):
            for t, x in row.items():
                for s, y in right[t].items():
                    acc[r * n + s] = acc.get(r * n + s, 0) + sign * x * y

    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            acc: dict[int, Fraction] = {}
            add_product(acc, mats[i], mats[j], 1)
            add_product(acc, mats[j], mats[i], -1)
            for k, c in alg.structure.get((i, j), ()):
                for r, row in enumerate(mats[k]):
                    for s, y in row.items():
                        acc[r * n + s] = acc.get(r * n + s, 0) - c * y
            if any(acc.values()):
                raise HomomorphismViolation(i, j)


def representation_from_action(
    algebra: LieAlgebra, actions, dim_v: int, weights=None
) -> Representation:
    """Build a validated module from one action per basis element.

    Each action is dim_v rows of ``{column: value}``; values become
    Fractions and zeros are dropped.
    """
    if dim_v < 0:
        raise ValueError("dimension must be nonnegative")
    action = tuple(
        tuple({s: Fraction(x) for s, x in row.items() if x} for row in rows) for rows in actions
    )
    if len(action) != algebra.dim:
        raise ValueError(f"need {algebra.dim} actions, got {len(action)}")
    for rows in action:
        if len(rows) != dim_v or any(not 0 <= s < dim_v for row in rows for s in row):
            raise ValueError(f"each action must be {dim_v} rows with columns below {dim_v}")
    rep = Representation(
        algebra=algebra,
        dim_v=dim_v,
        action=action,
        weight_labels=tuple(weights) if weights is not None else None,
    )
    _check_homomorphism(rep)
    return rep


def _v_rows(n: int) -> list[list[SparseRow]]:
    """The action rows of e-, h, e+ on V(n)."""
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    lower = [{r - 1: r} if r else {} for r in range(n + 1)]
    upper = [{r + 1: n - r} if r < n else {} for r in range(n + 1)]
    return [lower, [{r: n - 2 * r} for r in range(n + 1)], upper]


def _natural_rows(n: int) -> list[list[SparseRow]]:
    """The action rows of slN's basis on its natural module: the matrices."""
    return [[{j: x for (i, j), x in m.items() if i == r} for r in range(n)]
            for m in _sl_basis(n)[0]]


def _ad_rows(L: LieAlgebra) -> list[list[SparseRow]]:
    """ad(e_i) for every i, as rows: row k, column j holds the e_k coefficient of [e_i, e_j]."""
    rows: list[list[SparseRow]] = [[{} for _ in range(L.dim)] for _ in range(L.dim)]
    for (i, j), terms in L.structure.items():
        for k, c in terms:
            rows[i][k][j] = c
            rows[j][k][i] = -c
    return rows


def _tensor_rows(actions, dims) -> list[list[SparseRow]]:
    """The action rows of a tensor product over the sum of its factors'
    algebras: e_a of the s-th acts as I (x) rho_s(e_a) (x) I, row-major."""
    out = []
    for s, (action, d) in enumerate(zip(actions, dims)):
        left, right = prod(dims[:s]), prod(dims[s + 1:])
        out += [[{(i * d + c) * right + t: x for c, x in row.items()}
                 for i in range(left) for row in rows for t in range(right)] for rows in action]
    return out


def _block_rows(actions) -> list[list[SparseRow]]:
    """The block-diagonal action rows of modules over one algebra."""
    out = [[] for _ in actions[0]]
    for action in actions:
        for rows, block in zip(out, action):
            offset = len(rows)
            rows.extend({offset + s: x for s, x in row.items()} for row in block)
    return out


def sl2_module(n: int) -> Representation:
    """The irreducible (n+1)-dimensional module of sl2() with basis v_0..v_n.

    e- . v_i = (i+1) v_{i+1},  h . v_i = (n-2i) v_i,  e+ . v_i = (n-i+1) v_{i-1}.
    """
    return representation_from_action(sl2(), _v_rows(n), n + 1, weights=range(n + 1))


def adjoint_module(L: LieAlgebra) -> Representation:
    """The algebra acting on itself through ad(x) y = [x, y]."""
    return representation_from_action(L, _ad_rows(L), L.dim)


def trivial_module(L: LieAlgebra, d: int) -> Representation:
    return representation_from_action(L, [[{}] * d] * L.dim, d)


def sl_n(n: int) -> tuple[LieAlgebra, Representation]:
    """The traceless n x n matrices with their natural n-dimensional module,
    in the basis of ``_sl_basis``; sl_n(2)[0] is sl2()."""
    alg = algebra_from_structure_constants(*_sl_data(n))
    return alg, representation_from_action(alg, _natural_rows(n), n)


def direct_sum_algebras(parts: list[LieAlgebra]) -> LieAlgebra:
    """Block-concatenate algebras; cross-summand brackets vanish.

    Summand boundaries of the parts are flattened, so iterated sums in any
    association give structurally equal results.
    """
    if not parts:
        raise ValueError("need at least one summand")
    return algebra_from_structure_constants(*_sum_data(
        (p.dim, [(i, j, k, c) for (i, j), terms in p.structure.items() for k, c in terms],
         p.basis_labels, p.summand_boundaries) for p in parts))


def direct_sum_modules(parts: list[Representation]) -> Representation:
    """Block-diagonal sum of modules over one common algebra."""
    if not parts:
        raise ValueError("need at least one summand")
    alg = parts[0].algebra
    if any(p.algebra != alg for p in parts[1:]):
        raise AlgebraMismatch("module summands live over different algebras")
    labelled = all(p.weight_labels is not None for p in parts)
    weights = [w for p in parts for w in p.weight_labels] if labelled else None
    return representation_from_action(alg, _block_rows([p.action for p in parts]),
                                      sum(p.dim_v for p in parts), weights=weights)


def tensor_module(v1: Representation, v2: Representation) -> Representation:
    """Tensor product over the direct sum of the two underlying algebras.

    The first algebra acts on the first factor (rho1(x) (x) I), the second
    on the second (I (x) rho2(x)); basis order is row-major in
    (first factor index, second factor index).
    """
    alg = direct_sum_algebras([v1.algebra, v2.algebra])
    actions = _tensor_rows([v1.action, v2.action], [v1.dim_v, v2.dim_v])
    return representation_from_action(alg, actions, v1.dim_v * v2.dim_v)


def weight_decomposition(
    L: LieAlgebra, V: Representation, h_index: int
) -> list[tuple[Fraction, tuple[int, ...], tuple[int, ...]]]:
    """Group basis indices by eigenvalues of a designated diagonal element.

    Requires ad(e_h) and rho(e_h) to already be diagonal in the given bases
    (checked, never diagonalized).  Returns (eigenvalue, algebra indices,
    module indices) triples sorted by eigenvalue; these define the grading
    whose weights tag the basis of the derivation space.  Eigenvalues are
    reported raw.
    """
    if not 0 <= h_index < L.dim:
        raise IndexOutOfRange(f"no basis element {h_index}")
    groups: dict[Fraction, tuple[list[int], list[int]]] = {}
    sides = (
        (f"ad(e_{h_index})", _ad_rows(L)[h_index]),
        (f"action of e_{h_index}", V.action[h_index]),
    )
    for side, (what, rows) in enumerate(sides):
        for r, row in enumerate(rows):
            off = [s for s in row if s != r]
            if off:
                raise NotDiagonal(f"{what} has off-diagonal entry at {(r, min(off))}")
            groups.setdefault(row.get(r, Fraction(0)), ([], []))[side].append(r)
    return [(w, tuple(groups[w][0]), tuple(groups[w][1])) for w in sorted(groups)]


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SemanticError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""(?:
        (?P<SL>sl\d+)
      | (?P<V>V\(\d+\))
      | (?P<TRIVIAL>trivial\(\d+\))
      | (?P<ADJOINT>adjoint)
      | (?P<NATURAL>natural)
      | (?P<OPLUS>oplus|o\+|⊕)
      | (?P<OTIMES>otimes|\(x\)|⊗)
    )""",
    re.VERBOSE | re.ASCII,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected input {text[pos : pos + 10]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
        pos = m.end()
    return tokens


class AlgebraAtom(str):
    """A summand as written, e.g. 'sl3', with its matrix size ``n``."""

    n: int


class ModuleAtom(NamedTuple):
    kind: str  # V, ADJOINT, NATURAL or TRIVIAL
    text: str  # as written
    arg: int | None  # the n of V(n) or the d of trivial(d)

    def dimension(self, part: AlgebraAtom) -> int:
        """The dimension of this atom as a module of the summand ``part``."""
        if self.kind == "V":
            return self.arg + 1
        if self.kind == "TRIVIAL":
            return self.arg
        return part.n if self.kind == "NATURAL" else part.n * part.n - 1


def parse_algebra_atoms(text: str) -> list[AlgebraAtom]:
    """The summands of an algebra expression, checked but not built."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty algebra descriptor", 0)
    atoms: list[AlgebraAtom] = []
    expect_atom = True
    for kind, value, pos in tokens:
        if expect_atom:
            if kind != "SL":
                if kind in ("V", "ADJOINT", "NATURAL", "TRIVIAL"):
                    raise SemanticError(f"{value!r} names a module, not an algebra")
                raise ParseError(f"expected an algebra name, got {value!r}", pos)
            atom = AlgebraAtom(value)
            atom.n = int(value[2:])
            if atom.n < 2:
                raise SemanticError(f"{value!r}: matrix rank must be at least 2")
            atoms.append(atom)
            expect_atom = False
        else:
            if kind == "OTIMES":
                raise SemanticError("the tensor operator combines modules, not algebras")
            if kind != "OPLUS":
                raise ParseError(f"expected 'o+', got {value!r}", pos)
            expect_atom = True
    if expect_atom:
        raise ParseError("dangling operator in algebra descriptor", len(text))
    return atoms


def parse_module_terms(text: str, parts: list[AlgebraAtom]) -> list[tuple[ModuleAtom, ...]]:
    """The o+ terms of a module expression, checked but not built: a tensor
    term has one factor per summand, and a term of one atom over several
    summands ('adjoint' or 'trivial(d)') is a module of the whole algebra."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty module descriptor", 0)
    terms: list[tuple[ModuleAtom, ...]] = []
    term: list[ModuleAtom] = []
    expect_atom = True
    for kind, value, pos in tokens + [("END", "", len(text))]:
        if expect_atom:
            if kind == "END":
                raise ParseError("dangling operator in module descriptor", pos)
            if kind in ("OPLUS", "OTIMES"):
                raise ParseError(f"expected a module name, got {value!r}", pos)
            if kind == "SL":
                raise SemanticError(f"{value!r} names an algebra, not a module")
            arg = int(value[value.index("(") + 1 : -1]) if kind in ("V", "TRIVIAL") else None
            term.append(ModuleAtom(kind, value, arg))
            expect_atom = False
        elif kind == "OTIMES":
            expect_atom = True
        else:  # the term is complete
            if len(term) == 1 and len(parts) != 1:
                if term[0].kind == "V":
                    raise SemanticError("V(n) needs the algebra to be a single sl2 summand")
                if term[0].kind == "NATURAL":
                    raise SemanticError("'natural' needs a single matrix-algebra summand")
            elif len(term) != len(parts):
                raise SemanticError(
                    f"tensor term has {len(term)} factors but the algebra has "
                    f"{len(parts)} summands"
                )
            else:
                for atom, part in zip(term, parts):
                    if atom.kind == "V" and part.n != 2:
                        raise SemanticError(f"V(n) is a module of sl2, not of {part!r}")
                    if atom.kind == "NATURAL" and part.n == 2:
                        raise SemanticError(
                            f"'natural' needs a matrix algebra slN with N >= 3, not {part!r}; "
                            "over sl2 use V(1)"
                        )
            terms.append(tuple(term))
            if kind not in ("OPLUS", "END"):
                raise ParseError(f"expected 'o+', got {value!r}", pos)
            term, expect_atom = [], True
    return terms


def algebra_from_atoms(parts: list[AlgebraAtom]) -> LieAlgebra:
    """The algebra of parsed summands, built and checked once."""
    return algebra_from_structure_constants(*_sum_data(_sl_data(p.n) for p in parts))


def _atom_rows(atom: ModuleAtom, n: int, algebra: LieAlgebra, lo: int, hi: int):
    """The action rows of one atom over e_lo .. e_(hi-1), a summand of rank ``n``."""
    if atom.kind == "V":
        return _v_rows(atom.arg)
    if atom.kind == "NATURAL":
        return _natural_rows(n)
    if atom.kind == "TRIVIAL":
        return [[{}] * atom.arg] * (hi - lo)
    return [[{j - lo: x for j, x in row.items()} for row in rows[lo:hi]]
            for rows in _ad_rows(algebra)[lo:hi]]


def module_from_terms(terms, algebra: LieAlgebra, parts) -> tuple[Representation, str]:
    """The module of parsed terms over ``algebra_from_atoms(parts)``, built and
    checked once: a term acts by the Kronecker rows of its factors (one per
    summand, or one atom over the whole algebra), the terms block-diagonally.
    Returns the module and the canonical (ASCII) form of its descriptor."""
    blocks = []
    for term in terms:
        spans = algebra.summand_boundaries if len(term) == len(parts) else [(0, algebra.dim)]
        factors = [_atom_rows(a, p.n, algebra, *span) for a, p, span in zip(term, parts, spans)]
        dims = [len(rows[0]) for rows in factors]
        blocks.append(_tensor_rows(factors, dims))
    only_v = len(parts) == 1 and all(term[0].kind == "V" for term in terms)
    weights = [w for term in terms for w in range(term[0].arg + 1)] if only_v else None
    dim_v = sum(len(block[0]) for block in blocks)  # the rows of the first basis element
    module = representation_from_action(algebra, _block_rows(blocks), dim_v, weights)
    return module, " o+ ".join(" (x) ".join(atom.text for atom in term) for term in terms)


def parse_algebra_descriptor(text: str) -> tuple[LieAlgebra, list[AlgebraAtom]]:
    """Parse and build an algebra expression; returns the algebra and its atoms."""
    parts = parse_algebra_atoms(text)
    return algebra_from_atoms(parts), parts


def parse_module_descriptor(
    text: str, algebra: LieAlgebra, parts: list[AlgebraAtom]
) -> tuple[Representation, str]:
    """Parse and build a module expression over what ``parse_algebra_descriptor``
    returned; returns the module and the canonical (ASCII) form of the text."""
    return module_from_terms(parse_module_terms(text, parts), algebra, parts)
