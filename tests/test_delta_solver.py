import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import delta_solver
from deltader.cli import (
    inputs_from_json,
    parse_algebra_descriptor,
    parse_module_descriptor,
)
from deltader.delta_solver import (
    ShapeMismatch,
    assemble_system,
    inner_derivations,
    is_delta_derivation,
    kernel_at,
    scan,
    solve,
)
from deltader.exact_arith import Poly, poly_rational_roots
from deltader.lie_core import (
    AlgebraMismatch,
    adjoint_module,
    algebra_from_structure_constants,
    direct_sum_modules,
    representation_from_action,
    sl2_module,
    trivial_module,
)
from deltader.linalg import pencil_eliminate
from conftest import as_row
from oracle import (
    bracket,
    canonical_basis,
    delta_residual,
    nullspace_gauss,
    rref,
    sparse,
    spans_equal,
)

F = Fraction


def span_of(maps):
    return [[x for row in D for x in row] for D in maps]


class TestAssembly:
    def test_system_size(self, sl2):
        system = assemble_system(sl2, sl2_module(1))
        assert (system.rows, system.cols) == (6, 6)

    def test_abelian_has_no_constant_part(self):
        abelian = algebra_from_structure_constants(3, [])
        rep = trivial_module(abelian, 2)
        system = assemble_system(abelian, rep)
        assert not any(system.specialize(0, range(system.rows)))

    def test_entries_have_degree_at_most_one(self, sl2):
        # integer constants, so at integer d the rows are A + d*B unscaled
        system = assemble_system(sl2, sl2_module(2))
        at = [system.specialize(d, range(system.rows)) for d in range(3)]
        entry = [[[row.get(c, 0) for c in range(9)] for row in m] for m in at]
        for r in range(9):
            for c in range(9):
                assert entry[2][r][c] - 2 * entry[1][r][c] + entry[0][r][c] == 0
        assert any(entry[1][r][c] != entry[0][r][c] for r in range(9) for c in range(9))

    def test_first_pair_block_matches_symbolic_expansion(self, sl2):
        # the block for the pair (e-, h) at coordinate r couples the
        # unknowns D(e-)_r and D(h)_(r-1) with coefficients
        # 2 + d (n - 2r)  and  -d r  respectively
        for n, r in ((2, 1), (3, 2)):
            system = assemble_system(sl2, sl2_module(n))
            dim_v = n + 1
            row = 0 * dim_v + r  # pair (0, 1) is the first block
            for d in (-1, 0, 1, 3):
                specialized = system.specialize(d, [row])[0]
                assert specialized.get(0 * dim_v + r, 0) == 2 + d * (n - 2 * r)
                assert specialized.get(1 * dim_v + (r - 1), 0) == -d * r

    def test_specialize_builds_the_given_rows_in_order(self, sl2):
        system = assemble_system(sl2, sl2_module(3))
        whole = system.specialize(F(-2, 3), range(system.rows))
        rows = [7, 0, 11, 7]
        assert system.specialize(F(-2, 3), rows) == [whole[r] for r in rows]

    def test_algebra_mismatch(self, sl2, sl3_natural):
        with pytest.raises(AlgebraMismatch):
            assemble_system(sl2, sl3_natural)


class TestKernelAt:
    def test_identity_line_at_one_half(self, sl2):
        system = assemble_system(sl2, sl2_module(2))
        space = kernel_at(system, F(1, 2))
        assert space.dimension == 1
        # the equivariant bijection with the adjoint module: e- -> v2,
        # h -> v1, e+ -> -v0, i.e. the identity map in disguise
        assert space.basis == (
            ((F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(-1), F(0), F(0))),
        )

    def test_zero_delta_kills_perfect_algebra(self, sl2, v_modules):
        for n in range(5):
            system = assemble_system(sl2, v_modules[n])
            assert kernel_at(system, 0).dimension == 0

    def test_v3_at_two_fifths(self, sl2):
        system = assemble_system(sl2, sl2_module(3))
        space = kernel_at(system, F(2, 5))
        assert space.dimension == 2
        expected = [
            ((F(0), F(0), F(2), F(0)), (F(0), F(4), F(0), F(0)), (F(-6), F(0), F(0), F(0))),
            ((F(0), F(0), F(0), F(6)), (F(0), F(0), F(4), F(0)), (F(0), F(-2), F(0), F(0))),
        ]
        assert spans_equal(span_of(space.basis), span_of(expected))


class TestSolve:
    def test_dimension_examples(self, sl2, v_modules):
        assert solve(sl2, v_modules[2], F(-1)).dimension == 5
        assert solve(sl2, v_modules[4], F(1, 3)).dimension == 3

    def test_direct_sum_doubles(self, sl2):
        v1 = sl2_module(1)
        s = direct_sum_modules([v1, v1])
        assert solve(sl2, s, F(-2)).dimension == 8

    def test_nonexceptional_value_is_zero(self, sl2, v_modules):
        assert solve(sl2, v_modules[3], F(7, 3)).dimension == 0

    def test_graded_equals_ungraded(self, sl2, v_modules):
        deltas = [F(1), F(1, 2), F(-1), F(-2, 3), F(2, 5), F(3)]
        inputs = [
            v_modules[n] for n in range(5)
        ] + [
            direct_sum_modules([v_modules[1], v_modules[1]]),
            direct_sum_modules([v_modules[1], adjoint_module(sl2)]),
            adjoint_module(sl2),
        ]
        for module in inputs:
            for d in deltas:
                plain = solve(sl2, module, d)
                graded = solve(sl2, module, d, use_grading=1)
                assert plain.basis == graded.basis
                assert graded.weights is not None
                assert len(graded.weights) == graded.dimension

    def test_inhomogeneous_basis_element_is_an_internal_error(self, sl2, v_modules,
                                                              monkeypatch):
        # the sum of two basis maps of different weight is not homogeneous
        real = kernel_at(assemble_system(sl2, v_modules[2]), F(1))
        mixed = tuple(
            tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(*real.basis[:2])
        )
        fake = delta_solver.DerivationSpace(delta=F(1), basis=(mixed,) + real.basis[1:])
        monkeypatch.setattr(delta_solver, "kernel_at", lambda system, delta: fake)
        with pytest.raises(delta_solver.VerificationFailure):
            solve(sl2, v_modules[2], F(1), use_grading=1)

    def test_graded_weights_match_table(self, sl2):
        n = 3
        space = solve(sl2, sl2_module(n), F(-2, n), use_grading=1)
        table_weights = sorted(-(w + n) / 2 for w in space.weights)
        assert table_weights == [F(-4), F(-3), F(-2), F(-1), F(0), F(1)]

    def test_every_basis_element_satisfies_equation(self, sl2, v_modules):
        for n, d in ((2, F(1)), (3, F(-2, 3)), (4, F(1, 3))):
            space = solve(sl2, v_modules[n], d)
            for D in space.basis:
                ok, witness = is_delta_derivation(as_row(D), sl2, v_modules[n], d)
                assert ok and witness is None


class TestScan:
    def test_v3(self, sl2, v_modules):
        report = scan(sl2, v_modules[3])
        assert report.findings == {F(-2, 3): 6, F(2, 5): 2, F(1): 4}
        assert report.nonrational_factors == ()
        assert report.generic_rank == 12

    def test_v1_has_no_small_positive_value(self, sl2, v_modules):
        report = scan(sl2, v_modules[1])
        assert report.findings == {F(-2): 4, F(1): 2}

    def test_adjoint(self, sl2):
        report = scan(sl2, adjoint_module(sl2))
        assert report.findings == {F(-1): 5, F(1, 2): 1, F(1): 3}

    def test_findings_sorted_ascending(self, sl2, v_modules):
        report = scan(sl2, v_modules[4])
        assert list(report.findings) == sorted(report.findings)

    def test_reported_values_reverify(self, sl2, v_modules):
        system = assemble_system(sl2, v_modules[2])
        report = scan(sl2, v_modules[2])
        for d, dim in report.findings.items():
            assert kernel_at(system, d).dimension == dim

    def test_random_unreported_values_are_trivial(self, sl2, v_modules):
        rng = random.Random(11)
        system = assemble_system(sl2, v_modules[2])
        reported = set(scan(sl2, v_modules[2]).findings)
        tried = 0
        while tried < 5:
            d = F(rng.randint(-30, 30), rng.randint(1, 10))
            if d == 0 or d in reported:
                continue
            assert kernel_at(system, d).dimension == 0
            tried += 1

    def test_fractional_constants_give_the_same_answers(self, sl2, v_modules):
        # the basis (e-/2, h, e+/3) of sl2 has the constant -1/6, so the rows
        # are scaled to integers; the answers must not notice
        scaled = algebra_from_structure_constants(
            3, [(0, 1, 0, 2), (0, 2, 1, F(-1, 6)), (1, 2, 2, 2)]
        )
        for n in (2, 3):
            lower, diag, upper = (v_modules[n].action_matrix(i) for i in range(3))
            module = representation_from_action(
                scaled,
                sparse([[[x / 2 for x in row] for row in lower], diag,
                        [[x / 3 for x in row] for row in upper]]),
                n + 1,
            )
            assert scan(scaled, module) == scan(sl2, v_modules[n])
            for d in (F(-2, n), F(2, n + 2), F(3, 7)):
                got = solve(scaled, module, d).dimension
                assert got == solve(sl2, v_modules[n], d).dimension

    def test_include_zero_on_abelian(self):
        abelian = algebra_from_structure_constants(2, [])
        rep = trivial_module(abelian, 1)
        assert scan(abelian, rep).findings == {}
        assert scan(abelian, rep, include_zero=True).findings == {F(0): 2}

    def test_include_zero_on_perfect_algebra(self, sl2, v_modules):
        report = scan(sl2, v_modules[1], include_zero=True)
        assert F(0) not in report.findings

    def test_include_zero_on_solvable_algebra(self):
        solvable = algebra_from_structure_constants(2, [(0, 1, 1, 1)])
        rep = adjoint_module(solvable)
        report = scan(solvable, rep, include_zero=True)
        assert report.findings[F(0)] == 2

    def test_probe_reports_its_nonrational_factor(self, probe):
        report = scan(*probe)
        assert report.findings == {}
        assert report.generic_rank == 2
        assert report.nonrational_factors == (Poly([-1, 0, 2]),)

    def test_probe_drops_rank_at_the_irrational_roots(self, probe):
        # independent oracle: sympy's exact rank of A + d*B at d = +-sqrt(2)/2
        import sympy

        system = assemble_system(*probe)
        assert system.cols == 4

        def rank_at(d):
            rows = [
                [arow.get(c, 0) + d * brow.get(c, 0) for c in range(system.cols)]
                for arow, brow in zip(system.a_part, system.b_part)
            ]
            return sympy.Matrix(rows).rank(simplify=True)

        for d in (sympy.sqrt(2) / 2, -sympy.sqrt(2) / 2):
            assert rank_at(d) == 1
        assert rank_at(sympy.Rational(3, 7)) == 2


class TestComponents:
    """The blocks that scan eliminates one by one."""

    @pytest.mark.parametrize(
        "algebra, module, count, widest",
        [("sl3", "adjoint", 19, 10), ("sl4", "adjoint", 55, 21), ("sl5", "adjoint", 131, 36)],
    )
    def test_builtin_blocks(self, algebra, module, count, widest):
        L, parts = parse_algebra_descriptor(algebra)
        V, _ = parse_module_descriptor(module, L, parts)
        system = assemble_system(L, V)
        blocks = delta_solver._components(system)
        assert len(blocks) == count
        assert max(len(cols) for _, cols in blocks) == widest
        seen_rows, seen_cols = [], []
        for rows, cols in blocks:
            assert rows == sorted(rows) and cols == sorted(cols)
            for r in rows:
                assert system.a_part[r].keys() | system.b_part[r].keys() <= set(cols)
            seen_rows += rows
            seen_cols += cols
        assert sorted(seen_rows) == [r for r in range(system.rows) if system.a_part[r]
                                     or system.b_part[r]]
        assert len(set(seen_cols)) == len(seen_cols)

    def test_probe_is_one_block(self, probe):
        assert delta_solver._components(assemble_system(*probe)) == [([0, 1], [2, 3])]


def _pencil_of(L, V):
    """The pivots and rank of one pencil elimination over the whole system."""
    system = assemble_system(L, V)
    return pencil_eliminate(list(zip(system.a_part, system.b_part)), list(range(system.cols)))


def _unimodular(n):
    """A fixed integer matrix of determinant +-1 with its inverse: the unit upper
    bidiagonal matrix with superdiagonal 1, -1, 1, ..., its columns reversed."""
    t = [[F(1) if c == r else F((-1) ** r) if c == r + 1 else F(0) for c in range(n)][::-1]
         for r in range(n)]
    reduced, _ = rref([row + [F(int(c == r)) for c in range(n)] for r, row in enumerate(t)])
    return t, [row[n:] for row in reduced]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _scrambled(L, V):
    """L and V in the bases f_i = sum_a T[a][i] e_a and S^-1 v (T, S from _unimodular).

    Every bracket and action becomes dense, and the pencil has one block.
    """
    t, t_inv = _unimodular(L.dim)
    s, s_inv = _unimodular(V.dim_v)
    mats = [V.action_matrix(a) for a in range(L.dim)]
    entries, actions = [], []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            image = [F(0)] * L.dim
            for a in range(L.dim):
                for b in range(L.dim):
                    if t[a][i] and t[b][j]:
                        for k, x in enumerate(bracket(L, a, b)):
                            image[k] += t[a][i] * t[b][j] * x
            coords = [sum(x * y for x, y in zip(row, image)) for row in t_inv]
            entries += [(i, j, k, c) for k, c in enumerate(coords) if c]
        combined = [[sum(t[a][i] * mats[a][r][q] for a in range(L.dim))
                     for q in range(V.dim_v)] for r in range(V.dim_v)]
        actions.append(_matmul(_matmul(s_inv, combined), s))
    scrambled = algebra_from_structure_constants(L.dim, entries)
    return scrambled, representation_from_action(scrambled, sparse(actions), V.dim_v)


class TestPencilPivots:
    """The full pivot sequence of the whole pencil, pinned: count, rank, sha256 of the list."""

    @pytest.mark.parametrize(
        "algebra, module, count, digest",
        [
            ("sl2", "V(7)", 24,
             "1caf77806fe7f3bcee3f57ac9636f8322c68feaa6d81d4df9749d4cb32150806"),
            ("sl3", "adjoint", 64,
             "4243b32721ac84431f42f087725d823535830a1539c6e00c1648dae94b1561a4"),
            ("sl2 o+ sl2", "V(3) (x) V(0) o+ V(0) (x) V(2)", 42,
             "80f1591c0110de4488463d4229e11c3b9704d576b723f5d76f0d098a3276530e"),
        ],
    )
    def test_builtin_pivots(self, algebra, module, count, digest):
        L, parts = parse_algebra_descriptor(algebra)
        V, _ = parse_module_descriptor(module, L, parts)
        pivots, rank = _pencil_of(L, V)
        assert rank == len(pivots) == count
        text = ";".join(str(p) for p in pivots)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_scrambled_tensor_pivots(self):
        # the dense one-block pencil of a scrambled input, as scan --input meets it
        L, parts = parse_algebra_descriptor("sl2 o+ sl2")
        V, _ = parse_module_descriptor("V(1) (x) V(0) o+ V(0) (x) V(2)", L, parts)
        L, V = _scrambled(L, V)
        assert len(delta_solver._components(assemble_system(L, V))) == 1
        pivots, rank = _pencil_of(L, V)
        assert rank == len(pivots) == 30
        text = ";".join(str(p) for p in pivots)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7daae46e9614b53fe9b37438a9f03b41aeb48a75e4bc37d6917c29444f23741f")

    def test_probe_pivots(self, probe):
        pivots, rank = _pencil_of(*probe)
        assert rank == 2
        assert pivots == [Poly([1]), Poly([1, 0, -2])]

    def test_blocked_rank_is_the_whole_pencil_rank(self):
        for algebra, module in (
            ("sl2", "V(7)"), ("sl3", "adjoint"), ("sl2 o+ sl2", "V(3) (x) V(0) o+ V(0) (x) V(2)")
        ):
            L, parts = parse_algebra_descriptor(algebra)
            V, _ = parse_module_descriptor(module, L, parts)
            assert scan(L, V).generic_rank == _pencil_of(L, V)[1]


def _classical(kind, n):
    """so(n) or sp(n) over the rationals, with its natural module.

    The algebra is the space of n x n matrices X with X^T J + J X = 0, J
    antidiagonal for so and skew antidiagonal for sp; its basis is the
    canonical kernel basis of these equations in the entries of X.  Each
    basis matrix is 1 at its leading entry and every other basis matrix is
    0 there, so a bracket's coordinates are its values at the leading entries.
    """
    J = [[0] * n for _ in range(n)]
    for i in range(n):
        J[i][n - 1 - i] = -1 if kind == "sp" and i >= n // 2 else 1
    equations = []  # entry (i, k) of X^T J + J X; X[a][b] is unknown a * n + b
    for i in range(n):
        for k in range(n):
            row = [F(0)] * (n * n)
            for j in range(n):
                row[j * n + i] += J[j][k]
                row[j * n + k] += J[i][j]
            equations.append(row)
    basis = nullspace_gauss(equations, n * n)
    leads = [next(c for c, x in enumerate(v) if x) for v in basis]
    mats = [[v[a * n:(a + 1) * n] for a in range(n)] for v in basis]

    def product(x, y):
        return [sum(x[a][t] * y[t][b] for t in range(n)) for a in range(n) for b in range(n)]

    entries = []
    for i, x in enumerate(mats):
        for j in range(i + 1, len(mats)):
            bracket = [p - q for p, q in zip(product(x, mats[j]), product(mats[j], x))]
            entries += [(i, j, k, bracket[c]) for k, c in enumerate(leads) if bracket[c]]
    alg = algebra_from_structure_constants(len(mats), entries)
    return alg, representation_from_action(alg, sparse(mats), n)


class TestTypesBAndC:
    """The theorem beyond type A: so(5), so(7), sp(4) and sp(6)."""

    @pytest.mark.parametrize("kind, n", [("so", 5), ("sp", 4), ("so", 7), ("sp", 6)])
    def test_scan_matches_the_theorem(self, kind, n):
        L, natural = _classical(kind, n)
        assert L.dim == (n * (n - 1) // 2 if kind == "so" else n * (n + 1) // 2)
        report = scan(L, natural)
        assert report.findings == {F(1): n}
        assert report.generic_rank == L.dim * n
        report = scan(L, adjoint_module(L))
        assert report.findings == {F(1, 2): 1, F(1): L.dim}
        assert report.generic_rank == L.dim ** 2


class TestInnerDerivations:
    def test_dimensions_on_irreducibles(self, sl2, v_modules):
        for n in range(1, 5):
            assert inner_derivations(sl2, v_modules[n]).dimension == n + 1

    def test_trivial_module_has_none(self, sl2):
        assert inner_derivations(sl2, trivial_module(sl2, 3)).dimension == 0

    def test_matches_solver_at_one(self, sl2, v_modules, sl3, sl3_natural, sl3_adjoint):
        inner = inner_derivations(sl3, sl3_natural)
        direct = solve(sl3, sl3_natural, F(1))
        assert inner.dimension == 3
        assert inner.basis == direct.basis
        # the canonical basis of the span of the maps x -> x . v_m, by the oracle
        cases = [(sl2, v_modules[n]) for n in range(1, 5)]
        cases += [(sl2, direct_sum_modules([v_modules[0], v_modules[2]])), (sl3, sl3_adjoint)]
        for L, V in cases:
            mats = [V.action_matrix(a) for a in range(L.dim)]
            generators = [[x[r][m] for x in mats for r in range(V.dim_v)] for m in range(V.dim_v)]
            inner = inner_derivations(L, V)
            assert tuple(map(tuple, span_of(inner.basis))) == canonical_basis(generators)
            assert inner.basis == solve(L, V, F(1)).basis

    def test_counts_invariants(self, sl2, v_modules):
        module = direct_sum_modules([v_modules[0], v_modules[2]])
        assert inner_derivations(sl2, module).dimension == 3


class TestIsDeltaDerivation:
    def test_zero_map(self, sl2, v_modules):
        zero = tuple(tuple(F(0) for _ in range(2)) for _ in range(3))
        assert as_row(zero) == {}
        ok, witness = is_delta_derivation({}, sl2, v_modules[1], F(7))
        assert ok and witness is None
        assert is_delta_derivation({0: F(0), 5: 0}, sl2, v_modules[1], F(7)) == (True, None)

    def test_inner_map_on_v1(self, sl2, v_modules):
        # x -> x . v0:  e- -> v1, h -> v0, e+ -> 0
        D = ((F(0), F(1)), (F(1), F(0)), (F(0), F(0)))
        ok, _ = is_delta_derivation(as_row(D), sl2, v_modules[1], F(1))
        assert ok

    def test_identity_candidate_fails_at_minus_one(self, sl2, v_modules):
        D = ((F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(-1), F(0), F(0)))
        ok, witness = is_delta_derivation(as_row(D), sl2, v_modules[2], F(-1))
        assert not ok
        i, j, residual = witness
        assert (i, j) == (0, 1)
        assert any(residual)

    def test_shape_mismatch(self, sl2, v_modules):
        # sl2 on V(1) has the 6 columns 0..5
        for column in (6, -1):
            with pytest.raises(ShapeMismatch):
                is_delta_derivation({column: F(1)}, sl2, v_modules[1], F(1))

    def test_only_the_maps_denominators_are_cleared_per_call(self, monkeypatch, sl3, sl3_adjoint):
        # L and V built their integer tables when constructed; a call clears D's alone
        basis = solve(sl3, sl3_adjoint, F(1)).basis
        counted = []

        def counting(*args):
            counted.append(args)
            return lcm(*args)

        monkeypatch.setattr(delta_solver, "lcm", counting)
        for D in basis:
            assert is_delta_derivation(as_row(D), sl3, sl3_adjoint, F(1)) == (True, None)
        assert len(counted) == len(basis) == 8

    @settings(max_examples=150, deadline=None)
    @given(
        d0=st.sampled_from([F(1), F(-1), F(1, 2)]),
        d=st.one_of(st.none(), st.builds(F, st.integers(-6, 6), st.integers(1, 6))),
        t=st.integers(0, 4),
        entry=st.integers(0, 8),
        bump=st.builds(F, st.integers(-3, 3), st.integers(1, 4)),
    )
    def test_integer_recheck_matches_dense_evaluation(self, rescaled_json, d0, d, t, entry, bump):
        # a basis map of the rescaled sl2 V(2) at d0, one entry moved by bump
        # (possibly 0), checked at d0 or at d
        L, V = inputs_from_json(rescaled_json)
        basis = solve(L, V, d0).basis
        D = [list(row) for row in basis[t % len(basis)]]
        D[entry // 3][entry % 3] += bump
        at = d0 if d is None else d
        witness = delta_residual(D, L, V, at)
        assert is_delta_derivation(as_row(D), L, V, at) == (witness is None, witness)

    def test_integer_rows_are_checked_as_their_rational_multiples(self, rescaled_json):
        # a row of integers is the map scaled by the lcm of its denominators: the
        # verdict is the same and a residual is scaled by that lcm
        L, V = inputs_from_json(rescaled_json)
        for D in solve(L, V, F(1, 2)).basis:
            row = as_row(D)
            scale = lcm(*(x.denominator for x in row.values()))
            integral = {c: int(x * scale) for c, x in row.items()}
            assert is_delta_derivation(integral, L, V, F(1, 2)) == (True, None)
            ok, (i, j, residual) = is_delta_derivation(integral, L, V, F(1))
            assert not ok
            assert is_delta_derivation(row, L, V, F(1)) == (
                False, (i, j, tuple(x / scale for x in residual)))


class TestReverification:
    """Every kernel vector is re-checked once against the defining equation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        real = delta_solver.is_delta_derivation

        def counting(*args):
            counted.append(args[0])
            return real(*args)

        monkeypatch.setattr(delta_solver, "is_delta_derivation", counting)
        return counted

    def test_solve_checks_each_basis_element(self, calls, sl3, sl3_adjoint):
        space = solve(sl3, sl3_adjoint, F(1))
        assert len(calls) == space.dimension == 8

    @pytest.mark.parametrize("algebra, module", [
        ("sl3", "adjoint"), ("sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)"),
    ])
    def test_scan_checks_each_kernel_vector(self, calls, algebra, module):
        # generic nullity 0: every dimension found is made of re-eliminated kernel vectors
        L, parts = parse_algebra_descriptor(algebra)
        V, _ = parse_module_descriptor(module, L, parts)
        report = scan(L, V)
        assert report.generic_rank == L.dim * V.dim_v
        assert len(calls) == sum(report.findings.values()) > 0

    def test_scan_checks_block_rows_in_place(self, calls, monkeypatch):
        # each row checked at a candidate has its columns inside one block recorded
        # for that candidate: no row is padded to the system's length first
        L, parts = parse_algebra_descriptor("sl4")
        V, _ = parse_module_descriptor("adjoint", L, parts)
        real = delta_solver._dimension_at
        checked = []  # (row, the column sets of the candidate's blocks)

        def dimension_at(system, nullity, blocks, delta):
            start = len(calls)
            dim = real(system, nullity, blocks, delta)
            checked.extend((v, [set(cols) for _, cols, _ in blocks]) for v in calls[start:])
            return dim

        monkeypatch.setattr(delta_solver, "_dimension_at", dimension_at)
        report = scan(L, V)
        assert len(checked) == len(calls) == sum(report.findings.values()) == 16
        for v, columns in checked:
            assert v and any(v.keys() <= cols for cols in columns)


class TestDegenerateInputs:
    def test_zero_dimensional_module(self, sl2):
        rep = trivial_module(sl2, 0)
        assert solve(sl2, rep, F(2)).dimension == 0
        assert scan(sl2, rep).findings == {}

    def test_one_dimensional_abelian_algebra(self):
        line = algebra_from_structure_constants(1, [])
        rep = trivial_module(line, 3)
        space = solve(line, rep, F(5))
        assert space.dimension == 3

    def test_scan_on_systems_without_equations(self):
        line = algebra_from_structure_constants(1, [])
        rep = trivial_module(line, 2)
        report = scan(line, rep)
        assert report.generic_rank == 0
        assert report.findings == {}


def _matrix_algebra(n, positions):
    """The span of the n x n matrix units E_ij at ``positions`` (closed under the
    commutator), with its natural module: [E_ij, E_kl] = [j = k] E_il - [l = i] E_kj."""
    index = {p: a for a, p in enumerate(positions)}
    entries = []
    for a, (i, j) in enumerate(positions):
        for b in range(a + 1, len(positions)):
            k, l = positions[b]
            if j == k:
                entries.append((a, b, index[(i, l)], 1))
            if l == i:
                entries.append((a, b, index[(k, j)], -1))
    alg = algebra_from_structure_constants(len(positions), entries)
    action = [[{j: 1} if r == i else {} for r in range(n)] for i, j in positions]
    return alg, representation_from_action(alg, action, n)


def _blocked_scan_input(name):
    """(L, V) named "sl2 <module>", "[x,y]=y a=<a> n=<n>" (rho(x) = diag(a, a - 1, ...),
    rho(y) the shift e_(r+1) -> e_r, optionally "scrambled"), "heisenberg", "upper" (3 x 3
    upper triangular) or "so5", the last three with "natural" or "adjoint"."""
    if name.startswith("sl2 "):
        L, parts = parse_algebra_descriptor("sl2")
        return L, parse_module_descriptor(name[4:], L, parts)[0]
    if name.startswith("[x,y]=y"):
        fields = dict(f.split("=") for f in name.split()[1:3])
        a, n = F(fields["a"]), int(fields["n"])
        L = algebra_from_structure_constants(2, [(0, 1, 1, 1)])
        action = [[{r: a - r} if a != r else {} for r in range(n)],
                  [{r + 1: 1} if r + 1 < n else {} for r in range(n)]]
        V = representation_from_action(L, action, n)
        return _scrambled(L, V) if name.endswith("scrambled") else (L, V)
    if name.startswith("heisenberg"):
        L, natural = _matrix_algebra(3, [(0, 1), (0, 2), (1, 2)])
    elif name.startswith("upper"):
        L, natural = _matrix_algebra(3, [(i, j) for i in range(3) for j in range(i, 3)])
    else:
        L, natural = _classical("so", 5)
    return L, adjoint_module(L) if name.endswith("adjoint") else natural


def _pivot_roots(system):
    """Per component of the pencil: its rows, columns and generic rank, the rational
    roots of its last pivot and those of its earlier pivots."""
    out = []
    for rows, cols in delta_solver._components(system):
        pivots, rank = pencil_eliminate([(system.a_part[r], system.b_part[r]) for r in rows], cols)
        roots = [set(poly_rational_roots(p)) if p.degree >= 1 else set() for p in pivots]
        out.append((rows, cols, rank, roots[-1], set().union(*roots[:-1])))
    return out


class TestBlockedScan:
    """Candidate kernels taken block by block against the whole-system kernels."""

    @pytest.mark.parametrize("name", [
        # sl2 V(6) and the scrambled 3-dimensional module have roots of earlier pivots
        # that no last pivot shares, the latter with a nonzero generic kernel
        "sl2 V(0) o+ V(2)", "sl2 trivial(2)", "sl2 V(6)", "[x,y]=y a=0 n=2", "[x,y]=y a=1 n=2",
        "[x,y]=y a=2 n=2", "[x,y]=y a=-1 n=2", "[x,y]=y a=1/2 n=2", "[x,y]=y a=1/2 n=3 scrambled",
        "heisenberg natural", "heisenberg adjoint", "upper natural", "upper adjoint", "so5 natural",
    ])
    def test_dimensions_match_whole_system_kernels(self, name):
        L, V = _blocked_scan_input(name)
        system = assemble_system(L, V)
        blocks = _pivot_roots(system)
        nullity = system.cols - sum(rank for _, _, rank, _, _ in blocks)
        candidates = set().union(*(last for _, _, _, last, _ in blocks))
        earlier_only = set().union(*(earlier for *_, earlier in blocks)) - candidates
        if name == "sl2 V(6)":
            assert earlier_only == {F(-1, 2), F(0), F(1, 3)}
        rng = random.Random(name)
        tried = candidates | earlier_only | {F(0)}
        tried |= {F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)}
        for d in sorted(tried):
            whole = system.specialize(d, range(system.rows))
            dense = [[row.get(c, 0) for c in range(system.cols)] for row in whole]
            expected = len(nullspace_gauss(dense, system.cols))
            dropping = [(rows, cols, rank) for rows, cols, rank, last, _ in blocks if d in last]
            assert delta_solver._dimension_at(system, nullity, dropping, d) == expected
            assert kernel_at(system, d).dimension == expected
            if d in earlier_only:
                assert expected == nullity
        report = scan(L, V, include_zero=True)
        assert report.generic_rank == system.cols - nullity
        assert set(report.findings) <= candidates | {F(0)}
        assert all(report.findings[d] == kernel_at(system, d).dimension for d in report.findings)

    def test_a_scrambled_basis_reports_what_its_own_basis_does(self):
        # -2 is a root of earlier pivots of the scrambled pencil only, where the
        # dimension is the generic nullity 3; it is no candidate in either basis
        own = scan(*_blocked_scan_input("[x,y]=y a=1/2 n=3"), include_zero=True)
        assert F(-2) not in own.findings
        assert scan(*_blocked_scan_input("[x,y]=y a=1/2 n=3 scrambled"), include_zero=True) == own

    def test_candidates_eliminate_fewer_columns_than_the_system(self, monkeypatch):
        L, parts = parse_algebra_descriptor("sl4")
        V, _ = parse_module_descriptor("adjoint", L, parts)
        system = assemble_system(L, V)
        widths, per_candidate = [], []
        real_nullspace, real_dimension = delta_solver.nullspace_bareiss, delta_solver._dimension_at

        def nullspace(rows, ncols):
            widths.append(ncols)
            return real_nullspace(rows, ncols)

        def dimension_at(system, nullity, blocks, delta):
            widths.clear()
            dim = real_dimension(system, nullity, blocks, delta)
            per_candidate.append(sum(widths))
            return dim

        monkeypatch.setattr(delta_solver, "nullspace_bareiss", nullspace)
        monkeypatch.setattr(delta_solver, "_dimension_at", dimension_at)
        report = scan(L, V, include_zero=True)
        assert report.findings == {F(1, 2): 1, F(1): 15}
        assert len(per_candidate) == 6  # -2, -1, -1/2, 1/2 and 1, and 0
        assert 0 < max(per_candidate) < system.cols
