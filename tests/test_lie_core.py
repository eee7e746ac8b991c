from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltader.cli import algebra_from_json, module_from_json
from deltader.lie_core import (
    AlgebraMismatch,
    HomomorphismViolation,
    IndexOutOfRange,
    JacobiViolation,
    NotDiagonal,
    _check_jacobi,
    adjoint_module,
    algebra_from_structure_constants,
    direct_sum_algebras,
    direct_sum_modules,
    invariants,
    parse_algebra_descriptor,
    representation_from_action,
    sl2,
    sl2_module,
    sl_n,
    tensor_module,
    trivial_module,
    weight_decomposition,
)
from oracle import bracket, canonical_basis, jacobi_violation, rref, sparse

F = Fraction


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def identity(n):
    return [unit(n, i) for i in range(n)]


def oracle_commutant(L):
    """dim [L, L] as the rank of the dense basis brackets, by the oracle."""
    return len(canonical_basis([bracket(L, i, j) for i in range(L.dim) for j in range(L.dim)]))


def kron(a, b):
    """Dense Kronecker product, row-major in (index in a, index in b)."""
    rb, cb = len(b), len(b[0])
    return [
        [a[r // rb][c // cb] * b[r % rb][c % cb] for c in range(len(a[0]) * cb)]
        for r in range(len(a) * rb)
    ]


class TestSl2:
    def test_multiplication_table(self, sl2):
        e_minus, h, e_plus = 0, 1, 2
        assert bracket(sl2, h, e_minus) == [F(-2), F(0), F(0)]
        assert bracket(sl2, h, e_plus) == [F(0), F(0), F(2)]
        assert bracket(sl2, e_plus, e_minus) == [F(0), F(1), F(0)]

    def test_antisymmetry_on_basis(self, sl2):
        for x in range(3):
            assert bracket(sl2, x, x) == [F(0)] * 3
        for i in range(3):
            for j in range(3):
                lhs = bracket(sl2, i, j)
                rhs = [-c for c in bracket(sl2, j, i)]
                assert lhs == rhs

    def test_labels_and_weights(self, sl2):
        assert sl2.basis_labels == ("e-", "h", "e+")

    def test_perfect(self, sl2):
        assert sl2.commutant_dimension() == oracle_commutant(sl2) == 3


class TestStructureConstantConstruction:
    def test_sl2_from_raw_entries(self, sl2):
        alg = algebra_from_structure_constants(
            3, [(0, 1, 0, 2), (0, 2, 1, -1), (1, 2, 2, 2)]
        )
        assert alg == sl2
        assert alg.structure == sl2.structure

    def test_equality_ignores_labels_and_fields_are_read_only(self, sl2):
        relabelled = algebra_from_structure_constants(
            3, [(0, 1, 0, 2), (0, 2, 1, -1), (1, 2, 2, 2)], labels=("x", "y", "z")
        )
        assert relabelled == sl2 and relabelled.basis_labels != sl2.basis_labels
        with pytest.raises(AttributeError):
            relabelled.dim = 4
        module = sl2_module(1)
        assert module != sl2_module(1) and module == module
        with pytest.raises(AttributeError):
            module.dim_v = 3

    def test_abelian(self):
        alg = algebra_from_structure_constants(2, [])
        assert alg.dim == 2
        assert alg.structure == {}
        assert alg.commutant_dimension() == oracle_commutant(alg) == 0

    def test_commutant_of_solvable_algebras(self, probe):
        # [x, y] = y, and the upper triangular 3 x 3 matrices, whose
        # commutant is the strictly upper triangular ones
        assert probe[0].commutant_dimension() == oracle_commutant(probe[0]) == 1
        units = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
        mats = [[[F(int((r, c) == u)) for c in range(3)] for r in range(3)] for u in units]
        entries = []
        for i in range(6):
            for j in range(i + 1, 6):
                value = commutator(mats[i], mats[j])
                entries += [(i, j, k, value[r][c]) for k, (r, c) in enumerate(units) if value[r][c]]
        borel = algebra_from_structure_constants(6, entries)
        assert borel.commutant_dimension() == oracle_commutant(borel) == 3

    def test_jacobi_violation_detected(self):
        # [e0,e1] = e0, [e1,e2] = e2, [e0,e2] = e0 breaks the identity:
        # recomputing the three nested brackets by hand gives -e0.
        entries = [(0, 1, 0, 1), (1, 2, 2, 1), (0, 2, 0, 1)]
        with pytest.raises(JacobiViolation) as err:
            algebra_from_structure_constants(3, entries)
        assert err.value.triple == (0, 1, 2)
        assert err.value.residual == (F(-1), F(0), F(0))

    def test_jacobi_residual_matches_independent_expansion(self):
        # same data, residual recomputed without the library's bracket code
        table = {
            (0, 1): {0: F(1)},
            (1, 2): {2: F(1)},
            (0, 2): {0: F(1)},
        }

        def br(i, j):
            if i == j:
                return {}
            if i < j:
                return dict(table.get((i, j), {}))
            return {k: -c for k, c in table.get((j, i), {}).items()}

        def br_vec(vec, j):
            out = {}
            for a, c in vec.items():
                for k, d in br(a, j).items():
                    out[k] = out.get(k, F(0)) + c * d
            return out

        res = {}
        for term in (br_vec(br(0, 1), 2), br_vec(br(1, 2), 0), br_vec(br(2, 0), 1)):
            for k, c in term.items():
                res[k] = res.get(k, F(0)) + c
        assert {k: c for k, c in res.items() if c} == {0: F(-1)}

    def test_first_failing_triple_in_a_large_sparse_algebra(self):
        # sl4 with two constants doubled fails on many triples; the check
        # reports the lexicographically first one, found here by brute force
        # through the dense basis brackets
        alg = sl_n(4)[0]
        entries = [(i, j, k, c) for (i, j), terms in alg.structure.items() for k, c in terms]
        for t in (40, 7):
            i, j, k, c = entries[t]
            entries[t] = (i, j, k, 2 * c)
        broken = algebra_from_structure_constants(15, entries, validate=False)
        failing = []
        for i in range(15):
            for j in range(i + 1, 15):
                for k in range(j + 1, 15):
                    res = [F(0)] * 15
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, c in enumerate(bracket(broken, x, y)):
                            if c:
                                term = bracket(broken, m, z)
                                res = [a + c * b for a, b in zip(res, term)]
                    if any(res):
                        failing.append(((i, j, k), tuple(res)))
        assert len(failing) > 1
        with pytest.raises(JacobiViolation) as err:
            algebra_from_structure_constants(15, entries)
        assert (err.value.triple, err.value.residual) == failing[0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            algebra_from_structure_constants(2, [(0, 1, 5, 1)])
        with pytest.raises(IndexOutOfRange):
            algebra_from_structure_constants(2, [(0, 3, 0, 1)])

    def test_lower_triangular_entries_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_structure_constants(2, [(1, 0, 0, 1)])

    def test_duplicate_entries_accumulate(self):
        alg = algebra_from_structure_constants(2, [(0, 1, 0, 1), (0, 1, 0, -1)])
        assert alg.structure == {}

    def test_validation_can_be_skipped(self):
        entries = [(0, 1, 0, 1), (1, 2, 2, 1), (0, 2, 0, 1)]
        alg = algebra_from_structure_constants(3, entries, validate=False)
        assert alg.dim == 3  # constructed despite the broken identity


class TestSlN:
    def test_dimensions(self, sl3):
        assert sl_n(2)[0].dim == 3
        assert sl3.dim == 8

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sl_n(1)

    def test_sl2_identification(self, sl2):
        # basis order (E21, H1, E12) reproduces the (e-, h, e+) table exactly
        matrix_sl2, _ = sl_n(2)
        assert matrix_sl2.structure == sl2.structure

    def test_cartan_bracket(self):
        alg, nat = sl_n(2)
        # [H1, E12] = 2 E12 in both the abstract table and the matrices
        assert bracket(alg, 1, 2) == [F(0), F(0), F(2)]
        h = nat.action_matrix(1)
        e12 = nat.action_matrix(2)
        assert commutator(h, e12) == [[F(0), F(2)], [F(0), F(0)]]

    def test_natural_module_is_faithful_action(self, sl3, sl3_natural):
        assert sl3_natural.dim_v == 3
        assert sl3_natural.algebra == sl3

    def test_traceless(self, sl3_natural):
        for i in range(8):
            m = sl3_natural.action_matrix(i)
            assert sum(m[r][r] for r in range(3)) == 0


class TestDirectSumAlgebras:
    def test_two_summands(self, sl2):
        g = direct_sum_algebras([sl2, sl2])
        assert g.dim == 6
        assert g.summand_boundaries == ((0, 3), (3, 6))
        for i in range(3):
            for j in range(3, 6):
                assert bracket(g, i, j) == [F(0)] * 6

    def test_single_summand_identity(self, sl2):
        assert direct_sum_algebras([sl2]) == sl2

    def test_associativity_up_to_flattening(self, sl2):
        abelian = algebra_from_structure_constants(2, [])
        left = direct_sum_algebras([direct_sum_algebras([sl2, abelian]), sl2])
        right = direct_sum_algebras([sl2, direct_sum_algebras([abelian, sl2])])
        assert left == right
        assert left.summand_boundaries == ((0, 3), (3, 5), (5, 8))

    def test_jacobi_holds_on_sum(self, sl2):
        # construction re-validates; reaching here means the check passed
        g = direct_sum_algebras([sl2, sl2])
        assert g.dim == 6


class TestSl2Modules:
    def test_h_action_n1(self):
        v1 = sl2_module(1)
        assert v1.action_matrix(1) == [[F(1), F(0)], [F(0), F(-1)]]

    def test_action_table_n3(self):
        v3 = sl2_module(3)
        lower = v3.action_matrix(0)
        upper = v3.action_matrix(2)
        assert lower[1][0] == 1 and lower[2][1] == 2 and lower[3][2] == 3
        assert upper[0][1] == 3 and upper[1][2] == 2 and upper[2][3] == 1

    def test_pair_relation(self):
        for n in range(5):
            rep = sl2_module(n)
            em, h, ep = (rep.action_matrix(i) for i in range(3))
            assert commutator(ep, em) == h

    def test_weights(self):
        assert sl2_module(2).weight_labels == (0, 1, 2)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sl2_module(-1)

    def test_v2_equivalent_to_adjoint(self, sl2):
        # explicit equivariant bijection: e- -> v2, h -> v1, e+ -> -v0
        phi = [[F(0), F(0), F(-1)], [F(0), F(1), F(0)], [F(1), F(0), F(0)]]
        v2 = sl2_module(2)
        adj = adjoint_module(sl2)
        for i in range(3):
            assert mat_mul(phi, adj.action_matrix(i)) == mat_mul(v2.action_matrix(i), phi)

    def test_v0_matches_trivial(self, sl2):
        assert sl2_module(0).action == trivial_module(sl2, 1).action


class TestAdjointAndTrivial:
    def test_adjoint_sl2_matrices(self, sl2):
        adj = adjoint_module(sl2)
        assert adj.dim_v == 3
        # ad(h) = diag(-2, 0, 2) on (e-, h, e+)
        assert adj.action_matrix(1) == [
            [F(-2), F(0), F(0)],
            [F(0), F(0), F(0)],
            [F(0), F(0), F(2)],
        ]

    def test_adjoint_of_abelian_is_zero(self):
        abelian = algebra_from_structure_constants(3, [])
        adj = adjoint_module(abelian)
        assert all(x == 0 for i in range(3) for row in adj.action_matrix(i) for x in row)

    def test_trivial_module(self, sl2):
        rep = trivial_module(sl2, 4)
        assert rep.dim_v == 4
        assert len(invariants(rep)) == 4
        assert len(invariants(trivial_module(sl2, 0))) == 0


class TestDirectSumModules:
    def test_block_diagonal(self, sl2):
        v1 = sl2_module(1)
        s = direct_sum_modules([v1, v1])
        assert s.dim_v == 4
        m = s.action_matrix(0)
        assert m[1][0] == 1 and m[3][2] == 1
        assert m[1][2] == 0 and m[3][0] == 0

    def test_single_part_identity(self):
        v1 = sl2_module(1)
        assert direct_sum_modules([v1]).action == v1.action

    def test_algebra_mismatch(self, sl2, sl3, sl3_natural):
        with pytest.raises(AlgebraMismatch):
            direct_sum_modules([sl2_module(1), sl3_natural])

    def test_invariants_additive(self, sl2):
        for a in range(3):
            for b in range(3):
                va, vb = sl2_module(a), sl2_module(b)
                s = direct_sum_modules([va, vb])
                assert len(invariants(s)) == len(invariants(va)) + len(invariants(vb))

    def test_weight_labels_concatenate(self):
        s = direct_sum_modules([sl2_module(1), sl2_module(2)])
        assert s.weight_labels == (0, 1, 0, 1, 2)

    def test_associative_up_to_flattening(self):
        a, b, c = sl2_module(0), sl2_module(1), sl2_module(2)
        left = direct_sum_modules([direct_sum_modules([a, b]), c])
        right = direct_sum_modules([a, direct_sum_modules([b, c])])
        assert left.action == right.action
        assert left.weight_labels == right.weight_labels


class TestTensorModules:
    def test_dimensions(self):
        t = tensor_module(sl2_module(2), sl2_module(2))
        assert t.dim_v == 9
        assert t.algebra.dim == 6

    def test_second_factor_trivial(self):
        t = tensor_module(sl2_module(1), sl2_module(0))
        for i in range(3, 6):
            assert all(x == 0 for row in t.action_matrix(i) for x in row)
        # first summand acts exactly as on the plain module
        assert t.action_matrix(0) == sl2_module(1).action_matrix(0)

    def test_invariants_multiply(self):
        mods = [sl2_module(n) for n in range(3)]
        for v1 in mods:
            for v2 in mods:
                t = tensor_module(v1, v2)
                assert len(invariants(t)) == len(invariants(v1)) * len(invariants(v2))

    def test_mixed_algebras(self, sl3_natural):
        t = tensor_module(sl2_module(1), sl3_natural)
        assert t.algebra.dim == 11
        assert t.dim_v == 6

    def test_matches_dense_kronecker_oracle(self, sl3_natural):
        # rho1(x) (x) I for the first algebra, I (x) rho2(x) for the second
        for v1, v2 in (
            (sl2_module(1), sl2_module(2)),
            (sl2_module(2), sl2_module(0)),
            (sl3_natural, sl2_module(1)),
        ):
            t = tensor_module(v1, v2)
            expected = [kron(v1.action_matrix(i), identity(v2.dim_v))
                        for i in range(v1.algebra.dim)]
            expected += [kron(identity(v1.dim_v), v2.action_matrix(i))
                         for i in range(v2.algebra.dim)]
            assert [t.action_matrix(i) for i in range(t.algebra.dim)] == expected


class TestStoredRows:
    def test_builders_store_nonzero_fractions_in_range(self, sl2, sl3, sl3_natural):
        modules = [sl2_module(n) for n in range(5)] + [
            adjoint_module(sl2),
            adjoint_module(sl3),
            sl3_natural,
            trivial_module(sl3, 2),
            direct_sum_modules([sl2_module(1), adjoint_module(sl2)]),
            tensor_module(sl2_module(2), sl2_module(1)),
        ]
        for rep in modules:
            assert len(rep.action) == rep.algebra.dim
            for rows in rep.action:
                assert len(rows) == rep.dim_v
                for row in rows:
                    for s, x in row.items():
                        assert type(x) is Fraction and x != 0 and 0 <= s < rep.dim_v

    def test_constructor_drops_zeros_and_converts(self, sl2):
        rep = representation_from_action(sl2, [[{0: 0}], [{0: 0.0}], [{}]], 1)
        assert rep.action == (({},),) * 3
        abelian = algebra_from_structure_constants(1, [])
        rep = representation_from_action(abelian, [[{1: 3}, {}]], 2)
        assert rep.action == (({1: F(3)}, {}),)
        assert type(rep.action[0][0][1]) is Fraction

    @staticmethod
    def assert_integer_tables(L, V, cden, aden):
        """L.brackets and V.columns are the Fraction data times cden and aden."""
        assert (L.den, V.den) == (cden, aden)
        for (i, j), terms in L.structure.items():
            assert L.brackets[(i, j)] == tuple((k, c * cden) for k, c in terms)
            assert L.brackets[(j, i)] == tuple((k, -c * cden) for k, c in terms)
        assert len(L.brackets) == 2 * len(L.structure)
        assert all(type(c) is int for terms in L.brackets.values() for _, c in terms)
        assert len(V.columns) == L.dim
        for a, rows in enumerate(V.action):
            assert len(V.columns[a]) == V.dim_v
            for m, column in enumerate(V.columns[a]):
                assert dict(column) == {r: row[m] * aden for r, row in enumerate(rows) if m in row}
                assert all(type(x) is int for _, x in column)

    def test_integer_tables_scale_the_fractions(self, rescaled_json):
        L = algebra_from_json(rescaled_json["algebra"])
        self.assert_integer_tables(L, module_from_json(rescaled_json["module"], L), 2, 6)
        entries = [(0, 1, 2, F(1, 2)), (0, 2, 1, F(2, 3)), (1, 2, 2, 1)]
        broken = algebra_from_structure_constants(3, entries, validate=False)
        with pytest.raises(JacobiViolation):
            _check_jacobi(broken)
        self.assert_integer_tables(broken, trivial_module(broken, 2), 6, 1)
        for dim, dim_v in ((0, 0), (1, 0), (2, 3)):  # lcm() of nothing is 1
            empty = algebra_from_structure_constants(dim, [])
            self.assert_integer_tables(empty, trivial_module(empty, dim_v), 1, 1)

    def test_constructor_rejects_bad_shapes(self, sl2):
        abelian = algebra_from_structure_constants(1, [])
        with pytest.raises(ValueError):
            representation_from_action(abelian, [[{2: 1}, {}]], 2)  # column out of range
        with pytest.raises(ValueError):
            representation_from_action(abelian, [[{}]], 2)  # too few rows
        with pytest.raises(ValueError):
            representation_from_action(abelian, [[{-1: 1}]], 1)


class TestInvariants:
    def test_irreducible_nontrivial_has_none(self):
        for n in range(1, 5):
            assert invariants(sl2_module(n)) == ()

    def test_trivial_line(self):
        assert len(invariants(sl2_module(0))) == 1

    def test_adjoint_sl2_centerless(self, sl2):
        assert invariants(adjoint_module(sl2)) == ()

    def test_invariant_vectors_are_killed(self, sl2):
        rep = direct_sum_modules([sl2_module(0), sl2_module(2)])
        basis = invariants(rep)
        assert len(basis) == 1
        for v in basis:
            for i in range(3):
                assert all(
                    sum(x * y for x, y in zip(row, v)) == 0 for row in rep.action_matrix(i)
                )


class TestRepresentationValidation:
    def test_homomorphism_violation(self, sl2):
        mats = [[[F(0)]], [[F(0)]], [[F(1)]]]
        with pytest.raises(HomomorphismViolation) as err:
            representation_from_action(sl2, sparse(mats), 1)
        assert err.value.pair == (1, 2)

    def test_first_failing_pair_in_a_larger_module(self, sl3, sl3_natural):
        mats = [sl3_natural.action_matrix(i) for i in range(8)]
        mats[5][0][2] = F(3)  # a zero entry of E12's matrix
        failing = []
        for i in range(8):
            for j in range(i + 1, 8):
                rhs = [[F(0)] * 3 for _ in range(3)]
                for k, c in sl3.structure.get((i, j), ()):
                    rhs = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(rhs, mats[k])]
                if commutator(mats[i], mats[j]) != rhs:
                    failing.append((i, j))
        assert len(failing) > 1
        with pytest.raises(HomomorphismViolation) as err:
            representation_from_action(sl3, sparse(mats), 3)
        assert err.value.pair == failing[0]

    def test_wrong_count_rejected(self, sl2):
        with pytest.raises(ValueError):
            representation_from_action(sl2, [[{0: 1}, {1: 1}]] * 2, 2)


class TestWeightDecomposition:
    def test_sl2_v1(self, sl2):
        decomp = weight_decomposition(sl2, sl2_module(1), 1)
        assert decomp == [
            (F(-2), (0,), ()),
            (F(-1), (), (1,)),
            (F(0), (1,), ()),
            (F(1), (), (0,)),
            (F(2), (2,), ()),
        ]

    def test_module_eigenvalues(self, sl2):
        for n in (2, 4):
            decomp = weight_decomposition(sl2, sl2_module(n), 1)
            mu = {}
            for w, _, mod_idx in decomp:
                for m in mod_idx:
                    mu[m] = w
            assert mu == {i: F(n - 2 * i) for i in range(n + 1)}

    def test_not_diagonal(self, sl2):
        with pytest.raises(NotDiagonal):
            weight_decomposition(sl2, sl2_module(1), 0)

    def test_abelian_zero_action_single_block(self):
        abelian = algebra_from_structure_constants(2, [])
        rep = trivial_module(abelian, 3)
        decomp = weight_decomposition(abelian, rep, 0)
        assert decomp == [(F(0), (0, 1), (0, 1, 2))]

    def test_index_out_of_range(self, sl2):
        with pytest.raises(IndexOutOfRange):
            weight_decomposition(sl2, sl2_module(1), 7)


# signed rationals with numerators up to 2**64 and denominators up to 10**6
RATIONALS = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 10**6))


def jacobi_outcome(L):
    """The package's integer check, read as the oracle's (triple, residual) or None."""
    try:
        _check_jacobi(L)
    except JacobiViolation as err:
        assert all(type(c) is Fraction for c in err.residual)
        return err.triple, err.residual
    return None


@st.composite
def sparse_algebras(draw):
    """Sparse structure constants in dims 2-6, most of them failing the identity."""
    dim = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    terms = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, dim - 1), RATIONALS),
                          max_size=3 * dim))
    entries = [(i, j, k, c) for (i, j), k, c in terms]
    return algebra_from_structure_constants(dim, entries, validate=False)


def change_of_basis(L, P):
    """L's structure constants in the basis f_a = sum_b P[a][b] e_b, or None if P is singular."""
    n = L.dim
    reduced, pivots = rref([row + unit(n, a) for a, row in enumerate(P)])
    if pivots != list(range(n)):
        return None
    inverse = [row[n:] for row in reduced]
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [F(0)] * n  # [f_i, f_j] in the old basis
            for (a, b), terms in L.structure.items():
                x = P[i][a] * P[j][b] - P[i][b] * P[j][a]
                for k, c in terms:
                    v[k] += x * c
            w = [sum((v[a] * inverse[a][k] for a in range(n)), F(0)) for k in range(n)]
            entries += [(i, j, k, c) for k, c in enumerate(w) if c]
    return entries


@st.composite
def rebased_algebras(draw):
    """sl2, sl3 or sl2 o+ sl2 after a rational change of basis, perhaps with
    one structure constant perturbed; returns (algebra, perturbed)."""
    L = parse_algebra_descriptor(draw(st.sampled_from(["sl2", "sl3", "sl2 o+ sl2"])))[0]
    n = L.dim
    small = st.builds(F, st.integers(-3, 3), st.integers(1, 5))
    P = [[draw(small) for _ in range(n)] for _ in range(n)]
    entries = change_of_basis(L, P)
    assume(entries is not None)
    perturbed = draw(st.booleans())
    if perturbed:
        i = draw(st.integers(0, n - 2))
        entries.append((i, draw(st.integers(i + 1, n - 1)), draw(st.integers(0, n - 1)),
                        draw(RATIONALS.filter(bool))))
    return algebra_from_structure_constants(n, entries, validate=False), perturbed


class TestJacobiAgainstOracle:
    """The integer Jacobi check against the Fraction one in ``oracle``: the same
    verdict, the same first failing triple and the same exact residual."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_algebras())
    def test_sparse_constants(self, L):
        assert jacobi_outcome(L) == jacobi_violation(L)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rebased_algebras())
    def test_rebased_algebras_and_one_perturbed_constant(self, case):
        L, perturbed = case
        want = jacobi_violation(L)
        assert perturbed or want is None
        assert jacobi_outcome(L) == want
