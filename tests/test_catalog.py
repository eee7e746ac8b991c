from fractions import Fraction

import pytest

from deltader import delta_solver, lie_core
from deltader.catalog import (
    CASE_DELTA_ONE,
    CASE_MINUS_TWO_OVER_N,
    CASE_ONE_HALF,
    CASE_TWO_OVER_N_PLUS_TWO,
    expected_family,
    expected_sl2_basis,
    identity_derivation,
    span_equal,
    theorem_dimension,
    v2_map_to_adjoint,
    verify_all,
)
from deltader.delta_solver import ShapeMismatch, is_delta_derivation, solve

F = Fraction


class TestExpectedBases:
    def test_counts(self):
        for n in range(1, 7):
            assert len(expected_sl2_basis(n, CASE_DELTA_ONE)) == n + 1
            assert len(expected_sl2_basis(n, CASE_MINUS_TWO_OVER_N)) == n + 3
            if n >= 2:
                assert len(expected_sl2_basis(n, CASE_TWO_OVER_N_PLUS_TWO)) == n - 1

    def test_n1_low_family_has_no_middle_maps(self):
        assert len(expected_sl2_basis(1, CASE_MINUS_TWO_OVER_N)) == 4

    def test_case_iii_map_n3_k1(self):
        maps = expected_sl2_basis(3, CASE_TWO_OVER_N_PLUS_TWO)
        assert maps[0] == (
            (F(0), F(0), F(2), F(0)),
            (F(0), F(4), F(0), F(0)),
            (F(-6), F(0), F(0), F(0)),
        )

    def test_case_iii_n2_is_twice_the_identity(self):
        maps = expected_sl2_basis(2, CASE_ONE_HALF)
        assert len(maps) == 1
        doubled = tuple(tuple(2 * x for x in row) for row in identity_derivation(3))
        assert v2_map_to_adjoint(maps[0]) == doubled

    def test_out_of_range_combinations(self):
        with pytest.raises(ValueError):
            expected_sl2_basis(1, CASE_TWO_OVER_N_PLUS_TWO)
        with pytest.raises(ValueError):
            expected_sl2_basis(3, CASE_ONE_HALF)
        with pytest.raises(ValueError):
            expected_sl2_basis(0, CASE_DELTA_ONE)
        with pytest.raises(ValueError):
            expected_sl2_basis(2, "mystery")

    def test_family_metadata(self):
        fam = expected_family(4, CASE_MINUS_TWO_OVER_N)
        assert fam.delta == F(-1, 2)
        assert fam.expected_dim == 7 == len(fam.basis)
        assert sorted(fam.weights) == [-5, -4, -3, -2, -1, 0, 1]

    def test_every_table_entry_satisfies_its_equation(self, sl2, v_modules):
        for n in range(1, 7):
            module = v_modules[n]
            cases = [CASE_DELTA_ONE, CASE_MINUS_TWO_OVER_N]
            if n >= 2:
                cases.append(CASE_TWO_OVER_N_PLUS_TWO)
            for case in cases:
                fam = expected_family(n, case)
                for D in fam.basis:
                    ok, witness = is_delta_derivation(D, sl2, module, fam.delta)
                    assert ok, (n, case, witness)

    def test_solver_reproduces_table_spans(self, sl2, v_modules):
        for n in range(1, 6):
            module = v_modules[n]
            cases = [CASE_DELTA_ONE, CASE_MINUS_TWO_OVER_N]
            if n >= 2:
                cases.append(CASE_TWO_OVER_N_PLUS_TWO)
            for case in cases:
                fam = expected_family(n, case)
                space = solve(sl2, module, fam.delta)
                assert space.dimension == fam.expected_dim
                assert span_equal(space.basis, list(fam.basis))


class TestSpanEqual:
    def test_reflexive(self):
        b = expected_sl2_basis(2, CASE_MINUS_TWO_OVER_N)
        assert span_equal(b, b)

    def test_scaling_invariance(self):
        D = expected_sl2_basis(3, CASE_TWO_OVER_N_PLUS_TWO)[0]
        doubled = tuple(tuple(2 * x for x in row) for row in D)
        assert span_equal([D], [doubled])

    def test_different_spans(self):
        b = expected_sl2_basis(2, CASE_MINUS_TWO_OVER_N)
        assert not span_equal(b[:2], b[2:4])
        assert not span_equal(iter(b[:2]), iter(b[2:4]))  # one pass over each argument

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            span_equal(
                expected_sl2_basis(1, CASE_MINUS_TWO_OVER_N),
                expected_sl2_basis(2, CASE_MINUS_TWO_OVER_N),
            )

    def test_empty_spans_agree(self):
        assert span_equal([], [])
        zero = ((F(0), F(0)), (F(0), F(0)))
        assert span_equal([], [zero])
        assert not span_equal([], [((F(0), F(1)), (F(0), F(0)))])


class TestTheoremDimension:
    def test_two_summand_instance(self):
        g = ["sl2", "sl2"]
        v = [(0, "V(1)"), (1, "V(2)")]
        assert theorem_dimension(g, v, F(-2)) == 4
        assert theorem_dimension(g, v, F(1, 2)) == 1
        assert theorem_dimension(g, v, F(3)) == 0
        assert theorem_dimension(g, v, F(1)) == 5
        assert theorem_dimension(g, v, F(-1)) == 5

    def test_sl3_entries(self):
        assert theorem_dimension(["sl3"], [(0, "adjoint")], F(1)) == 8
        assert theorem_dimension(["sl3"], [(0, "adjoint")], F(1, 2)) == 1
        assert theorem_dimension(["sl3"], [(0, "adjoint")], F(-1)) == 0
        assert theorem_dimension(["sl3"], [(0, "natural")], F(1)) == 3
        assert theorem_dimension(["sl3"], [(0, "natural")], F(1, 2)) == 0

    def test_adjoint_over_sl2_counts_as_v2(self):
        g = ["sl2"]
        v = [(0, "adjoint")]
        assert theorem_dimension(g, v, F(-1)) == 5
        assert theorem_dimension(g, v, F(1, 2)) == 1

    def test_trivial_parts_only_matter_at_one(self):
        g = ["sl2"]
        assert theorem_dimension(g, [(0, "trivial")], F(1)) == 0
        assert theorem_dimension(g, [(0, "V(1)"), (0, "trivial")], F(1)) == 2
        assert theorem_dimension(g, [(0, "trivial(3)")], F(1)) == 0

    def test_bad_descriptors(self):
        with pytest.raises(ValueError):
            theorem_dimension(["sl2"], [(0, "natural?")], F(1))
        with pytest.raises(ValueError):
            theorem_dimension(["sl3"], [(0, "V(2)")], F(1))
        with pytest.raises(ValueError):
            theorem_dimension(["sl2"], [(3, "V(1)")], F(1))
        with pytest.raises(ValueError):
            theorem_dimension(["so8"], [(0, "adjoint")], F(1))

    def _solver_dimension(self, g_parts, v_parts, delta):
        algebras = {
            "sl2": lie_core.sl2,
            "sl3": lambda: lie_core.sl_n(3)[0],
        }
        parts = [algebras[p]() for p in g_parts]
        g = parts[0] if len(parts) == 1 else lie_core.direct_sum_algebras(parts)

        def part_module(idx, desc):
            def atom(algebra_desc, name):
                if algebra_desc == "sl2":
                    if name.startswith("V("):
                        return lie_core.sl2_module(int(name[2:-1]))
                    if name == "adjoint":
                        return lie_core.sl2_module(2)
                    return lie_core.sl2_module(0)
                m = int(algebra_desc[2:])
                if name == "natural":
                    return lie_core.sl_n(m)[1]
                if name == "adjoint":
                    return lie_core.adjoint_module(lie_core.sl_n(m)[0])
                return lie_core.trivial_module(lie_core.sl_n(m)[0], 1)

            if len(g_parts) == 1:
                return atom(g_parts[0], desc)
            built = None
            for s, part_desc in enumerate(g_parts):
                factor = atom(part_desc, desc if s == idx else "trivial")
                built = factor if built is None else lie_core.tensor_module(built, factor)
            return built

        modules = [part_module(idx, desc) for idx, desc in v_parts]
        module = (
            modules[0] if len(modules) == 1 else lie_core.direct_sum_modules(modules)
        )
        return delta_solver.solve(g, module, delta).dimension

    def test_agreement_with_solver_on_assembled_inputs(self):
        deltas = [F(1), F(1, 2), F(-2), F(-1), F(-2, 3), F(2, 5), F(1, 3), F(3)]
        cases = [
            (["sl2"], [(0, "V(1)")]),
            (["sl2"], [(0, "V(2)")]),
            (["sl2"], [(0, "V(3)")]),
            (["sl2"], [(0, "V(4)")]),
            (["sl2"], [(0, "V(1)"), (0, "V(2)")]),
            (["sl2"], [(0, "trivial"), (0, "V(3)")]),
            (["sl2"], [(0, "V(2)"), (0, "V(2)")]),
            (["sl2", "sl2"], [(0, "V(1)")]),
            (["sl2", "sl2"], [(1, "V(2)")]),
            (["sl2", "sl2"], [(0, "V(1)"), (1, "V(1)")]),
            (["sl2", "sl2"], [(0, "V(2)"), (1, "V(3)")]),
            (["sl2", "sl2", "sl2"], [(1, "V(1)")]),
            (["sl2", "sl2", "sl2"], [(0, "V(1)"), (2, "V(2)")]),
            (["sl2", "sl3"], [(0, "V(2)")]),
            (["sl2", "sl3"], [(1, "adjoint")]),
            (["sl2", "sl3"], [(0, "V(1)"), (1, "natural")]),
        ]
        for g_parts, v_parts in cases:
            for d in deltas:
                want = theorem_dimension(g_parts, v_parts, d)
                got = self._solver_dimension(g_parts, v_parts, d)
                assert got == want, (g_parts, v_parts, d, got, want)


class TestVerifyAll:
    def test_full_run_is_clean(self):
        report = verify_all(4)
        assert report.ok
        assert report.failures == 0
        names = [c.name for c in report.checks]
        assert any("sl3 adjoint" in name for name in names)
        assert any("sl3 natural" in name for name in names)
        assert any("assembly" in name for name in names)

    def test_max_n_one_skips_high_case(self):
        report = verify_all(1)
        skips = [c for c in report.checks if c.status == "skip"]
        assert len(skips) == 1
        assert "requires n >= 2" in skips[0].detail

    def test_report_serialization(self):
        report = verify_all(1)
        data = report.to_json()
        assert data["failures"] == 0
        assert all(set(c) == {"name", "status", "detail"} for c in data["checks"])
        text = report.to_text()
        assert "pass" in text
        assert text.strip().endswith("check(s)")

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            verify_all(0)
