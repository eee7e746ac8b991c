from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import catalog, cli, delta_solver
from deltader.catalog import (
    CASE_DELTA_ONE,
    CASE_MINUS_TWO_OVER_N,
    CASE_TWO_OVER_N_PLUS_TWO,
    expected_family,
    identity_derivation,
    span_equal,
    theorem_dimension,
    theorem_findings,
    v2_map_to_adjoint,
    verify_all,
)
from deltader.delta_solver import ShapeMismatch, is_delta_derivation, scan, solve
from deltader.lie_core import (
    ParseError,
    SemanticError,
    parse_algebra_descriptor,
    parse_module_descriptor,
)
from conftest import as_row

F = Fraction


class TestExpectedBases:
    def test_counts(self):
        for n in range(1, 7):
            assert len(expected_family(n, CASE_DELTA_ONE).basis) == n + 1
            assert len(expected_family(n, CASE_MINUS_TWO_OVER_N).basis) == n + 3
            if n >= 2:
                assert len(expected_family(n, CASE_TWO_OVER_N_PLUS_TWO).basis) == n - 1

    def test_n1_low_family_has_no_middle_maps(self):
        assert len(expected_family(1, CASE_MINUS_TWO_OVER_N).basis) == 4

    def test_case_iii_map_n3_k1(self):
        maps = expected_family(3, CASE_TWO_OVER_N_PLUS_TWO).basis
        assert maps[0] == (
            (F(0), F(0), F(2), F(0)),
            (F(0), F(4), F(0), F(0)),
            (F(-6), F(0), F(0), F(0)),
        )

    def test_case_iii_n2_is_twice_the_identity(self):
        maps = expected_family(2, CASE_TWO_OVER_N_PLUS_TWO).basis
        assert len(maps) == 1
        doubled = tuple(tuple(2 * x for x in row) for row in identity_derivation(3))
        assert v2_map_to_adjoint(maps[0]) == doubled

    def test_out_of_range_combinations(self):
        with pytest.raises(ValueError):
            expected_family(1, CASE_TWO_OVER_N_PLUS_TWO)
        with pytest.raises(ValueError):
            expected_family(0, CASE_DELTA_ONE)
        with pytest.raises(ValueError):
            expected_family(2, "mystery")

    def test_family_metadata(self):
        fam = expected_family(4, CASE_MINUS_TWO_OVER_N)
        assert fam.delta == F(-1, 2)
        assert len(fam.basis) == 7
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
                    ok, witness = is_delta_derivation(as_row(D), sl2, module, fam.delta)
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
                assert space.dimension == len(fam.basis)
                assert span_equal(space.basis, list(fam.basis))


class TestSpanEqual:
    def test_reflexive(self):
        b = expected_family(2, CASE_MINUS_TWO_OVER_N).basis
        assert span_equal(b, b)

    def test_scaling_invariance(self):
        D = expected_family(3, CASE_TWO_OVER_N_PLUS_TWO).basis[0]
        doubled = tuple(tuple(2 * x for x in row) for row in D)
        assert span_equal([D], [doubled])

    def test_different_spans(self):
        b = expected_family(2, CASE_MINUS_TWO_OVER_N).basis
        assert not span_equal(b[:2], b[2:4])
        assert not span_equal(iter(b[:2]), iter(b[2:4]))  # one pass over each argument

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            span_equal(
                expected_family(1, CASE_MINUS_TWO_OVER_N).basis,
                expected_family(2, CASE_MINUS_TWO_OVER_N).basis,
            )

    def test_empty_spans_agree(self):
        assert span_equal([], [])
        zero = ((F(0), F(0)), (F(0), F(0)))
        assert span_equal([], [zero])
        assert not span_equal([], [((F(0), F(1)), (F(0), F(0)))])


class TestTheoremDimension:
    def test_two_summand_instance(self):
        g, v = "sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)"
        assert theorem_dimension(g, v, F(-2)) == 4
        assert theorem_dimension(g, v, F(1, 2)) == 1
        assert theorem_dimension(g, v, F(3)) == 0
        assert theorem_dimension(g, v, F(1)) == 5
        assert theorem_dimension(g, v, F(-1)) == 5

    def test_sl3_entries(self):
        assert theorem_dimension("sl3", "adjoint", F(1)) == 8
        assert theorem_dimension("sl3", "adjoint", F(1, 2)) == 1
        assert theorem_dimension("sl3", "adjoint", F(-1)) == 0
        assert theorem_dimension("sl3", "natural", F(1)) == 3
        assert theorem_dimension("sl3", "natural", F(1, 2)) == 0

    def test_adjoint_over_sl2_counts_as_v2(self):
        assert theorem_dimension("sl2", "adjoint", F(-1)) == 5
        assert theorem_dimension("sl2", "adjoint", F(1, 2)) == 1

    def test_trivial_parts_only_matter_at_one(self):
        assert theorem_dimension("sl2", "trivial(1)", F(1)) == 0
        assert theorem_dimension("sl2", "V(1) o+ trivial(1)", F(1)) == 2
        assert theorem_dimension("sl2", "trivial(3)", F(1)) == 0
        assert theorem_dimension("sl2 o+ sl3", "V(2) (x) trivial(2)", F(1)) == 6

    def test_bad_descriptors(self):
        with pytest.raises(ParseError):
            theorem_dimension("sl2", "natural?", F(1))
        with pytest.raises(SemanticError):
            theorem_dimension("sl3", "V(2)", F(1))
        with pytest.raises(SemanticError):
            theorem_dimension("sl2", "V(1) (x) V(1)", F(1))
        with pytest.raises(ParseError):
            theorem_dimension("so8", "adjoint", F(1))

    def test_a_term_on_two_summands_is_not_counted(self):
        with pytest.raises(ValueError, match="nontrivial on 2 summands"):
            theorem_dimension("sl2 o+ sl2", "V(1) (x) V(1)", F(1))

    @pytest.mark.parametrize("algebra, module", [
        ("sl2", "natural"),
        ("sl2", "trivial"),
        ("sl2", "trivial(-2)"),
        ("sl02", "natural"),
        ("sl02", "V(1)"),
        ("sl1", "trivial(1)"),
        ("sl2 o+", "V(1)"),
        ("sl2 (x) sl2", "V(1)"),
        ("V(1)", "V(1)"),
        ("sl2", ""),
        ("sl2", "V(1) o+"),
        ("sl2", "V(1) V(2)"),
        ("sl2", "sl2"),
        ("sl2 o+ sl2", "V(2)"),
        ("sl2 o+ sl3", "natural"),
        ("sl2 o+ sl3", "V(1) (x) V(1)"),
        ("sl2 o+ sl3", "natural (x) V(1)"),
        ("sl2 o+ sl2", "V(1) (x) V(0) (x) V(0)"),
        ("sl3", "V(1)"),
        ("sl2 ⊕ sl3", "V(1) ⊗ trivial(1) o+ adjoint"),
        ("sl2 o+ sl3", "trivial(2) o+ V(0) (x) natural"),
    ])
    def test_the_cli_fails_exactly_where_the_theorem_raises(self, capsys, algebra, module):
        code = cli.main(["solve", "--algebra", algebra, "--module", module, "--delta", "1"])
        err = capsys.readouterr().err
        try:
            theorem_dimension(algebra, module, F(1))
        except (ParseError, SemanticError) as exc:
            assert (code, err) == (2, f"error: {exc}\n")
        else:
            assert (code, err) == (0, "")

    def test_agreement_with_solver_on_assembled_inputs(self):
        deltas = [F(1), F(1, 2), F(-2), F(-1), F(-2, 3), F(2, 5), F(1, 3), F(3)]
        cases = [
            ("sl2", "V(1)"),
            ("sl2", "V(2)"),
            ("sl2", "V(3)"),
            ("sl2", "V(4)"),
            ("sl2", "V(1) o+ V(2)"),
            ("sl2", "trivial(1) o+ V(3)"),
            ("sl2", "V(2) o+ V(2)"),
            ("sl2", "V(1) o+ V(1)"),
            ("sl2", "adjoint"),
            ("sl2 o+ sl2", "V(1) (x) V(0)"),
            ("sl2 o+ sl2", "V(0) (x) V(2)"),
            ("sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(1)"),
            ("sl2 o+ sl2", "V(2) (x) V(0) o+ V(0) (x) V(3)"),
            ("sl2 o+ sl2 o+ sl2", "V(0) (x) V(1) (x) V(0)"),
            ("sl2 o+ sl2 o+ sl2", "V(1) (x) V(0) (x) V(0) o+ V(0) (x) V(0) (x) V(2)"),
            ("sl2 o+ sl3", "V(2) (x) trivial(1)"),
            ("sl2 o+ sl3", "V(0) (x) adjoint"),
            ("sl2 o+ sl3", "V(1) (x) trivial(1) o+ V(0) (x) natural"),
            ("sl2 o+ sl3", "trivial(2)"),
            ("sl2 o+ sl3", "V(2) (x) trivial(2)"),
            ("sl2 o+ sl3", "adjoint"),
        ]
        for algebra, module in cases:
            g, parts = parse_algebra_descriptor(algebra)
            v, _ = parse_module_descriptor(module, g, parts)
            findings = theorem_findings(algebra, module)
            for d in deltas:
                want = theorem_dimension(algebra, module, d)
                assert want == findings.get(d, 0)
                got = solve(g, v, d).dimension
                assert got == want, (algebra, module, d, got, want)


def _scanned(algebra, module):
    g, parts = parse_algebra_descriptor(algebra)
    return scan(g, parse_module_descriptor(module, g, parts)[0])


@st.composite
def split_inputs(draw):
    """Descriptors of sl2/sl3 sums with a module whose terms are each nontrivial
    on one summand at most, as ``theorem_findings`` reads them."""
    summands = draw(st.lists(st.sampled_from(["sl2", "sl3"]), min_size=1, max_size=2))
    trivial = st.sampled_from([f"trivial({d})" for d in range(3)])
    irreducible = {
        "sl2": st.sampled_from([f"V({n})" for n in range(7)] + ["adjoint"]),
        "sl3": st.sampled_from(["natural", "adjoint"]),
    }
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        if len(summands) > 1 and draw(st.booleans()):  # one atom of the whole algebra
            terms.append(draw(st.sampled_from(["adjoint", "trivial(1)", "trivial(2)"])))
            continue
        carrier = draw(st.integers(0, len(summands)))  # len(summands): trivial everywhere
        factors = [draw(irreducible[s] if i == carrier else trivial)
                   for i, s in enumerate(summands)]
        terms.append(" (x) ".join(factors))
    return " o+ ".join(summands), " o+ ".join(terms)


class TestTheoremFindings:
    PAIRS = [("sl2", f"V({n})") for n in range(9)] + [
        ("sl2", "adjoint"),
        ("sl2", "V(1) o+ V(3)"),
        ("sl2", "V(2) o+ adjoint"),
        ("sl2", "trivial(2) o+ V(4)"),
        ("sl3", "natural"),
        ("sl4", "natural"),
        ("sl5", "natural"),
        ("sl3", "adjoint"),
        ("sl4", "adjoint"),
        ("sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)"),
        ("sl2 o+ sl2", "adjoint o+ trivial(1)"),
        ("sl2 o+ sl3", "V(3) (x) trivial(1) o+ V(0) (x) natural"),
        ("sl3 o+ sl2", "adjoint (x) V(0) o+ trivial(2) (x) V(2)"),
    ]

    @pytest.mark.parametrize("algebra, module", PAIRS)
    def test_agrees_with_scan(self, algebra, module):
        report = _scanned(algebra, module)
        assert report.findings == theorem_findings(algebra, module)
        # the spurious residue that a rational-only scan cannot yet rule out
        residue = ((1, 1, 1),) if (algebra, module) == ("sl4", "adjoint") else ()
        assert report.nonrational_factors == residue

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(split_inputs())
    def test_agrees_with_scan_on_drawn_inputs(self, descriptors):
        report = _scanned(*descriptors)
        assert report.findings == theorem_findings(*descriptors)
        assert report.nonrational_factors == ()

    def test_lists_only_nonzero_values_in_ascending_order(self):
        findings = theorem_findings("sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)")
        assert findings == {F(-2): 4, F(-1): 5, F(1, 2): 1, F(1): 5}
        assert list(findings) == sorted(findings)
        assert theorem_findings("sl2", "V(0) o+ trivial(2)") == {}
        # no copies of V(3): its values -2/3 and 2/5 drop out
        assert theorem_findings("sl2 o+ sl3", "V(3) (x) trivial(0) o+ adjoint") == {
            F(-1): 5, F(1, 2): 2, F(1): 11
        }


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

    def test_a_wrong_closed_form_fails_its_own_row_alone(self, monkeypatch, capsys, sl2,
                                                        v_modules):
        # verify checks no closed-form map by itself: the span comparison
        # against the solver's re-checked basis must catch a wrong one
        real = expected_family

        def perturbed(n, case_tag):
            fam = real(n, case_tag)
            if (n, case_tag) != (3, CASE_MINUS_TWO_OVER_N):
                return fam
            e_minus, h, e_plus = fam.basis[2]
            wrong = (e_minus, (h[0] + 1,) + h[1:], e_plus)
            return fam._replace(basis=fam.basis[:2] + (wrong,) + fam.basis[3:])

        wrong = perturbed(3, CASE_MINUS_TWO_OVER_N)
        assert not is_delta_derivation(as_row(wrong.basis[2]), sl2, v_modules[3], wrong.delta)[0]
        monkeypatch.setattr(catalog, "expected_family", perturbed)
        report = verify_all(3)
        assert [c.name for c in report.checks if c.status == "fail"] == [
            "sl2 V(3) case minus_two_over_n"
        ]
        assert cli.main(["verify", "--max-n", "3"]) == 1
        assert "1 failure(s)" in capsys.readouterr().out

    def test_a_wrong_theorem_fails_its_own_row_alone(self, monkeypatch, capsys):
        # every scan row reads theorem_findings: a miscount must fail that row
        real = theorem_findings

        def miscounted(algebra, module):
            findings = real(algebra, module)
            if (algebra, module) == ("sl3", "natural"):
                findings[F(1)] += 1
            return findings

        monkeypatch.setattr(catalog, "theorem_findings", miscounted)
        report = verify_all(2)
        assert [c.name for c in report.checks if c.status == "fail"] == ["sl3 natural scan"]
        assert cli.main(["verify", "--max-n", "2"]) == 1
        assert "1 failure(s)" in capsys.readouterr().out

    def test_canonical_bases_are_compared_by_equality(self, monkeypatch):
        # a solver basis scaled by 2 has the same span but is no longer
        # canonical: the rows comparing two canonical bases must fail, the
        # rows comparing with a closed-form family must not
        real = delta_solver.solve

        def doubled(*args, **kwargs):
            space = real(*args, **kwargs)
            basis = tuple(tuple(tuple(2 * x for x in row) for row in D) for D in space.basis)
            return space._replace(basis=basis)

        monkeypatch.setattr(delta_solver, "solve", doubled)
        report = verify_all(2)
        assert [c.name for c in report.checks if c.status == "fail"] == [
            "sl2 adjoint d=1/2 identity line",
            "sl3 adjoint d=1/2 identity line",
            "sl3 adjoint d=1 inner derivations",
            "sl3 natural d=1 inner derivations",
        ]
