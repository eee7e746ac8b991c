import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import deltader
from deltader import delta_solver
from deltader.cli import main, parse_algebra_descriptor, parse_module_descriptor
from deltader.lie_core import ParseError, SemanticError

F = Fraction

# a 60-digit product of two Mersenne primes: far beyond trial division
BIG_N = (2**89 - 1) * (2**107 - 1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlgebraDescriptors:
    def test_single_atom(self, sl2):
        alg, parts = parse_algebra_descriptor("sl2")
        assert alg == sl2
        assert parts == ["sl2"]

    def test_direct_sum(self):
        alg, parts = parse_algebra_descriptor("sl2 o+ sl2")
        assert alg.dim == 6
        assert parts == ["sl2", "sl2"]

    def test_unicode_operator(self):
        alg, _ = parse_algebra_descriptor("sl2 ⊕ sl3")
        assert alg.dim == 11

    def test_word_operator_spellings(self):
        alg, parts = parse_algebra_descriptor("sl2 oplus sl2")
        assert alg.dim == 6
        module, canonical = parse_module_descriptor("V(1) otimes V(0)", alg, parts)
        assert module.dim_v == 2
        assert canonical == "V(1) (x) V(0)"

    def test_matrix_algebra(self, sl3):
        alg, _ = parse_algebra_descriptor("sl3")
        assert alg == sl3

    def test_module_name_rejected(self):
        with pytest.raises(SemanticError):
            parse_algebra_descriptor("V(2)")

    def test_tensor_rejected(self):
        with pytest.raises(SemanticError):
            parse_algebra_descriptor("sl2 (x) sl2")

    def test_garbage_position(self):
        with pytest.raises(ParseError) as err:
            parse_algebra_descriptor("sl2 o+ what")
        assert err.value.position == 7

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_algebra_descriptor("sl2 o+")

    def test_small_rank_rejected(self):
        with pytest.raises(SemanticError):
            parse_algebra_descriptor("sl1")


class TestModuleDescriptors:
    def _parse(self, alg_text, mod_text):
        alg, parts = parse_algebra_descriptor(alg_text)
        return parse_module_descriptor(mod_text, alg, parts)

    def test_simple_module(self):
        module, canonical = self._parse("sl2", "V(3)")
        assert module.dim_v == 4
        assert canonical == "V(3)"

    def test_tensor_over_sum(self):
        module, canonical = self._parse("sl2 o+ sl2", "V(1) (x) V(0)")
        assert module.dim_v == 2
        assert module.algebra.dim == 6
        assert canonical == "V(1) (x) V(0)"

    def test_sum_of_modules(self):
        module, canonical = self._parse("sl2", "V(1) o+ adjoint")
        assert module.dim_v == 5
        assert canonical == "V(1) o+ adjoint"

    def test_unicode_tensor(self):
        module, canonical = self._parse("sl2 o+ sl2", "V(1) ⊗ V(2)")
        assert module.dim_v == 6
        assert canonical == "V(1) (x) V(2)"

    def test_mixed_sum_of_tensors(self):
        module, canonical = self._parse(
            "sl2 o+ sl2", "V(1)(x)V(0) o+ V(0) ⊗ V(2)"
        )
        assert module.dim_v == 5
        assert canonical == "V(1) (x) V(0) o+ V(0) (x) V(2)"

    def test_natural_over_matrix_algebra(self):
        module, _ = self._parse("sl3", "natural")
        assert module.dim_v == 3

    def test_natural_builds_the_matrix_algebra_once(self, capsys, monkeypatch):
        from deltader import lie_core

        calls = []
        real = lie_core.sl_n
        monkeypatch.setattr(lie_core, "sl_n", lambda n: calls.append(n) or real(n))
        code, _, _ = run_cli(capsys, "solve", "--algebra", "sl3", "--module", "natural",
                             "--delta", "1")
        assert code == 0
        assert calls == [3]

    def test_tensor_summand_algebras_built_once(self, capsys, monkeypatch):
        from deltader import lie_core

        calls = []
        real = lie_core.algebra_from_structure_constants
        monkeypatch.setattr(
            lie_core, "algebra_from_structure_constants",
            lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs),
        )
        code, out, _ = run_cli(capsys, "scan", "--algebra", "sl2 o+ sl2",
                               "--module", "V(2) (x) V(0) o+ V(0) (x) V(1)")
        assert code == 0
        # sl2 twice and their sum for the algebra; per tensor term the two
        # sl2_module algebras and the sum they act on
        assert len(calls) == 9
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cb33814cad442553a727b33195a516f4c961c4a6dba6d79e12de00842df7f070"
        )

    def test_natural_over_sl2_rejected(self):
        with pytest.raises(SemanticError):
            self._parse("sl2", "natural")

    def test_highest_weight_module_needs_sl2(self):
        with pytest.raises(SemanticError):
            self._parse("sl3", "V(2)")
        with pytest.raises(SemanticError):
            self._parse("sl2 o+ sl2", "V(2)")

    def test_factor_count_mismatch(self):
        with pytest.raises(SemanticError):
            self._parse("sl2 o+ sl2", "V(1) (x) V(1) (x) V(1)")

    def test_trivial_module(self):
        module, canonical = self._parse("sl2", "trivial(4)")
        assert module.dim_v == 4
        assert canonical == "trivial(4)"

    def test_algebra_name_rejected(self):
        with pytest.raises(SemanticError):
            self._parse("sl2", "sl2")


class TestSolveCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--algebra", "sl2", "--module", "V(3)", "--delta", "-2/3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == "-2/3"
        assert data["dimension"] == 6
        assert len(data["basis"]) == 6
        assert all(len(D) == 3 and len(D[0]) == 4 for D in data["basis"])

    def test_inner_maps_fill_the_d_one_space_only_when_semisimple(self, capsys, tmp_path):
        # README, "Notes on the mathematics": one basis element acting on a
        # 2-dimensional module by [[0, 1], [0, 0]] gives a 2-dimensional
        # space at d = 1, of which the inner maps span a line
        data = {"algebra": {"dim": 1, "brackets": []},
                "module": {"dim": 2, "action": [[["0", "1"], ["0", "0"]]]}}
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--delta", "1")
        assert code == 0 and json.loads(out)["dimension"] == 2
        algebra = deltader.cli.algebra_from_json(data["algebra"])
        module = deltader.cli.module_from_json(data["module"], algebra)
        assert delta_solver.inner_derivations(algebra, module).dimension == 1

    def test_grading_element_adds_weights(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--algebra",
            "sl2",
            "--module",
            "V(2)",
            "--delta=1/2",
            "--grading-element",
            "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 1
        # raw eigenvalue difference of the single basis map's leading column
        assert data["weights"] == ["0"]

    def test_internal_check_failure_exits_three(self, capsys, monkeypatch):
        # a basis element failing the re-check is a bug, not a verify failure (1)
        # and not an input error (2)
        monkeypatch.setattr(delta_solver, "is_delta_derivation",
                            lambda *args: (False, (0, 1, ())))
        code, out, err = run_cli(capsys, "solve", "--algebra", "sl2", "--module", "V(2)",
                                 "--delta", "1")
        assert code == 3
        assert out == ""
        assert err == "error: internal check failed: kernel element fails the defining " \
                      "equation at pair (0, 1)\n"
        assert "Traceback" not in err

    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--algebra",
            "sl2",
            "--module",
            "V(2)",
            "--delta",
            "1/2",
            "--format",
            "table",
        )
        assert code == 0
        assert "dimension: 1" in out
        assert "e- -> v2, h -> v1, e+ -> -v0" in out

    def test_missing_delta(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algebra", "sl2", "--module", "V(2)")
        assert code == 2
        assert "delta" in err

    def test_decimal_delta_rejected(self, capsys):
        for delta in ("0.5", "1/0"):
            code, out, err = run_cli(
                capsys, "solve", "--algebra", "sl2", "--module", "V(2)", "--delta", delta
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_module(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--algebra", "sl2", "--delta", "1")
        assert code == 2

    def test_determinism(self, capsys):
        args = ("solve", "--algebra", "sl2", "--module", "V(4)", "--delta", "-1/2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--algebra",
            "sl2",
            "--module",
            "V(1)",
            "--delta",
            "1",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["dimension"] == 2


class TestScanCommand:
    def test_json_findings(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--algebra", "sl2", "--module", "V(2)")
        assert code == 0
        data = json.loads(out)
        assert data["findings"] == [
            {"delta": "-1", "dimension": 5},
            {"delta": "1/2", "dimension": 1},
            {"delta": "1", "dimension": 3},
        ]
        assert data["nonrational_factors"] == []
        assert data["generic_rank"] == 9

    def test_delta_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--algebra", "sl2", "--module", "V(2)", "--delta", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_include_zero_on_perfect_algebra(self, capsys):
        # the commutant is everything, so 0 never enters the findings
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--algebra",
            "sl2",
            "--module",
            "trivial(2)",
            "--include-zero",
            "--format",
            "table",
        )
        assert code == 0
        assert "generic rank: 6" in out
        assert "0" not in out.split("\n")[1]

    def test_include_zero_on_abelian_algebra(self, capsys, tmp_path):
        payload = {
            "algebra": {"dim": 2, "brackets": []},
            "module": {"dim": 1, "action": [[["0"]], [["0"]]]},
        }
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "scan", "--input", str(path), "--include-zero")
        assert code == 0
        data = json.loads(out)
        assert data["generic_rank"] == 0
        assert data["findings"] == [{"delta": "0", "dimension": 2}]

    def test_probe_input_reports_its_nonrational_factor(self, capsys, tmp_path, probe_json):
        # every d has a 2-dimensional space; n*d^2 - 1 is left unresolved, and
        # finding that it has no rational root must not factor n
        path = tmp_path / "probe.json"
        for n in (2, BIG_N):
            path.write_text(json.dumps(probe_json(n)))
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "scan", "--input", str(path))
            assert time.perf_counter() - start < 1
            assert code == 0
            assert json.loads(out) == {
                "generic_rank": 2,
                "findings": [],
                "nonrational_factors": [f"-1 + {n}*d^2"],
            }
            code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--delta", "3/7")
            assert code == 0
            assert json.loads(out)["dimension"] == 2


class TestDescribeAndRoundTrip:
    def test_descriptor_fixed_point(self, capsys):
        args = (
            "describe",
            "--algebra",
            "sl2 ⊕ sl2",
            "--module",
            "V(1)(x)V(0) o+ V(0) ⊗ V(2)",
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        data = json.loads(out)
        assert data["algebra"]["descriptor"] == "sl2 o+ sl2"
        assert data["module"]["descriptor"] == "V(1) (x) V(0) o+ V(0) (x) V(2)"
        code, out2, _ = run_cli(
            capsys,
            "describe",
            "--algebra",
            data["algebra"]["descriptor"],
            "--module",
            data["module"]["descriptor"],
        )
        assert code == 0
        assert out2 == out

    def test_round_trip_through_file_input(self, capsys, tmp_path):
        described = tmp_path / "input.json"
        code, _, _ = run_cli(
            capsys,
            "describe",
            "--algebra",
            "sl2",
            "--module",
            "V(2)",
            "--output",
            str(described),
        )
        assert code == 0
        args_direct = ("solve", "--algebra", "sl2", "--module", "V(2)", "--delta", "1/2")
        _, direct, _ = run_cli(capsys, *args_direct)
        code, from_file, _ = run_cli(
            capsys, "solve", "--input", str(described), "--delta", "1/2"
        )
        assert code == 0
        assert from_file == direct

    def test_custom_algebra_json(self, capsys, tmp_path):
        payload = {
            "algebra": {
                "dim": 3,
                "brackets": [[0, 1, 0, "2"], [0, 2, 1, "-1"], [1, 2, 2, "2"]],
                "labels": ["a", "b", "c"],
            },
            "module": {
                "dim": 2,
                "action": [
                    [["0", "0"], ["1", "0"]],
                    [["1", "0"], ["0", "-1"]],
                    [["0", "1"], ["0", "0"]],
                ],
            },
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "scan", "--input", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["findings"] == [
            {"delta": "-2", "dimension": 4},
            {"delta": "1", "dimension": 2},
        ]

    def test_rational_input_reports_what_the_built_in_does(self, capsys, tmp_path,
                                                           rescaled_json):
        path = tmp_path / "rescaled.json"
        path.write_text(json.dumps(rescaled_json))
        code, out, _ = run_cli(capsys, "scan", "--input", str(path))
        assert code == 0
        _, built_in, _ = run_cli(capsys, "scan", "--algebra", "sl2", "--module", "V(2)")
        assert json.loads(out)["findings"] == json.loads(built_in)["findings"] == [
            {"delta": "-1", "dimension": 5},
            {"delta": "1/2", "dimension": 1},
            {"delta": "1", "dimension": 3},
        ]
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--delta", "1/2")
        assert code == 0
        assert json.loads(out)["dimension"] == 1

    def test_module_weights_are_echoed(self, capsys, tmp_path):
        payload = {
            "algebra": {"dim": 1, "brackets": []},
            "module": {"dim": 2, "action": [[["0", "0"], ["0", "0"]]], "weights": [3, -1]},
        }
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "describe", "--input", str(path))
        assert code == 0
        assert json.loads(out)["module"]["weights"] == [3, -1]

    def test_jacobi_violation_reported_as_input_error(self, capsys, tmp_path):
        payload = {
            "algebra": {
                "dim": 3,
                "brackets": [[0, 1, 0, "1"], [1, 2, 2, "1"], [0, 2, 0, "1"]],
            },
            "module": {"dim": 1, "action": [[["0"]], [["0"]], [["0"]]]},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "scan", "--input", str(path))
        assert code == 2
        assert err == "error: Jacobi identity fails on triple (0, 1, 2): residual (-1, 0, 0)\n"

    def test_input_and_descriptors_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, err = run_cli(
            capsys, "scan", "--algebra", "sl2", "--module", "V(1)", "--input", str(path)
        )
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "scan", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"algebra": {"dim": 2, "brackets": 5}, "module": {"dim": 1, "action": []}},
            {"algebra": {"dim": 2, "brackets": [[0, 1, 1]]}, "module": {"dim": 1, "action": []}},
            {"algebra": {"dim": 2, "brackets": []}, "module": {"dim": 1, "action": 7}},
            [{"algebra": {}, "module": {}}],
            "algebra module",
            {"algebra": {"dim": 1, "brackets": []},
             "module": {"dim": 5, "action": [[["0", "1"], ["0", "0"]]]}},
            {"algebra": {"dim": 1, "brackets": []},
             "module": {"dim": 2, "action": [[["0", "1"], ["0"]]]}},
            {"algebra": {"dim": 1, "brackets": []},
             "module": {"action": [[["0", "1"], ["0", "0"]]]}},
            {"algebra": {"dim": 1, "brackets": []},
             "module": {"dim": 2, "action": [[["0", "0"], ["0", "0"]]], "weights": [[1], "x", 3]}},
            {"algebra": {"dim": 2, "brackets": [[0, 1, 1, "1/0"]]},
             "module": {"dim": 1, "action": [[["0"]], [["0"]]]}},
            {"algebra": {"dim": 1, "brackets": []},
             "module": {"dim": 2, "action": [[["0", "1/0"], ["0", "0"]]]}},
        ],
        ids=["brackets-not-a-list", "short-bracket-entry", "action-not-a-list", "top-level-list",
             "top-level-string", "module-dim-mismatch", "ragged-action-row", "module-without-dim",
             "weights-not-dim-integers", "zero-denominator-bracket", "zero-denominator-action"],
    )
    def test_malformed_shapes_are_input_errors(self, capsys, tmp_path, payload):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "scan", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("payload", [
        {"algebra": {"dim": -1, "brackets": []}, "module": {"dim": 1, "action": []}},
        {"algebra": {"dim": 1, "brackets": []}, "module": {"dim": "-2", "action": [[]]}},
    ], ids=["algebra", "module"])
    def test_negative_dim_is_rejected_first(self, capsys, tmp_path, payload):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "scan", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: malformed input: 'dim' must be a nonnegative integer\n"

    def test_action_count_is_checked_before_the_algebra_is_built(self, capsys, tmp_path,
                                                                 monkeypatch):
        # building would run the Jacobi check on C(3000, 3) triples
        def build(*args, **kwargs):
            raise AssertionError("the algebra was built")

        monkeypatch.setattr(deltader.lie_core, "algebra_from_structure_constants", build)
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"algebra": {"dim": 3000, "brackets": []},
                                    "module": {"dim": 1, "action": []}}))
        code, out, err = run_cli(capsys, "scan", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "3000" in err


class TestAsciiDigits:
    """Descriptors, rationals and integers take ASCII digits only; other decimal
    digits are input errors, while the same input in ASCII digits runs."""

    TO_ASCII = str.maketrans("١٢٣", "123")

    def assert_rejected_where_ascii_runs(self, capsys, argv, ascii_argv=None):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        ascii_argv = ascii_argv or [a.translate(self.TO_ASCII) for a in argv]
        code, _, err = run_cli(capsys, *ascii_argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ["describe", "--algebra", "sl٣", "--module", "natural"],
        ["describe", "--algebra", "sl2", "--module", "V(١) o+ trivial(٢)", "--format", "json"],
        ["solve", "--algebra", "sl2", "--module", "V(3)", "--delta", "-٢/٣"],
        ["solve", "--algebra", "sl2", "--module", "V(3)", "--delta", "1/٣"],
    ], ids=["algebra", "module", "negative-delta", "delta-denominator"])
    def test_descriptors_and_deltas(self, capsys, argv):
        self.assert_rejected_where_ascii_runs(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["verify", "--max-n", "٢"],
        ["solve", "--algebra", "sl2", "--module", "V(2)", "--delta", "1",
         "--grading-element", "١"],
    ], ids=["max-n", "grading-element"])
    def test_integer_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        err = capsys.readouterr().err
        assert exited.value.code == 2 and err.startswith("usage: ")
        assert f"error: argument {argv[-2]}: invalid" in err and repr(argv[-1]) in err
        code, _, err = run_cli(capsys, *(a.translate(self.TO_ASCII) for a in argv))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("field, given, ascii", [
        ("coefficient", "١", "1"), ("dim", "٢", "2"), ("dim", "1_0", "10"),
    ], ids=["coefficient", "dim", "dim-underscore"])
    def test_json_input(self, capsys, tmp_path, field, given, ascii):
        dim = int(ascii) if field == "dim" else 2  # as the ASCII input reads it
        argvs = []
        for name, text in (("given", given), ("ascii", ascii)):
            fields = {"dim": str(dim), "coefficient": "1", field: text}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "algebra": {"dim": fields["dim"], "brackets": [[0, 1, 1, fields["coefficient"]]]},
                "module": {"dim": 1, "action": [[["0"]]] * dim},
            }))
            argvs.append(["describe", "--input", str(path)])
        self.assert_rejected_where_ascii_runs(capsys, *argvs)


class TestVerifyCommand:
    def test_exit_zero_when_clean(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--format", "table")
        assert code == 0
        assert "0 failure(s)" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0

    def test_bad_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "0")
        assert code == 2


class TestGoldenOutputs:
    """The stdout of large solves, pinned byte for byte by its sha256."""

    @pytest.mark.parametrize(
        "algebra, module, delta, digest",
        [
            ("sl4", "adjoint", "1/2",
             "e0e258b71e329b8175f5bbe5e1142d74b51bcc4782d4fb2ceb84f4300a717480"),
            ("sl5", "natural", "1",
             "6a147e16282577cc5265c1a9e6d6a32e271a8ee49a5f70af277f7cff5549ef08"),
        ],
    )
    def test_solve_stdout(self, capsys, algebra, module, delta, digest):
        code, out, _ = run_cli(capsys, "solve", "--algebra", algebra, "--module", module,
                               "--delta", delta)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # odd n carries the 52-bit pivot constants
            (("verify", "--max-n", "8", "--format", "json"),
             "39c832cb046069e3904a1df3dd93f1e1785329fcb8afb923fc030c5471be04c8"),
            (("scan", "--algebra", "sl2", "--module", "V(7)"),
             "bdae6b7d9e1859bd02a282df4287e42ee77d1d35d24c33d84b91de526ed240a8"),
            # graded solves: the table form prints the "(weight w)" tags
            (("solve", "--algebra", "sl2", "--module", "V(8)", "--delta", "-1/4",
              "--grading-element", "1"),
             "351ad7b8826ee9f29aa6e2a3ab076703d3383bb6bdae1aa7e2539fb9a3242444"),
            (("solve", "--algebra", "sl2", "--module", "V(8)", "--delta", "-1/4",
              "--grading-element", "1", "--format", "table"),
             "def512a91f2de4b25895926750ad0c2180c947d3885b6dbce292d9a1436c53c2"),
            (("solve", "--algebra", "sl3", "--module", "adjoint", "--delta", "1",
              "--grading-element", "3"),
             "af263bccdc5e4a393af6ed785aae65814563688d47837e350cdfb773e74195a2"),
            # the "unresolved factors: -1 + 2*d^2" line
            (("scan", "--input", "PROBE", "--format", "table"),
             "a382e6e2c1cb81b7ea71de226d447c53b1360c4be416a8ecc01ce0caf6f65276"),
            # the largest built-in scan, its "1 + 1*d + 1*d^2" residue included
            (("scan", "--algebra", "sl4", "--module", "adjoint"),
             "50b9dd4ed6178835c2f4e9093c8cbd990d9c03ae1bf3419ebeb6e29f59d1d284"),
            # 131 blocks, candidate kernels block by block, and the "-1 + 2*d^2" residue
            (("scan", "--algebra", "sl5", "--module", "adjoint"),
             "6e949c1c99e0ee2ed75880e4f2f9067cf4767151b95879ef0f5a9cfee9f634c0"),
        ],
    )
    def test_root_isolation_stdout(self, capsys, tmp_path, probe_json, argv, digest):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(probe_json()))
        code, out, _ = run_cli(capsys, *(str(path) if a == "PROBE" else a for a in argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--algebra", "sl2 o+ sl2", "--module", "V(1) (x) V(0) o+ V(0) (x) V(2)"),
             "67344f8701802b89fc2f33c5286d8333e7da84b3d5dba545127d6c30b3e653a7"),
            (("--algebra", "sl4", "--module", "adjoint"),
             "02158a44854797a5a515d1aa34d8d288f98df057df7bc9b183fe945e570449ef"),
            (("--input", "PROBE"),
             "18378e5be62df98a3c64a4d99986783753514f109b6d07fe2a3ff765bad5ee2d"),
        ],
    )
    def test_describe_stdout(self, capsys, tmp_path, probe_json, argv, digest):
        """The dense action matrices that describe writes from the sparse rows."""
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(probe_json()))
        argv = [str(path) if a == "PROBE" else a for a in argv]
        code, out, _ = run_cli(capsys, "describe", *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fresh_python(script, *args):
    """Run a script in a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(deltader.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_command_line_leaves_the_classification_out():
    done = _fresh_python("import sys, deltader.cli; print('deltader.catalog' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_commands_run_without_importing_sympy(tmp_path, probe_json):
    """sympy costs about 0.3 s and 36 MB on import, and dataclasses pulls in inspect,
    ast and dis; the command line needs none of them."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe_json(BIG_N)))
    script = (
        "import contextlib, io, sys\n"
        "from deltader.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--max-n', '8']) == 0\n"
        "    assert main(['scan', '--algebra', 'sl2 o+ sl2',\n"
        "                 '--module', 'V(2) (x) V(0) o+ V(0) (x) V(1)']) == 0\n"
        "    assert main(['scan', '--input', sys.argv[1]]) == 0\n"
        "print('sympy' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    done = _fresh_python(script, str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def test_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    test_extra = {re.match(r"[\w.-]+", r).group() for r in project["optional-dependencies"]["test"]}
    assert {"sympy", "pytest", "hypothesis"} <= test_extra
