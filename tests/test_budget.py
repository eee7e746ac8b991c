"""The work budget: every input is sized before anything is built."""

import ast
import json
import os
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import deltader
from deltader.cli import (
    WORK_BUDGET,
    _check_work,
    _descriptor_dimensions,
    _load_inputs,
    build_jobspec,
)
from deltader.lie_core import (
    ParseError,
    SemanticError,
    parse_algebra_atoms,
    parse_algebra_descriptor,
    parse_module_descriptor,
    parse_module_terms,
)

ROOT = Path(__file__).resolve().parent.parent

# Inputs that ran until killed before their size was checked up front.
OVER_BUDGET = (
    ("solve", "--algebra", "sl40", "--module", "natural", "--delta", "1"),
    ("describe", "--algebra", "sl2", "--module", "V(99999999999999999999)"),
)


def _written_descriptors():
    """Every pair of an algebra and a module descriptor the grammar accepts among
    the string constants of the other test modules: a superset of the pairs they use."""
    others = [p for p in Path(__file__).parent.glob("*.py") if p.name != Path(__file__).name]
    texts = {node.value for path in others
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    pairs = []
    for algebra in sorted(texts):
        try:
            parts = parse_algebra_atoms(algebra)
        except (ParseError, SemanticError):
            continue
        for module in sorted(texts):
            try:
                parse_module_terms(module, parts)
            except (ParseError, SemanticError):
                continue
            pairs.append((algebra, module))
    return pairs


def _exit_at_once(*argv, timeout=20):
    """Run the command line in a fresh process under a timeout, because a
    regression runs until killed; returns its exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(deltader.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "deltader", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", OVER_BUDGET)
def test_oversized_descriptors_exit_two_at_once(argv):
    code, out, err = _exit_at_once(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: input too large: ") and err.count("\n") == 1


def test_oversized_json_dims_exit_two_at_once(tmp_path):
    # a small file whose Jacobi check alone would walk C(2000, 3) triples
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"algebra": {"dim": 2000, "brackets": []},
                                "module": {"dim": 0, "action": [[]] * 2000}}))
    code, out, err = _exit_at_once("scan", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: input too large: 1331334000 Jacobi triples exceed the budget of 500000\n"


def test_deeply_nested_json_exits_two_with_one_line(tmp_path):
    # json.load recurses once per level and raised RecursionError with a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = _exit_at_once("scan", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: malformed input: JSON nested too deeply\n"


def test_verify_is_sized_before_it_runs():
    # verify solves sl2 on V(1), ..., V(N): 3 * N(N + 3)/2 unknowns, 60 900 at N = 200
    code, out, err = _exit_at_once("verify", "--max-n", "200", timeout=1)
    assert code == 2 and out == ""
    assert err == "error: input too large: 60900 unknowns exceed the budget of 2500\n"
    with pytest.raises(SemanticError, match="2580 unknowns"):
        build_jobspec(["verify", "--max-n", "40"])
    for max_n in ("8", "39"):  # 39 is the largest that fits: 2 457 unknowns
        code, out, err = _exit_at_once("verify", "--max-n", max_n)
        assert code == 0 and err == "" and "\n0 failure(s) out of " in out


def _dimensions(algebra, module):
    """dim L and dim V of two descriptors, as the command line reads them."""
    parts = parse_algebra_atoms(algebra)
    return _descriptor_dimensions(parts, parse_module_terms(module, parts))


def test_the_calibration_inputs_fit():
    _check_work(*_dimensions("sl7", "adjoint"))  # 2 304 unknowns / 17 296 triples
    _check_work(*_dimensions("sl12", "natural"))  # 1 716 / 477 191
    with pytest.raises(SemanticError, match="2730 unknowns"):
        _check_work(*_dimensions("sl14", "natural"))


def test_the_budget_bounds_the_equations_too():
    # the triples bound admits dim L <= 145, so within the unknowns bound the
    # C(dim L, 2) * dim V equations number at most 72 * 2 500 = 180 000
    for dim in range(146):
        dim_v = WORK_BUDGET["unknowns"] // max(dim, 1)
        _check_work(dim, dim_v)
        assert comb(dim, 2) * dim_v <= 180_000
    with pytest.raises(SemanticError, match="508080 Jacobi triples"):
        _check_work(146, 0)


def _load(argv):
    """Size and build the inputs of a command line, as the command would."""
    job = build_jobspec(argv)
    if job.command != "verify":
        _load_inputs(job)


def test_readme_examples_fit():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("deltader ")]
    assert len(lines) >= 5
    for line in lines:
        _load(shlex.split(line)[1:])


@pytest.mark.parametrize("workload", ["solve-sparse", "scan-sparse", "classify", "input-dense"])
def test_benchmark_inputs_fit(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    for seed in (1, 2):
        for job in workloads.generate(workload, seed, tmp_path / str(seed)):
            _load(job["argv"])


def test_test_descriptors_fit_and_count_what_is_built():
    pairs = _written_descriptors()
    assert ("sl4", "adjoint") in pairs and ("sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)") in pairs
    for algebra, module in pairs:
        dims = _dimensions(algebra, module)
        _check_work(*dims)
        L, parts = parse_algebra_descriptor(algebra)
        V, _ = parse_module_descriptor(module, L, parts)
        assert dims == (L.dim, V.dim_v), (algebra, module)
