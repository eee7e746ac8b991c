"""Tests of the benchmark itself: inputs, gate and trace."""

import json
import random
from fractions import Fraction

import pytest

from perfbench import gate, run, tracer, workloads

SL2_ADJOINT = ((2,), (("adjoint",),))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _files(work):
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path / "a")
    again = workloads.generate(workload, 7, tmp_path / "a")
    assert [j["argv"] for j in first] == [j["argv"] for j in again]
    before = _files(tmp_path / "a")
    for p in (tmp_path / "a").iterdir():
        p.unlink()
    workloads.generate(workload, 7, tmp_path / "a")
    assert _files(tmp_path / "a") == before
    workloads.generate(workload, 8, tmp_path / "b")
    assert _files(tmp_path / "b")["jobs.json"] != before["jobs.json"]


@pytest.mark.parametrize("case", [SL2_ADJOINT, ((3,), (("natural",),)), workloads.SL2_TENSOR])
def test_builders_match_the_package(cli, case, capsys):
    algebra, module = workloads.descriptors(case)
    assert cli.main(["describe", "--algebra", algebra, "--module", module, "--format", "json"]) == 0
    described = json.loads(capsys.readouterr().out)
    mine = workloads.to_json(*workloads.build(case))
    assert described["algebra"]["brackets"] == mine["algebra"]["brackets"]
    assert described["module"]["action"] == mine["module"]["action"]


def test_scramble_keeps_the_answers(cli, tmp_path):
    alg, action = workloads.scramble(*workloads.build(SL2_ADJOINT), random.Random(3))
    assert alg != workloads.build(SL2_ADJOINT)[0]
    jobs = workloads._input_jobs(tmp_path / "in.json", workloads.to_json(alg, action),
                                 SL2_ADJOINT, Fraction(-1))
    passes = [run.run_pass(cli, jobs)]
    assert run.failures(jobs, passes, gate.load_structures(jobs, tmp_path)) == []


def test_wrong_reference_is_counted_as_a_failure(cli, tmp_path):
    jobs = [workloads._scan(SL2_ADJOINT), workloads._solve(SL2_ADJOINT, Fraction(1, 2))]
    passes = [run.run_pass(cli, jobs), run.run_pass(cli, jobs)]
    assert run.failures(jobs, passes, gate.load_structures(jobs, tmp_path)) == []
    wrong = [dict(jobs[0], case=((2,), (("V(3)",),))), jobs[1]]
    reasons = run.failures(wrong, passes, gate.load_structures(wrong, tmp_path))
    assert len(reasons) == 1 and "findings" in reasons[0]
    # a later pass that disagrees with the first is a failure too
    passes[1]["outputs"][1] = (0, "{}", "")
    assert len(run.failures(jobs, passes, gate.load_structures(jobs, tmp_path))) == 1


def test_gate_rejects_a_basis_that_is_not_a_solution():
    structures = {SL2_ADJOINT: workloads.build(SL2_ADJOINT)}
    job = workloads._solve(SL2_ADJOINT, Fraction(1, 2))
    identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    answer = {"delta": "1/2", "dimension": 1, "basis": [identity]}
    assert gate.check(job, 0, json.dumps(answer), structures) is None
    answer["basis"][0][2][2] = "2"
    assert gate.check(job, 0, json.dumps(answer), structures) is not None
    assert gate.check(job, 2, "", structures) == "exit code 2"


def test_untraced_run_sees_the_original_functions(cli, tmp_path):
    import deltader
    from deltader import delta_solver, linalg

    originals = (linalg.nullspace_bareiss, delta_solver.nullspace_bareiss, deltader.solve,
                 delta_solver.DerivationSystem.specialize, cli.main)
    jobs = [workloads._solve(SL2_ADJOINT, Fraction(1, 2))]
    with tracer.Tracer() as trace:
        assert delta_solver.nullspace_bareiss is not originals[1]
        assert delta_solver.nullspace_bareiss.__wrapped__ is originals[1]
        run.run_pass(cli, jobs, trace)
    recorded = len(trace.spans)
    assert recorded > 0
    assert (linalg.nullspace_bareiss, delta_solver.nullspace_bareiss, deltader.solve,
            delta_solver.DerivationSystem.specialize, cli.main) == originals
    run.run_pass(cli, jobs)
    assert len(trace.spans) == recorded


def test_a_missing_layer_function_is_reported_not_fatal(cli, monkeypatch):
    from deltader import exact_arith

    monkeypatch.delattr(exact_arith, "poly_rational_roots")
    with tracer.Tracer() as trace:
        pass
    assert trace.missing == ["exact_arith.poly_rational_roots"]


def test_layer_metrics_self_time_and_calls():
    spans = [
        ["cli", 0.0, 10.0, None, 0, None],
        ["lie_core.build", 1.0, 4.0, 0, 0, None],
        ["lie_core.build", 2.0, 3.0, 1, 0, None],
        ["linalg.nullspace", 5.0, 9.0, 0, 0, {"nnz": 3, "entries": 12}],
        ["linalg.rref", 6.0, 7.0, 3, 0, None],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == 3.0 and m["cli.calls"] == 1
    assert m["lie_core.build.self_s"] == 3.0 and m["lie_core.build.calls"] == 1
    assert m["linalg.nullspace.self_s"] == 3.0 and m["linalg.rref.self_s"] == 1.0
    summary = tracer.summarize([m], ["linalg.nullspace.nnz_ratio", "exact_arith.roots.calls"])
    assert summary == {"linalg.nullspace.nnz_ratio": 0.25, "exact_arith.roots.calls": 0}
