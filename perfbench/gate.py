"""The correctness gate: checks one job's output against its reference.

Only the documented output fields are compared, so a later field added to
the JSON schema is not counted as a failure.  ``check`` returns None for a
correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from perfbench import workloads


def satisfies(D, alg, action, delta) -> bool:
    """D([x, y]) + d y.D(x) - d x.D(y) = 0 on every basis pair, evaluated directly."""
    dim, brackets = alg
    dim_v = len(action[0]) if action else 0
    for i in range(dim):
        for j in range(i + 1, dim):
            res = [Fraction(0)] * dim_v
            for k, c in brackets.get((i, j), {}).items():
                for r in range(dim_v):
                    res[r] += c * D[k][r]
            for r in range(dim_v):
                ri, rj = action[i][r], action[j][r]
                res[r] += delta * sum(rj[m] * D[i][m] - ri[m] * D[j][m] for m in range(dim_v))
            if any(res):
                return False
    return True


def is_rref(vectors) -> bool:
    """Leading entries 1, in increasing columns, and alone in their column."""
    pivots = []
    for v in vectors:
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None or v[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(v[p] == 0 for p in pivots for t, v in enumerate(vectors) if pivots[t] != p)


def _findings(found) -> list:
    return [{"delta": str(d), "dimension": k} for d, k in found.items()]


def load_structures(jobs, work):
    """The algebra and module of every job, keyed as ``structure_key`` does.

    Dense inputs are read back from the files the program receives; the
    built-in ones are rebuilt from their case.
    """
    structures = {}
    for job in jobs:
        key = structure_key(job)
        if key is None or key in structures:
            continue
        if "input" in job:
            data = json.loads((work / job["input"]).read_text(encoding="utf-8"))
            structures[key] = workloads.from_json(data)
        else:
            structures[key] = workloads.build(job["case"])
    return structures


def structure_key(job):
    return job.get("input") or job.get("case")


def _reference(job, unknowns):
    """Expected findings and generic rank of a job's input."""
    if job["case"] == "probe":
        return {}, 2
    return workloads.expected_findings(job["case"]), unknowns


def check(job, rc, out, structures):
    """None when the job's answer is right, else why it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_answer(job, json.loads(out), structures)
    except json.JSONDecodeError:
        return "output is not JSON"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"output lacks a documented field or value: {exc!r}"


def _check_answer(job, data, structures):
    command = job["argv"][0]
    if command == "verify":
        statuses = [c["status"] for c in data["checks"]]
        names = {c["name"] for c in data["checks"]}
        wanted = {f"sl2 V({n}) scan" for n in range(1, workloads.CLASSIFY_MAX_N + 1)}
        if data["failures"] != 0 or "fail" in statuses or not wanted <= names:
            return f"verify reports {data['failures']} failure(s)"
        return None
    alg, action = structures[structure_key(job)]
    unknowns = alg[0] * len(action[0])
    found, rank = _reference(job, unknowns)
    if command == "scan":
        if data["findings"] != _findings(found):
            return f"findings {data['findings']} != {_findings(found)}"
        if data["generic_rank"] != rank:
            return f"generic_rank {data['generic_rank']} != {rank}"
        return None
    delta = job["delta"]
    want = found.get(delta, unknowns - rank)
    basis = [[[Fraction(x) for x in row] for row in D] for D in data["basis"]]
    if data["delta"] != str(delta) or data["dimension"] != want or len(basis) != want:
        return f"dimension {data['dimension']} at {data['delta']}, expected {want} at {delta}"
    if not is_rref([[x for row in D for x in row] for D in basis]):
        return "basis is not in reduced echelon form"
    if not all(satisfies(D, alg, action, delta) for D in basis):
        return "a basis element fails the defining equation"
    if "--grading-element" in job["argv"]:
        n = len(action[0]) - 1
        weights = sorted(-(Fraction(w) + n) / 2 for w in data.get("weights", ()))
        table = workloads.sl2_weights(n, delta)
        if len(data.get("weights", ())) != want or (table is not None and weights != table):
            return f"weights {data.get('weights')} do not match the classification"
    return None
