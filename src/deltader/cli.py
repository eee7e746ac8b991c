"""Command line front end.

Algebras and modules are named by descriptors, parsed by the grammar in
``lie_core`` that ``catalog.theorem_dimension`` reads too.  Rational
arguments are written p/q (or just p); decimal notation is rejected.
Output is byte deterministic for identical input.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
check failure (a bug).

Before anything is built, an input's size is checked against
``WORK_BUDGET``: an input above it exits 2 instead of running for hours.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from math import comb, prod

from . import delta_solver, lie_core
from .exact_arith import parse_integer, parse_rational
from .lie_core import (
    LieAlgebra,
    Representation,
    SemanticError,
    parse_algebra_descriptor,
    parse_module_descriptor,
)


# ---------------------------------------------------------------------------
# JSON schemas for custom algebras and modules
# ---------------------------------------------------------------------------


def algebra_to_json(alg: LieAlgebra) -> dict:
    brackets = []
    for (i, j), terms in sorted(alg.structure.items()):
        for k, c in terms:
            brackets.append([i, j, k, str(c)])
    return {
        "dim": alg.dim,
        "brackets": brackets,
        "labels": list(alg.basis_labels),
        "summands": [list(b) for b in alg.summand_boundaries],
    }


def module_to_json(rep: Representation) -> dict:
    out = {
        "dim": rep.dim_v,
        "action": [
            [[str(x) for x in row] for row in rep.action_matrix(i)] for i in range(len(rep.action))
        ],
    }
    if rep.weight_labels is not None:
        out["weights"] = list(rep.weight_labels)
    return out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SemanticError(f"malformed input: {what}")


def _integer(x) -> int:
    _require(type(x) is int or isinstance(x, str), f"expected an integer, got {x!r}")
    return parse_integer(str(x))


def _dimension(data: dict) -> int:
    dim = _integer(data["dim"])
    _require(dim >= 0, "'dim' must be a nonnegative integer")
    return dim


def _lists(value, length=None) -> bool:
    """Whether value is a list of lists, each of the given length if one is given."""
    return isinstance(value, list) and all(
        isinstance(x, list) and length in (None, len(x)) for x in value
    )


def algebra_from_json(data) -> LieAlgebra:
    _require(isinstance(data, dict) and "dim" in data, "'algebra' must be an object with 'dim'")
    dim, labels, summands = _dimension(data), data.get("labels"), data.get("summands")
    _require(_lists(data.get("brackets"), 4), "'brackets' must be a list of [i, j, k, c] entries")
    _require(labels is None or isinstance(labels, list) and len(labels) == dim
             and all(isinstance(x, str) for x in labels), f"'labels' must be {dim} strings")
    if summands is not None:
        _require(_lists(summands, 2), "'summands' must be a list of [start, end] pairs")
        summands = [(_integer(a), _integer(b)) for a, b in summands]
        _require(all(0 <= a <= b <= dim for a, b in summands), "'summands' out of range")
    entries = [
        (_integer(i), _integer(j), _integer(k), parse_rational(str(c)))
        for i, j, k, c in data["brackets"]
    ]
    return lie_core.algebra_from_structure_constants(
        dim, entries, labels=labels, summand_boundaries=summands
    )


def module_from_json(data, algebra: LieAlgebra) -> Representation:
    """The module of a JSON object; its dense action matrices become sparse rows."""
    _require(isinstance(data, dict) and "dim" in data, "'module' must be an object with 'dim'")
    dim = _dimension(data)
    _require(isinstance(data.get("action"), list)
             and all(_lists(m, dim) and len(m) == dim for m in data["action"]),
             f"'action' must be a list of {dim} x {dim} matrices given as lists of rows")
    weights = data.get("weights")
    _require(weights is None or isinstance(weights, list) and len(weights) == dim
             and all(type(w) is int for w in weights),
             f"'weights' must be a list of {dim} integers")
    actions = [
        [{s: v for s, x in enumerate(row) if (v := parse_rational(str(x)))} for row in m]
        for m in data["action"]
    ]
    return lie_core.representation_from_action(algebra, actions, dim, weights=weights)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _display_labels(alg: LieAlgebra) -> list[str]:
    """Basis labels, suffixed with the summand number when there are several."""
    labels = list(alg.basis_labels)
    if len(alg.summand_boundaries) > 1:
        for s, (lo, hi) in enumerate(alg.summand_boundaries, start=1):
            for a in range(lo, hi):
                labels[a] = f"{labels[a]}[{s}]"
    return labels


def _render_map(D, labels) -> str:
    pieces = []
    for a, row in enumerate(D):
        terms = [{1: "", -1: "-"}.get(c, f"{c}*") + f"v{m}" for m, c in enumerate(row) if c]
        if terms:
            pieces.append(f"{labels[a]} -> " + " + ".join(terms))
    return ", ".join(pieces) if pieces else "0"


def _space_to_json(space: delta_solver.DerivationSpace) -> dict:
    out = {
        "delta": str(space.delta),
        "dimension": space.dimension,
        "basis": [
            [[str(x) for x in row] for row in D] for D in space.basis
        ],
    }
    if space.weights is not None:
        out["weights"] = [str(w) for w in space.weights]
    return out


def _space_to_text(space: delta_solver.DerivationSpace, labels) -> str:
    lines = [f"delta: {space.delta}", f"dimension: {space.dimension}"]
    for t, D in enumerate(space.basis):
        tag = f" (weight {space.weights[t]})" if space.weights is not None else ""
        lines.append(f"  [{t}] {_render_map(D, labels)}{tag}")
    return "\n".join(lines)


def _scan_to_json(report: delta_solver.ScanReport) -> dict:
    return {
        "generic_rank": report.generic_rank,
        "findings": [
            {"delta": str(d), "dimension": dim}
            for d, dim in report.findings.items()
        ],
        "nonrational_factors": [str(p) for p in report.nonrational_factors],
    }


def _scan_to_text(report: delta_solver.ScanReport) -> str:
    lines = [f"generic rank: {report.generic_rank}", "delta      dimension"]
    for d, dim in report.findings.items():
        lines.append(f"{str(d):<10} {dim}")
    if report.nonrational_factors:
        lines.append("unresolved factors: " + "; ".join(str(p) for p in report.nonrational_factors))
    else:
        lines.append("unresolved factors: none")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------


# The most an input may ask for, counted before anything is built.  On a
# shared 2-vCPU VM with Python 3.11, sl7 adjoint (2 304 unknowns, 17 296
# triples) scans and sl12 natural (1 716 / 477 191) solves in about 2 s
# each, while sl2 V(760) (2 283 unknowns) already takes 4.5 s and 290 MB
# to solve.  The C(dim L, 2) * dim V equations need no bound of their own:
# the triples bound forces dim L <= 145, so they number at most
# 72 * 2 500 = 180 000.
WORK_BUDGET = {"unknowns": 2_500, "Jacobi triples": 500_000}


def _check_work(dim: int, dim_v: int) -> None:
    """Refuse an input whose unknowns (dim L * dim V) or Jacobi triples
    (C(dim L, 3)) exceed the budget."""
    counts = {"unknowns": dim * dim_v, "Jacobi triples": comb(dim, 3)}
    for what, count in counts.items():
        if count > WORK_BUDGET[what]:
            raise SemanticError(
                f"input too large: {count} {what} exceed the budget of {WORK_BUDGET[what]}"
            )


def _descriptor_dimensions(algebra: str, module: str) -> tuple[int, int]:
    """dim L and dim V of two descriptors, read from the grammar without building."""
    parts = lie_core.parse_algebra_atoms(algebra)
    dim = sum(p.n * p.n - 1 for p in parts)
    dim_v = 0
    for term in lie_core.parse_module_terms(module, parts):
        if len(term) < len(parts):  # 'adjoint' or 'trivial(d)' of the whole algebra
            dim_v += dim if term[0].kind == "ADJOINT" else term[0].arg
        else:
            dim_v += prod(a.dimension(p) for a, p in zip(term, parts))
    return dim, dim_v


def _load_inputs(job: argparse.Namespace) -> tuple[LieAlgebra, Representation, dict]:
    """Resolve the algebra and module from descriptors or a JSON file."""
    meta: dict = {}
    if job.input_path is not None:
        if job.algebra is not None or job.module is not None:
            raise SemanticError("give either --input or descriptor flags, not both")
        with open(job.input_path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise SemanticError("malformed input: JSON nested too deeply") from None
        if not isinstance(data, dict) or "algebra" not in data or "module" not in data:
            raise SemanticError("input file needs 'algebra' and 'module' entries")
        # one action per basis element, checked before the Jacobi check's C(dim, 3) triples
        alg, mod = data["algebra"], data["module"]
        _require(isinstance(alg, dict) and "dim" in alg, "'algebra' must be an object with 'dim'")
        dim = _dimension(alg)
        _require(isinstance(mod, dict) and isinstance(mod.get("action"), list)
                 and len(mod["action"]) == dim,
                 f"'action' must be a list of {dim} matrices, one per algebra basis element")
        _require("dim" in mod, "'module' must be an object with 'dim'")
        _check_work(dim, _dimension(mod))
        algebra = algebra_from_json(data["algebra"])
        module = module_from_json(data["module"], algebra)
        return algebra, module, meta
    if job.algebra is None or job.module is None:
        raise SemanticError("both --algebra and --module are required")
    _check_work(*_descriptor_dimensions(job.algebra, job.module))
    algebra, parts = parse_algebra_descriptor(job.algebra)
    module, canonical_module = parse_module_descriptor(job.module, algebra, parts)
    meta["algebra_descriptor"] = " o+ ".join(parts)
    meta["module_descriptor"] = canonical_module
    return algebra, module, meta


def _emit(job: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if job.output_path is not None:
        with open(job.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(job: argparse.Namespace) -> int:
    """Execute a job; returns the process exit code."""
    if job.command == "verify":
        from . import catalog  # only verify reads the classification

        report = catalog.verify_all(job.max_n)
        if job.fmt == "json":
            _emit(job, json.dumps(report.to_json(), indent=2))
        else:
            _emit(job, report.to_text())
        return 0 if report.ok else 1

    algebra, module, meta = _load_inputs(job)

    if job.command == "solve":
        space = delta_solver.solve(
            algebra, module, job.delta, use_grading=job.grading_element
        )
        if job.fmt == "json":
            _emit(job, json.dumps(_space_to_json(space), indent=2))
        else:
            _emit(job, _space_to_text(space, _display_labels(algebra)))
        return 0

    if job.command == "scan":
        report = delta_solver.scan(algebra, module, include_zero=job.include_zero)
        if job.fmt == "json":
            _emit(job, json.dumps(_scan_to_json(report), indent=2))
        else:
            _emit(job, _scan_to_text(report))
        return 0

    # describe, the last of the four commands
    payload = {"algebra": algebra_to_json(algebra), "module": module_to_json(module)}
    if "algebra_descriptor" in meta:
        payload["algebra"]["descriptor"] = meta["algebra_descriptor"]
        payload["module"]["descriptor"] = meta["module_descriptor"]
    if job.fmt == "json":
        _emit(job, json.dumps(payload, indent=2))
    else:
        lines = [
            f"algebra: {meta.get('algebra_descriptor', '(from file)')}",
            f"  dim {algebra.dim}, labels {', '.join(algebra.basis_labels)}",
            f"  summands {[list(b) for b in algebra.summand_boundaries]}",
            f"module: {meta.get('module_descriptor', '(from file)')}",
            f"  dim {module.dim_v}",
        ]
        _emit(job, "\n".join(lines))
    return 0


_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--delta -2/3' into '--delta=-2/3' so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--delta" and i + 1 < len(argv) and _NEGATIVE_RATIONAL.match(argv[i + 1]):
            out.append(f"--delta={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltader",
        description="Exact twisted-derivation spaces of finite-dimensional Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_delta=False, with_scan_flags=False):
        p.add_argument("--algebra", help="algebra descriptor, e.g. 'sl2' or 'sl2 o+ sl3'")
        p.add_argument("--module", help="module descriptor, e.g. 'V(3)' or 'V(1) (x) V(0)'")
        p.add_argument("--input", dest="input_path", help="JSON file with algebra and module")
        p.add_argument("--output", dest="output_path", help="write the result here")
        p.add_argument("--format", dest="fmt", choices=("json", "table"), default="json")
        if with_delta:
            p.add_argument("--delta", help="rational scalar p/q")
            p.add_argument(
                "--grading-element",
                dest="grading_element",
                type=parse_integer,
                help="basis index of a diagonal element; tag each basis element "
                "with its weight under it",
            )
        if with_scan_flags:
            p.add_argument("--include-zero", dest="include_zero", action="store_true")

    add_common(sub.add_parser("solve", help="kernel at a fixed delta"), with_delta=True)
    add_common(sub.add_parser("scan", help="all rational delta with nonzero kernel"),
               with_scan_flags=True)
    add_common(sub.add_parser("describe", help="echo the parsed algebra and module"))
    verify = sub.add_parser("verify", help="replay the classification against the solver")
    verify.add_argument("--max-n", dest="max_n", type=parse_integer, default=4)
    verify.add_argument("--output", dest="output_path")
    verify.add_argument("--format", dest="fmt", choices=("json", "table"), default="table")
    return parser


def build_jobspec(argv: list[str]) -> argparse.Namespace:
    job = _build_parser().parse_args(_merge_negative_values(argv))
    if job.command == "solve":
        if job.delta is None:
            raise SemanticError("solve requires --delta")
        job.delta = parse_rational(job.delta)
    if job.command == "verify" and job.max_n < 1:
        raise SemanticError("--max-n must be at least 1")
    if job.command == "verify":  # sized as sl2 on V(1) o+ ... o+ V(N), of dim N(N + 3)/2
        _check_work(3, job.max_n * (job.max_n + 3) // 2)
    return job


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        job = build_jobspec(argv)
        return run(job)
    except (ValueError, OSError, KeyError) as exc:  # lie_core's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except delta_solver.VerificationFailure as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
