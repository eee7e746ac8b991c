"""Outside-in layer trace of the package.

``Tracer`` wraps the public functions of each layer, records one span per
call (layer, start, end, parent span, job id, notes) in memory, and restores
the originals on exit.  ``delta_solver``, ``lie_core``, ``cli`` and the
package ``__init__`` bind ``linalg`` and ``exact_arith`` functions by name at
import, so every module attribute that holds an original is patched, not only
the defining one.  ``DerivationSystem.specialize`` is a method and is patched
on the class.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from math import lcm

_BUILD = (
    "sl2", "sl_n", "sl2_module", "adjoint_module", "trivial_module",
    "direct_sum_algebras", "direct_sum_modules", "tensor_module",
    "algebra_from_structure_constants", "representation_from_action",
)

# layer -> (module, attribute) of each public function timed as that layer
LAYERS = {
    "cli": [("cli", "main")],
    "catalog": [
        ("catalog", f) for f in ("verify_all", "theorem_dimension", "span_equal", "expected_family")
    ],
    "lie_core.build": [("lie_core", f) for f in _BUILD],
    "delta_solver.assemble": [("delta_solver", "assemble_system")],
    "delta_solver.specialize": [("delta_solver.DerivationSystem", "specialize")],
    "delta_solver.kernel_at": [("delta_solver", "kernel_at")],
    "delta_solver.solve": [("delta_solver", "solve")],
    "delta_solver.scan": [("delta_solver", "scan")],
    "delta_solver.reverify": [("delta_solver", "is_delta_derivation")],
    "linalg.nullspace": [("linalg", "nullspace_bareiss")],
    "linalg.pencil": [("linalg", "pencil_eliminate")],
    "linalg.rref": [("linalg", "rref")],
    "exact_arith.roots": [("exact_arith", "poly_rational_roots")],
}


def _nullspace_note(args, kwargs, result):
    rows, ncols = args
    return {"nnz": sum(1 for row in rows for x in row if x), "entries": len(rows) * ncols}


def _pencil_note(args, kwargs, result):
    pivots, _ = result
    return {"pivots": len(pivots), "max_pivot_degree": max((p.degree for p in pivots), default=0)}


def _roots_note(args, kwargs, result):
    coeffs = args[0].coeffs
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return {"max_coeff_bits": max((abs(int(c * den)).bit_length() for c in coeffs), default=0)}


def _scan_note(args, kwargs, result):
    return {"findings": len(result.findings)}


_MAXIMA = ("max_pivot_degree", "max_coeff_bits")

# per-call counts, taken from arguments and results after the span has ended
NOTES = {
    "linalg.nullspace": _nullspace_note,
    "linalg.pencil": _pencil_note,
    "exact_arith.roots": _roots_note,
    "delta_solver.scan": _scan_note,
}


class Tracer:
    """Context manager that patches the layers in and out.

    ``spans`` holds ``[layer, start, end, parent index, job id, notes]`` and
    keeps growing across repeated ``with`` blocks.  Set ``job`` before each
    job so its spans share the id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.missing: list[str] = []  # targets the package no longer has
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(layer)

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        self.missing = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "deltader"]
        for layer, targets in LAYERS.items():
            for owner_name, attr in targets:
                module_name, _, class_name = owner_name.partition(".")
                owner = sys.modules.get(f"deltader.{module_name}")
                if class_name:
                    owner = getattr(owner, class_name, None)
                holders = [owner] if class_name else modules
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{owner_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, original)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, name, original))
                            setattr(holder, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)
        return False

    def write(self, path):
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, first=0, last=None) -> dict:
    """Per-layer calls, self time and counts of the spans ``first:last``.

    A call is a span whose parent is in another layer (an entry into the
    layer); self time is a span's duration minus the time its children
    cover, summed over the layer.  The range must hold whole jobs.
    """
    last = len(spans) if last is None else last
    child: dict[int, float] = {}
    for t in range(first, last):
        parent = spans[t][3]
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + spans[t][2] - spans[t][1]
    out: dict[str, float] = {}
    for t in range(first, last):
        layer, start, end, parent, _, note = spans[t]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + end - start - child.get(t, 0.0)
        parent_layer = spans[parent][0] if parent is not None else None
        counts = dict(note or {})
        if parent_layer != layer:
            counts["calls"] = 1
        if layer == "delta_solver.kernel_at" and parent_layer == "delta_solver.scan":
            out["delta_solver.scan.candidates"] = out.get("delta_solver.scan.candidates", 0) + 1
        for key, value in counts.items():
            name = f"{layer}.{key}"
            out[name] = max(out.get(name, 0), value) if key in _MAXIMA else out.get(name, 0) + value
    return out


def summarize(per_pass: list[dict], names) -> dict:
    """The median over passes of each named per-layer metric (0 if absent)."""
    derived = []
    for m in per_pass:
        m = dict(m)
        entries = m.get("linalg.nullspace.entries", 0)
        m["linalg.nullspace.nnz_ratio"] = (
            m.get("linalg.nullspace.nnz", 0) / entries if entries else 0
        )
        candidates = m.get("delta_solver.scan.candidates", 0)
        m["delta_solver.scan.confirm_ratio"] = (
            m.get("delta_solver.scan.findings", 0) / candidates if candidates else 0
        )
        derived.append(m)
    return {name: statistics.median(m.get(name, 0) for m in derived) for name in names}
