"""Acceptance suite: the seven exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every comparison is exact; the per-criterion wall-clock
budgets are asserted where one is stated.
"""

import random
import time
from fractions import Fraction

import pytest

from deltader import lie_core
from deltader.catalog import (
    CASE_DELTA_ONE,
    CASE_MINUS_TWO_OVER_N,
    CASE_TWO_OVER_N_PLUS_TWO,
    expected_family,
    identity_derivation,
    span_equal,
    theorem_dimension,
)
from deltader.delta_solver import (
    assemble_system,
    inner_derivations,
    is_delta_derivation,
    kernel_at,
    scan,
    solve,
)
from deltader.linalg import nullspace_bareiss
from conftest import as_row, canonical
from oracle import invariants, nullspace_gauss, spans_equal

F = Fraction

MAX_N = 8

# the semisimple assembly of criterion 5, as --algebra and --module descriptors
TWO_SUMMANDS = ("sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)")


def _report(criterion: str, ok: bool, elapsed: float, budget: float | None, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] {criterion} ({elapsed:.2f}s{budget_note}){suffix}")
    assert ok, f"{criterion}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _span(maps):
    return [[x for row in D for x in row] for D in maps]


@pytest.fixture(scope="module")
def suite():
    """The semisimple inputs every criterion draws from, built once."""
    sl2 = lie_core.sl2()
    v = {n: lie_core.sl2_module(n) for n in range(MAX_N + 1)}
    sl3, natural = lie_core.sl_n(3)
    sl3_adj = lie_core.adjoint_module(sl3)
    g2, parts = lie_core.parse_algebra_descriptor(TWO_SUMMANDS[0])
    assembled, _ = lie_core.parse_module_descriptor(TWO_SUMMANDS[1], g2, parts)
    inputs = {
        "sl2": sl2,
        "v": v,
        "sl3": sl3,
        "sl3_natural": natural,
        "sl3_adjoint": sl3_adj,
        "g2": g2,
        "assembled": assembled,
        "sl2_adjoint": lie_core.adjoint_module(sl2),
    }
    inputs["semisimple_pairs"] = [
        ("sl2 V(1)", sl2, v[1]),
        ("sl2 V(2)", sl2, v[2]),
        ("sl2 V(3)", sl2, v[3]),
        ("sl2 V(4)", sl2, v[4]),
        ("sl2 adjoint", sl2, inputs["sl2_adjoint"]),
        ("sl2 V(0)+V(2)", sl2, lie_core.direct_sum_modules([v[0], v[2]])),
        ("sl2 V(1)+V(1)", sl2, lie_core.direct_sum_modules([v[1], v[1]])),
        ("sl3 natural", sl3, natural),
        ("sl3 adjoint", sl3, sl3_adj),
        ("two summands", g2, assembled),
    ]
    return inputs


def test_criterion_1_sl2_classification_table(suite):
    t0 = time.time()
    sl2, v = suite["sl2"], suite["v"]
    ok = True
    detail = ""
    for n in range(1, MAX_N + 1):
        cases = [CASE_DELTA_ONE, CASE_MINUS_TWO_OVER_N]
        if n >= 2:
            cases.append(CASE_TWO_OVER_N_PLUS_TWO)
        for case in cases:
            fam = expected_family(n, case)
            space = solve(sl2, v[n], fam.delta)
            good = space.dimension == len(fam.basis) and span_equal(
                space.basis, list(fam.basis)
            )
            if not good:
                ok = False
                detail = f"n={n} case {case}: dim {space.dimension} != {len(fam.basis)}"
    _report("criterion 1: classification table n=1..8", ok, time.time() - t0, 5.0, detail)


def test_criterion_2_scan_exactness(suite):
    t0 = time.time()
    sl2, v = suite["sl2"], suite["v"]
    ok = True
    detail = ""
    for n in range(1, MAX_N + 1):
        expected = {F(1): n + 1, F(-2, n): n + 3}
        if n >= 2:
            expected[F(2, n + 2)] = n - 1
        report = scan(sl2, v[n])
        if report.findings != expected or report.nonrational_factors != ():
            ok = False
            detail = f"n={n}: {report.findings} vs {expected}"
    _report("criterion 2: scan exactness n=1..8", ok, time.time() - t0, 30.0, detail)


def test_criterion_3_adjoint_special_values(suite):
    t0 = time.time()
    report = scan(suite["sl2"], suite["sl2_adjoint"])
    expected = {F(1): 3, F(-1): 5, F(1, 2): 1}
    ok = report.findings == expected
    _report(
        "criterion 3: adjoint module special values",
        ok,
        time.time() - t0,
        2.0,
        f"found {report.findings}",
    )


def test_criterion_4_rank_two_simple_algebra(suite):
    t0 = time.time()
    sl3, natural, adj = suite["sl3"], suite["sl3_natural"], suite["sl3_adjoint"]
    half = solve(sl3, adj, F(1, 2))
    ok = half.dimension == 1 and span_equal(half.basis, [identity_derivation(8)])
    detail = f"identity line dim {half.dimension}"
    for d in (F(1, 2), F(-1), F(-2, 3), F(2, 5)):
        dim = solve(sl3, natural, d).dimension
        if dim != 0:
            ok = False
            detail = f"natural module at {d}: dim {dim}"
    report = scan(sl3, adj)
    if report.findings != {F(1): 8, F(1, 2): 1}:
        ok = False
        detail = f"scan found {report.findings}"
    _report("criterion 4: simple algebra of rank 2", ok, time.time() - t0, 60.0, detail)


def _embedded_expected(delta):
    """Expected assembled-space bases, embedded into the 6 x 5 coordinates."""

    def embed(maps, alg_off, mod_off, mod_dim):
        out = []
        for D in maps:
            full = [[F(0)] * 5 for _ in range(6)]
            for a in range(3):
                for m in range(mod_dim):
                    full[alg_off + a][mod_off + m] = D[a][m]
            out.append(tuple(tuple(row) for row in full))
        return out

    if delta == F(-2):
        return embed(expected_family(1, CASE_MINUS_TWO_OVER_N).basis, 0, 0, 2)
    if delta == F(-1):
        return embed(expected_family(2, CASE_MINUS_TWO_OVER_N).basis, 3, 2, 3)
    if delta == F(1, 2):
        return embed(expected_family(2, CASE_TWO_OVER_N_PLUS_TWO).basis, 3, 2, 3)
    raise AssertionError(delta)


def test_criterion_5_semisimple_assembly(suite):
    t0 = time.time()
    g, module = suite["g2"], suite["assembled"]
    expected_dims = {F(1): 5, F(-2): 4, F(-1): 5, F(1, 2): 1}
    ok = True
    detail = ""
    for d, want in expected_dims.items():
        space = solve(g, module, d)
        predicted = theorem_dimension(*TWO_SUMMANDS, d)
        good = space.dimension == want == predicted
        if good and d == F(1):
            good = span_equal(space.basis, list(inner_derivations(g, module).basis))
        elif good:
            good = span_equal(space.basis, _embedded_expected(d))
        if not good:
            ok = False
            detail = f"delta {d}: dim {space.dimension}, predicted {predicted}, want {want}"
    _report("criterion 5: semisimple assembly", ok, time.time() - t0, 10.0, detail)


def test_criterion_6a_residuals_vanish(suite):
    t0 = time.time()
    ok = True
    detail = ""
    for name, L, V in suite["semisimple_pairs"]:
        for d in (F(1), F(1, 2), F(-1)):
            space = solve(L, V, d)
            for D in space.basis:
                good, witness = is_delta_derivation(as_row(D), L, V, d)
                if not good:
                    ok = False
                    detail = f"{name} at {d}: residual at pair {witness[:2]}"
    _report("criterion 6a: every basis element satisfies the equation",
            ok, time.time() - t0, None, detail)


def test_criterion_6b_direct_sum_additivity(suite):
    t0 = time.time()
    sl2, v = suite["sl2"], suite["v"]
    deltas = (F(1), F(-1), F(-2, 3), F(1, 3))
    ok = True
    detail = ""
    for a in range(5):
        for b in range(a, 5):
            summed = lie_core.direct_sum_modules([v[a], v[b]])
            for d in deltas:
                whole = solve(sl2, summed, d).dimension
                parts = solve(sl2, v[a], d).dimension + solve(sl2, v[b], d).dimension
                if whole != parts:
                    ok = False
                    detail = f"V({a})+V({b}) at {d}: {whole} != {parts}"
    _report("criterion 6b: direct-sum additivity", ok, time.time() - t0, None, detail)


def test_criterion_6c_tensor_invariants_formula(suite):
    t0 = time.time()
    sl2 = suite["sl2"]
    mods = {n: lie_core.sl2_module(n) for n in range(3)}
    inv = {n: len(invariants(mods[n])) for n in range(3)}
    single = {
        (n, d): solve(sl2, mods[n], d).dimension
        for n in range(3)
        for d in (F(-2), F(-1), F(1, 2), F(2, 5))
    }
    ok = True
    detail = ""
    for n1 in range(3):
        for n2 in range(3):
            tensor = lie_core.tensor_module(mods[n1], mods[n2])
            g = tensor.algebra
            for d in (F(-2), F(-1), F(1, 2), F(2, 5)):
                got = solve(g, tensor, d).dimension
                want = single[(n1, d)] * inv[n2] + inv[n1] * single[(n2, d)]
                if got != want:
                    ok = False
                    detail = f"V({n1}) x V({n2}) at {d}: {got} != {want}"
    _report("criterion 6c: tensor-invariants formula", ok, time.time() - t0, None, detail)


def test_criterion_6d_graded_solver_agreement(suite):
    t0 = time.time()
    sl2, v = suite["sl2"], suite["v"]
    inputs = [v[n] for n in range(5)]
    inputs.append(suite["sl2_adjoint"])
    inputs.append(lie_core.direct_sum_modules([v[1], v[2]]))
    ok = True
    detail = ""
    for module in inputs:
        for d in (F(1), F(1, 2), F(-1), F(-2, 3), F(2, 5), F(4)):
            plain = solve(sl2, module, d)
            graded = solve(sl2, module, d, use_grading=1)
            if plain.basis != graded.basis:
                ok = False
                detail = f"dim_v {module.dim_v} at {d}"
    _report("criterion 6d: graded and ungraded solves agree",
            ok, time.time() - t0, None, detail)


def test_criterion_6e_elimination_routes_agree(suite):
    t0 = time.time()
    ok = True
    detail = ""
    for name, L, V in suite["semisimple_pairs"]:
        system = assemble_system(L, V)
        if system.cols > 100:
            continue
        for d in (F(1), F(1, 2), F(-2, 3)):
            matrix = system.specialize(d, range(system.rows))
            fast = tuple(canonical(v, system.cols) for v in nullspace_bareiss(matrix, system.cols))
            dense = [[row.get(c, 0) for c in range(system.cols)] for row in matrix]
            slow = nullspace_gauss(dense, system.cols)
            if fast != slow:
                ok = False
                detail = f"{name} at {d}: {len(fast)} vs {len(slow)}"
    _report("criterion 6e: fraction-free vs plain elimination",
            ok, time.time() - t0, None, detail)


def test_criterion_6f_random_values_are_trivial(suite):
    t0 = time.time()
    rng = random.Random(20200619)
    ok = True
    detail = ""
    for name, L, V in suite["semisimple_pairs"]:
        system = assemble_system(L, V)
        exceptional = set(scan(L, V).findings)
        exceptional.add(F(0))
        count = 0
        while count < 20:
            d = F(rng.randint(-30, 30), rng.randint(1, 10))
            if not (-3 <= d <= 3) or d in exceptional:
                continue
            dim = kernel_at(system, d).dimension
            if dim != 0:
                ok = False
                detail = f"{name} at {d}: dim {dim}"
            count += 1
    _report("criterion 6f: random non-exceptional values give zero",
            ok, time.time() - t0, None, detail)


def test_criterion_7_inner_derivations_exhaust_delta_one(suite):
    t0 = time.time()
    ok = True
    detail = ""
    for name, L, V in suite["semisimple_pairs"]:
        space = solve(L, V, F(1))
        inner = inner_derivations(L, V)
        invariant_dim = len(invariants(V))
        good = (
            space.dimension == V.dim_v - invariant_dim
            and inner.dimension == space.dimension
            and spans_equal(_span(space.basis), _span(inner.basis))
        )
        if not good:
            ok = False
            detail = f"{name}: solver {space.dimension}, inner {inner.dimension}"
    _report("criterion 7: first-order derivations are inner",
            ok, time.time() - t0, None, detail)
