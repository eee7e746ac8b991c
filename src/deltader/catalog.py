"""Expected twisted-derivation spaces, as closed-form generator rules.

For the rank-1 simple algebra with its (n+1)-dimensional irreducible
module, the nonzero spaces and their explicit bases are:

* d = 1: dimension n+1, the inner maps x -> x . v over a module basis.
* d = -2/n (n >= 1): dimension n+3, with basis maps of bookkeeping weights
  -n-1, -n, -k (1 <= k <= n-1), 0, 1:

      e+ -> v_n;
      h -> 2 v_n, e+ -> v_(n-1);
      e- -> -v_(k+1), h -> 2 v_k, e+ -> v_(k-1);
      e- -> -v_1, h -> 2 v_0;
      e- -> v_0.

* d = 2/(n+2) (n >= 2): dimension n-1, with basis maps of weight -k:

      e- -> k(k+1) v_(k+1), h -> 2k(n-k) v_k, e+ -> -(n-k)(n-k+1) v_(k-1),

  for 1 <= k <= n-1.  At n = 2 this value is 1/2 and the single basis map
  is twice the identity under the equivalence of the 3-dimensional module
  with the adjoint module.

For a semisimple algebra (a direct sum of simple summands) with a module
split into irreducibles, each carried by exactly one summand, the total
dimension at each d assembles summand by summand; ``theorem_findings``
states that prediction once, as the nonzero dimensions by d.  It reads
the command line's descriptors through the grammar in ``lie_core``,
parsed but never built, with the atom sizes of ``ModuleAtom.dimension``.
``verify_all`` replays the table of ``expected_family`` against the
solver, compares every scan with ``theorem_findings`` of the same
descriptors, and reports pass/fail per case.  It builds its inputs
through the command line's descriptor compiler
(``lie_core.parse_algebra_descriptor`` and ``parse_module_descriptor``),
each algebra once with its modules over it, so it checks exactly what
the command line builds.

Weight conventions: the solver's grading tags are raw eigenvalue
differences; for the module above the bookkeeping weight used here is
-(raw + n)/2.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from . import delta_solver, lie_core
from .delta_solver import DerivationMap, ShapeMismatch
from .linalg import nullspace_bareiss

CASE_DELTA_ONE = "delta_one"
CASE_MINUS_TWO_OVER_N = "minus_two_over_n"
CASE_TWO_OVER_N_PLUS_TWO = "two_over_n_plus_two"


class ExpectedFamily(NamedTuple):
    case_tag: str
    n: int
    delta: Fraction
    basis: tuple[DerivationMap, ...]
    weights: tuple[int, ...] | None


def _emap(n: int, e_minus=(), h=(), e_plus=()) -> DerivationMap:
    """A 3 x (n+1) map from sparse (index, coefficient) rows."""
    rows = []
    for entries in (e_minus, h, e_plus):
        row = [Fraction(0)] * (n + 1)
        for idx, c in entries:
            if 0 <= idx <= n:
                row[idx] = Fraction(c)
        rows.append(tuple(row))
    return tuple(rows)


def expected_family(n: int, case_tag: str) -> ExpectedFamily:
    if n < 1:
        raise ValueError("the table starts at n = 1")
    if case_tag == CASE_DELTA_ONE:
        basis = []
        for m in range(n + 1):
            basis.append(
                _emap(
                    n,
                    e_minus=[(m + 1, m + 1)],
                    h=[(m, n - 2 * m)],
                    e_plus=[(m - 1, n - m + 1)],
                )
            )
        return ExpectedFamily(case_tag, n, Fraction(1), tuple(basis), None)
    if case_tag == CASE_MINUS_TWO_OVER_N:
        basis = [_emap(n, e_plus=[(n, 1)])]
        weights = [-n - 1]
        basis.append(_emap(n, h=[(n, 2)], e_plus=[(n - 1, 1)]))
        weights.append(-n)
        for k in range(1, n):
            basis.append(_emap(n, e_minus=[(k + 1, -1)], h=[(k, 2)], e_plus=[(k - 1, 1)]))
            weights.append(-k)
        basis.append(_emap(n, e_minus=[(1, -1)], h=[(0, 2)]))
        weights.append(0)
        basis.append(_emap(n, e_minus=[(0, 1)]))
        weights.append(1)
        return ExpectedFamily(case_tag, n, Fraction(-2, n), tuple(basis), tuple(weights))
    if case_tag == CASE_TWO_OVER_N_PLUS_TWO:
        if n < 2:
            raise ValueError("this case requires n >= 2")
        basis = []
        weights = []
        for k in range(1, n):
            basis.append(
                _emap(
                    n,
                    e_minus=[(k + 1, k * (k + 1))],
                    h=[(k, 2 * k * (n - k))],
                    e_plus=[(k - 1, -(n - k) * (n - k + 1))],
                )
            )
            weights.append(-k)
        return ExpectedFamily(case_tag, n, Fraction(2, n + 2), tuple(basis), tuple(weights))
    raise ValueError(f"unknown case tag {case_tag!r}")


def paper_weight_from_raw(raw: Fraction, n: int) -> Fraction:
    """Convert a solver grading tag to the bookkeeping weight of the table."""
    return -(Fraction(raw) + n) / 2


# The equivalence of the (n=2) irreducible module with the adjoint module,
# from v-coordinates to (e-, h, e+) coordinates.
_ADJOINT_FROM_V2 = (
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0), Fraction(0)),
)


def v2_map_to_adjoint(D: DerivationMap) -> DerivationMap:
    """Transport a map with values in the n=2 module to adjoint coordinates."""
    out = []
    for row in D:
        out.append(tuple(sum(_ADJOINT_FROM_V2[r][s] * row[s] for s in range(3)) for r in range(3)))
    return tuple(out)


def identity_derivation(dim: int) -> DerivationMap:
    """The identity map of an algebra, as a map into its adjoint module."""
    return tuple(
        tuple(Fraction(1) if a == m else Fraction(0) for m in range(dim)) for a in range(dim)
    )


def span_equal(b1, b2) -> bool:
    """Exact equality of the spans of two lists of equally shaped maps.

    Two spans are equal exactly when their kernels (orthogonal complements)
    are, and each kernel comes back as its canonical basis.
    """
    b1, b2 = list(b1), list(b2)
    shapes = {(len(D), len(D[0]) if D else 0) for D in b1 + b2}
    if len(shapes) > 1:
        raise ShapeMismatch(f"maps of different shapes: {sorted(shapes)}")
    dim, dim_v = shapes.pop() if shapes else (0, 0)

    def kernel(maps):
        rows = [{c: x for c, x in enumerate(x for row in D for x in row) if x} for D in maps]
        return nullspace_bareiss(rows, dim * dim_v)

    return kernel(b1) == kernel(b2)


def theorem_findings(algebra: str, module: str) -> dict[Fraction, int]:
    """The nonzero dimensions the theorem predicts, in ascending d.

    ``algebra`` and ``module`` are descriptors as ``--algebra`` and
    ``--module`` take them.  They are parsed by the command line's grammar
    (``lie_core.parse_algebra_atoms`` and ``parse_module_terms``), never
    built, so a bad descriptor raises what the command line reports.  Each
    tensor term is an irreducible module of one summand, trivial on the
    others, times the product of its trivial(d) factors; 'adjoint' of a
    direct sum is the adjoint module of each summand.  A term nontrivial on
    two summands is beyond this bookkeeping and raises ValueError.  Each
    part counts at 1, at 1/2, and over sl2, as V(n), at -2/n and 2/(n+2);
    no other d has a nonzero space.
    """
    summands = lie_core.parse_algebra_atoms(algebra)
    parts = []  # (summand, atom, copies) for each nontrivial irreducible part
    for term in lie_core.parse_module_terms(module, summands):
        if len(term) < len(summands):  # 'adjoint' or 'trivial(d)' of the whole algebra
            if term[0].kind == "ADJOINT":
                parts += [(s, term[0], 1) for s in summands]
            continue
        nontrivial = [(s, a) for s, a in zip(summands, term) if a.kind != "TRIVIAL" and a.arg != 0]
        if len(nontrivial) > 1:
            text = " (x) ".join(a.text for a in term)
            raise ValueError(f"{text!r} is nontrivial on {len(nontrivial)} summands")
        copies = prod(a.arg for a in term if a.kind == "TRIVIAL")
        parts += [(s, a, copies) for s, a in nontrivial]
    totals: dict[Fraction, int] = {}
    for s, atom, copies in parts:
        size = atom.dimension(s)
        n = size - 1 if s.n == 2 else None  # over sl2 it is V(n), the adjoint module V(2)
        counts = {Fraction(1): size, Fraction(1, 2): int(atom.kind == "ADJOINT" or n == 2)}
        if n:
            counts[Fraction(-2, n)] = n + 3
        if n and n >= 3:
            counts[Fraction(2, n + 2)] = n - 1
        for delta, count in counts.items():
            totals[delta] = totals.get(delta, 0) + copies * count
    return {delta: totals[delta] for delta in sorted(totals) if totals[delta]}


def theorem_dimension(algebra: str, module: str, delta) -> int:
    """Predicted dimension at one ``delta``: ``theorem_findings``, or 0 off it."""
    return theorem_findings(algebra, module).get(Fraction(delta), 0)


class VerifyCheck(NamedTuple):
    name: str
    status: str  # pass / fail / skip
    detail: str


class VerifyReport(NamedTuple):
    checks: tuple[VerifyCheck, ...]

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in self.checks
            ],
            "failures": self.failures,
        }

    def to_text(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"{'check'.ljust(width)}  status  detail"]
        for c in self.checks:
            lines.append(f"{c.name.ljust(width)}  {c.status.ljust(6)}  {c.detail}")
        lines.append(f"{self.failures} failure(s) out of {len(self.checks)} check(s)")
        return "\n".join(lines)


def _check(name: str, ok: bool, detail: str) -> VerifyCheck:
    return VerifyCheck(name, "pass" if ok else "fail", detail)


def _scan_row(L, V, algebra: str, module: str) -> VerifyCheck:
    """Scan ``V`` over ``L``, built from the descriptors, against ``theorem_findings``."""
    report = delta_solver.scan(L, V)
    found = ", ".join(f"{d}: {dim}" for d, dim in report.findings.items())
    return _check(
        f"{algebra} {module} scan",
        report.findings == theorem_findings(algebra, module) and not report.nonrational_factors,
        f"found {{{found}}}, {len(report.nonrational_factors)} unresolved factor(s)",
    )


def _build(algebra: str, *modules: str):
    """An algebra and modules over it, from descriptors, as the command line builds them."""
    L, parts = lie_core.parse_algebra_descriptor(algebra)
    return L, *(lie_core.parse_module_descriptor(text, L, parts)[0] for text in modules)


def verify_all(max_n: int) -> VerifyReport:
    """Replay the whole classification against the solver, up to max_n.

    Each row compares the solver with the closed-form tables above: a
    family by dimension and exact span (and, where the table fixes them,
    grading weights), two canonical bases by plain equality, and a scan
    with ``theorem_findings`` of the same descriptors.  The solver
    re-checks every basis element it returns, so a family of the same span
    needs no check of its own.  Failures never raise; they become report
    entries.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    checks: list[VerifyCheck] = []
    alg, *v_modules, adj = _build("sl2", *(f"V({n})" for n in range(1, max_n + 1)), "adjoint")
    for n, module in enumerate(v_modules, start=1):
        for case_tag in (CASE_DELTA_ONE, CASE_MINUS_TWO_OVER_N, CASE_TWO_OVER_N_PLUS_TWO):
            name = f"sl2 V({n}) case {case_tag}"
            if case_tag == CASE_TWO_OVER_N_PLUS_TWO and n < 2:
                checks.append(VerifyCheck(name, "skip", "requires n >= 2"))
                continue
            family = expected_family(n, case_tag)
            space = delta_solver.solve(alg, module, family.delta, use_grading=1)
            ok = space.dimension == len(family.basis) and span_equal(space.basis, family.basis)
            detail = f"d={family.delta}, dim {space.dimension} (expected {len(family.basis)})"
            if family.weights is not None:
                got = sorted(paper_weight_from_raw(w, n) for w in space.weights)
                ok = ok and got == sorted(Fraction(w) for w in family.weights)
                detail += ", weights checked"
            checks.append(_check(name, ok, detail))
        checks.append(_scan_row(alg, module, "sl2", f"V({n})"))

    # adjoint module of the rank-1 algebra: the identity line and the n = 2 family
    half = delta_solver.solve(alg, adj, Fraction(1, 2))
    ok = half.basis == (identity_derivation(3),)
    checks.append(_check("sl2 adjoint d=1/2 identity line", ok, f"dim {half.dimension}"))
    minus_one = delta_solver.solve(alg, adj, Fraction(-1))
    expected_adj = [v2_map_to_adjoint(D) for D in expected_family(2, CASE_MINUS_TWO_OVER_N).basis]
    ok = span_equal(minus_one.basis, expected_adj)
    checks.append(_check("sl2 adjoint d=-1 family span", ok, f"dim {minus_one.dimension}"))
    checks.append(_scan_row(alg, adj, "sl2", "adjoint"))

    # the smallest simple algebra of rank > 1
    sl3, natural, sl3_adj = _build("sl3", "natural", "adjoint")
    half = delta_solver.solve(sl3, sl3_adj, Fraction(1, 2))
    ok = half.basis == (identity_derivation(8),)
    checks.append(_check("sl3 adjoint d=1/2 identity line", ok, f"dim {half.dimension}"))

    ones = delta_solver.solve(sl3, sl3_adj, Fraction(1))
    inner = delta_solver.inner_derivations(sl3, sl3_adj)
    ok = ones.dimension == 8 and ones.basis == inner.basis
    checks.append(_check("sl3 adjoint d=1 inner derivations", ok, f"dim {ones.dimension}"))
    checks.append(_scan_row(sl3, sl3_adj, "sl3", "adjoint"))

    ones = delta_solver.solve(sl3, natural, Fraction(1))
    inner = delta_solver.inner_derivations(sl3, natural)
    ok = ones.dimension == 3 and ones.basis == inner.basis
    checks.append(_check("sl3 natural d=1 inner derivations", ok, f"dim {ones.dimension}"))
    checks.append(_scan_row(sl3, natural, "sl3", "natural"))

    # semisimple assembly: two rank-1 summands, mixed tensor module
    g_text, v_text = "sl2 o+ sl2", "V(1) (x) V(0) o+ V(0) (x) V(2)"
    g, module = _build(g_text, v_text)
    predicted = theorem_findings(g_text, v_text)
    solved = {d: delta_solver.solve(g, module, d).dimension for d in predicted}
    checks.append(
        _check(
            "two-summand assembly dimensions",
            solved == predicted,
            "solved/predicted " + ", ".join(f"{d}: {solved[d]}/{predicted[d]}" for d in predicted),
        )
    )

    return VerifyReport(checks=tuple(checks))
