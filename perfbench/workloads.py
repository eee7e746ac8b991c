"""Seeded job lists and reference answers for the benchmark workloads.

The built-in algebras and modules are rebuilt here from the conventions the
package documents (README "Conventions", the ``lie_core`` docstring), without
importing the package, so the correctness gate never checks the program
against itself.  An algebra is ``(dim, brackets)`` with ``brackets[(i, j)]``
a ``{k: c}`` dict for ``i < j``; a module is one dense action matrix per
algebra basis element.

Reference answers come from the paper's classification: a module that splits
into irreducible terms, each nontrivial over exactly one simple summand, has
at each ``d`` the sum of the terms' dimensions, and a term contributes only at

* ``V(n)`` over sl2 (n >= 1): ``d = 1`` (n+1), ``d = -2/n`` (n+3) and
  ``d = 2/(n+2)`` for n >= 2 (n-1);
* ``natural`` over slN (N >= 3): ``d = 1`` (N);
* ``adjoint`` over slN (N >= 3): ``d = 1`` (N^2-1) and ``d = 1/2`` (1).

The generic nullity of every such input is 0, so its generic rank is the
number of unknowns, dim L * dim V.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

# A case is (summand ranks, module terms); a term holds one atom per summand.
SL2_TENSOR = ((2, 2), (("V(1)", "V(0)"), ("V(0)", "V(2)")))


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------


def _dense(n, entries):
    m = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), x in entries.items():
        m[r][c] = Fraction(x)
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def sl_n(n):
    """slN in the package's basis order, with its natural module.

    Basis: E_ij for i > j (lexicographic), H_k = E_kk - E_(k+1)(k+1), then
    E_ij for i < j.  For n = 2 this is sl2 in the basis (e-, h, e+).
    """
    lower = [(i, j) for i in range(n) for j in range(n) if i > j]
    upper = [(i, j) for i in range(n) for j in range(n) if i < j]
    mats = [{ij: 1} for ij in lower]
    mats += [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
    mats += [{ij: 1} for ij in upper]
    position = {ij: t for t, ij in enumerate(lower)}
    position.update({ij: len(lower) + n - 1 + t for t, ij in enumerate(upper)})

    def product(a, b):
        out = {}
        for (r, s), x in a.items():
            for (s2, c), y in b.items():
                if s == s2:
                    out[(r, c)] = out.get((r, c), 0) + x * y
        return out

    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = product(mats[i], mats[j])
            for rc, x in product(mats[j], mats[i]).items():
                comm[rc] = comm.get(rc, 0) - x
            coords = {position[rc]: x for rc, x in comm.items() if rc[0] != rc[1] and x}
            partial = 0
            for k in range(n - 1):
                partial += comm.get((k, k), 0)
                if partial:
                    coords[len(lower) + k] = partial
            if coords:
                brackets[(i, j)] = {k: Fraction(c) for k, c in coords.items()}
    return (len(mats), brackets), [_dense(n, m) for m in mats]


def v_module(n):
    """The (n+1)-dimensional irreducible module of sl2, basis v_0 .. v_n."""
    lower = {(i + 1, i): i + 1 for i in range(n)}
    diag = {(i, i): n - 2 * i for i in range(n + 1)}
    upper = {(i - 1, i): n - i + 1 for i in range(1, n + 1)}
    return [_dense(n + 1, m) for m in (lower, diag, upper)]


def ad_matrices(alg):
    """ad(e_i) for every basis element; column j holds [e_i, e_j]."""
    dim, brackets = alg
    mats = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in brackets.items():
        for k, c in terms.items():
            mats[i][k][j] += c
            mats[j][k][i] -= c
    return mats


def build(case):
    """The algebra and module of a case, in the package's basis order."""
    ranks, terms = case
    parts = [sl_n(r) for r in ranks]
    dims = [p[0][0] for p in parts]
    brackets = {}
    offset = 0
    for (dim, part), _ in parts:
        for (i, j), t in part.items():
            brackets[(i + offset, j + offset)] = {k + offset: c for k, c in t.items()}
        offset += dim
    alg = (offset, brackets)

    def atom(text, s):
        if text == "natural":
            return parts[s][1]
        if text == "adjoint":
            return ad_matrices(parts[s][0])
        return v_module(int(text[2:-1]))

    blocks = []  # per term: one action matrix per algebra basis element
    for term in terms:
        factors = [atom(text, s) for s, text in enumerate(term)]
        eyes = [_dense(len(f[0]), {(r, r): 1 for r in range(len(f[0]))}) for f in factors]
        acts = []
        for s, f in enumerate(factors):
            for local in range(dims[s]):
                m = [[Fraction(1)]]
                for t in range(len(factors)):
                    m = _kron(m, f[local] if t == s else eyes[t])
                acts.append(m)
        blocks.append(acts)
    size = sum(len(b[0]) for b in blocks)
    action = []
    for e in range(offset):
        m = [[Fraction(0)] * size for _ in range(size)]
        base = 0
        for b in blocks:
            for r, row in enumerate(b[e]):
                m[base + r][base : base + len(row)] = row
            base += len(b[e])
        action.append(m)
    return alg, action


def descriptors(case):
    ranks, terms = case
    algebra = " o+ ".join(f"sl{r}" for r in ranks)
    module = " o+ ".join(" (x) ".join(term) for term in terms)
    return algebra, module


def expected_findings(case):
    """{d: dimension} for every d != 0 with a nonzero space."""
    ranks, terms = case
    found = {}
    for term in terms:
        (s, text), = [(s, t) for s, t in enumerate(term) if t != "V(0)"]
        rank = ranks[s]
        if rank == 2:
            n = {"natural": 1, "adjoint": 2}.get(text) or int(text[2:-1])
            values = {Fraction(1): n + 1, Fraction(-2, n): n + 3}
            if n >= 2:
                values[Fraction(2, n + 2)] = n - 1
        elif text == "natural":
            values = {Fraction(1): rank}
        else:
            values = {Fraction(1): rank * rank - 1, Fraction(1, 2): 1}
        for d, k in values.items():
            found[d] = found.get(d, 0) + k
    return dict(sorted(found.items()))


def sl2_weights(n, delta):
    """Bookkeeping weights -(raw + n)/2 of the V(n) families, or None."""
    if delta == Fraction(-2, n):
        return sorted([-n - 1, -n, *range(-n + 1, 0), 0, 1])
    if n >= 2 and delta == Fraction(2, n + 2):
        return list(range(-n + 1, 0))
    return None


# ---------------------------------------------------------------------------
# dense inputs: a seeded integer unimodular change of basis
# ---------------------------------------------------------------------------


def unimodular(n, rng):
    """T = P B and its inverse, P a permutation, B unit upper bidiagonal.

    The off-diagonal of B is +-1, so the inverse of B has every entry above
    the diagonal equal to +-1: T mixes every basis vector while the entries
    of T and of its inverse stay in {-1, 0, 1}, which bounds the growth of
    the transformed structure constants.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n - 1)]
    b = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    b_inv = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        b_inv[r][r] = Fraction(1)
        if r + 1 < n:
            b[r][r + 1] = Fraction(signs[r])
        for c in range(r + 1, n):
            b_inv[r][c] = -b_inv[r][c - 1] * signs[c - 1]
    p = [[Fraction(int(perm[c] == r)) for c in range(n)] for r in range(n)]
    p_t = [list(col) for col in zip(*p)]
    return _matmul(p, b), _matmul(b_inv, p_t)


def scramble(alg, action, rng):
    """The same algebra and module in bases f_i = sum_a T[a][i] e_a, w = S v."""
    dim, _ = alg
    dim_v = len(action[0])
    t, t_inv = unimodular(dim, rng)
    s, s_inv = unimodular(dim_v, rng)
    ad = ad_matrices(alg)

    def combine(mats, coeffs):
        size = len(mats[0])
        return [
            [sum(c * m[r][q] for c, m in zip(coeffs, mats) if c) for q in range(size)]
            for r in range(size)
        ]

    columns = [list(col) for col in zip(*t)]
    ads = [combine(ad, col) for col in columns]
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            image = [sum(x * y for x, y in zip(row, columns[j])) for row in ads[i]]
            coords = [sum(x * y for x, y in zip(row, image)) for row in t_inv]
            terms = {k: c for k, c in enumerate(coords) if c}
            if terms:
                brackets[(i, j)] = terms
    new_action = [_matmul(_matmul(s_inv, combine(action, col)), s) for col in columns]
    return (dim, brackets), new_action


def probe():
    """[x, y] = y with rho(x) = [[0, 2], [1, 0]], rho(y) = 0.

    The pencil has rank 2 of 4 for every rational d, so scan reports no
    findings, a nonrational factor -1 + 2*d^2, and solve gives dimension 2.
    """
    alg = (2, {(0, 1): {1: Fraction(1)}})
    action = [_dense(2, {(0, 1): 2, (1, 0): 1}), _dense(2, {})]
    return alg, action


def to_json(alg, action):
    dim, brackets = alg
    return {
        "algebra": {
            "dim": dim,
            "brackets": [
                [i, j, k, str(c)]
                for (i, j), terms in sorted(brackets.items())
                for k, c in sorted(terms.items())
            ],
        },
        "module": {
            "dim": len(action[0]),
            "action": [[[str(x) for x in row] for row in m] for m in action],
        },
    }


def from_json(data):
    brackets = {}
    for i, j, k, c in data["algebra"]["brackets"]:
        brackets.setdefault((i, j), {})[k] = Fraction(c)
    action = [[[Fraction(x) for x in row] for row in m] for m in data["module"]["action"]]
    return (data["algebra"]["dim"], brackets), action


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _generic_delta(rng, avoid):
    """A rational of small height, nonzero and outside ``avoid``."""
    while True:
        q = rng.randint(2, 9)
        p = rng.choice((-1, 1)) * rng.randint(1, 9)
        d = Fraction(p, q)
        if gcd(p, q) == 1 and d not in avoid:
            return d


def _solve(case, delta, flags=()):
    algebra, module = descriptors(case)
    argv = ["solve", "--algebra", algebra, "--module", module, "--delta", str(delta), *flags]
    return {"argv": argv, "case": case, "delta": delta}


def _scan(case):
    algebra, module = descriptors(case)
    return {"argv": ["scan", "--algebra", algebra, "--module", module], "case": case}


def _solve_sparse(rng, work):
    sl3_adjoint = ((3,), (("adjoint",),))
    jobs = [
        _solve(((5,), (("natural",),)), Fraction(1)),
        _solve(((4,), (("adjoint",),)), Fraction(1, 2)),
        _solve(((4,), (("natural",),)), Fraction(1)),
        _solve(sl3_adjoint, Fraction(1)),
        _solve(sl3_adjoint, Fraction(1, 2)),
        _solve(sl3_adjoint, _generic_delta(rng, expected_findings(sl3_adjoint))),
    ]
    rng.shuffle(jobs)
    return jobs


def _scan_sparse(rng, work):
    # V(n) and tensor costs swing with n (odd n have large pivot constants),
    # so the seed draws among inputs of similar cost.
    a, b = rng.choice(((1, 2), (2, 1)))
    c, e = rng.choice(((2, 3), (3, 2)))
    cases = [
        ((3,), (("adjoint",),)),
        ((3,), (("natural",),)),
        ((4,), (("natural",),)),
        ((2,), (("adjoint",),)),
        ((2,), ((f"V({rng.choice((6, 8))})",),)),
        ((2, 2), ((f"V({a})", "V(0)"), ("V(0)", f"V({b})"))),
        ((2, 2), ((f"V({c})", "V(0)"), ("V(0)", f"V({e})"))),
    ]
    jobs = [_scan(case) for case in cases]
    rng.shuffle(jobs)
    return jobs


CLASSIFY_MAX_N = 8
CLASSIFY_SOLVES = 16


def _classify(rng, work):
    jobs = [{"argv": ["verify", "--max-n", str(CLASSIFY_MAX_N), "--format", "json"]}]
    for _ in range(CLASSIFY_SOLVES):
        n = rng.randint(1, CLASSIFY_MAX_N)
        case = ((2,), ((f"V({n})",),))
        special = list(expected_findings(case))
        delta = rng.choice(special + [_generic_delta(rng, special)])
        jobs.append(_solve(case, delta, ("--grading-element", "1")))
    return jobs


# The sparse twins of the dense inputs; scrambling leaves findings and
# generic rank unchanged, so the twin's reference answers apply.
DENSE_TWINS = (
    ((2,), (("adjoint",),)),
    ((2,), (("V(3)",),)),
    ((3,), (("natural",),)),
    SL2_TENSOR,
)
# The cost of one scrambled input swings by a third with the change of
# basis; a pass holds this many scrambles of each twin so its total is steady.
DENSE_COPIES = 6


def _input_jobs(path, data, case, delta):
    """Write one JSON input; scan it and solve it at ``delta``."""
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    common = {"case": case, "input": path.name}
    return [
        {"argv": ["scan", "--input", str(path)], **common},
        {"argv": ["solve", "--input", str(path), "--delta", str(delta)], "delta": delta, **common},
    ]


def _input_dense(rng, work):
    jobs = []
    for t, case in enumerate(DENSE_TWINS):
        findings = list(expected_findings(case))
        for copy in range(DENSE_COPIES):
            data = to_json(*scramble(*build(case), rng))
            jobs += _input_jobs(work / f"dense{t}-{copy}.json", data, case, rng.choice(findings))
    jobs += _input_jobs(work / "probe.json", to_json(*probe()), "probe", _generic_delta(rng, ()))
    rng.shuffle(jobs)
    return jobs


def generate(workload, seed, work):
    """Write the inputs of one workload into ``work`` and return its jobs.

    Every job carries the CLI arguments and what the gate needs to check the
    answer.  The same workload and seed give byte-identical files, including
    ``jobs.json``, the job list as the program receives it.
    """
    work.mkdir(parents=True, exist_ok=True)
    jobs = _GENERATORS[workload](random.Random(f"{workload}/{seed}"), work)
    argvs = json.dumps([j["argv"] for j in jobs], indent=1)
    (work / "jobs.json").write_text(argvs + "\n", encoding="utf-8")
    return jobs


_GENERATORS = {
    "solve-sparse": _solve_sparse,
    "scan-sparse": _scan_sparse,
    "classify": _classify,
    "input-dense": _input_dense,
}
WORKLOADS = tuple(_GENERATORS)
