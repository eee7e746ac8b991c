from fractions import Fraction

import pytest

from deltader import lie_core
from oracle import sparse


@pytest.fixture(scope="session")
def sl2():
    return lie_core.sl2()


@pytest.fixture(scope="session")
def sl3_pair():
    return lie_core.sl_n(3)


@pytest.fixture(scope="session")
def sl3(sl3_pair):
    return sl3_pair[0]


@pytest.fixture(scope="session")
def sl3_natural(sl3_pair):
    return sl3_pair[1]


@pytest.fixture(scope="session")
def sl3_adjoint(sl3):
    return lie_core.adjoint_module(sl3)


@pytest.fixture(scope="session")
def v_modules():
    """sl2_module(n) for n = 0..8, built once."""
    return {n: lie_core.sl2_module(n) for n in range(9)}


def F(a, b=1):
    return Fraction(a, b)


def as_row(D):
    """A map (dim rows of dim_v coordinates) as the sparse row {a * dim_v + m: D[a][m]}
    that ``is_delta_derivation`` and ``nullspace_bareiss`` read."""
    return {c: x for c, x in enumerate(x for row in D for x in row) if x}


def canonical(v, ncols):
    """A nonzero sparse row divided by the entry at its first column, as a dense tuple."""
    lead = v[min(v)]
    return tuple(Fraction(v.get(c, 0), lead) for c in range(ncols))


@pytest.fixture(scope="session")
def probe_json():
    """The probe below as ``--input`` JSON, with n in place of rho(x)'s entry 2."""

    def payload(n=2):
        return {
            "algebra": {"dim": 2, "brackets": [[0, 1, 1, "1"]]},
            "module": {"dim": 2, "action": [[["0", str(n)], ["1", "0"]], [["0", "0"], ["0", "0"]]]},
        }

    return payload


@pytest.fixture(scope="session")
def probe():
    """The 2-dim algebra [x,y]=y on a 2-dim module with rho(x)=[[0,2],[1,0]], rho(y)=0.

    Its pencil has a nonzero kernel at every d and drops rank further at
    d = +-sqrt(2)/2 only, the roots of 2*d^2 - 1.
    """
    alg = lie_core.algebra_from_structure_constants(2, [(0, 1, 1, 1)])
    module = lie_core.representation_from_action(
        alg, sparse([[[0, 2], [1, 0]], [[0, 0], [0, 0]]]), 2
    )
    return alg, module


@pytest.fixture(scope="session")
def rescaled_json():
    """sl2 in the basis (3 e-, h, e+/2) and its V(2) in the basis (v0, v1/3, v2), as
    ``--input`` JSON: brackets and action entries carry denominators 2 and 3."""
    L, V = lie_core.sl2(), lie_core.sl2_module(2)
    s, t = (F(3), F(1), F(1, 2)), (F(1), F(1, 3), F(1))
    brackets = [
        [i, j, k, str(s[i] * s[j] * c / s[k])]
        for (i, j), terms in L.structure.items()
        for k, c in terms
    ]
    action = [
        [[str(s[a] * V.action[a][r].get(m, 0) * t[m] / t[r]) for m in range(3)] for r in range(3)]
        for a in range(3)
    ]
    return {"algebra": {"dim": 3, "brackets": brackets}, "module": {"dim": 3, "action": action}}
