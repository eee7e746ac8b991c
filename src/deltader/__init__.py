"""deltader: exact twisted-derivation spaces of finite-dimensional Lie algebras.

For an algebra L, a module V and a scalar d, the space of maps D with
D([x, y]) = -d y . D(x) + d x . D(y) is computed exactly over the
rationals, either at a fixed d or as a scan over all rational d with a
nontrivial space.  See the README for the command line interface.
"""

from .catalog import (
    ExpectedFamily,
    VerifyReport,
    expected_sl2_basis,
    span_equal,
    theorem_dimension,
    verify_all,
)
from .delta_solver import (
    DerivationSpace,
    DerivationSystem,
    ScanReport,
    assemble_system,
    inner_derivations,
    is_delta_derivation,
    kernel_at,
    scan,
    solve,
)
from .exact_arith import (
    Poly,
    parse_rational,
    poly_normalize,
    poly_rational_roots,
)
from .lie_core import (
    LieAlgebra,
    Representation,
    adjoint_module,
    algebra_from_structure_constants,
    direct_sum_algebras,
    direct_sum_modules,
    invariants,
    sl2,
    sl2_module,
    sl_n,
    tensor_module,
    trivial_module,
    weight_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "DerivationSpace",
    "DerivationSystem",
    "ExpectedFamily",
    "LieAlgebra",
    "Poly",
    "Representation",
    "ScanReport",
    "VerifyReport",
    "adjoint_module",
    "algebra_from_structure_constants",
    "assemble_system",
    "direct_sum_algebras",
    "direct_sum_modules",
    "expected_sl2_basis",
    "inner_derivations",
    "invariants",
    "is_delta_derivation",
    "kernel_at",
    "parse_rational",
    "poly_normalize",
    "poly_rational_roots",
    "scan",
    "sl2",
    "sl2_module",
    "sl_n",
    "solve",
    "span_equal",
    "tensor_module",
    "theorem_dimension",
    "trivial_module",
    "verify_all",
    "weight_decomposition",
]
