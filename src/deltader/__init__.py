"""deltader: exact twisted-derivation spaces of finite-dimensional Lie algebras.

For an algebra L, a module V and a scalar d, the space of maps D with
D([x, y]) = -d y . D(x) + d x . D(y) is computed exactly over the
rationals, either at a fixed d or as a scan over all rational d with a
nontrivial space.  See the README for the command line interface.
"""

from .delta_solver import solve

__version__ = "0.1.0"

__all__ = ["solve"]
