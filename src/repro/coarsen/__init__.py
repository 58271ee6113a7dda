"""Grid transfer operators and Galerkin coarsening."""

from .galerkin import (
    collapse_to_pattern,
    constant_coefficient_coarse_stencil,
    galerkin_coarse_sgdia,
    galerkin_product,
)
from .interp import injection_1d, interp_1d
from .transfer import (
    AxisTable,
    Transfer,
    axis_tables,
    build_transfer,
    choose_coarsen_factors,
)

__all__ = [
    "AxisTable",
    "Transfer",
    "axis_tables",
    "build_transfer",
    "choose_coarsen_factors",
    "collapse_to_pattern",
    "constant_coefficient_coarse_stencil",
    "galerkin_coarse_sgdia",
    "galerkin_product",
    "injection_1d",
    "interp_1d",
]
