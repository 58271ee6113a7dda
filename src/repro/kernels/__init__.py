"""Vectorized SG-DIA compute kernels (SpMV, sweeps, SpTRSV, BLAS-1).

The hot kernels accept an optional precomputed
:class:`~repro.kernels.plan.KernelPlan` (``plan=``) that moves all symbolic
work — slice tables, wavefront gather indices, scratch buffers — to setup
time and dispatches through the pluggable :mod:`~repro.kernels.backend`
registry (numpy reference always; compiled C when a compiler is present).
"""

from .backend import (
    KernelBackend,
    available_backends,
    backend_status,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .blas1 import axpy, cast_vector, copy_to, dot, norm2, xpay
from .lines import line_sweep, thomas_solve_batch
from .plan import KernelPlan, clear_plan_cache, plan_cache_info, plan_for
from .spmv import field_view, residual, spmv, spmv_plain
from .sptrsv import sptrsv, wavefront_planes
from .sweeps import (
    COLORS8,
    color_offset_slices,
    compute_diag_inv,
    gs_sweep_colored,
    jacobi_sweep,
)

__all__ = [
    "COLORS8",
    "KernelBackend",
    "KernelPlan",
    "available_backends",
    "axpy",
    "backend_status",
    "cast_vector",
    "clear_plan_cache",
    "color_offset_slices",
    "compute_diag_inv",
    "copy_to",
    "dot",
    "field_view",
    "get_backend",
    "gs_sweep_colored",
    "jacobi_sweep",
    "line_sweep",
    "norm2",
    "plan_cache_info",
    "plan_for",
    "register_backend",
    "residual",
    "set_backend",
    "spmv",
    "spmv_plain",
    "sptrsv",
    "thomas_solve_batch",
    "use_backend",
    "wavefront_planes",
    "xpay",
]
