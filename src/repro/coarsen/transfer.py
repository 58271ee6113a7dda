"""3-D transfer operators (prolongation / restriction) between grid levels.

The prolongation is ``P = Px (x) Py (x) Pz (x) I_r`` — a Kronecker product
of 1-D interpolations matching the C-order dof flattening, with an identity
over the ``r`` components of vector-PDE unknowns.  Restriction is the
transpose (standard Galerkin pairing).

Transfer application is part of the solve phase, so it runs in the
preconditioner *compute* precision on FP32 vectors; the entries themselves
are small dyadic rationals (1, 1/2, 1/4, ...) that are exact in any format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..grid import StructuredGrid
from .interp import injection_1d, interp_1d

__all__ = ["Transfer", "build_transfer", "choose_coarsen_factors"]

#: 1-D factories by interpolation kind; ``P`` is their Kronecker product.
INTERP_1D = {"linear": interp_1d, "injection": injection_1d}


@dataclass
class Transfer:
    """Prolongation/restriction pair between a fine and a coarse grid."""

    fine: StructuredGrid
    coarse: StructuredGrid
    factors: tuple[int, int, int]
    p: sp.csr_matrix  # (ndof_fine, ndof_coarse)
    r: sp.csr_matrix  # (ndof_coarse, ndof_fine)
    kind: str  # 1-D factor of every axis: "linear" or "injection"

    @staticmethod
    def _apply(mat: sp.csr_matrix, x: np.ndarray, src, dst, dtype) -> np.ndarray:
        """Apply ``mat`` to one field or to a trailing-batch-axis block."""
        dtype = dtype or np.asarray(x).dtype
        arr = np.asarray(x, dtype=dtype)
        if arr.size != src.ndof:  # batched: field_shape + (k,) or (ndof, k)
            flat = mat @ arr.reshape(src.ndof, -1)
            out_shape = dst.field_shape + (flat.shape[-1],)
        else:
            flat = mat @ arr.reshape(src.ndof)
            out_shape = dst.field_shape
        return flat.astype(dtype, copy=False).reshape(out_shape)

    def prolongate(self, xc: np.ndarray, dtype=None) -> np.ndarray:
        """Interpolate a coarse field up to the fine grid."""
        return self._apply(self.p, xc, self.coarse, self.fine, dtype)

    def restrict(self, xf: np.ndarray, dtype=None) -> np.ndarray:
        """Restrict a fine field down to the coarse grid."""
        return self._apply(self.r, xf, self.fine, self.coarse, dtype)

    @property
    def nbytes(self) -> int:
        return int(self.p.data.nbytes + self.r.data.nbytes)


def build_transfer(
    fine: StructuredGrid,
    factors: tuple[int, int, int] = (2, 2, 2),
    kind: str = "linear",
    compute_dtype=np.float32,
) -> Transfer:
    """Build the transfer pair for one coarsening step.

    ``kind`` is ``"linear"`` (tri-linear interpolation, the default of
    structured multigrids) or ``"injection"``.  ``factors`` of 1 skip an
    axis (semicoarsening for anisotropic problems); aggressive coarsening
    uses factors > 2.
    """
    factory = INTERP_1D.get(kind)
    if factory is None:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    coarse = fine.coarsen(factors)
    p1 = [factory(n, f) for n, f in zip(fine.shape, factors)]
    p_cell = sp.kron(sp.kron(p1[0], p1[1]), p1[2])
    if fine.ncomp > 1:
        p_cell = sp.kron(p_cell, sp.identity(fine.ncomp))
    p = sp.csr_matrix(p_cell, dtype=np.float64)
    r = sp.csr_matrix(p.T)
    p_c = p.astype(compute_dtype)
    r_c = r.astype(compute_dtype)
    return Transfer(
        fine=fine, coarse=coarse, factors=factors, p=p_c, r=r_c, kind=kind
    )


def choose_coarsen_factors(
    grid: StructuredGrid,
    min_axis: int = 3,
    anisotropy_weights: "tuple[float, float, float] | None" = None,
    semi_threshold: float = 10.0,
) -> tuple[int, int, int]:
    """Pick per-axis coarsening factors for one level.

    Axes shorter than ``min_axis`` after coarsening stay uncoarsened.  When
    ``anisotropy_weights`` (relative coupling strengths per axis, e.g. from
    the operator's directional stiffness) are supplied, axes whose coupling
    is weaker than the strongest axis by more than ``semi_threshold`` are
    skipped — classic semicoarsening, which is how structured multigrid
    keeps convergence on strongly anisotropic problems such as the paper's
    weather case.
    """
    factors = []
    wmax = max(anisotropy_weights) if anisotropy_weights else None
    for ax, n in enumerate(grid.shape):
        f = 2
        if (n + 1) // 2 < min_axis:
            f = 1
        elif anisotropy_weights is not None:
            if anisotropy_weights[ax] * semi_threshold < wmax:
                f = 1
        factors.append(f)
    if all(f == 1 for f in factors) and max(grid.shape) >= 2 * min_axis:
        # avoid dead-lock: coarsen the strongest (or longest) axis
        ax = int(np.argmax(grid.shape))
        factors[ax] = 2
    return tuple(factors)
