"""Dense direct solver for the coarsest multigrid level.

The coarsest grid of an aggressively coarsened hierarchy has a handful of
unknowns; a dense LU factorization in high precision costs essentially
nothing (Section 3.3's complexity argument) and removes any smoother
convergence concern at the bottom of the V-cycle.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg as sla

from ..sgdia import SGDIAMatrix, StoredMatrix, offset_slices
from .base import Smoother

__all__ = ["CoarseDirectSolver", "dense_matrix"]

_MAX_DENSE_DOFS = 40_000


def dense_matrix(a: SGDIAMatrix) -> np.ndarray:
    """``a`` as a dense FP64 array, scattered from the SG-DIA payload one
    offset at a time.

    Equal to ``a.to_csr().toarray()``: entries whose neighbour is outside
    the grid are left out, and a stored ``-0.0`` (which the CSR drops as
    a zero) reads ``+0.0``.
    """
    grid = a.grid
    r = grid.ncomp
    dense = np.zeros((grid.ndof, grid.ndof))
    blocks = dense.reshape(grid.ncells, r, grid.ncells, r)
    cells = np.arange(grid.ncells).reshape(grid.shape)
    for d, off in enumerate(a.stencil.offsets):
        dst, src = offset_slices(grid.shape, off)
        vals = np.asarray(a.diag_view(d)[dst], dtype=np.float64)
        blocks[cells[dst].ravel(), :, cells[src].ravel(), :] = (
            vals.reshape(-1, r, r) + 0.0
        )
    return dense


class CoarseDirectSolver(Smoother):
    """LU-based exact solve, exposed through the smoother interface.

    The factorization is computed in FP64 from the high-precision (scaled)
    operator; the apply overwrites ``x`` with the solution — applying it
    "twice" (pre and post) is idempotent, so it is safe to plug in wherever
    a smoother is expected.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lu = None
        # scipy's ``lu_solve`` is not safe to call on one factorization
        # from several threads at once (it corrupts the heap), and the
        # worker threads of a solve service share one cached hierarchy.
        self._lu_lock = threading.Lock()

    def _setup_scaled(self, high: SGDIAMatrix, stored: StoredMatrix) -> None:
        n = high.grid.ndof
        if n > _MAX_DENSE_DOFS:
            raise ValueError(
                f"coarse level has {n} dofs; too large for a dense direct "
                f"solver (max {_MAX_DENSE_DOFS}) — coarsen further or use a "
                "smoother at the coarsest level"
            )
        self._lu = sla.lu_factor(dense_matrix(high))

    def state_arrays(self) -> "dict[str, np.ndarray] | None":
        if self._lu is None:
            return None
        return {"lu": self._lu[0], "piv": self._lu[1]}

    def load_state(self, stored: StoredMatrix, arrays: dict) -> "Smoother":
        self._bind_stored(stored)
        self._lu = (np.asarray(arrays["lu"]), np.asarray(arrays["piv"]))
        return self

    def _smooth_scaled(self, b, x, forward: bool) -> None:
        grid = self.stored.grid
        bb = np.asarray(b, dtype=np.float64)
        if bb.ndim == len(grid.field_shape) + 1:  # batched multi-RHS block
            bb = bb.reshape(grid.ndof, bb.shape[-1])
        else:
            bb = bb.ravel()
        if not np.isfinite(bb).all():
            # NaN/inf reached the coarsest level (the crash mode of unsafe
            # truncation) — propagate it so the solver reports divergence
            # instead of raising from inside LAPACK.
            x[...] = np.nan
            return
        with self._lu_lock:
            sol = sla.lu_solve(self._lu, bb)
        x[...] = sol.reshape(x.shape).astype(x.dtype)

    def extra_nbytes(self) -> int:
        return int(self._lu[0].nbytes) if self._lu is not None else 0
