"""1-D interpolation factories composed into 3-D transfer operators.

Structured-grid prolongation factorizes into a tensor (Kronecker) product
of 1-D interpolation matrices, one per axis — the construction StructMG and
hypre's PFMG use for their "high-dimensional" coarsening.  Vertex-based
coarsening keeps fine points ``0, f, 2f, ...``; linear interpolation gives
interior fine points convex weights from their bracketing coarse points.

The ``*_entries`` factories return the 1-D matrix as ``(rows, cols,
vals)`` arrays in row-major order (ascending column within a row) and
need no scipy; :func:`interp_1d` / :func:`injection_1d` wrap them as CSR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..grid import coarse_axis_size

__all__ = ["interp_1d", "injection_1d", "interp_1d_entries", "injection_1d_entries"]


def _identity_entries(n: int):
    idx = np.arange(n)
    return idx, idx, np.ones(n)


def interp_1d_entries(n: int, factor: int = 2):
    """Entries of the ``(n, nc)`` linear interpolation (see :func:`interp_1d`)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return _identity_entries(n)
    nc = coarse_axis_size(n, factor)
    rows, cols, vals = [], [], []
    for i in range(n):
        c, r = divmod(i, factor)
        if r == 0:
            rows.append(i)
            cols.append(c)
            vals.append(1.0)
        elif c + 1 < nc:
            w = r / factor
            rows.extend((i, i))
            cols.extend((c, c + 1))
            vals.extend((1.0 - w, w))
        else:
            # beyond the last coarse point: clamp (preserves constants)
            rows.append(i)
            cols.append(c)
            vals.append(1.0)
    return np.asarray(rows), np.asarray(cols), np.asarray(vals)


def injection_1d_entries(n: int, factor: int = 2):
    """Entries of the ``(n, nc)`` injection (see :func:`injection_1d`)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return _identity_entries(n)
    nc = coarse_axis_size(n, factor)
    return np.arange(nc) * factor, np.arange(nc), np.ones(nc)


def _csr(entries, n: int, factor: int) -> sp.csr_matrix:
    rows, cols, vals = entries
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(n, coarse_axis_size(n, factor))
    )


def interp_1d(n: int, factor: int = 2) -> sp.csr_matrix:
    """Linear interpolation matrix of shape ``(n, nc)`` for one axis.

    Coarse point ``c`` sits at fine index ``c*factor``.  A fine point
    between coarse points ``c`` and ``c+1`` receives linearly interpolated
    weights; fine points beyond the last coarse point extrapolate by
    clamping to the last coarse point (weight 1), which preserves the
    constant vector — the property Galerkin coarsening of an M-matrix needs.
    ``factor=1`` returns the identity (semicoarsening skips the axis).
    """
    return _csr(interp_1d_entries(n, factor), n, factor)


def injection_1d(n: int, factor: int = 2) -> sp.csr_matrix:
    """Injection: fine point ``c*factor`` maps to coarse ``c``, others 0.

    Useful as a cheap restriction variant and in tests.
    """
    return _csr(injection_1d_entries(n, factor), n, factor)
