"""3-D transfer operators (prolongation / restriction) between grid levels.

The prolongation is ``P = Px (x) Py (x) Pz (x) I_r`` — a Kronecker product
of 1-D interpolations matching the C-order dof flattening, with an identity
over the ``r`` components of vector-PDE unknowns.  Restriction is the
transpose (standard Galerkin pairing).

A :class:`Transfer` stores no matrix.  It holds, per axis and direction,
one :class:`AxisTable` (the weight of every 1-D term, in bands whose input
index follows from the output's; built once per ``(n, factor, kind)``) and
applies ``P`` / ``R`` as tensor-product stencils — the index-free storage
the paper's second guideline asks of every multigrid structure.  Each
output adds its terms in the lexicographic order of the input points, with
weights rounded as a CSR matrix in the transfer dtype holds them (the FP64
product of the 1-D weights, cast), so the result is bit-identical to the
sparse product :attr:`Transfer.p` / :attr:`Transfer.r` builds on demand
for tests and :func:`~repro.coarsen.galerkin_product`.

Transfer application is part of the solve phase, so it runs in the
preconditioner *compute* precision on FP32 vectors; the entries themselves
are small dyadic rationals (1, 1/2, 1/4, ...) that are exact in any format.
The kernel backend in effect (:mod:`repro.kernels.backend`) may supply
compiled kernels; :meth:`Transfer.apply_reference` is the numpy reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ..grid import StructuredGrid, coarse_axis_size
from ..kernels.backend import get_backend
from .interp import injection_1d_entries, interp_1d_entries

__all__ = [
    "AxisTable",
    "Transfer",
    "axis_tables",
    "build_transfer",
    "choose_coarsen_factors",
]

#: 1-D interpolation factories by kind, ``(n, factor) -> (rows, cols,
#: vals)`` (or a sparse ``(n, nc)`` matrix); ``P`` is their tensor product.
INTERP_1D = {"linear": interp_1d_entries, "injection": injection_1d_entries}


def _entries(kind: str, n: int, factor: int):
    """``(rows, cols, vals)`` of the 1-D interpolation of ``kind``."""
    factory = INTERP_1D.get(kind)
    if factory is None:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    entries = factory(n, factor)
    if hasattr(entries, "tocoo"):
        coo = entries.tocoo()
        entries = (coo.row, coo.col, coo.data)
    return tuple(np.asarray(e) for e in entries)


@dataclass(frozen=True, eq=False)
class AxisTable:
    """One axis of one transfer direction as a banded 1-D stencil.

    Output ``o`` reads, in band ``r``, input ``(o * mul) // div + offset +
    r`` (``(mul, div) = step``) with weight ``weight[r, o]``; a zero weight
    means the output has no term in that band.  Bands ascend in input, so
    adding an output's terms band by band follows the CSR's column order.
    ``weight32`` is ``weight`` rounded to fp32 (the compiled kernel's
    copy).  ``runs[r]`` splits band ``r``'s terms into runs ``(outputs,
    inputs, w)`` of two slices and one weight: evenly spaced outputs
    reading evenly spaced inputs with a common weight.
    """

    n_in: int
    step: tuple  # (mul, div)
    offset: int
    weight: np.ndarray  # float64 (nband, n_out)
    weight32: np.ndarray  # float32 (nband, n_out)
    runs: tuple

    @property
    def n_out(self) -> int:
        return self.weight.shape[1]

    @property
    def nband(self) -> int:
        return self.weight.shape[0]

    def terms(self, o: int) -> "list[tuple[int, float]]":
        """``(input, weight)`` of output ``o``'s terms, in order."""
        mul, div = self.step
        return [
            (o * mul // div + self.offset + r, float(self.weight[r, o]))
            for r in range(self.nband)
            if self.weight[r, o]
        ]

    def arrays(self) -> tuple:
        return (self.weight, self.weight32)


def _runs(outs: np.ndarray, ins: np.ndarray, ws: np.ndarray, div: int, mul: int):
    """Split one band's terms (ascending outputs) into runs.  Outputs
    ``div`` apart read inputs ``mul`` apart, so a run follows one output
    residue class mod ``div`` and ends at a gap or a change of weight."""
    runs = []
    for phase in range(div):
        sel = outs % div == phase
        o, i, w = outs[sel].tolist(), ins[sel].tolist(), ws[sel].tolist()
        start = 0
        for end in range(1, len(o) + 1):
            if end < len(o) and o[end] - o[end - 1] == div and w[end] == w[start]:
                continue
            runs.append((
                slice(o[start], o[end - 1] + 1, div),
                slice(i[start], i[end - 1] + 1, mul),
                w[start],
            ))
            start = end
    return tuple(runs)


def _table(out, inp, vals, n_out: int, n_in: int, step) -> AxisTable:
    mul, div = step
    rel = inp - out * mul // div
    offset = int(rel.min()) if rel.size else 0
    band = rel - offset
    weight = np.zeros((int(band.max(initial=0)) + 1, n_out))
    weight[band, out] = vals
    if np.count_nonzero(weight) != np.count_nonzero(vals):
        raise ValueError("1-D transfer entries do not form a band")
    weight32 = weight.astype(np.float32)
    for arr in (weight, weight32):
        arr.setflags(write=False)
    runs = []
    for r, w in enumerate(weight):
        outs = np.flatnonzero(w)
        runs.append(_runs(outs, outs * mul // div + offset + r, w[outs], div, mul))
    return AxisTable(n_in, (mul, div), offset, weight, weight32, tuple(runs))


@lru_cache(maxsize=256)
def axis_tables(n: int, factor: int, kind: str) -> "tuple[AxisTable, AxisTable]":
    """``(prolongation, restriction)`` tables of one axis, shared by every
    transfer with this ``(n, factor, kind)``."""
    rows, cols, vals = _entries(kind, n, factor)
    nc = coarse_axis_size(n, factor)
    return (
        _table(rows, cols, vals, n, nc, (1, factor)),
        _table(cols, rows, vals, nc, n, (factor, 1)),
    )


@dataclass(eq=False)
class Transfer:
    """Prolongation/restriction pair between a fine and a coarse grid."""

    fine: StructuredGrid
    coarse: StructuredGrid
    factors: tuple[int, int, int]
    kind: str  # 1-D factor of every axis: "linear" or "injection"
    dtype: np.dtype  # the weights are rounded to this format
    prolong_axes: "tuple[AxisTable, AxisTable, AxisTable]"
    restrict_axes: "tuple[AxisTable, AxisTable, AxisTable]"
    # kernel arguments a compiled backend binds once per transfer
    _bound: dict = field(default_factory=dict, repr=False)

    def prolongate(self, xc, dtype=None, out=None, add=False) -> np.ndarray:
        """Interpolate a coarse field up to the fine grid.

        The result is in ``dtype`` (default: the input's).  With ``out``
        (fine field shape) it is stored there, or added when ``add`` is
        set: ``prolongate(uc, out=u, add=True)`` is ``u += P uc``.
        """
        kernel = get_backend().prolongate
        if kernel is None:
            return self.apply_reference("prolong", xc, dtype, out, add)
        return kernel(self, xc, dtype, out, add)

    def restrict(self, xf, dtype=None) -> np.ndarray:
        """Restrict a fine field down to the coarse grid."""
        kernel = get_backend().restrict
        if kernel is None:
            return self.apply_reference("restrict", xf, dtype)
        return kernel(self, xf, dtype, None, False)

    def direction(self, which: str):
        """``(axis tables, source grid, destination grid)`` of
        ``"prolong"`` or ``"restrict"``."""
        if which == "prolong":
            return self.prolong_axes, self.coarse, self.fine
        return self.restrict_axes, self.fine, self.coarse

    def apply_reference(self, which, x, dtype=None, out=None, add=False):
        """The numpy tensor-product kernel, for one field or a
        trailing-batch-axis block (``field_shape + (k,)`` or ``(ndof, k)``).

        Accumulates in the type a CSR product would (the promotion of the
        weight and input dtypes, at least FP32), then casts to ``dtype``.
        """
        axes, src, dst = self.direction(which)
        arr = np.asarray(x)
        dtype = arr.dtype if dtype is None else np.dtype(dtype)
        arr = arr.astype(dtype, copy=False)
        batch = () if arr.size == src.ndof else (arr.size // src.ndof,)
        acc = np.result_type(self.dtype, dtype, np.float32)
        y = _tensor_apply(axes, arr.reshape(src.shape + (-1,)), self.dtype, acc)
        y = y.reshape(dst.field_shape + batch).astype(dtype, copy=False)
        return y if out is None else deliver(out, y, add)

    @property
    def p(self) -> sp.csr_matrix:
        """``P`` as CSR in the transfer dtype, built on each access (the
        sparse reference of the tensor-product kernels)."""
        p1 = [
            sp.csr_matrix((vals, (rows, cols)), shape=(n, coarse_axis_size(n, f)))
            for n, f in zip(self.fine.shape, self.factors)
            for rows, cols, vals in [_entries(self.kind, n, f)]
        ]
        p = sp.kron(sp.kron(p1[0], p1[1]), p1[2])
        if self.fine.ncomp > 1:
            p = sp.kron(p, sp.identity(self.fine.ncomp))
        p = sp.csr_matrix(p, dtype=np.float64)
        # kron stores explicit zeros for axes of at most three coarse
        # points; they are no part of the operator
        p.eliminate_zeros()
        return p.astype(self.dtype)

    @property
    def r(self) -> sp.csr_matrix:
        """``R = Pᵀ`` as CSR, built on each access."""
        return sp.csr_matrix(self.p.T)

    def arrays(self) -> "list[np.ndarray]":
        """Every array this transfer holds, each once."""
        seen: dict = {}
        for table in self.prolong_axes + self.restrict_axes:
            for arr in table.arrays():
                seen.setdefault(id(arr), arr)
        return list(seen.values())

    @property
    def nbytes(self) -> int:
        return int(sum(arr.nbytes for arr in self.arrays()))


def deliver(out: np.ndarray, y: np.ndarray, add: bool) -> np.ndarray:
    """Store (or add) a transfer result ``y`` into ``out``; returns ``out``."""
    if out.shape != y.shape:
        raise ValueError(f"out has shape {out.shape}, the result {y.shape}")
    if add:
        out += y
    else:
        out[...] = y
    return out


def _tensor_apply(axes, v: np.ndarray, wdtype, acc) -> np.ndarray:
    """``y[o] = sum w * v[i]`` over the tensor-product terms of each output.

    ``v`` is ``(nx, ny, nz, m)``; the trailing axis (components and batch
    columns) rides along.  Looping over the x, y and z bands in that nested
    order adds every output's terms in lexicographic input order; within a
    band, the runs of :class:`AxisTable` cover disjoint outputs, so each
    run triple is one strided multiply-add with a scalar weight, rounded
    as the CSR holds it.  The sum starts from ``+0`` like a CSR row, so an
    output with no terms reads ``+0``.
    """
    tx, ty, tz = axes
    v = v.astype(acc, copy=False)
    y = np.zeros((tx.n_out, ty.n_out, tz.n_out, v.shape[-1]), dtype=acc)
    round_w, cast = np.dtype(wdtype).type, np.dtype(acc).type
    runs_z = [run for runs in tz.runs for run in runs]
    for runs_x in tx.runs:
        for ox, ix, wx in runs_x:
            for runs_y in ty.runs:
                for oy, iy, wy in runs_y:
                    wxy, vxy, yxy = wx * wy, v[ix, iy], y[ox, oy]
                    for oz, iz, wz in runs_z:
                        dst = yxy[:, :, oz]
                        term = np.multiply(vxy[:, :, iz], cast(round_w(wxy * wz)))
                        np.add(dst, term, out=dst)
    return y


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
    uses factors > 2.  ``compute_dtype`` is the format the weights are
    rounded to.
    """
    if kind not in INTERP_1D:
        raise ValueError(f"unknown interpolation kind {kind!r}")
    coarse = fine.coarsen(factors)
    tables = [axis_tables(n, f, kind) for n, f in zip(fine.shape, factors)]
    return Transfer(
        fine=fine,
        coarse=coarse,
        factors=tuple(factors),
        kind=kind,
        dtype=np.dtype(compute_dtype),
        prolong_axes=tuple(t[0] for t in tables),
        restrict_axes=tuple(t[1] for t in tables),
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
