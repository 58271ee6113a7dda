"""SG-DIA (structured-grid diagonal) sparse matrix storage.

This is the format the paper's Section 3.2 argues makes FP16 worthwhile: the
nonzero pattern of a structured-grid discretization is a fixed set of
stencil offsets, so the matrix is stored as one dense coefficient array per
offset with **no per-element integer index arrays** — compressing values to
FP16 halves the entire memory footprint (Table 2), unlike CSR where the
int32/int64 indices stay full size.

Two memory layouts are supported (Section 5.1):

- ``"soa"`` (structure-of-arrays): ``data[d, i, j, k]`` — entries of the
  same stencil offset are contiguous; SIMD/vectorization friendly, and the
  layout every optimized kernel in :mod:`repro.kernels` expects;
- ``"aos"`` (array-of-structures): ``data[i, j, k, d]`` — entries of the
  same grid point are contiguous; used by the naive mixed-precision kernels
  in the Figure-7 ablation, where the strided half-precision conversion
  destroys bandwidth efficiency.

Vector-PDE problems store a dense ``r x r`` block per stencil entry
(trailing axes), matching Section 7.3's observation that block entries make
FP16 even more profitable.

Boundary convention: stencil entries whose neighbour falls outside the grid
**must be zero**.  Constructors enforce this via :meth:`zero_boundary`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..grid import Stencil, StructuredGrid, stencil as make_stencil
from ..precision import FloatFormat, finite_max_abs, get_format, truncate

__all__ = ["SGDIAMatrix", "offset_slices"]

_LAYOUTS = ("soa", "aos")


def offset_slices(
    shape: tuple[int, int, int], offset: tuple[int, int, int]
) -> tuple[tuple[slice, slice, slice], tuple[slice, slice, slice]]:
    """Destination/source slice pairs for one stencil offset.

    For ``y[i] += a[i] * x[i + offset]``: the *destination* slices select the
    rows (and the coefficient region) for which the neighbour exists; the
    *source* slices select the corresponding neighbour region of ``x``.
    Both views have identical shapes, so the update is one vectorized
    expression per offset — the SG-DIA SpMV of the paper needs no index
    arrays at all.
    """
    dst, src = [], []
    for n, d in zip(shape, offset):
        dst.append(slice(max(0, -d), n - max(0, d)))
        src.append(slice(max(0, d), n - max(0, -d)))
    return tuple(dst), tuple(src)


class SGDIAMatrix:
    """A square sparse matrix in SG-DIA format on a structured grid."""

    def __init__(
        self,
        grid: StructuredGrid,
        stencil: "Stencil | str",
        data: np.ndarray,
        layout: str = "soa",
        check: bool = True,
    ) -> None:
        if isinstance(stencil, str):
            stencil = make_stencil(stencil)
        if layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {layout!r}")
        self.grid = grid
        self.stencil = stencil
        self.layout = layout
        self.data = np.asarray(data)
        if check:
            expected = self._expected_shape(layout)
            if self.data.shape != expected:
                raise ValueError(
                    f"data shape {self.data.shape} does not match expected "
                    f"{expected} for layout {layout!r}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _expected_shape(self, layout: str) -> tuple[int, ...]:
        nx, ny, nz = self.grid.shape
        r = self.grid.ncomp
        block = (r, r) if r > 1 else ()
        if layout == "soa":
            return (self.stencil.ndiag, nx, ny, nz, *block)
        return (nx, ny, nz, self.stencil.ndiag, *block)

    @classmethod
    def zeros(
        cls,
        grid: StructuredGrid,
        stencil: "Stencil | str",
        dtype=np.float64,
        layout: str = "soa",
    ) -> "SGDIAMatrix":
        if isinstance(stencil, str):
            stencil = make_stencil(stencil)
        obj = cls.__new__(cls)
        obj.grid, obj.stencil, obj.layout = grid, stencil, layout
        obj.data = np.zeros(obj._expected_shape(layout), dtype=dtype)
        return obj

    @classmethod
    def from_constant_stencil(
        cls,
        grid: StructuredGrid,
        stencil: "Stencil | str",
        coefficients,
        dtype=np.float64,
    ) -> "SGDIAMatrix":
        """Constant-coefficient operator (e.g. the laplace27 benchmark).

        ``coefficients`` is one value (scalar grid) or one ``r x r`` block
        (vector grid) per stencil offset, in stencil order.  Boundary
        entries are zeroed (homogeneous Dirichlet truncation).
        """
        a = cls.zeros(grid, stencil, dtype=dtype)
        coefficients = np.asarray(coefficients, dtype=dtype)
        for d in range(a.stencil.ndiag):
            a.diag_view(d)[...] = coefficients[d]
        a.zero_boundary()
        return a

    # ------------------------------------------------------------------
    # basic views and properties
    # ------------------------------------------------------------------
    def diag_view(self, d: int) -> np.ndarray:
        """Writable view of the coefficient array for stencil offset ``d``.

        Shape ``(nx, ny, nz)`` (scalar) or ``(nx, ny, nz, r, r)`` (block)
        regardless of layout.
        """
        if self.layout == "soa":
            return self.data[d]
        if self.grid.ncomp == 1:
            return self.data[..., d]
        return self.data[:, :, :, d, :, :]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.ndof, self.grid.ndof)

    @property
    def ndiag(self) -> int:
        return self.stencil.ndiag

    @property
    def nnz_stored(self) -> int:
        """Stored entry count: ndiag * ncells * r^2 (incl. boundary zeros).

        This is the quantity the paper's memory-volume model charges for —
        SG-DIA stores the full rectangular coefficient arrays.
        """
        return int(self.data.size)

    @property
    def nnz(self) -> int:
        """Number of actually nonzero stored entries (the paper's #nnz)."""
        return int(np.count_nonzero(self.data))

    def value_nbytes(self, fmt: "str | FloatFormat | None" = None) -> int:
        """Bytes of floating-point payload in the given (or own) format."""
        itemsize = (
            get_format(fmt).itemsize if fmt is not None else self.data.itemsize
        )
        return self.nnz_stored * itemsize

    def max_abs(self) -> float:
        """Largest finite magnitude of the stored values."""
        return finite_max_abs(self.data)

    # ------------------------------------------------------------------
    # diagonal access
    # ------------------------------------------------------------------
    def dof_diagonal(self) -> np.ndarray:
        """Per-dof diagonal ``a_ii`` as a field array.

        Scalar grids: shape ``(nx, ny, nz)``.  Block grids: shape
        ``(nx, ny, nz, r)`` — the scalar diagonal of each diagonal block,
        which is what Algorithm 1's ``extract_diagonals`` feeds to ``Q``.
        """
        blk = self.diag_view(self.stencil.diag_index)
        if self.grid.ncomp == 1:
            return blk.copy()
        return np.einsum("...aa->...a", blk).copy()

    def diagonal_blocks(self) -> np.ndarray:
        """Full diagonal blocks ``(nx, ny, nz, r, r)`` (block grids only)."""
        if self.grid.ncomp == 1:
            raise ValueError("diagonal_blocks is only defined for block matrices")
        return self.diag_view(self.stencil.diag_index).copy()

    # ------------------------------------------------------------------
    # layout / precision transforms
    # ------------------------------------------------------------------
    def as_layout(self, layout: str) -> "SGDIAMatrix":
        """Copy into the requested layout (no-op view if already there)."""
        if layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {layout!r}")
        if layout == self.layout:
            return self
        if layout == "aos":  # soa -> aos: move diag axis after (x, y, z)
            data = np.ascontiguousarray(np.moveaxis(self.data, 0, 3))
        else:  # aos -> soa
            data = np.ascontiguousarray(np.moveaxis(self.data, 3, 0))
        return SGDIAMatrix(self.grid, self.stencil, data, layout=layout, check=False)

    def astype(self, fmt: "str | FloatFormat") -> "SGDIAMatrix":
        """Truncate values to a storage format (Algorithm 1 lines 8/11).

        Out-of-range values become ``inf`` — exactly the hazard Theorem 4.1's
        scaling exists to prevent.  BF16 returns float32-held quantized data.
        """
        return SGDIAMatrix(
            self.grid,
            self.stencil,
            truncate(self.data, fmt),
            layout=self.layout,
            check=False,
        )

    def copy(self) -> "SGDIAMatrix":
        return SGDIAMatrix(
            self.grid, self.stencil, self.data.copy(), layout=self.layout, check=False
        )

    def zero_boundary(self) -> "SGDIAMatrix":
        """Zero all entries whose neighbour is outside the grid (in place)."""
        nx, ny, nz = self.grid.shape
        for d, off in enumerate(self.stencil.offsets):
            view = self.diag_view(d)
            mask = np.zeros((nx, ny, nz), dtype=bool)
            mask[...] = True
            (dst, _) = offset_slices((nx, ny, nz), off)
            mask[dst] = False
            view[mask] = 0
        return self

    def boundary_is_zero(self) -> bool:
        """Check the boundary convention holds."""
        nx, ny, nz = self.grid.shape
        for d, off in enumerate(self.stencil.offsets):
            view = self.diag_view(d)
            (dst, _) = offset_slices((nx, ny, nz), off)
            total = np.count_nonzero(view)
            inner = np.count_nonzero(view[dst])
            if total != inner:
                return False
        return True

    # ------------------------------------------------------------------
    # two-sided diagonal scaling (structure-preserving)
    # ------------------------------------------------------------------
    def max_scaled_ratio(self) -> float:
        """``max_ij |a_ij| / sqrt(a_ii a_jj)`` over stored nonzeros.

        The input to Theorem 4.1's ``G_max``.  Requires positive per-dof
        diagonal.
        """
        diag = self.dof_diagonal().astype(np.float64)
        if np.any(diag <= 0):
            raise ValueError(
                "max_scaled_ratio requires a strictly positive diagonal "
                "(M-matrix assumption of Theorem 4.1)"
            )
        sqrt_d = np.sqrt(diag)
        best = 0.0
        for d, off in enumerate(self.stencil.offsets):
            dst, src = offset_slices(self.grid.shape, off)
            vals = np.abs(self.diag_view(d)[dst].astype(np.float64))
            if self.grid.ncomp == 1:
                denom = sqrt_d[dst] * sqrt_d[src]
            else:
                denom = sqrt_d[dst][..., :, None] * sqrt_d[src][..., None, :]
            with np.errstate(invalid="ignore"):
                ratio = np.where(vals > 0, vals / denom, 0.0)
            if ratio.size:
                best = max(best, float(ratio.max()))
        return best

    def scaled_two_sided(self, weight: np.ndarray) -> "SGDIAMatrix":
        """Return ``W A W`` with diagonal ``W`` given as a per-dof field.

        Used with ``weight = 1/sqrt_q`` to form the scaled matrix
        ``Q^{-1/2} A Q^{-1/2}`` of Algorithm 1 line 7, and with
        ``weight = sqrt_q`` to undo it.  Structure (offsets, layout) is
        preserved; boundary zeros stay zero.
        """
        weight = np.asarray(weight)
        if weight.shape != self.grid.field_shape:
            raise ValueError(
                f"weight shape {weight.shape} must match field shape "
                f"{self.grid.field_shape}"
            )
        out = self.copy()
        if out.data.dtype != np.result_type(out.data.dtype, weight.dtype):
            out = SGDIAMatrix(
                self.grid,
                self.stencil,
                self.data.astype(np.result_type(self.data.dtype, weight.dtype)),
                layout=self.layout,
                check=False,
            )
        for d, off in enumerate(self.stencil.offsets):
            dst, src = offset_slices(self.grid.shape, off)
            view = out.diag_view(d)
            if self.grid.ncomp == 1:
                view[dst] *= weight[dst] * weight[src]
            else:
                view[dst] *= (
                    weight[dst][..., :, None] * weight[src][..., None, :]
                )
        return out

    # ------------------------------------------------------------------
    # CSR interoperability (problem generators, analysis and test
    # references — neither the setup nor the solve phase touches index
    # arrays, that is the whole point of SG-DIA)
    # ------------------------------------------------------------------
    def to_csr(self, dtype=np.float64) -> sp.csr_matrix:
        """Convert to scipy CSR (drops boundary zeros by construction)."""
        nx, ny, nz = self.grid.shape
        r = self.grid.ncomp
        grid = self.grid
        rows_list, cols_list, vals_list = [], [], []
        for d, off in enumerate(self.stencil.offsets):
            dst, src = offset_slices((nx, ny, nz), off)
            ii, jj, kk = np.meshgrid(
                np.arange(dst[0].start, dst[0].stop),
                np.arange(dst[1].start, dst[1].stop),
                np.arange(dst[2].start, dst[2].stop),
                indexing="ij",
            )
            rows = grid.cell_index(ii, jj, kk).ravel()
            cols = grid.cell_index(ii + off[0], jj + off[1], kk + off[2]).ravel()
            vals = self.diag_view(d)[dst]
            if r == 1:
                rows_list.append(rows)
                cols_list.append(cols)
                vals_list.append(np.asarray(vals, dtype=dtype).ravel())
            else:
                comp_a, comp_b = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
                rows_dof = (
                    rows[:, None, None] * r + comp_a[None, :, :]
                ).ravel()
                cols_dof = (
                    cols[:, None, None] * r + comp_b[None, :, :]
                ).ravel()
                rows_list.append(rows_dof)
                cols_list.append(cols_dof)
                vals_list.append(
                    np.asarray(vals, dtype=dtype).reshape(-1, r, r).ravel()
                )
        coo = sp.coo_matrix(
            (
                np.concatenate(vals_list),
                (np.concatenate(rows_list), np.concatenate(cols_list)),
            ),
            shape=self.shape,
        )
        csr = coo.tocsr()
        csr.eliminate_zeros()
        return csr

    @classmethod
    def from_csr(
        cls,
        a: sp.spmatrix,
        grid: StructuredGrid,
        stencil: "Stencil | str",
        dtype=np.float64,
        strict: bool = True,
    ) -> "SGDIAMatrix":
        """Re-extract SG-DIA structure from a sparse matrix.

        Pours a CSR operator on ``grid`` (e.g. the reference Galerkin
        product of :func:`repro.coarsen.galerkin_product`, whose coarse
        operators expand to at most the 3d27 pattern) into index-free
        storage.  With ``strict=True`` a nonzero entry outside the stencil raises;
        otherwise such entries are silently dropped.
        """
        if isinstance(stencil, str):
            stencil = make_stencil(stencil)
        if a.shape != (grid.ndof, grid.ndof):
            raise ValueError(
                f"matrix shape {a.shape} does not match grid ndof {grid.ndof}"
            )
        out = cls.zeros(grid, stencil, dtype=dtype)
        coo = sp.coo_matrix(a)
        if coo.nnz == 0:
            return out
        r = grid.ncomp
        rows, cols, vals = coo.row, coo.col, coo.data
        cell_r, comp_a = rows // r, rows % r
        cell_c, comp_b = cols // r, cols % r
        i1, j1, k1 = grid.cell_coords(cell_r)
        i2, j2, k2 = grid.cell_coords(cell_c)
        dx, dy, dz = i2 - i1, j2 - j1, k2 - k1
        radius = stencil.radius
        span = 2 * radius + 1
        in_box = (
            (np.abs(dx) <= radius) & (np.abs(dy) <= radius) & (np.abs(dz) <= radius)
        )
        lut = np.full(span**3, -1, dtype=np.int64)
        for d, (ox, oy, oz) in enumerate(stencil.offsets):
            lut[((ox + radius) * span + (oy + radius)) * span + (oz + radius)] = d
        key = ((dx + radius) * span + (dy + radius)) * span + (dz + radius)
        didx = np.where(in_box, lut[np.where(in_box, key, 0)], -1)
        outside = (didx < 0) & (vals != 0)
        if strict and np.any(outside):
            bad = np.flatnonzero(outside)[0]
            raise ValueError(
                f"nonzero entry at offset ({dx[bad]},{dy[bad]},{dz[bad]}) "
                f"outside stencil {stencil.name}"
            )
        keep = didx >= 0
        if r == 1:
            np.add.at(
                out.data,
                (didx[keep], i1[keep], j1[keep], k1[keep]),
                vals[keep].astype(dtype),
            )
        else:
            np.add.at(
                out.data,
                (
                    didx[keep],
                    i1[keep],
                    j1[keep],
                    k1[keep],
                    comp_a[keep],
                    comp_b[keep],
                ),
                vals[keep].astype(dtype),
            )
        return out

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, **kwargs) -> np.ndarray:
        """Sparse matrix-vector product through the active kernel backend."""
        from ..kernels import plan_for, spmv  # local import to avoid a cycle

        if "plan" not in kwargs:
            kwargs["plan"] = plan_for(self)
        return spmv(self, x, **kwargs)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SGDIAMatrix({self.grid}, stencil={self.stencil.name}, "
            f"dtype={self.data.dtype}, layout={self.layout})"
        )
