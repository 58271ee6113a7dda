"""Galerkin coarsening: the triple-matrix product ``A_c = R A P``.

This is the essential process of the multigrid setup phase (paper Figure 2:
"Coarsening — SpGEMM").  The paper's Algorithm 1 performs *all* Galerkin
coarsening in high precision before any FP16 truncation — exactly what the
setup-then-scale strategy protects — so the product is evaluated in FP64
whatever the input precision.

The setup path (:func:`galerkin_coarse_sgdia`) never leaves index-free
SG-DIA storage.  ``P = Px (x) Py (x) Pz (x) I_r`` and every fine stencil
has radius 1, so the product factorizes into one 1-D Galerkin product
``Pᵀ T P`` per coarsened axis, applied to the tridiagonal couplings ``T``
along that axis and batched over the other axes, the cross offsets and
the ``r x r`` blocks.  The operator lives in a dense 3x3x3 "box" of
coefficient arrays (one per offset in ``[-1, 1]^3``); each axis pass is a
handful of strided multiply-adds, and the coarse box is read back into the
3d27 pattern (radius-1 stencils with factor-2/-4 coarsening stay within it,
the expansion noted in the paper's Table 3 footnote) or collapsed onto a
smaller one.

:func:`galerkin_product` (scipy.sparse CSR) and :func:`collapse_to_pattern`
are kept as independent FP64 references for the test suite, together with
a constant-coefficient stencil-algebra RAP.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ..grid import StructuredGrid, stencil as make_stencil
from ..sgdia import SGDIAMatrix, offset_slices
from .transfer import AxisTable, Transfer

__all__ = [
    "galerkin_product",
    "galerkin_coarse_sgdia",
    "collapse_to_pattern",
    "constant_coefficient_coarse_stencil",
]

#: Coordinates of the 27 offsets of the radius-1 box, in stencil
#: (lexicographic) order — the C order of the box's three offset axes.
_BOX_OFFSETS = tuple(
    (dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
)


def galerkin_product(a: sp.spmatrix, transfer: Transfer) -> sp.csr_matrix:
    """``A_c = R A P`` in FP64 CSR."""
    a = sp.csr_matrix(a, dtype=np.float64)
    p = transfer.p.astype(np.float64)
    r = transfer.r.astype(np.float64)
    coarse = (r @ a) @ p
    coarse = sp.csr_matrix(coarse)
    coarse.eliminate_zeros()
    return coarse


def galerkin_coarse_sgdia(
    a_fine: SGDIAMatrix,
    transfer: Transfer,
    coarse_pattern: str = "3d27",
    collapse: bool = False,
) -> SGDIAMatrix:
    """One Galerkin coarsening step, returning the coarse SG-DIA operator.

    The structured FP64 product described in the module docstring; no
    index array is built.  ``collapse=True`` moves every product entry
    outside ``coarse_pattern`` onto retained neighbours, exactly as
    :func:`collapse_to_pattern` does (row-sum preserving non-Galerkin
    sparsification in the spirit of Falgout & Schroder 2014, which the
    paper cites for aggressive coarsening); with ``collapse=False`` an
    out-of-pattern nonzero raises.
    """
    grid = a_fine.grid
    if (grid.shape, grid.ncomp) != (transfer.fine.shape, transfer.fine.ncomp):
        raise ValueError(
            f"transfer from grid {transfer.fine.shape}x{transfer.fine.ncomp} "
            f"does not match operator grid {grid.shape}x{grid.ncomp}"
        )
    target = make_stencil(coarse_pattern)
    for st in (a_fine.stencil, target):
        if st.radius > 1:
            raise ValueError(
                f"structured Galerkin product needs radius-1 stencils, "
                f"got {st.name} of radius {st.radius}"
            )
    box = _load_box(a_fine)
    wdtype = transfer.dtype.str
    for axis, factor in enumerate(transfer.factors):
        if factor > 1:
            box = _coarsen_axis(
                box, axis, factor,
                _axis_terms(transfer.prolong_axes[axis], factor, wdtype),
            )
    if np.may_share_memory(box, a_fine.data):  # no axis coarsened
        box = box.copy()
    if collapse:
        _collapse_box(box, target)
    else:
        for off in _BOX_OFFSETS:
            if off not in target and np.any(box[_box_index(off)]):
                raise ValueError(
                    f"nonzero entry at offset {off} outside stencil {target.name}"
                )
    if target.ndiag == len(_BOX_OFFSETS):  # 3d27: the box is the payload
        data = box.reshape((len(_BOX_OFFSETS),) + box.shape[3:])
    else:
        data = np.stack([box[_box_index(off)] for off in target.offsets])
    return SGDIAMatrix(transfer.coarse, target, data, check=False)


def _load_box(a: SGDIAMatrix) -> np.ndarray:
    """FP64 box ``(3, 3, 3, nx, ny, nz[, r, r])`` of ``a``'s coefficients.

    ``box[dx+1, dy+1, dz+1]`` holds the entries at offset ``(dx, dy, dz)``
    whose neighbour exists, as the CSR operator holds them.  An FP64 SOA
    3d27 payload that already keeps the boundary convention *is* the box:
    it is returned as a view, which the caller must not write.
    """
    grid = a.grid
    if (
        a.stencil.offsets == _BOX_OFFSETS
        and a.layout == "soa"
        and a.dtype == np.float64
        and not any(
            _boundary_nonzero(a.data[d], grid.shape, off)
            for d, off in enumerate(_BOX_OFFSETS)
        )
    ):
        return a.data.reshape((3, 3, 3) + a.data.shape[1:])
    block = (grid.ncomp, grid.ncomp) if grid.ncomp > 1 else ()
    box = np.zeros((3, 3, 3) + grid.shape + block)
    for d, off in enumerate(a.stencil.offsets):
        dst, _ = offset_slices(grid.shape, off)
        box[_box_index(off) + dst] = a.diag_view(d)[dst]
    return box


def _boundary_nonzero(view: np.ndarray, shape, off) -> bool:
    """Whether one offset's array has a nonzero whose neighbour is outside
    the grid (those lie on the boundary planes the offset points out of)."""
    for ax, (n, c) in enumerate(zip(shape, off)):
        if c:
            idx = [slice(None)] * 3
            idx[ax] = 0 if c < 0 else n - 1
            if np.any(view[tuple(idx)]):
                return True
    return False


def _box_index(off: tuple[int, int, int]) -> tuple[int, int, int]:
    return (off[0] + 1, off[1] + 1, off[2] + 1)


@lru_cache(maxsize=256)
def _axis_terms(table: AxisTable, factor: int, wdtype: str) -> tuple:
    """The 1-D Galerkin product ``Pᵀ T P`` of a tridiagonal ``T`` as terms.

    ``P`` is the ``(n, nc)`` 1-D interpolation of a transfer's prolongation
    ``table`` (tables are shared per ``(n, factor, kind)``, so this cache
    keys on the table itself), with weights rounded to the transfer's dtype
    ``wdtype``.  Each term ``(o, oc, q, lo, hi, coef)`` (box indices ``o``,
    ``oc`` in ``0..2``) adds ``coef[I - lo] * T_o[factor*I + q]`` to the
    coarse diagonal ``oc`` at coarse rows ``lo <= I < hi``, where ``T_o``
    is the fine diagonal ``o``.  This covers the clamp rows past the last
    coarse point.  A weight pair coupling coarse points more than one
    apart raises, so the product is never silently truncated.
    """
    n, nc = table.n_out, table.n_in
    wround = np.dtype(wdtype).type
    rows = [[(c, float(wround(w))) for c, w in table.terms(i)] for i in range(n)]
    coefs: dict[tuple[int, int, int], np.ndarray] = {}
    for i in range(n):
        for o in (-1, 0, 1):
            if not 0 <= i + o < n:
                continue
            for c1, w1 in rows[i]:
                for c2, w2 in rows[i + o]:
                    if abs(c2 - c1) > 1:
                        raise ValueError(
                            f"interpolation with factor {factor} on {n} "
                            f"points couples coarse points {c1} and {c2}: "
                            "the coarse operator would exceed radius 1"
                        )
                    key = (o + 1, c2 - c1 + 1, i - factor * c1)
                    coefs.setdefault(key, np.zeros(nc))[c1] = w1 * w2
    terms = []
    for (o, oc, q), coef in sorted(coefs.items()):
        nz = np.flatnonzero(coef)
        if nz.size:
            lo, hi = int(nz[0]), int(nz[-1]) + 1
            sub = coef[lo:hi]
            sub.setflags(write=False)
            terms.append((o, oc, q, lo, hi, sub))
    return tuple(terms)


def _coarsen_axis(box: np.ndarray, axis: int, factor: int, terms) -> np.ndarray:
    """Apply the 1-D Galerkin product along ``axis`` to the whole box.

    Box axis ``axis`` holds the coupling offset along ``axis`` and box axis
    ``3 + axis`` the position; all other axes ride along as a batch.
    """
    shape = list(box.shape)
    shape[3 + axis] = -(-shape[3 + axis] // factor)
    out = np.zeros(shape)
    # coefficients broadcast over the position axis of a box slice that has
    # lost its offset axis
    tail = (1,) * (box.ndim - 4 - axis)
    src = [slice(None)] * box.ndim
    dst = [slice(None)] * box.ndim
    for o, oc, q, lo, hi, coef in terms:
        src[axis], dst[axis] = o, oc
        src[3 + axis] = slice(factor * lo + q, factor * (hi - 1) + q + 1, factor)
        dst[3 + axis] = slice(lo, hi)
        out[tuple(dst)] += coef.reshape((-1,) + tail) * box[tuple(src)]
    return out


def _collapse_box(box: np.ndarray, target) -> None:
    """:func:`collapse_to_pattern` on the box, one offset at a time.

    A dropped negative entry at offset ``d`` is split equally over the face
    offsets of ``target`` it decomposes into; a dropped positive entry, or
    one with no retained face offset, goes to the diagonal.  The targets of
    ``d`` do not depend on the cell, and each lies between the cell and its
    ``d``-neighbour, so it exists wherever the dropped entry does.
    """
    diag = box[1, 1, 1]
    for off in _BOX_OFFSETS:
        if off in target:
            continue
        vals = box[_box_index(off)]
        faces = [
            tuple(c if k == ax else 0 for k in range(3))
            for ax, c in enumerate(off)
            if c
        ]
        faces = [face for face in faces if face in target]
        if faces:
            neg = np.minimum(vals, 0.0)
            share = neg / len(faces)
            for face in faces:
                box[_box_index(face)] += share
            diag += vals - neg
        else:
            diag += vals
        vals[...] = 0.0


def collapse_to_pattern(
    a: sp.spmatrix, grid: StructuredGrid, pattern: str
) -> sp.csr_matrix:
    """Collapse entries outside a stencil pattern onto retained neighbours.

    Each dropped entry at offset ``(dx, dy, dz)`` is distributed equally
    over the face offsets it decomposes into (``(1,1,0)`` splits between
    ``(1,0,0)`` and ``(0,1,0)``); offsets with no retained face component
    fall back to the diagonal.  Row sums are preserved exactly (the action
    on the constant vector, which Poisson-like coarse operators need), the
    sign structure of M-matrices is kept, and — unlike diagonal lumping —
    the diagonal cannot be driven non-positive by strong dropped couplings.
    """
    st = make_stencil(pattern)
    coo = sp.coo_matrix(a, copy=True)
    r = grid.ncomp
    cell_r = coo.row // r
    comp_c = coo.col % r
    cell_c = coo.col // r
    i1, j1, k1 = grid.cell_coords(cell_r)
    i2, j2, k2 = grid.cell_coords(cell_c)
    d_all = np.stack([i2 - i1, j2 - j1, k2 - k1], axis=1)
    offs = set(st.offsets)
    inside = np.fromiter(
        (tuple(d) in offs for d in d_all), dtype=bool, count=coo.nnz
    )
    rows_list = [coo.row[inside]]
    cols_list = [coo.col[inside]]
    vals_list = [coo.data[inside]]
    out_idx = np.flatnonzero(~inside)
    if out_idx.size:
        for idx in out_idx:
            row = int(coo.row[idx])
            val = coo.data[idx]
            d = d_all[idx]
            targets = []
            # sign-aware: negative (M-matrix-like) couplings strengthen the
            # face couplings they decompose into; positive dropped mass goes
            # to the diagonal, so the diagonal can only grow
            if val < 0:
                for ax in range(3):
                    if d[ax] != 0:
                        unit = [0, 0, 0]
                        unit[ax] = 1 if d[ax] > 0 else -1
                        if tuple(unit) in offs:
                            targets.append(tuple(unit))
            if not targets:
                targets = [(0, 0, 0)]  # fall back to the diagonal
            w = val / len(targets)
            ci, cj, ck = i1[idx], j1[idx], k1[idx]
            for (ux, uy, uz) in targets:
                tgt_cell = grid.cell_index(ci + ux, cj + uy, ck + uz)
                rows_list.append(np.array([row]))
                cols_list.append(
                    np.array([int(tgt_cell) * r + int(comp_c[idx])])
                )
                vals_list.append(np.array([w]))
    kept = sp.coo_matrix(
        (
            np.concatenate(vals_list),
            (np.concatenate(rows_list), np.concatenate(cols_list)),
        ),
        shape=coo.shape,
    ).tocsr()
    kept.eliminate_zeros()
    return kept


def constant_coefficient_coarse_stencil(
    fine_coeffs: dict[tuple[int, int, int], float],
    factors: tuple[int, int, int] = (2, 2, 2),
) -> dict[tuple[int, int, int], float]:
    """Interior coarse stencil of a constant-coefficient Galerkin product.

    Computes ``(R A P)`` entries for an infinite grid by direct convolution
    over 1-D linear-interpolation weights: coarse entry at offset ``O`` is

        sum_{f1, f2} w(f1) * a(f2 - f1) * w(f2 - factor*O),

    with ``w`` the tensor-product interpolation weights.  Used as an
    independent cross-check of the sparse-matrix RAP on interior cells.
    """

    def w1d(f: int, fac: int) -> float:
        if fac == 1:
            return 1.0 if f == 0 else 0.0
        a = abs(f)
        return max(0.0, 1.0 - a / fac)

    def w(off: tuple[int, int, int]) -> float:
        return (
            w1d(off[0], factors[0]) * w1d(off[1], factors[1]) * w1d(off[2], factors[2])
        )

    reach = [f - 1 if f > 1 else 0 for f in factors]
    out: dict[tuple[int, int, int], float] = {}
    span = [range(-r, r + 1) for r in reach]
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            for oz in (-1, 0, 1):
                acc = 0.0
                for f1x in span[0]:
                    for f1y in span[1]:
                        for f1z in span[2]:
                            w1 = w((f1x, f1y, f1z))
                            if w1 == 0.0:
                                continue
                            for (ax, ay, az), aval in fine_coeffs.items():
                                f2 = (f1x + ax, f1y + ay, f1z + az)
                                rel = (
                                    f2[0] - factors[0] * ox,
                                    f2[1] - factors[1] * oy,
                                    f2[2] - factors[2] * oz,
                                )
                                w2 = w(rel)
                                if w2 != 0.0:
                                    acc += w1 * aval * w2
                if acc != 0.0:
                    out[(ox, oy, oz)] = acc
    return out
