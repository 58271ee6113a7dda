"""Multigrid setup phase — Algorithm 1 (``MG_setup_for_FP16``).

Three strategies are implemented, matching the paper's Figure-6 ablation:

``setup-then-scale`` (the contribution)
    Galerkin-coarsen the *exact* operator chain in FP64, then, per level,
    scale by ``Q_i = diag(A_i)/G_i`` and truncate to the storage precision.
    Truncation error never enters the triple-matrix-product chain.

``scale-then-setup`` (the ablation baseline, Section 4.3)
    Scale the finest operator once, truncate it to storage precision, and
    build every coarser operator from the already-quantized data, truncating
    again at each level.  FP16 quantization error (and underflow of weak
    interface couplings) compounds down the RAP chain — the mechanism behind
    the non-convergence the paper reports for rhd / rhd-3T.

``none``
    Direct truncation without scaling; unsafe (``inf`` -> ``NaN``) whenever
    values exceed the FP16 range.

``shift_levid`` (Section 4.3) switches the storage format back to the
compute precision from a given level downward, whatever the strategy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..coarsen import build_transfer, choose_coarsen_factors, galerkin_coarse_sgdia
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import (
    DiagonalScaling,
    PrecisionConfig,
    choose_g,
    count_subnormal,
    range_counts,
)
from ..sgdia import SGDIAMatrix, StoredMatrix, offset_slices
from ..smoothers import CoarseDirectSolver, Smoother, make_smoother
from .hierarchy import MGHierarchy
from .level import Level
from .options import MGOptions

__all__ = [
    "mg_setup",
    "mg_setup_from_chain",
    "build_level_payload",
    "directional_strengths",
    "LevelSetupStats",
    "SetupDiagnostics",
]

#: With ``shift_levid="auto"``: fraction of nonzeros allowed to flush to
#: zero in the storage format before a level (and all coarser levels)
#: switches to the compute precision.
_AUTO_SHIFT_UNDERFLOW_FRACTION = 0.01


@dataclass(frozen=True)
class LevelSetupStats:
    """What truncation faced at one level (Algorithm 1 lines 5-12).

    ``n_overflow``/``n_underflow`` count high-precision values (after any
    per-level scaling) that exceed / flush to zero in the level's *nominal*
    storage format; ``storage`` is the format actually used, which differs
    from the nominal one when the auto shift tripped.  These are exactly the
    numbers the setup phase used to swallow silently.
    """

    index: int
    storage: str
    scaled: bool
    g: "float | None"
    n_values: int
    n_nonzero: int
    n_overflow: int
    n_underflow: int
    n_nonfinite: int
    auto_shift_tripped: bool = False

    @property
    def overflow_fraction(self) -> float:
        return self.n_overflow / self.n_nonzero if self.n_nonzero else 0.0

    @property
    def underflow_fraction(self) -> float:
        return self.n_underflow / self.n_nonzero if self.n_nonzero else 0.0


@dataclass(frozen=True)
class SetupDiagnostics:
    """Per-hierarchy setup audit, consumed by ``repro.resilience.health``.

    ``chain_truncated`` flags a scale-then-setup chain that stopped
    coarsening because quantization overflow produced non-finite values;
    ``coarse_direct_fallback`` flags a requested direct coarse solve that
    was replaced by a smoother because the coarsest operator was not
    finite.  ``auto_shift_level`` is the first level the underflow trigger
    shifted to compute precision (``None`` when it never tripped).
    """

    levels: tuple[LevelSetupStats, ...] = ()
    chain_truncated: bool = False
    coarse_direct_fallback: bool = False
    auto_shift_level: "int | None" = None


def _build_level_stored(a_high: SGDIAMatrix, storage_fmt, config):
    """Algorithm-1 per-level truncation (lines 5-12) for one level.

    Returns ``(stored, smoother_high)`` where ``smoother_high`` is the
    high-precision operator *in the space the payload represents* (i.e.
    diagonally scaled when the need-to-scale branch was taken).
    """
    if config.scaling == "setup-then-scale":
        need = config.scale_mode == "always" or (
            config.scale_mode == "auto"
            and a_high.max_abs() > storage_fmt.max
        )
        if need:
            with _trace.span("scale"):
                _metrics.incr("setup.scale.calls")
                ratio = a_high.max_scaled_ratio()
                g = choose_g(ratio, storage_fmt, safety=config.g_safety)
                scaling = DiagonalScaling.from_diagonal(
                    a_high.dof_diagonal(), g, compute=config.compute
                )
                inv_sqrt_q = (1.0 / scaling.sqrt_q).astype(np.float64)
                scaled_high = a_high.scaled_two_sided(inv_sqrt_q)
            with _trace.span("truncate", storage=storage_fmt.name):
                _metrics.incr("setup.truncate.calls")
                stored = StoredMatrix(
                    matrix=scaled_high.astype(storage_fmt),
                    scaling=scaling,
                    compute=config.compute,
                    storage=storage_fmt,
                )
            return stored, scaled_high
    # 'none' and 'scale-then-setup' (already scaled/quantized), and the
    # in-range setup-then-scale branch: direct truncation
    with _trace.span("truncate", storage=storage_fmt.name):
        _metrics.incr("setup.truncate.calls")
        stored = StoredMatrix(
            matrix=a_high.astype(storage_fmt),
            scaling=None,
            compute=config.compute,
            storage=storage_fmt,
        )
    return stored, a_high


def build_level_payload(
    a_high: SGDIAMatrix,
    storage_fmt,
    config: PrecisionConfig,
    options: "MGOptions | None" = None,
    is_coarsest: bool = False,
):
    """Materialize one level's ``(stored, smoother)`` in a storage format.

    The single-level slice of Algorithm 1 (lines 5-12 plus smoother
    setup), exposed for the runtime precision policy: escalating or
    demoting a level re-runs exactly this — scale-if-needed, truncate to
    the target format, rebuild the level smoother against the payload —
    from that level's high-precision operator, leaving the rest of the
    hierarchy untouched.  The result is identical to what a full
    ``mg_setup`` under a config nominating ``storage_fmt`` for this level
    would have produced from the same chain.
    """
    options = options or MGOptions()
    stored, smoother_high = _build_level_stored(a_high, storage_fmt, config)
    smoother = _make_level_smoother(options, a_high, is_coarsest)
    smoother.setup(smoother_high, stored)
    return stored, smoother


def directional_strengths(a: SGDIAMatrix) -> tuple[float, float, float]:
    """Mean face-coupling magnitude per axis, used for auto semicoarsening.

    Strong coupling along an axis means errors are smoothed well along it
    and it can be coarsened; an axis whose coupling is much weaker than the
    strongest one should be kept fine (classic semicoarsening criterion).
    """
    out = []
    for ax in range(3):
        vals = []
        for d, off in enumerate(a.stencil.offsets):
            if abs(off[ax]) == 1 and all(
                off[other] == 0 for other in range(3) if other != ax
            ):
                dst, _ = offset_slices(a.grid.shape, off)
                v = np.abs(a.diag_view(d)[dst].astype(np.float64))
                if v.size:
                    vals.append(float(v.mean()))
        out.append(float(np.mean(vals)) if vals else 0.0)
    return tuple(out)


def _pick_factors(
    a: SGDIAMatrix, options: MGOptions
) -> tuple[int, int, int]:
    grid = a.grid
    if options.coarsen == "full":
        return choose_coarsen_factors(grid, anisotropy_weights=None)
    if options.coarsen == "semi-z":
        base = choose_coarsen_factors(grid, anisotropy_weights=None)
        return (base[0], base[1], 1)
    weights = directional_strengths(a)
    if max(weights) == 0.0:
        weights = None
    return choose_coarsen_factors(
        grid, anisotropy_weights=weights, semi_threshold=options.semi_threshold
    )


def _apply_factor(
    factors: tuple[int, int, int], factor: int
) -> tuple[int, int, int]:
    return tuple(f if f == 1 else factor for f in factors)


def _make_level_smoother(
    options: MGOptions, a: SGDIAMatrix, is_coarsest: bool
) -> Smoother:
    if is_coarsest and options.coarse_solver == "direct":
        if not np.isfinite(a.data).all():
            # A quantization-overflowed chain (scale-then-setup / 'none'
            # on out-of-range data) cannot be LU-factorized; fall back to a
            # smoother so the failure surfaces as NaN in the solve, exactly
            # like the paper's diverging curves.
            return make_smoother("symgs")
        return CoarseDirectSolver()
    name = options.smoother
    # ILU0 is 3d7/scalar-specific; coarse (3d27) or block levels fall back
    # to SymGS, which supports every pattern in the library.
    if name.lower() == "ilu0" and (a.stencil.name != "3d7" or a.grid.ncomp > 1):
        name = "symgs"
        return make_smoother(name)
    return make_smoother(name, **options.smoother_kwargs)


def _build_fp64_chain(
    a0: SGDIAMatrix, options: MGOptions
) -> tuple[list[SGDIAMatrix], list]:
    """Exact (FP64) Galerkin chain: matrices and transfers."""
    mats = [a0]
    transfers = []
    a = a0
    while (
        len(mats) < options.max_levels
        and a.grid.ndof > options.min_coarse_dofs
    ):
        factors = _apply_factor(_pick_factors(a, options), options.coarsen_factor)
        if all(f == 1 for f in factors):
            break
        transfer = build_transfer(a.grid, factors, kind=options.interp)
        pattern = a0.stencil.name if options.coarse_pattern == "same" else "3d27"
        with _trace.span("galerkin", level=len(mats)):
            _metrics.incr("setup.galerkin.calls")
            a_next = galerkin_coarse_sgdia(
                a, transfer, coarse_pattern=pattern,
                collapse=options.coarse_pattern == "same",
            )
        mats.append(a_next)
        transfers.append(transfer)
        a = a_next
    return mats, transfers


def mg_setup(
    a: SGDIAMatrix,
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
    cache=None,
    policy=None,
) -> MGHierarchy:
    """Set up the FP16-ready multigrid preconditioner (Algorithm 1).

    ``cache`` is an optional :class:`repro.serve.HierarchyCache`; when
    given, the setup is served from the cache when an identical
    ``(operator, config, options)`` triple was set up before (content
    fingerprint, not object identity), and freshly built hierarchies are
    admitted for reuse.

    ``policy`` attaches a runtime precision policy to the returned
    hierarchy (an engine instance, a name, or ``True`` to resolve from
    ``config.policy``); the attached
    :class:`~repro.policy.PolicyController` is reachable as
    ``hierarchy.policy_hook`` for adaptive policies.  ``None`` (the
    default) attaches nothing — the pre-policy behavior, bit for bit.
    ``config.policy`` alone never mutates the setup output: the policy
    field participates only in cache keying and runtime attachment.
    """
    if cache is not None:
        hierarchy, _key, _src = cache.get_or_build(a, config, options)
        if policy is not None:
            from ..policy import attach_policy

            attach_policy(hierarchy, None if policy is True else policy)
        return hierarchy
    config = config or PrecisionConfig()
    options = options or MGOptions()
    t0 = time.perf_counter()

    with _trace.span("setup", config=config.name):
        a64 = a if a.dtype == np.float64 else SGDIAMatrix(
            a.grid, a.stencil, a.data.astype(np.float64), layout=a.layout, check=False
        )

        entry_scaling: "DiagonalScaling | None" = None
        if config.scaling == "scale-then-setup":
            # Scale the finest operator once (if needed), then let
            # quantization propagate down the chain.
            need = (
                config.scale_mode == "always"
                or (
                    config.scale_mode == "auto"
                    and a64.max_abs() > config.storage.max
                )
            )
            chain_root = a64
            if need:
                with _trace.span("scale", level=0):
                    _metrics.incr("setup.scale.calls")
                    ratio = a64.max_scaled_ratio()
                    g = choose_g(
                        ratio,
                        config.storage,
                        safety=config.g_safety * config.chain_headroom,
                    )
                    entry_scaling = DiagonalScaling.from_diagonal(
                        a64.dof_diagonal(), g, compute=config.compute
                    )
                    inv_sqrt_q = (1.0 / entry_scaling.sqrt_q).astype(np.float64)
                    chain_root = a64.scaled_two_sided(inv_sqrt_q)
            # Quantize the finest level *before* coarsening, and re-quantize
            # each coarse operator before the next product.
            mats, transfers, chain_truncated = _build_quantized_chain(
                chain_root, config, options
            )
        else:
            mats, transfers = _build_fp64_chain(a64, options)
            chain_truncated = False

        hierarchy = _setup_from_chain(
            mats,
            transfers,
            config,
            options,
            entry_scaling=entry_scaling,
            t0=t0,
            chain_truncated=chain_truncated,
        )
    if policy is not None:
        from ..policy import attach_policy

        attach_policy(hierarchy, None if policy is True else policy)
    return hierarchy


def mg_setup_from_chain(
    mats: list[SGDIAMatrix],
    transfers: list,
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
    entry_scaling: "DiagonalScaling | None" = None,
    t0: "float | None" = None,
    chain_truncated: bool = False,
) -> MGHierarchy:
    """Finalize a hierarchy from a prebuilt operator chain.

    This is the per-level half of Algorithm 1 (lines 4-14): scaling,
    truncation to storage precision, smoother setup.  The chain may come
    from Galerkin coarsening (:func:`mg_setup`), from geometric
    rediscretization (:mod:`repro.mg.gmg`), or from user code.
    ``len(transfers)`` must be ``len(mats) - 1``.

    Every overflow/underflow/non-finite statistic observed along the way is
    recorded in the returned hierarchy's ``diagnostics`` (it used to be
    silently swallowed); :func:`repro.resilience.health.hierarchy_health`
    folds it into the pre-solve audit, and the same per-level counts feed
    the :mod:`repro.observability` metrics registry when one is installed.
    """
    config = config or PrecisionConfig()
    options = options or MGOptions()
    with _trace.span("setup", config=config.name):
        return _setup_from_chain(
            mats,
            transfers,
            config,
            options,
            entry_scaling=entry_scaling,
            t0=t0,
            chain_truncated=chain_truncated,
        )


def _setup_from_chain(
    mats: list[SGDIAMatrix],
    transfers: list,
    config: PrecisionConfig,
    options: MGOptions,
    entry_scaling: "DiagonalScaling | None" = None,
    t0: "float | None" = None,
    chain_truncated: bool = False,
) -> MGHierarchy:
    """Span-free body shared by :func:`mg_setup` and
    :func:`mg_setup_from_chain` (each opens exactly one ``setup`` span)."""
    if t0 is None:
        t0 = time.perf_counter()
    if len(transfers) != len(mats) - 1:
        raise ValueError(
            f"need {len(mats) - 1} transfers for {len(mats)} levels, got "
            f"{len(transfers)}"
        )

    levels: list[Level] = []
    level_stats: list[LevelSetupStats] = []
    n_levels = len(mats)
    auto_shift = config.shift_levid == "auto"
    shifted = False
    auto_shift_level: "int | None" = None
    for i, a_high in enumerate(mats):
        with _trace.span("level", level=i) as level_span:
            if auto_shift:
                storage_fmt = (
                    config.compute
                    if (shifted or i < config.fp16_start_level)
                    else config.storage
                )
            else:
                storage_fmt = config.storage_format_for_level(i)
            nominal_fmt = storage_fmt
            stored, smoother_high = _build_level_stored(
                a_high, storage_fmt, config
            )
            # one audit of the payload's values serves the statistics, the
            # metrics and the auto-shift trigger
            counts = range_counts(smoother_high.data, nominal_fmt)
            n_over, n_under = counts.n_overflow, counts.n_underflow
            tripped = False
            if auto_shift and not shifted and storage_fmt is config.storage:
                # trip the shift when the (scaled) values would flush to zero
                # in the storage format beyond tolerance — the underflow
                # hazard Section 4.3 introduces shift_levid for
                n_nz = counts.n_nonzero
                if n_nz and n_under / n_nz > _AUTO_SHIFT_UNDERFLOW_FRACTION:
                    shifted = True
                    tripped = True
                    auto_shift_level = i
                    stored, smoother_high = _build_level_stored(
                        a_high, config.compute, config
                    )
                    counts = range_counts(smoother_high.data, nominal_fmt)

            n_nonfinite = counts.n_nonfinite
            if _metrics.active():
                # Exactly the LevelSetupStats numbers, as live counters —
                # traces and SetupDiagnostics must always agree.
                _metrics.incr("precision.overflow_clamp", n_over, level=i)
                _metrics.incr("precision.underflow_flush", n_under, level=i)
                _metrics.incr("precision.nonfinite", n_nonfinite, level=i)
                _metrics.incr(
                    "precision.subnormal",
                    count_subnormal(smoother_high.data, nominal_fmt),
                    level=i,
                )
            level_span.set(
                storage=stored.storage.name,
                n_overflow=n_over,
                n_underflow=n_under,
                auto_shift_tripped=tripped,
            )

            with _trace.span("smoother_setup"):
                smoother = _make_level_smoother(
                    options, a_high, i == n_levels - 1
                )
                smoother.setup(smoother_high, stored)

            level_stats.append(
                LevelSetupStats(
                    index=i,
                    storage=stored.storage.name,
                    scaled=stored.is_scaled,
                    g=stored.scaling.g if stored.is_scaled else None,
                    n_values=int(smoother_high.data.size),
                    n_nonzero=counts.n_nonzero,
                    n_overflow=n_over,
                    n_underflow=n_under,
                    n_nonfinite=n_nonfinite,
                    auto_shift_tripped=tripped,
                )
            )
            level = Level(
                index=i,
                grid=a_high.grid,
                stored=stored,
                smoother=smoother,
                transfer=transfers[i] if i < len(transfers) else None,
                high=a_high if options.keep_high else None,
                nnz_actual=a_high.nnz,
                nnz_stored=a_high.nnz_stored,
            )
            # kernel-plan construction is setup work: build (or fetch from
            # the structure cache) now so the first cycle's hot loop does
            # zero symbolic analysis
            with _trace.span("kernel_plan", level=i):
                level.plan
            levels.append(level)

    coarse_direct_fallback = options.coarse_solver == "direct" and not isinstance(
        levels[-1].smoother, CoarseDirectSolver
    )
    diagnostics = SetupDiagnostics(
        levels=tuple(level_stats),
        chain_truncated=chain_truncated,
        coarse_direct_fallback=coarse_direct_fallback,
        auto_shift_level=auto_shift_level,
    )
    setup_seconds = time.perf_counter() - t0
    return MGHierarchy(
        levels=levels,
        config=config,
        options=options,
        entry_scaling=entry_scaling,
        setup_seconds=setup_seconds,
        diagnostics=diagnostics,
    )


def _build_quantized_chain(
    a0: SGDIAMatrix, config: PrecisionConfig, options: MGOptions
) -> tuple[list[SGDIAMatrix], list, bool]:
    """Chain construction for scale-then-setup.

    Every level is truncated to its storage format *first* and the quantized
    values (cast back to FP64 — the product arithmetic itself stays high
    precision, as the paper concedes in Section 4.3) feed the next Galerkin
    product.  The returned flag reports whether the chain stopped early on
    non-finite quantized data, so diagnostics can surface it.
    """
    def quantize(m: SGDIAMatrix, lev: int) -> SGDIAMatrix:
        fmt = config.storage_format_for_level(lev)
        return SGDIAMatrix(
            m.grid,
            m.stencil,
            m.astype(fmt).data.astype(np.float64),
            layout=m.layout,
            check=False,
        )

    mats = [quantize(a0, 0)]
    transfers = []
    truncated = False
    a = mats[0]
    while (
        len(mats) < options.max_levels
        and a.grid.ndof > options.min_coarse_dofs
    ):
        if not np.isfinite(a.data).all():
            # Quantization overflowed; continuing the product chain would
            # only spread inf/NaN.  Keep the level so the solve exhibits the
            # failure (as the paper's 'none'/scale-setup curves do).
            truncated = True
            break
        factors = _apply_factor(_pick_factors(a, options), options.coarsen_factor)
        if all(f == 1 for f in factors):
            break
        transfer = build_transfer(a.grid, factors, kind=options.interp)
        pattern = a.stencil.name if options.coarse_pattern == "same" else "3d27"
        with _trace.span("galerkin", level=len(mats)):
            _metrics.incr("setup.galerkin.calls")
            a_next = galerkin_coarse_sgdia(
                a, transfer, coarse_pattern=pattern,
                collapse=options.coarse_pattern == "same",
            )
        a_next = quantize(a_next, len(mats))
        mats.append(a_next)
        transfers.append(transfer)
        a = a_next
    return mats, transfers, truncated
