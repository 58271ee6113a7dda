"""Kernel-level benchmark: pre-plan vs planned kernels, per backend.

``repro bench --kernels`` measures the three hot kernels of the paper's
profile — SpMV, SymGS (forward+backward colored sweeps), and wavefront
SpTRSV — in their *pre-plan* form (per-call symbolic work, the code path
used before the execution-plan layer) against the *planned* form
(:class:`~repro.kernels.plan.KernelPlan` slice/gather tables + scratch
buffers), for every available backend and for FP32 vs FP16-stored
payloads.  It also verifies the setup-vs-apply contract end to end: after
``mg_setup`` no V-cycle may trigger plan construction (asserted through
the ``kernel.plan.builds`` metric of the existing observability layer).

The result is a schema-valid ``BENCH_kernels.json`` snapshot — the repo's
first kernel-level datapoints on the bench trajectory — whose ``extra``
section carries the full per-kernel/per-backend/per-payload grid.
"""

from __future__ import annotations

import numpy as np

from ..kernels import (
    available_backends,
    backend_status,
    compute_diag_inv,
    get_backend,
    gs_sweep_colored,
    plan_for,
    spmv_plain,
    sptrsv,
    use_backend,
)
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from .bytes_model import spmv_volume, sptrsv_volume, symgs_volume
from .timing import measure

__all__ = ["run_kernel_bench", "DEFAULT_SHAPE"]

DEFAULT_SHAPE = (64, 64, 64)
FAST_SHAPE = (16, 16, 12)

#: Cycles run (after one warm-up) while asserting zero plan construction.
_HOT_LOOP_CYCLES = 3


def _payloads(a_high):
    """FP32- and FP16-stored copies of a high-precision operator.

    The FP16 copy is diagonally scaled first (Algorithm 1) — real-world
    operators like ``rhd`` have diagonals outside the FP16 range, and
    truncating unscaled would produce zero/inf pivots rather than a
    representative kernel payload.
    """
    from ..precision.scaling import DiagonalScaling, choose_g

    g = choose_g(a_high.max_scaled_ratio(), "fp16")
    scaling = DiagonalScaling.from_diagonal(a_high.dof_diagonal(), g)
    inv_sqrt_q = (1.0 / scaling.sqrt_q).astype(np.float64)
    scaled = a_high.scaled_two_sided(inv_sqrt_q)
    return {"fp32": a_high.astype("fp32"), "fp16": scaled.astype("fp16")}


def _bench_kernels_for_backend(a27, a7, repeats, rng):
    """Time pre-plan vs planned kernels under the *current* backend."""
    results = []
    be = get_backend()

    for payload_name, a in _payloads(a27).items():
        plan = plan_for(a)
        shape = a.grid.field_shape
        x = rng.standard_normal(shape).astype(np.float32)
        b = rng.standard_normal(shape).astype(np.float32)
        dinv = compute_diag_inv(a, np.float32)

        def spmv_pre():
            spmv_plain(a, x, compute_dtype=np.float32)

        def spmv_post():
            spmv_plain(a, x, compute_dtype=np.float32, plan=plan)

        def symgs_pre():
            gs_sweep_colored(a, b, x, dinv, forward=True)
            gs_sweep_colored(a, b, x, dinv, forward=False)

        def symgs_post():
            gs_sweep_colored(a, b, x, dinv, forward=True, plan=plan)
            gs_sweep_colored(a, b, x, dinv, forward=False, plan=plan)

        for kernel, pre, post, volume in (
            ("spmv", spmv_pre, spmv_post, spmv_volume),
            ("symgs", symgs_pre, symgs_post, symgs_volume),
        ):
            # jit backends compile on first planned call; measure()'s
            # warmup round absorbs both compilation and scratch allocation
            warmup = 2 if be.jit else 1
            results.append(
                {
                    "kernel": kernel,
                    "backend": be.name,
                    "payload": payload_name,
                    "pre_s": measure(pre, warmup=1, repeats=repeats),
                    "post_s": measure(post, warmup=warmup, repeats=repeats),
                    "bytes": volume(a.nnz_stored, a.grid.ndof, a.data.itemsize),
                }
            )

    for payload_name, a in _payloads(a7).items():
        plan = plan_for(a)
        bvec = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        dinv = compute_diag_inv(a, np.float32)

        def trsv_pre():
            sptrsv(a, bvec, lower=True, part="lower", diag_inv=dinv)

        def trsv_post():
            sptrsv(a, bvec, lower=True, part="lower", diag_inv=dinv, plan=plan)

        warmup = 2 if be.jit else 1
        results.append(
            {
                "kernel": "sptrsv",
                "backend": be.name,
                "payload": payload_name,
                "pre_s": measure(trsv_pre, warmup=1, repeats=repeats),
                "post_s": measure(trsv_post, warmup=warmup, repeats=repeats),
                "bytes": sptrsv_volume(a.nnz_stored, a.grid.ndof, a.data.itemsize),
            }
        )

    for r in results:
        r["speedup"] = r["pre_s"] / r["post_s"] if r["post_s"] > 0 else None
        r["post_gbps"] = r["bytes"] / r["post_s"] / 1e9 if r["post_s"] > 0 else None
    return results


def _hot_loop_check(hierarchy, b) -> dict:
    """Prove the V-cycle hot loop performs zero plan construction.

    One warm application binds every lazily-bound plan; the instrumented
    applications that follow must not build anything (``kernel.plan.builds``
    delta stays 0) — the plan layer's setup-vs-apply contract.
    """
    hierarchy.precondition(b)  # warm: binds plans, allocates scratch
    with _metrics.collecting() as m:
        for _ in range(_HOT_LOOP_CYCLES):
            hierarchy.precondition(b)
    builds = int(m.get("kernel.plan.builds"))
    return {
        "cycles": _HOT_LOOP_CYCLES,
        "plan_builds_during_cycles": builds,
        "sweep_calls": int(m.get("kernel.sweep.calls")),
        "spmv_calls": int(m.get("kernel.spmv.calls")),
        "ok": builds == 0,
    }


def run_kernel_bench(
    shape=DEFAULT_SHAPE,
    repeats: int = 5,
    fast: bool = False,
    config_name: str = "K64P32D16-setup-scale",
    backends=None,
    seed: int = 0,
    maxiter: int = 60,
):
    """Run the kernel benchmark; returns ``(snapshot_doc, ok)``.

    ``ok`` reports the acceptance gates: planned numpy SymGS and SpTRSV at
    least as fast as the pre-plan kernels, zero plan construction in the
    V-cycle hot loop, and — when the ``c`` backend is benchmarked — its
    FP16-stored SpMV faster than its FP32-stored one (the paper's claim at
    kernel level).  The c FP16/FP32 SymGS time ratio is reported, not
    gated.  ``fast`` shrinks the problem for CI smoke runs and skips the
    speed gates (timing noise on tiny grids is not signal), but never the
    hot-loop gate.
    """
    from ..mg import mg_setup
    from ..observability.snapshot import build_snapshot
    from ..precision import parse_config
    from ..problems import build_problem
    from ..solvers import solve

    if fast:
        shape = FAST_SHAPE if tuple(shape) == DEFAULT_SHAPE else shape
        repeats = min(repeats, 2)
    shape = tuple(shape)
    rng = np.random.default_rng(seed)

    requested = list(backends) if backends else list(available_backends())
    usable = [n for n in requested if n in available_backends()]
    skipped = sorted(set(requested) - set(usable))

    prob27 = build_problem("laplace27", shape=shape, seed=seed)
    prob7 = build_problem("rhd", shape=shape, seed=seed)
    a27 = prob27.a
    a7 = prob7.a

    results = []
    for name in usable:
        with use_backend(name):
            results.extend(_bench_kernels_for_backend(a27, a7, repeats, rng))

    # --- end-to-end: instrumented setup + solve + hot-loop contract ------
    config = parse_config(config_name)
    with _trace.tracing() as tracer, _metrics.collecting() as metrics:
        hierarchy = mg_setup(a27, config, prob27.mg_options)
        result = solve(
            prob27.solver,
            a27,
            prob27.b,
            preconditioner=hierarchy.precondition,
            rtol=prob27.rtol,
            maxiter=maxiter,
        )
    hot_loop = _hot_loop_check(
        hierarchy, np.asarray(prob27.b, dtype=np.float32)
    )

    by_key = {
        (r["kernel"], r["backend"], r["payload"]): r for r in results
    }

    def _speedup(kernel, backend="numpy", payload="fp32"):
        r = by_key.get((kernel, backend, payload))
        return r["speedup"] if r else None

    gates = {
        "hot_loop_zero_builds": hot_loop["ok"],
        "symgs_planned_not_slower": True,
        "sptrsv_planned_not_slower": True,
    }
    if not fast:
        sg = _speedup("symgs")
        tr = _speedup("sptrsv")
        gates["symgs_planned_not_slower"] = sg is not None and sg >= 1.0
        gates["sptrsv_planned_not_slower"] = tr is not None and tr >= 1.0
    fp16_over_fp32 = {
        kernel: by_key[(kernel, "c", "fp16")]["post_s"]
        / by_key[(kernel, "c", "fp32")]["post_s"]
        for kernel in ("spmv", "symgs")
    } if "c" in usable else {}
    if fp16_over_fp32 and not fast:
        gates["c_fp16_spmv_beats_fp32"] = fp16_over_fp32["spmv"] < 1.0
    ok = all(gates.values())

    kernel_times = {"stat": "best", "repeats": repeats}
    for r in results:
        stem = f"{r['kernel']}_{r['payload']}_{r['backend']}"
        kernel_times[f"{stem}_preplan_s"] = r["pre_s"]
        kernel_times[f"{stem}_planned_s"] = r["post_s"]

    doc = build_snapshot(
        prob27.name,
        "kernels",  # -> BENCH_kernels.json
        shape,
        result,
        hierarchy,
        tracer=tracer,
        metrics=metrics,
        kernel_times=kernel_times,
        extra={
            "kernel_bench": {
                "shape": list(shape),
                "repeats": repeats,
                "fast": bool(fast),
                "precision_config": config.name,
                "backends": usable,
                "backends_skipped": skipped,
                "backend_status": backend_status(),
                "results": results,
                "hot_loop": hot_loop,
                "c_fp16_over_fp32": fp16_over_fp32,
                "gates": gates,
                "plan_finest": hierarchy.finest.plan.describe(),
            }
        },
    )
    return doc, ok


def format_results(doc) -> str:
    """Aligned text table of the per-kernel results in a snapshot doc."""
    bench = doc["extra"]["kernel_bench"]
    lines = [
        f"kernel bench @ {'x'.join(str(n) for n in bench['shape'])} "
        f"(repeats={bench['repeats']}, backends: {', '.join(bench['backends'])})",
        f"{'kernel':<8} {'payload':<8} {'backend':<8} "
        f"{'pre-plan':>12} {'planned':>12} {'speedup':>8} {'GB/s':>7}",
    ]
    for r in bench["results"]:
        spd = f"{r['speedup']:.2f}x" if r["speedup"] else "n/a"
        gbps = f"{r['post_gbps']:.2f}" if r.get("post_gbps") else "n/a"
        lines.append(
            f"{r['kernel']:<8} {r['payload']:<8} {r['backend']:<8} "
            f"{r['pre_s'] * 1e3:>10.3f}ms {r['post_s'] * 1e3:>10.3f}ms "
            f"{spd:>8} {gbps:>7}"
        )
    for kernel, ratio in bench.get("c_fp16_over_fp32", {}).items():
        lines.append(f"c {kernel} FP16/FP32 time: {ratio:.2f}")
    hot = bench["hot_loop"]
    lines.append(
        f"hot loop: {hot['plan_builds_during_cycles']} plan builds over "
        f"{hot['cycles']} V-cycles ({'OK' if hot['ok'] else 'FAIL'})"
    )
    for gate, passed in bench["gates"].items():
        if not passed:
            lines.append(f"GATE FAILED: {gate}")
    return "\n".join(lines)
