"""Benchmark: FP16 time-to-solution and serving latency of repro.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poisson-48 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` a separate
traced run that reports the per-layer metrics.  Every metric is printed as
``name value unit  note``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
1 when any answer fails the FP64 oracle, and 2, with no result printed, when
the repro sources are absent or the metrics differ from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, inherited by the service's worker
# processes, so the benchmark never runs more threads than the host's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def host_info(run) -> dict:
    import numpy
    import scipy
    from repro.kernels import backend_status

    model, l3 = platform.processor(), None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                model,
            )
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": backend_status(),
        **run.info,
    }


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: repro sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = declared(bool(args.trace))
    run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if sorted(run.metrics) != sorted(units):
        print(f"error: metrics {sorted(run.metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2

    print("env", json.dumps(host_info(run), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:28s} {run.metrics[name]:12.6g} {unit:6s} {run.notes.get(name, '')}")
    fail_rate = run.failed / max(1, run.attempted)
    print(f"  {'fail_rate':28s} {fail_rate:12.6g} {'ratio':6s} "
          f"{run.failed} of {run.attempted} solves or jobs failed; "
          f"max oracle residual {run.max_residual:.3g}; self-test "
          f"{'passed' if run.self_test_ok else 'FAILED'}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
