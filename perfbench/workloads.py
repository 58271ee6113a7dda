"""The benchmark's workloads: seeded inputs, timed calls through repro's
public API, and an FP64 oracle that certifies every answer.

``poisson-48`` and ``rhd-32`` call ``mg_setup`` and ``solvers.solve``
directly.  ``stream-procs`` pushes a closed-loop job stream with operator
refreshes through the process-pool solver service.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import SolveTracer, Tracer, instrument_setup

#: The product configuration (FP16 storage) and its FP32-storage baseline.
DEFAULT_CONFIG = "K64P32D16-setup-scale"
FP32_CONFIG = "K64P32D32"
MAXITER = 1000
#: ``mg_setup`` repetitions behind the solver workloads' ``setup_s``.
SETUP_REPS = 3
#: Fewest timed RHS per run, whatever ``--seconds`` says.
MIN_SOLVES = 3
#: Direct FP16-vs-FP32 solve pairs on a stream's first operator.
STREAM_DIRECT_PAIRS = 24
STREAM_SHAPE = (16, 16, 8)
#: Jobs the closed-loop client keeps in flight.
OUTSTANDING = 2
#: Jobs per operator; the client quiesces and refreshes between epochs.
REFRESH_EVERY = 20
POLL_S = 0.001
DRAIN_S = 60.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def make_rhs(a, rng):
    """A fresh RHS ``b = A u*`` for a white-noise ``u*``.

    Smoothed ``u*`` (``consistent_rhs``'s default) splits rhd-32 into 75 or
    87 CG iterations by RHS, which makes a median over a few RHS jump by
    16%; white noise keeps it within 62-74 iterations.
    """
    from repro.problems import consistent_rhs

    return consistent_rhs(a, rng, smoothing=0)


def oracle_residual(csr, b, x) -> float:
    """FP64 ``||b - A x|| / ||b||`` with scipy, independent of repro's kernels."""
    b = np.asarray(b, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape != b.shape or not np.isfinite(x).all():
        return float("inf")
    return float(np.linalg.norm(b - csr @ x) / np.linalg.norm(b))


class Run:
    """Outcome of one benchmark run: counts, oracle verdicts and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_residual = 0.0
        self.self_test_ok = False
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.info: dict = {}

    def set(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note

    def certify(self, csr, b, result, rtol: float) -> bool:
        """Count one solve; it passes only if converged and the oracle agrees."""
        self.attempted += 1
        rel = oracle_residual(csr, b, result.x)
        self.max_residual = max(self.max_residual, rel)
        ok = result.status == "converged" and rel <= rtol
        if not ok:
            self.failed += 1
        return ok

    def fail(self) -> None:
        """Count one solve or job that raised or was rejected."""
        self.attempted += 1
        self.failed += 1

    def self_test(self, csr, b, x, rtol: float) -> None:
        """The oracle must reject a perturbed copy of a certified solution."""
        noise = np.random.default_rng(0).standard_normal(np.size(x))
        bad = np.ravel(x) * (1.0 + 1e-4 * noise)
        self.self_test_ok = (
            oracle_residual(csr, b, bad) > rtol and oracle_residual(csr, b, x) <= rtol
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.self_test_ok


class Direct:
    """Solves of one operator through ``mg_setup`` + ``solvers.solve``."""

    def __init__(self, run: Run, a, solver: str, rtol: float, options) -> None:
        from repro.solvers import solve

        self.run, self.a, self.solver, self.rtol, self.options = (
            run, a, solver, rtol, options,
        )
        self.csr = a.to_csr()
        self._solve = solve
        self.last = None  # (b, x) of the latest certified solve

    def setup(self, config: str):
        from repro import mg_setup, parse_config

        t0 = time.perf_counter()
        h = mg_setup(self.a, parse_config(config), self.options)
        return h, time.perf_counter() - t0

    def solve(self, precond, b, op=None, solve_fn=None):
        solve_fn = solve_fn or self._solve
        t0 = time.perf_counter()
        res = solve_fn(self.solver, op if op is not None else self.a, b,
                       preconditioner=precond, rtol=self.rtol, maxiter=MAXITER)
        dt = time.perf_counter() - t0
        if self.run.certify(self.csr, b, res, self.rtol):
            self.last = (b, res.x)
        return dt, res

    def compare(self, h16, h32, rng, seconds: float, min_solves: int) -> dict:
        """Warm up, then solve fresh seeded RHS until ``seconds`` pass.

        Each RHS is solved under the FP16 and then the FP32 hierarchy, so
        both medians cover the same RHS set under the same host conditions.
        """
        warm = make_rhs(self.a, rng)
        for h in (h16, h32):
            self.solve(h.precondition, warm)
        out = {"t16": [], "t32": [], "its": []}
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(out["t16"]) < min_solves:
            b = make_rhs(self.a, rng)
            dt, res = self.solve(h16.precondition, b)
            out["t16"].append(dt)
            out["its"].append(res.iterations)
            out["t32"].append(self.solve(h32.precondition, b)[0])
        return out

    def traced(self, h16, rng, seconds: float, min_solves: int) -> dict:
        """Per-layer metrics from a traced setup and traced solves.

        Each fresh RHS is solved by the untraced ``h16`` and then by a traced
        hierarchy of the same configuration; the paired times give
        ``trace.overhead`` under the same host conditions.
        """
        tr = Tracer()
        instrument_setup(tr)
        st = SolveTracer(tr)
        mark = tr.mark()
        h, _ = self.setup(DEFAULT_CONFIG)
        setup = tr.summary(mark)
        precond = st.instrument(h)
        op = st.operator(self.a)
        solve_fn = tr.wrap("solvers.solve", self._solve)
        warm = make_rhs(self.a, rng)
        self.solve(h16.precondition, warm)
        self.solve(precond, warm, op, solve_fn)
        per_solve, plain, traced, its = [], [], [], []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(traced) < min_solves:
            b = make_rhs(self.a, rng)
            plain.append(self.solve(h16.precondition, b)[0])
            mark = tr.mark()
            dt, res = self.solve(precond, b, op, solve_fn)
            per_solve.append(tr.summary(mark))
            traced.append(dt)
            its.append(res.iterations)

        def per(name, key="s"):
            return median([s[name][key] if name in s else 0.0 for s in per_solve])

        def total(name, key):
            return sum(s[name][key] for s in per_solve if name in s)

        def gbps(name):
            spent = total(name, "s")
            return total(name, "bytes") / spent / 1e9 if spent else 0.0

        precond_s, n_apps = total("mg.precond", "s"), total("mg.precond", "n")
        return {
            "kernels.spmv_s": per("kernels.spmv"),
            "kernels.spmv_gbps": gbps("kernels.spmv"),
            "smoothers.smooth_s.L0": per("smoothers.smooth.L0"),
            "smoothers.smooth_gbps.L0": gbps("smoothers.smooth.L0"),
            "smoothers.smooth_s.coarse": per("smoothers.smooth.coarse"),
            "smoothers.coarse_solve_s": per("smoothers.coarse_solve"),
            "smoothers.setup_s": setup["smoothers.setup"]["s"],
            "coarsen.galerkin_s": setup["coarsen.galerkin"]["s"],
            "coarsen.transfer_s": per("coarsen.transfer"),
            "coarsen.operator_complexity": h.operator_complexity(),
            "mg.precond_s": precond_s / n_apps if n_apps else 0.0,
            "mg.precond_apps": per("mg.precond", "n"),
            "mg.vcycle_gbps": gbps("mg.precond"),
            "mg.cycle_self_s": per("mg.precond", "self_s"),
            "precision.setup_s": setup["precision.setup"]["s"],
            "solvers.iterations": median(its),
            "solvers.outer_matvec_s": per("solvers.matvec"),
            "solvers.krylov_self_s": per("solvers.solve", "self_s"),
            "trace.overhead": median(traced) / median(plain) - 1.0,
            "host.copy_gbps": copy_gbps(h.levels[0].nnz_stored * 4),
        }


def copy_gbps(nbytes: int) -> float:
    """Host copy bandwidth (read + write) on an array of ``nbytes``."""
    src = np.ones(max(1, nbytes // 8), dtype=np.float64)
    dst = np.empty_like(src)
    rates = []
    t_end = time.perf_counter() + 0.3
    while time.perf_counter() < t_end or len(rates) < 5:
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return median(rates)


def hierarchy_mb(h) -> float:
    rep = h.memory_report()
    return (rep["matrix_bytes"] + rep["smoother_bytes"] + rep["transfer_bytes"]) / 1e6


def note_payload(run: Run, h16, h32) -> None:
    """Record the finest-level matrix payloads, to compare with the caches."""
    run.info["finest_payload_mb"] = {
        "fp16": h16.levels[0].matrix_nbytes() / 1e6,
        "fp32": h32.levels[0].matrix_nbytes() / 1e6,
    }


def modeled_speedup(h16, h32) -> float:
    """``repro.perf`` bandwidth-model V-cycle speedup of FP16 over FP32 storage."""
    from repro.perf import vcycle_volume

    return vcycle_volume(h32) / vcycle_volume(h16)


# ----------------------------------------------------------------------
# solver workloads
# ----------------------------------------------------------------------
def solver_workload(problem: str, shape, seed: int, seconds: float, trace: bool) -> Run:
    """Direct ``mg_setup`` + ``solvers.solve`` on a fixed operator.

    The operator is the problem's seed-0 instance; ``seed`` draws the RHS,
    so run-to-run spread reflects timing and RHS, not a changing matrix.
    """
    from repro import build_problem

    run = Run()
    prob = build_problem(problem, shape=shape, seed=0)
    d = Direct(run, prob.a, prob.solver, prob.rtol, prob.mg_options)
    rng = np.random.default_rng(seed)
    setups = []
    for _ in range(1 if trace else SETUP_REPS):
        h16, dt = d.setup(DEFAULT_CONFIG)
        setups.append(dt)
    h32, _ = d.setup(FP32_CONFIG)
    note_payload(run, h16, h32)
    if trace:
        layers = d.traced(h16, rng, seconds, MIN_SOLVES)
        layers["perf.modeled_fp16_speedup"] = modeled_speedup(h16, h32)
        layers.update(SERVE_NOT_USED)
        finish_layers(run, layers)
    else:
        s = d.compare(h16, h32, rng, seconds, MIN_SOLVES)
        t16, t32 = s["t16"], s["t32"]
        n = f"n={len(t16)}"
        run.set("setup_s", median(setups), f"median of {len(setups)} mg_setup")
        run.set("solve_s", median(t16),
                f"median of {n} RHS, iterations {min(s['its'])}-{max(s['its'])}")
        run.set("fp16_speedup", median(t32) / median(t16),
                f"{FP32_CONFIG} {median(t32):.4f} s / {DEFAULT_CONFIG}; "
                f"modeled {modeled_speedup(h16, h32):.3f}")
        run.set("hierarchy_mb", hierarchy_mb(h16), "computed bytes")
        run.set("jobs_per_s", len(t16) / sum(t16), f"{n} solves")
        run.set("job_p50_s", median(t16), f"one job = one solve, {n}")
        run.set("job_p90_s", p90(t16), f"{n}, fewer than 10 beyond p90")
    if d.last is not None:
        run.self_test(d.csr, *d.last, prob.rtol)
    return run


# ----------------------------------------------------------------------
# stream workloads
# ----------------------------------------------------------------------
#: Serve-layer metrics read 0 on the workloads without a service.
SERVE_NOT_USED = {
    "serve.queue_wait_p50_s": 0.0,
    "serve.worker_solve_p50_s": 0.0,
    "serve.shm_verify_p50_s": 0.0,
    "serve.overhead_p50_s": 0.0,
    "serve.update_operator_s": 0.0,
    "serve.cache_hit_ratio": 0.0,
    "serve.start_s": 0.0,
}


def _tap_stages(telemetry) -> dict:
    """Keep every raw sample the service records per latency stage."""
    samples: dict[str, list] = {}
    record = telemetry.record

    def tapped(stage, seconds):
        samples.setdefault(stage, []).append(float(seconds))
        record(stage, seconds)

    telemetry.record = tapped
    return samples


def stream(run: Run, prob, seed: int, seconds: float) -> dict:
    """Closed-loop stream through ``ProcessSolverService(processes=2)``: one
    client thread keeps ``OUTSTANDING`` jobs in flight, and every
    ``REFRESH_EVERY`` jobs quiesces and swaps in a re-seeded operator."""
    from repro import parse_config
    from repro.problems.weather import weather_matrix
    from repro.serve import ProcessSolverService

    rng = np.random.default_rng([seed, 1])
    kwargs = dict(config=parse_config(DEFAULT_CONFIG), options=prob.mg_options,
                  solver=prob.solver, rtol=prob.rtol)
    t0 = time.perf_counter()
    svc = ProcessSolverService(prob.a, processes=2, **kwargs)
    svc.wait_ready()
    start_s = time.perf_counter() - t0
    try:
        stages = _tap_stages(svc.telemetry)
        a, csr = prob.a, prob.a.to_csr()
        out, lat, qwait, overhead, updates = [], [], [], [], []
        n_ok, in_epoch = 0, 0

        def collect():
            nonlocal n_ok
            now = time.perf_counter()
            for item in [it for it in out if it[1].done()]:
                out.remove(item)
                t_sub, job, b, c = item
                try:
                    res = job.result()
                except Exception:  # a job that raised counts as failed
                    run.fail()
                    continue
                n_ok += run.certify(c, b, res, prob.rtol)
                lat.append(now - t_sub)
                qwait.append(job.t_dispatch - job.t_submit)
                overhead.append(lat[-1] - qwait[-1] - res.seconds)

        def drain():
            # a job still unfinished DRAIN_S after the run's end counts as failed
            while out and time.perf_counter() < t_end + DRAIN_S:
                time.sleep(POLL_S)
                collect()
            while out:
                out.pop()[1].request_cancel()
                run.fail()

        t_start = time.perf_counter()
        t_end = t_start + seconds
        while time.perf_counter() < t_end:
            if in_epoch == REFRESH_EVERY:
                drain()
                a = weather_matrix(STREAM_SHAPE, seed=int(rng.integers(2**31)))
                t0 = time.perf_counter()
                svc.update_operator(a)
                updates.append(time.perf_counter() - t0)
                csr, in_epoch = a.to_csr(), 0
            if len(out) < OUTSTANDING:
                b = make_rhs(a, rng)
                t_sub = time.perf_counter()
                try:
                    job = svc.submit(b)
                except Exception:  # rejected or closed
                    run.fail()
                    continue
                out.append((t_sub, job, b, csr))
                in_epoch += 1
                continue
            time.sleep(POLL_S)
            collect()
        drain()
        wall = time.perf_counter() - t_start
        stats = svc.stats()
    finally:
        svc.close()
        # multiprocessing's shared-memory resource tracker outlives the
        # service; stop it and wait, so the run leaves no process behind
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    hits = sum(s["hits"] for s in stats["shards"])
    misses = sum(s["misses"] for s in stats["shards"])
    return {
        "jobs": len(lat), "n_ok": n_ok, "wall": wall, "lat": lat,
        "builds": stages.get("setup", []), "refreshes": len(updates),
        "layers": {
            "serve.queue_wait_p50_s": median(qwait),
            "serve.worker_solve_p50_s": median(stages.get("solve", [])),
            "serve.shm_verify_p50_s": median(stages.get("shm_verify", [])),
            "serve.overhead_p50_s": median(overhead),
            "serve.update_operator_s": median(updates),
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.start_s": start_s,
        },
        "solve": stages.get("solve", []),
    }


def stream_workload(seed: int, seconds: float, trace: bool) -> Run:
    """Weather time-stepping jobs through ``ProcessSolverService``, plus
    direct FP16/FP32 solves of the first operator.

    The traced run streams for half the time, then traces direct solves;
    tracing is installed only after the service has closed, so its forked
    workers never carry wrappers.
    """
    from repro import build_problem

    run = Run()
    prob = build_problem("weather", shape=STREAM_SHAPE, seed=seed)
    d = Direct(run, prob.a, prob.solver, prob.rtol, prob.mg_options)
    rng = np.random.default_rng([seed, 0])
    h16, _ = d.setup(DEFAULT_CONFIG)
    h32, _ = d.setup(FP32_CONFIG)
    note_payload(run, h16, h32)
    if trace:
        st = stream(run, prob, seed, seconds / 2)
        layers = d.traced(h16, rng, 0.0, STREAM_DIRECT_PAIRS)
        layers["perf.modeled_fp16_speedup"] = modeled_speedup(h16, h32)
        layers.update(st["layers"])
        finish_layers(run, layers)
    else:
        s = d.compare(h16, h32, rng, 0.0, STREAM_DIRECT_PAIRS)
        st = stream(run, prob, seed, seconds)
        n = f"n={st['jobs']}"
        run.set("setup_s", median(st["builds"]),
                f"median of {len(st['builds'])} hierarchy builds over {st['refreshes']} refreshes")
        run.set("solve_s", median(st["solve"]), f"service solve stage, {n}")
        run.set("fp16_speedup", median(s["t32"]) / median(s["t16"]),
                f"direct solves, n={len(s['t16'])} RHS; modeled {modeled_speedup(h16, h32):.3f}")
        run.set("hierarchy_mb", hierarchy_mb(h16), "computed bytes")
        run.set("jobs_per_s", st["n_ok"] / st["wall"],
                f"{st['n_ok']} correct jobs in {st['wall']:.1f} s")
        run.set("job_p50_s", median(st["lat"]), n)
        run.set("job_p90_s", p90(st["lat"]), f"{n}, {st['jobs'] // 10} beyond p90")
    if d.last is not None:
        run.self_test(d.csr, *d.last, prob.rtol)
    return run


def finish_layers(run: Run, layers: dict) -> None:
    layers["solvers.true_rel_residual"] = run.max_residual
    for name, value in layers.items():
        run.set(name, value)


WORKLOADS = {
    "poisson-48": lambda seed, seconds, trace: solver_workload(
        "laplace27", (48, 48, 48), seed, seconds, trace),
    "rhd-32": lambda seed, seconds, trace: solver_workload(
        "rhd", (32, 32, 32), seed, seconds, trace),
    "stream-procs": stream_workload,
}
