"""Chaos suite: seeded faults across every layer end in classified statuses.

The contract under test (ISSUE 5): an injected fault — payload corruption,
a flipped FP16 byte under ABFT, a dropped or garbled halo message, a torn
cache spill, an expired deadline — is *classified* by the stack (a solver
status, a ``ValueError`` from a loader, a rebuilt cache entry), never an
unhandled exception escaping to the caller.  Plus the service-layer
robustness battery: backpressure under concurrent submitters, job states,
retry with backoff, per-job deadlines, worker respawn, and one lifecycle
contract run against both the thread and the process service.
"""

import threading
import time

import numpy as np
import pytest

from repro.mg import mg_setup
from repro.observability import events as _events
from repro.observability import metrics as _metrics
from repro.observability.telemetry import read_status
from repro.precision import K64P32D16_SETUP_SCALE
from repro.problems import build_problem
from repro.resilience import (
    ABFTError,
    EscalationPolicy,
    FaultInjector,
    attach_abft,
    halo_fault,
    robust_solve,
    run_chaos,
)
from repro.resilience.chaos import CHAOS_SITES, ChaosReport
from repro.resilience.runtime import Deadline, RetryPolicy
from repro.serve.cache import HierarchyCache, hierarchy_nbytes
from repro.serve.procpool import ProcessSolverService
from repro.serve.service import ServiceClosed, ServiceSaturated, SolverService
from repro.serve.session import SolverSession
from repro.solvers import FAILURE_STATUSES, INTERRUPTED_STATUSES, solve


@pytest.fixture(scope="module")
def problem():
    return build_problem("laplace27", shape=(14, 14, 10), seed=0)


@pytest.fixture
def metrics():
    m = _metrics.install()
    yield m
    _metrics.uninstall()


class TestChaosSweep:
    """The satellite: seeded sweep over all fault sites, no escapes."""

    def test_fast_sweep_all_sites_classified(self):
        report = run_chaos(fast=True, seed=0)
        assert report.ok, report.format()
        assert report.n_trials == len(CHAOS_SITES)
        classified = {"converged"} | FAILURE_STATUSES | INTERRUPTED_STATUSES
        classified |= {"rejected", "poisoned"}
        for t in report.trials:
            assert t.status in classified, f"{t.site}: {t.status}"
            assert not t.status.startswith("unhandled")
        # the recovery paths actually recover somewhere
        assert report.n_recovered >= 5

    def test_process_sites_present_and_classified(self):
        new = {
            "proc.kill", "proc.hang", "proc.poison",
            "shm.corrupt_header", "shm.corrupt_payload", "shm.orphan",
        }
        assert new <= set(CHAOS_SITES)
        report = run_chaos(fast=True, seed=0, sites=tuple(sorted(new)))
        assert report.ok, report.format()
        by_site = {t.site: t for t in report.trials}
        # a quarantined job ends 'poisoned', never an escape or wrong answer
        assert by_site["proc.poison"].status == "poisoned"
        for site in ("proc.kill", "proc.hang"):
            assert by_site[site].status == "converged", by_site[site]
            assert by_site[site].detail["respawns"] >= 1
        for site in ("shm.corrupt_header", "shm.corrupt_payload"):
            assert by_site[site].status == "converged", by_site[site]
        assert by_site["shm.orphan"].status == "converged"

    def test_policy_stall_site_escalates_and_recovers(self):
        assert "policy.stall" in CHAOS_SITES
        report = run_chaos(fast=True, seed=0, sites=("policy.stall",))
        assert report.ok, report.format()
        trial = report.trials[0]
        # the seeded payload perturbation stalls the static ladder; the
        # adaptive policy must escalate the damaged level and converge,
        # journaling the expected-event contract (no events_missing)
        assert trial.status == "converged", trial
        # both legs: CG on the SPD problem, FGMRES on the nonsymmetric one
        assert trial.detail["cg_leg"] == "converged"
        assert trial.detail["cg_leg_escalations"] >= 1
        assert trial.detail["fgmres_leg"] == "converged"
        assert trial.detail["fgmres_leg_escalations"] >= 1
        assert "events_missing" not in trial.detail

    def test_sweep_is_seeded_deterministic(self):
        a = run_chaos(fast=True, seed=3, sites=("payload.bitflip", "abft.flip"))
        b = run_chaos(fast=True, seed=3, sites=("payload.bitflip", "abft.flip"))
        assert [t.to_dict() for t in a.trials] == [
            t.to_dict() for t in b.trials
        ]

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos sites"):
            run_chaos(fast=True, sites=("no.such.site",))

    def test_report_serializes(self):
        report = run_chaos(fast=True, seed=1, sites=("runtime.deadline",))
        doc = report.to_dict()
        assert doc["n_trials"] == 1 and doc["ok"]
        assert isinstance(report.format(), str)
        assert isinstance(report, ChaosReport)


class TestABFTDetection:
    """Acceptance: a flipped FP16 payload byte is detected and recovered."""

    def _hierarchy(self, problem):
        return mg_setup(problem.a, K64P32D16_SETUP_SCALE, problem.mg_options)

    def test_flipped_fp16_byte_detected(self, problem):
        h = self._hierarchy(problem)
        attach_abft(h, verify_every=1)
        # flip a high (exponent-range) bit of one stored FP16 coefficient on
        # the level whose residual SpMV the checker guards
        recs = FaultInjector(seed=7).inject_bitflips(
            h, level=0, count=1, bit=14
        )
        assert len(recs) == 1
        result = solve(
            "cg", problem.a, problem.b,
            preconditioner=h.precondition, rtol=1e-10, maxiter=200,
        )
        assert result.status == "corrupted"
        assert h.abft.stats["mismatches"] >= 1
        assert h.abft.stats["corrupted"] >= 1

    def test_clean_hierarchy_passes_all_checks(self, problem):
        h = self._hierarchy(problem)
        attach_abft(h, verify_every=1)
        result = solve(
            "cg", problem.a, problem.b,
            preconditioner=h.precondition, rtol=1e-10, maxiter=200,
        )
        assert result.status == "converged"
        assert h.abft.stats["checks"] > 0
        assert h.abft.stats["mismatches"] == 0

    def test_robust_solve_recovers_from_flip(self, problem):
        inj = FaultInjector(seed=11)

        def post_setup(hierarchy, attempt):
            if attempt == 0:
                inj.inject_bitflips(hierarchy, level=0, count=1, bit=14)

        result, report = robust_solve(
            problem.a, problem.b,
            config=K64P32D16_SETUP_SCALE,
            options=problem.mg_options,
            rtol=1e-10, maxiter=200,
            policy=EscalationPolicy(max_escalations=3),
            post_setup=post_setup,
            abft_verify_every=1,
            health_check=False,
        )
        assert result.status == "converged"
        assert report.attempts[0].status == "corrupted"
        assert report.n_escalations >= 1

    def test_abft_error_is_classified_interrupt(self):
        err = ABFTError("checksum mismatch", level=1, mismatch=3.0)
        assert err.status == "corrupted"
        assert err.level == 1 and err.mismatch == 3.0

    def test_verify_every_skips_checks(self, problem):
        h = self._hierarchy(problem)
        attach_abft(h, verify_every=4)
        solve(
            "cg", problem.a, problem.b,
            preconditioner=h.precondition, rtol=1e-10, maxiter=200,
        )
        assert 0 < h.abft.stats["checks"] < h.abft.stats["spmvs"]


class TestHaloFaults:
    def _distributed(self, problem):
        from repro.parallel import (
            DistributedField,
            DistributedMG,
            DistributedSGDIA,
        )

        h = mg_setup(problem.a, K64P32D16_SETUP_SCALE, problem.mg_options)
        decomp = DistributedMG.aligned_decomposition(
            problem.a.grid, (2, 1, 1), h.n_levels
        )
        dmg = DistributedMG(h, decomp)
        da = DistributedSGDIA.from_global(problem.a, decomp)
        b = DistributedField.scatter(
            np.asarray(problem.b).reshape(problem.a.grid.field_shape),
            decomp, dtype=np.float64,
        )

        def precond(r, z):
            e = dmg.precondition(r)
            for rank in range(decomp.nranks):
                z.owned_view(rank)[...] = e.owned_view(rank)

        return da, b, precond

    def test_transient_garble_heals_by_retransmit(self, problem, metrics):
        from repro.parallel import distributed_cg

        da, b, precond = self._distributed(problem)
        with halo_fault(kind="garble", at_message=2, persistent=False):
            result, _ = distributed_cg(
                da, b, rtol=1e-9, maxiter=200, preconditioner=precond
            )
        assert result.status == "converged"
        assert metrics.get("comm.halo.retransmits") == 1
        assert metrics.get("comm.halo.garbled") == 1
        assert metrics.get("comm.halo.corrupted") == 0

    def test_transient_drop_heals_by_retransmit(self, problem, metrics):
        from repro.parallel import distributed_cg

        da, b, precond = self._distributed(problem)
        with halo_fault(kind="drop", at_message=2, persistent=False):
            result, _ = distributed_cg(
                da, b, rtol=1e-9, maxiter=200, preconditioner=precond
            )
        assert result.status == "converged"
        assert metrics.get("comm.halo.dropped") == 1
        assert metrics.get("comm.halo.retransmits") == 1

    def test_persistent_drop_classifies_corrupted(self, problem, metrics):
        from repro.parallel import distributed_cg

        da, b, precond = self._distributed(problem)
        with halo_fault(kind="drop", at_message=2, persistent=True):
            result, _ = distributed_cg(
                da, b, rtol=1e-9, maxiter=200, preconditioner=precond
            )
        assert result.status == "corrupted"
        assert metrics.get("comm.halo.corrupted") == 1
        assert np.isfinite(result.x).all()

    def test_no_hook_no_verification_overhead(self, problem, metrics):
        from repro.parallel import distributed_cg

        da, b, precond = self._distributed(problem)
        result, _ = distributed_cg(
            da, b, rtol=1e-9, maxiter=200, preconditioner=precond
        )
        assert result.status == "converged"
        assert metrics.get("comm.halo.retransmits") == 0


class TestSpillCorruption:
    def test_corrupt_spill_detected_and_rebuilt(self, problem, tmp_path):
        prob2 = build_problem("weather", (14, 14, 10), seed=0)
        probe = HierarchyCache(spill_dir=tmp_path / "probe")
        h0, key, _ = probe.get_or_build(
            problem.a, K64P32D16_SETUP_SCALE, problem.mg_options
        )
        cache = HierarchyCache(
            max_bytes=hierarchy_nbytes(h0) + 1, spill_dir=tmp_path
        )
        _, key, _ = cache.get_or_build(
            problem.a, K64P32D16_SETUP_SCALE, problem.mg_options
        )
        # admitting a second hierarchy forces the first over budget: spill
        cache.get_or_build(prob2.a, K64P32D16_SETUP_SCALE, prob2.mg_options)
        spilled = cache._spill_path(key)
        assert spilled.exists()
        assert FaultInjector(seed=5).corrupt_spill(spilled, nbytes=256) == 256
        h, _, source = cache.get_or_build(
            problem.a, K64P32D16_SETUP_SCALE, problem.mg_options
        )
        assert source == "build"  # damaged file is a miss, not an error
        assert cache.stats.spill_corrupt == 1
        assert not spilled.exists() or source == "build"
        result = solve(
            "cg", problem.a, problem.b,
            preconditioner=h.precondition, rtol=1e-9, maxiter=200,
        )
        assert result.status == "converged"

    def test_corrupt_spill_missing_file_is_zero(self, tmp_path):
        assert FaultInjector().corrupt_spill(tmp_path / "missing.npz") == 0


class TestServiceBackpressure:
    """Satellite: ServiceSaturated under concurrent submitters, no deadlock."""

    def test_saturated_nonblocking_raises(self, problem):
        with SolverService(
            problem.a, workers=1, queue_size=1, rtol=1e-9
        ) as svc:
            jobs = []
            rejected = 0
            for _ in range(20):
                try:
                    jobs.append(svc.submit(problem.b, block=False))
                except ServiceSaturated:
                    rejected += 1
            assert rejected > 0
            for job in jobs:
                job.result(timeout=60.0)
            assert svc.n_rejected == rejected
            assert svc.n_completed == len(jobs)

    def test_concurrent_submitters_drain_without_deadlock(
        self, problem, metrics
    ):
        n_threads, per_thread = 4, 5
        accepted, rejected = [], []
        lock = threading.Lock()

        with SolverService(
            problem.a, workers=2, queue_size=2, rtol=1e-9
        ) as svc:

            def submitter(k):
                for i in range(per_thread):
                    try:
                        job = svc.submit(problem.b, block=False)
                        with lock:
                            accepted.append(job)
                    except ServiceSaturated:
                        with lock:
                            rejected.append((k, i))
                        time.sleep(0.002)

            threads = [
                threading.Thread(target=submitter, args=(k,))
                for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            results = [job.result(timeout=60.0) for job in accepted]
            assert all(r.status == "converged" for r in results)
            svc.drain()
            stats = svc.stats()
        # the books balance: every submission accepted or rejected, every
        # accepted one completed, and the metrics agree with the counters
        assert len(accepted) + len(rejected) == n_threads * per_thread
        assert stats["submitted"] == len(accepted)
        assert stats["completed"] == len(accepted)
        assert stats["rejected"] == len(rejected)
        assert metrics.get("serve.jobs.submitted") == len(accepted)
        assert metrics.get("serve.jobs.completed") == len(accepted)
        assert metrics.get("serve.jobs.rejected") == len(rejected)


class TestServiceRuntime:
    def test_job_walks_pending_running_done(self, problem):
        with SolverService(problem.a, workers=1, rtol=1e-9) as svc:
            job = svc.submit(problem.b)
            assert job.state in ("pending", "running", "done")
            result = job.result(timeout=60.0)
            assert job.state == "done"
            assert result.status == "converged"
            assert job.attempts == 1

    def test_result_timeout_does_not_consume_the_future(self, problem):
        with SolverService(problem.a, workers=1, rtol=1e-9) as svc:
            blocker = svc.submit(problem.b)
            job = svc.submit(problem.b)
            with pytest.raises(TimeoutError):
                job.result(timeout=1e-6)
            # retrievable after the timeout — the satellite requirement
            result = job.result(timeout=60.0)
            assert result.status == "converged"
            blocker.result(timeout=60.0)

    def test_queued_job_past_deadline_expires_via_watchdog(
        self, problem, metrics
    ):
        with SolverService(
            problem.a, workers=1, poll_interval=0.005, rtol=1e-9
        ) as svc:
            blocker = svc.submit(problem.b)
            doomed = svc.submit(
                problem.b, deadline=Deadline(at=-1.0, clock=time.monotonic)
            )
            late = doomed.result(timeout=30.0)
            assert doomed.state == "deadline"
            assert late.status == "deadline"
            assert late.detail["expired_before_run"]
            assert np.isfinite(late.x).all()  # usable (zero) iterate
            blocker.result(timeout=60.0)
            assert svc.n_deadline == 1
        assert metrics.get("service.job.deadline") == 1

    def test_default_deadline_applies_to_all_jobs(self, problem):
        with SolverService(
            problem.a, workers=1, rtol=1e-14, maxiter=100000,
            escalate=False, default_deadline=1e-4,
        ) as svc:
            job = svc.submit(problem.b)
            result = job.result(timeout=60.0)
            assert result.status == "deadline"
            assert job.state == "deadline"

    def test_cancel_queued_job(self, problem, metrics):
        with SolverService(
            problem.a, workers=1, poll_interval=0.005, rtol=1e-9
        ) as svc:
            blocker = svc.submit(problem.b)
            queued = svc.submit(problem.b)
            svc.cancel(queued)
            result = queued.result(timeout=30.0)
            assert queued.state == "cancelled"
            assert result.status == "cancelled"
            blocker.result(timeout=60.0)
        assert metrics.get("service.job.cancelled") == 1

    def test_cancel_in_flight_job_returns_partial_iterate(self, problem):
        with SolverService(
            problem.a, workers=1, rtol=1e-14, maxiter=100000, escalate=False
        ) as svc:
            session = svc.sessions[0]
            solve, in_flight = session.solve, threading.Event()

            def held_solve(b, runtime=None, **kw):
                # the claimed job waits inside the session until the cancel
                # arrives: setup and solve of this problem take a few ms, so
                # a timed cancel could land after the job converged
                in_flight.set()
                runtime.cancel.wait(30.0)
                return solve(b, runtime=runtime, **kw)

            session.solve = held_solve
            job = svc.submit(problem.b)
            assert in_flight.wait(30.0)
            svc.cancel(job)
            result = job.result(timeout=30.0)
            assert result.status == "cancelled"
            assert job.state == "cancelled"
            assert np.isfinite(result.x).all()

    def test_retry_with_backoff_on_transient_exception(
        self, problem, metrics
    ):
        with SolverService(
            problem.a, workers=1,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.001),
            rtol=1e-9,
        ) as svc:
            session = svc.sessions[0]
            orig, calls = session.solve, [0]

            def flaky(b, **kw):
                calls[0] += 1
                if calls[0] == 1:
                    raise RuntimeError("transient backend hiccup")
                return orig(b, **kw)

            session.solve = flaky
            job = svc.submit(problem.b)
            result = job.result(timeout=60.0)
            assert result.status == "converged"
            assert job.attempts == 2
            assert svc.n_retried == 1
        assert metrics.get("service.job.retry") == 1

    def test_exhausted_retries_deliver_the_exception(self, problem):
        with SolverService(
            problem.a, workers=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001),
            rtol=1e-9,
        ) as svc:
            session = svc.sessions[0]
            orig = session.solve
            raised = []

            def always_broken(b, **kw):
                raised.append(RuntimeError("permanent failure"))
                raise raised[-1]

            session.solve = always_broken
            job = svc.submit(problem.b)
            with pytest.raises(RuntimeError, match="permanent failure") as exc:
                job.result(timeout=60.0)
            # the caller gets the very exception object the worker raised
            assert exc.value is raised[-1]
            assert job.state == "failed"
            assert job.attempts == 2  # original + one retry
            assert svc.n_failed == 1
            # the worker survived the exceptions and still serves
            session.solve = orig
            good = svc.submit(problem.b).result(timeout=60.0)
            assert good.status == "converged"

    def test_cancelled_job_skips_backoff_wait(self, problem):
        with SolverService(
            problem.a, workers=1,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay=30.0, jitter=0.0
            ),
            rtol=1e-9,
        ) as svc:
            session = svc.sessions[0]

            def broken(b, **kw):
                raise RuntimeError("fails until cancelled")

            session.solve = broken
            job = svc.submit(problem.b)
            time.sleep(0.02)
            t0 = time.monotonic()
            svc.cancel(job)
            result = job.result(timeout=10.0)
            # without the token-slept backoff this would take 30+ seconds
            assert time.monotonic() - t0 < 5.0
            assert result.status == "cancelled"
            assert job.state == "cancelled"

    def test_watchdog_respawns_dead_worker(self, problem, metrics):
        svc = SolverService(
            problem.a, workers=2, poll_interval=0.005, rtol=1e-9
        )
        try:
            svc._workers[0].wake.set()  # a wake without a job stops it
            deadline = time.monotonic() + 5.0
            while svc.n_respawns == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.n_respawns >= 1
            assert sum(w.thread.is_alive() for w in svc._workers) == 2
            result = svc.solve(problem.b)
            assert result.status == "converged"
        finally:
            svc.close()
        assert metrics.get("service.worker.respawn") >= 1

    def test_batched_job_deadline_classifies_all_columns(self, problem):
        b = np.stack([problem.b.ravel(), problem.b.ravel()], axis=-1)
        with SolverService(
            problem.a, workers=1, poll_interval=0.005, rtol=1e-9
        ) as svc:
            blocker = svc.submit(problem.b)
            doomed = svc.submit(
                b, batched=True,
                deadline=Deadline(at=-1.0, clock=time.monotonic),
            )
            late = doomed.result(timeout=30.0)
            assert doomed.state == "deadline"
            assert [r.status for r in late] == ["deadline", "deadline"]
            blocker.result(timeout=60.0)

    def test_shutdown_is_idempotent_and_stops_watchdog(self, problem):
        svc = SolverService(problem.a, workers=1, rtol=1e-9)
        svc.close()
        svc.close()
        assert not svc._control.is_alive()
        with pytest.raises(ServiceClosed):
            svc.submit(problem.b)


# ----------------------------------------------------------------------
# one job lifecycle, both service modes
# ----------------------------------------------------------------------

@pytest.fixture(params=["thread", "process"])
def mode(request):
    return request.param


def make_service(mode, prob, **kw):
    """A one-worker service of either mode on ``prob`` (fast polling)."""
    kw.setdefault("poll_interval", 0.005)
    kw.setdefault("rtol", 1e-9)
    workers = kw.pop("workers", 1)
    if mode == "thread":
        return SolverService(prob.a, workers=workers, **kw)
    return ProcessSolverService(
        prob.a, processes=workers, heartbeat_interval=0.02, **kw
    )


def script_sessions(monkeypatch, fail=0):
    """Patch ``SolverSession.solve`` for both modes (worker processes fork
    with the patch, so apply it before the service starts).

    ``submit(..., hold=True)`` occupies the worker until the job is
    cancelled; the first ``fail`` calls raise (``fail=-1``: every call).
    Returns the list of raised exceptions.
    """
    orig, calls, raised = SolverSession.solve, [0], []

    def solve(self, b, runtime=None, hold=False, **kw):
        calls[0] += 1
        if fail < 0 or calls[0] <= fail:
            raised.append(RuntimeError("scripted failure"))
            raise raised[-1]
        if hold:
            runtime.cancel.wait(60.0)
        return orig(self, b, runtime=runtime, **kw)

    monkeypatch.setattr(SolverSession, "solve", solve)
    return raised


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class TestLifecycleRegressions:
    """In both modes, admission counts only live queued jobs, and leaving
    a ``with`` block closes the service (final status, ``service.stop``)."""

    def test_saturation_counts_only_live_queued_jobs(
        self, mode, problem, monkeypatch
    ):
        script_sessions(monkeypatch)
        with make_service(mode, problem, queue_size=2) as svc:
            blocker = svc.submit(problem.b, hold=True)
            wait_until(lambda: blocker.state == "running")
            queued = [svc.submit(problem.b, block=False) for _ in range(2)]
            with pytest.raises(ServiceSaturated, match="2 pending"):
                svc.submit(problem.b, block=False)
            for job in queued:
                svc.cancel(job)
                assert job.result(timeout=30.0).status == "cancelled"
            # finished queued jobs no longer hold their slots
            extra = svc.submit(problem.b, block=False)
            svc.cancel(blocker)
            assert blocker.result(timeout=30.0).status == "cancelled"
            assert extra.result(timeout=60.0).status == "converged"
            assert svc.n_rejected == 1

    def test_with_exit_writes_final_status_and_stop_event(
        self, mode, problem, tmp_path
    ):
        path = tmp_path / "status.json"
        with _events.capturing() as journal:
            with make_service(mode, problem, status_path=str(path)) as svc:
                for job in [svc.submit(problem.b) for _ in range(3)]:
                    job.result(timeout=60.0)
        doc = read_status(str(path))
        assert doc["mode"] == mode
        assert doc["counts"]["completed"] == 3
        assert "service.stop" in [e.kind for e in journal.events()]


class TestServiceLifecycleContract:
    """The job lifecycle both services share — admission, queued expiry,
    cancellation, retry, close — checked against the process mode. The
    thread mode runs the same core and is held to the same contract by
    ``TestServiceBackpressure`` and ``TestServiceRuntime`` above."""

    def test_books_balance_under_concurrent_submitters(
        self, problem, metrics
    ):
        n_threads, per_thread = 4, 5
        accepted, rejected = [], []
        lock = threading.Lock()
        with make_service("process", problem, workers=2, queue_size=2) as svc:

            def submitter(k):
                for i in range(per_thread):
                    try:
                        job = svc.submit(problem.b, block=False)
                        with lock:
                            accepted.append(job)
                    except ServiceSaturated:
                        with lock:
                            rejected.append((k, i))
                        time.sleep(0.002)

            threads = [
                threading.Thread(target=submitter, args=(k,))
                for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            svc.drain()
            stats = svc.stats()
        assert all(j.result(timeout=0).status == "converged" for j in accepted)
        assert len(accepted) + len(rejected) == n_threads * per_thread
        assert stats["submitted"] == stats["completed"] == len(accepted)
        assert stats["rejected"] == len(rejected)
        assert metrics.get("serve.jobs.submitted") == len(accepted)
        assert metrics.get("serve.jobs.completed") == len(accepted)
        assert metrics.get("serve.jobs.rejected") == len(rejected)

    def test_queued_job_past_deadline_expires(
        self, problem, monkeypatch
    ):
        script_sessions(monkeypatch)
        with make_service("process", problem) as svc:
            blocker = svc.submit(problem.b, hold=True)
            wait_until(lambda: blocker.state == "running")
            doomed = svc.submit(
                problem.b, deadline=Deadline(at=-1.0, clock=time.monotonic)
            )
            late = doomed.result(timeout=30.0)
            assert doomed.state == "deadline" and late.status == "deadline"
            assert late.detail["expired_before_run"]
            svc.cancel(blocker)
            blocker.result(timeout=30.0)
            assert svc.n_deadline == 1

    def test_cancel_queued_and_in_flight_jobs(
        self, problem, monkeypatch
    ):
        script_sessions(monkeypatch)
        with make_service("process", problem) as svc:
            running = svc.submit(problem.b, hold=True)
            wait_until(lambda: running.state == "running")
            queued = svc.submit(problem.b)
            svc.cancel(queued)
            never_ran = queued.result(timeout=30.0)
            assert queued.state == "cancelled"
            assert never_ran.status == "cancelled"
            assert never_ran.detail["expired_before_run"]
            svc.cancel(running)
            partial = running.result(timeout=30.0)
            assert running.state == "cancelled"
            assert partial.status == "cancelled"
            assert np.isfinite(partial.x).all()
            assert svc.n_cancelled == 2

    def test_retry_then_success(self, problem, monkeypatch, metrics):
        script_sessions(monkeypatch, fail=1)
        with make_service(
            "process", problem,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.001),
        ) as svc:
            job = svc.submit(problem.b)
            assert job.result(timeout=60.0).status == "converged"
            assert job.attempts == 2
            assert svc.n_retried == 1
        assert metrics.get("service.job.retry") == 1

    def test_exhausted_retries_deliver_the_failure(
        self, problem, monkeypatch
    ):
        script_sessions(monkeypatch, fail=-1)
        with make_service(
            "process", problem,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001),
        ) as svc:
            job = svc.submit(problem.b)
            with pytest.raises(RuntimeError, match="scripted failure"):
                job.result(timeout=60.0)
            assert job.state == "failed"
            assert job.attempts == 2  # original + one retry
            assert svc.n_failed == 1

    def test_cancel_during_long_backoff_returns_fast(
        self, problem, monkeypatch
    ):
        script_sessions(monkeypatch, fail=-1)
        with make_service(
            "process", problem,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay=30.0, jitter=0.0
            ),
        ) as svc:
            job = svc.submit(problem.b)
            wait_until(lambda: svc.n_retried == 1)  # now in its backoff
            t0 = time.monotonic()
            svc.cancel(job)
            result = job.result(timeout=10.0)
            assert time.monotonic() - t0 < 5.0
            assert result.status == "cancelled"
            assert job.state == "cancelled"

    def test_close_drains_then_rejects_then_is_a_no_op(self, problem):
        svc = make_service("process", problem, queue_size=8)
        jobs = [svc.submit(problem.b) for _ in range(4)]
        svc.close()
        for job in jobs:  # every accepted job finished before close returned
            assert job.state == "done"
            assert job.result(timeout=0).status == "converged"
        with pytest.raises(ServiceClosed):
            svc.submit(problem.b)
        svc.close()
        assert svc.stats()["completed"] == 4
