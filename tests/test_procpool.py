"""Tests for the process-parallel serving layer (repro.serve.procpool).

The contract under test (ISSUE 6): hierarchies travel between processes
through checksummed shared-memory segments that are verified on *every*
attach — corruption is detected, rebuilt from the source operator, and
republished under a fresh name, never served as a wrong answer.  Worker
processes are supervised: a SIGKILL'd or hung worker is detected by
heartbeat, its in-flight job requeued with a bounded redelivery budget
(then quarantined as ``poisoned``), and the worker respawned.  Close is
a graceful drain that leaves zero shared-memory segments and zero worker
processes behind.
"""

import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.precision import K64P32D16_SETUP_SCALE
from repro.problems import build_problem, consistent_rhs
from repro.resilience import FaultInjector
from repro.resilience.runtime import Deadline
from repro.serve import shm as _shm
from repro.serve.procpool import ProcessSolverService, run_serve_mp_bench
from repro.serve.service import ServiceClosed, ServiceSaturated
from repro.serve.session import SolverSession
from repro.serve.shm import ShmCorruption


@pytest.fixture(scope="module")
def lap():
    return build_problem("laplace27", shape=(10, 10, 8), seed=0)


def make_service(prob, **kw):
    kw.setdefault("processes", 1)
    kw.setdefault("config", K64P32D16_SETUP_SCALE)
    kw.setdefault("heartbeat_interval", 0.02)
    kw.setdefault("hang_timeout", 0.5)
    kw.setdefault("poll_interval", 0.01)
    kw.setdefault("solver", prob.solver)
    kw.setdefault("rtol", prob.rtol)
    kw.setdefault("maxiter", 300)
    kw.setdefault("escalate", False)
    return ProcessSolverService(prob.a, options=prob.mg_options, **kw)


def reference_solve(prob, b):
    return SolverSession(
        prob.a, config=K64P32D16_SETUP_SCALE, options=prob.mg_options,
        solver=prob.solver, rtol=prob.rtol, maxiter=300, escalate=False,
    ).solve(b, warm_start=False)


def live_rshm_segments():
    p = Path("/dev/shm")
    return {f.name for f in p.glob("rshm-*")} if p.is_dir() else set()


def wait_dead(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    pids = set(pids)
    while pids and time.monotonic() < deadline:
        for pid in list(pids):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                pids.discard(pid)
        if pids:
            time.sleep(0.02)
    return pids  # whatever is still alive


# ----------------------------------------------------------------------
# checksummed shared-memory segments
# ----------------------------------------------------------------------

class TestShmSegments:
    def test_publish_read_roundtrip_and_unlink(self):
        payload = np.random.default_rng(0).bytes(4096)
        name = _shm.publish_bytes(payload).name
        try:
            assert _shm.segment_exists(name)
            assert _shm.read_bytes(name) == payload
        finally:
            assert _shm.unlink_segment(name)
        assert not _shm.segment_exists(name)
        assert not _shm.unlink_segment(name)  # second unlink is a no-op

    @pytest.mark.parametrize("offset", [0, None], ids=["header", "payload"])
    def test_corruption_detected_on_read(self, offset):
        payload = np.random.default_rng(1).bytes(4096)
        name = _shm.publish_bytes(payload).name
        try:
            n = FaultInjector(seed=2).corrupt_segment(
                name, nbytes=64, offset=offset
            )
            assert n == 64
            with pytest.raises(ShmCorruption):
                _shm.read_bytes(name)
        finally:
            _shm.unlink_segment(name)

    def test_missing_segment_classified_not_raised_raw(self):
        with pytest.raises(ShmCorruption):
            _shm.read_bytes("rshm-1-deadbeef")

    def test_hierarchy_roundtrip_bit_exact(self, lap):
        from repro.mg import mg_setup
        from repro.serve.cache import hierarchy_to_arrays

        h = mg_setup(lap.a, K64P32D16_SETUP_SCALE, lap.mg_options)
        name = _shm.publish_hierarchy(lap.a, h).name
        try:
            _, h2 = _shm.attach_hierarchy(
                name, K64P32D16_SETUP_SCALE, lap.mg_options
            )
            _, ours = hierarchy_to_arrays(h)
            _, theirs = hierarchy_to_arrays(h2)
            assert set(ours) == set(theirs)
            for key, arr in ours.items():
                assert np.array_equal(arr, theirs[key]), key
        finally:
            _shm.unlink_segment(name)

    def test_orphan_planted_then_reaped(self):
        name = FaultInjector(seed=3).orphan_segment()
        try:
            assert _shm.segment_exists(name)
            reaped = _shm.reap_orphans()
            assert name in reaped
            assert not _shm.segment_exists(name)
        finally:
            _shm.unlink_segment(name)

    def test_reap_skips_live_owner(self):
        # a segment named for *this* (live) pid must survive the sweep
        payload = b"x" * 64
        name = _shm.publish_bytes(payload).name
        try:
            assert name not in _shm.reap_orphans()
            assert _shm.segment_exists(name)
        finally:
            _shm.unlink_segment(name)


# ----------------------------------------------------------------------
# process service: solves, sharding, admission
# ----------------------------------------------------------------------

class TestProcessService:
    def test_solves_bit_identical_to_in_process_session(self, lap):
        rng = np.random.default_rng(0)
        rhs = [consistent_rhs(lap.a, rng) for _ in range(3)]
        with make_service(lap) as svc:
            jobs = [svc.submit(b, warm_start=False) for b in rhs]
            results = [j.result(timeout=120.0) for j in jobs]
        for b, r in zip(rhs, results):
            ref = reference_solve(lap, b)
            assert r.status == ref.status == "converged"
            assert np.array_equal(r.x, ref.x)

    def test_batched_job(self, lap):
        rng = np.random.default_rng(1)
        block = np.stack(
            [consistent_rhs(lap.a, rng).ravel() for _ in range(3)], axis=-1
        )
        with make_service(lap) as svc:
            out = svc.submit(block, batched=True).result(timeout=120.0)
        assert len(out) == 3
        assert all(r.status == "converged" for r in out)

    def test_multi_operator_sharding(self, lap):
        prob2 = build_problem("weather", shape=(10, 10, 8), seed=1)
        with make_service(lap, processes=2) as svc:
            fp2 = svc.publish(prob2.a)
            r1 = svc.submit(lap.b).result(timeout=120.0)
            r2 = svc.submit(
                prob2.b, operator=fp2, rtol=prob2.rtol
            ).result(timeout=120.0)
            topo = svc.topology()
        assert r1.status == "converged" and r2.status == "converged"
        assert topo["mode"] == "process" and topo["processes"] == 2
        assert len(topo["shard_map"]) == 2  # both fingerprints mapped

    def test_unknown_fingerprint_rejected(self, lap):
        with make_service(lap) as svc:
            with pytest.raises(ValueError, match="unknown operator"):
                svc.submit(lap.b, operator="0" * 64)

    def test_saturation_raises_distinct_from_closed(self, lap):
        svc = make_service(lap, queue_size=1)
        try:
            rng = np.random.default_rng(2)
            svc.submit(consistent_rhs(lap.a, rng))
            with pytest.raises(ServiceSaturated):
                for _ in range(20):
                    svc.submit(consistent_rhs(lap.a, rng), block=False)
            assert svc.n_rejected >= 1
        finally:
            svc.close()
        assert not issubclass(ServiceClosed, ServiceSaturated)


# ----------------------------------------------------------------------
# crash supervision: kill, hang, poison
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_sigkill_before_submit_respawns_and_serves(self, lap):
        with make_service(lap, processes=2) as svc:
            killed = FaultInjector(seed=4).kill_worker(svc, index=0)
            assert killed is not None
            rng = np.random.default_rng(3)
            jobs = [
                svc.submit(consistent_rhs(lap.a, rng)) for _ in range(4)
            ]
            results = [j.result(timeout=120.0) for j in jobs]
            assert all(r.status == "converged" for r in results)
            deadline = time.monotonic() + 10.0
            while svc.n_respawns == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert svc.n_respawns >= 1
            assert len(svc.worker_pids()) == 2

    def test_hung_worker_heartbeat_miss_requeue_respawn(self, lap):
        # freeze the whole pool *first*, then submit: the job can only
        # complete via heartbeat-miss detection -> SIGKILL -> requeue ->
        # respawn, which makes every counter below deterministic.
        with make_service(lap, processes=1) as svc:
            assert svc.wait_ready()
            assert FaultInjector(seed=5).hang_worker(svc, index=0) is not None
            job = svc.submit(lap.b)
            result = job.result(timeout=120.0)
            assert result.status == "converged"
            assert svc.n_heartbeat_miss >= 1
            assert svc.n_respawns >= 1
            assert svc.n_requeued >= 1
            assert job.redeliveries >= 1

    def test_poison_quarantine_after_redelivery_budget(self, lap):
        with make_service(lap, processes=1, max_redeliveries=0) as svc:
            assert svc.wait_ready()
            assert FaultInjector(seed=6).hang_worker(svc, index=0) is not None
            job = svc.submit(lap.b)
            result = job.result(timeout=120.0)
            assert result.status == "poisoned"
            assert job.state == "poisoned"
            assert svc.n_poisoned == 1
            assert np.isfinite(result.x).all()  # usable (zero) iterate
            # the pool recovered: the respawned worker still serves
            good = svc.submit(lap.b).result(timeout=120.0)
            assert good.status == "converged"
        assert svc.stats()["poisoned"] == 1


# ----------------------------------------------------------------------
# shm corruption: detect, rebuild, republish — never a wrong answer
# ----------------------------------------------------------------------

class TestSegmentCorruptionRecovery:
    def test_payload_corruption_rebuilds_under_fresh_name(self, lap):
        ref = reference_solve(lap, lap.b)
        with make_service(lap, processes=1) as svc:
            name0 = svc.segment_names()[0]
            FaultInjector(seed=7).corrupt_segment(name0, nbytes=64)
            result = svc.submit(lap.b, warm_start=False).result(timeout=120.0)
            assert result.status == "converged"
            assert svc.n_shm_corrupt >= 1
            assert svc.n_segment_rebuilds >= 1
            names = svc.segment_names()
            assert name0 not in names  # condemned bytes got a fresh name
            assert not _shm.segment_exists(name0)
        # corruption may delay an answer, never change one
        assert np.array_equal(result.x, ref.x)

    def test_header_corruption_detected_and_recovered(self, lap):
        with make_service(lap, processes=1) as svc:
            name0 = svc.segment_names()[0]
            FaultInjector(seed=8).corrupt_segment(name0, nbytes=16, offset=0)
            result = svc.submit(lap.b).result(timeout=120.0)
            assert result.status == "converged"
            assert svc.n_shm_corrupt >= 1
            assert svc.stats()["segment_rebuilds"] >= 1


# ----------------------------------------------------------------------
# deadlines, cancellation, graceful close
# ----------------------------------------------------------------------

class TestRuntimeContracts:
    def test_expired_deadline_classifies_queued_job(self, lap):
        with make_service(lap, processes=1) as svc:
            blocker = svc.submit(lap.b)
            doomed = svc.submit(
                lap.b, deadline=Deadline(at=-1.0, clock=time.monotonic)
            )
            late = doomed.result(timeout=60.0)
            assert late.status == "deadline"
            assert doomed.state == "deadline"
            blocker.result(timeout=120.0)

    def test_cancel_queued_job(self, lap):
        with make_service(lap, processes=1) as svc:
            blocker = svc.submit(lap.b)
            queued = svc.submit(lap.b)
            svc.cancel(queued)
            result = queued.result(timeout=60.0)
            assert result.status == "cancelled"
            assert queued.state == "cancelled"
            blocker.result(timeout=120.0)

    def test_result_timeout_does_not_consume_the_future(self, lap):
        with make_service(lap, processes=1) as svc:
            job = svc.submit(lap.b)
            try:
                job.result(timeout=1e-6)
            except TimeoutError:
                pass
            assert job.result(timeout=120.0).status == "converged"

    def test_close_rejects_submit_with_service_closed(self, lap):
        svc = make_service(lap)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(lap.b)
        svc.close()  # idempotent

    def test_close_drains_accepted_jobs(self, lap):
        svc = make_service(lap, processes=1, queue_size=8)
        rng = np.random.default_rng(4)
        jobs = [svc.submit(consistent_rhs(lap.a, rng)) for _ in range(4)]
        svc.close()
        # every job accepted before close holds a terminal result
        for job in jobs:
            assert job.result(timeout=1.0).status == "converged"
            assert job.state == "done"


# ----------------------------------------------------------------------
# lifecycle hygiene: zero leaked segments, zero leaked processes
# ----------------------------------------------------------------------

class TestLifecycleHygiene:
    def test_kill_close_leaves_no_segments_or_processes(self, lap):
        before = live_rshm_segments()
        svc = make_service(lap, processes=2)
        first_pids = svc.worker_pids()
        assert len(first_pids) == 2
        segments = list(svc.segment_names())
        assert segments
        for pid in first_pids:
            os.kill(pid, signal.SIGKILL)
        # the supervisor respawns the pool and still serves
        assert svc.submit(lap.b).result(timeout=120.0).status == "converged"
        respawned_pids = svc.worker_pids()
        svc.close()
        for name in segments + svc.segment_names():
            assert not _shm.segment_exists(name), f"leaked segment {name}"
        leaked = live_rshm_segments() - before
        assert not leaked, f"leaked /dev/shm segments: {leaked}"
        alive = wait_dead(set(first_pids) | set(respawned_pids))
        assert not alive, f"leaked worker processes: {alive}"


# ----------------------------------------------------------------------
# bench snapshot: schema, topology, bit-identity to the thread service
# ----------------------------------------------------------------------

class TestServeMpBench:
    def test_fast_bench_snapshot_schema_and_identity(self, tmp_path):
        from repro.observability.snapshot import assert_valid_snapshot

        doc = run_serve_mp_bench(processes=2, out_dir=tmp_path, fast=True)
        assert (tmp_path / "BENCH_serve_mp.json").exists()
        assert_valid_snapshot(doc)
        assert doc["topology"]["mode"] == "process"
        assert doc["topology"]["processes"] == 2
        mp_doc = doc["extra"]["serve_mp"]
        assert mp_doc["bit_identical_to_thread"]
        assert mp_doc["scaling_ok"], mp_doc
