"""Seeded chaos sweep: every fault site, classified statuses, no escapes.

:func:`run_chaos` drives the whole resilience surface in one deterministic
sweep — payload corruption, ABFT-checked SpMV faults, transient V-cycle
faults, dropped/garbled halo messages, corrupted cache spills and
checkpoints, expired deadlines, cancellations, and deadline-bounded service
jobs.  The contract under test is uniform:

    every injected fault ends in a *classified* solver status
    (``converged`` after recovery, or one of the failure/interrupt
    statuses) — never an unhandled exception escaping to the caller.

Each trial additionally runs under a captured event journal
(:class:`repro.observability.events.EventJournal`) and is held to an
*observability* contract: the injection itself must journal a
``chaos.inject`` event, and sites with a deterministic detection path must
journal the matching incident event (``serve.shm.corrupt``,
``checkpoint.rejected``, ``service.worker.respawn``, ...) — a fault the
operator cannot see in ``repro events`` fails the trial even when the
solver classified it.  :data:`EXPECTED_EVENTS` is the site -> required
event kinds table.

The sweep is the ``repro serve --chaos`` CI smoke and the engine behind
``tests/test_chaos.py``; everything is keyed on ``seed`` so a failing trial
replays exactly.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ChaosTrial",
    "ChaosReport",
    "run_chaos",
    "CHAOS_SITES",
    "EXPECTED_EVENTS",
]

#: Statuses the solver taxonomy knows how to hand a caller.
_CLASSIFIED = frozenset(
    {
        "converged",
        "maxiter",
        "stagnated",
        "breakdown",
        "diverged",
        "corrupted",
        "deadline",
        "cancelled",
        "rejected",  # corrupt artifact refused with ValueError by a loader
        "poisoned",  # job quarantined after repeated worker crashes
    }
)

#: The fault sites the sweep covers (one trial function per name).
CHAOS_SITES = (
    "payload.bitflip",
    "payload.overflow",
    "payload.underflow",
    "payload.perturb",
    "policy.stall",
    "abft.flip",
    "cycle.transient",
    "halo.transient",
    "halo.persistent",
    "spill.corrupt",
    "checkpoint.corrupt",
    "runtime.deadline",
    "runtime.cancel",
    "service.deadline",
    "proc.kill",
    "proc.hang",
    "proc.poison",
    "shm.corrupt_header",
    "shm.corrupt_payload",
    "shm.orphan",
)

#: Event kinds every trial of a site must journal (the observability gate).
#: ``chaos.inject`` is the injector announcing itself; the other kinds are
#: the incident events the *detection* path is required to emit.  Sites
#: whose detection event depends on seed-sensitive convergence behaviour
#: (the payload ladder may or may not escalate) require only the injection
#: record.
EXPECTED_EVENTS = {
    "payload.bitflip": ("chaos.inject",),
    "payload.overflow": ("chaos.inject",),
    "payload.underflow": ("chaos.inject",),
    "payload.perturb": ("chaos.inject",),
    "policy.stall": ("chaos.inject", "policy.escalate"),
    "abft.flip": ("chaos.inject",),
    "cycle.transient": ("chaos.inject",),
    "halo.transient": ("chaos.inject",),
    "halo.persistent": ("chaos.inject",),
    "spill.corrupt": ("chaos.inject", "serve.cache.spill_corrupt"),
    "checkpoint.corrupt": ("chaos.inject", "checkpoint.rejected"),
    "runtime.deadline": ("runtime.deadline",),
    "runtime.cancel": ("runtime.cancelled",),
    "service.deadline": ("service.job.deadline",),
    "proc.kill": ("chaos.inject", "service.worker.respawn"),
    "proc.hang": (
        "chaos.inject",
        "service.worker.heartbeat_miss",
        "service.worker.respawn",
    ),
    "proc.poison": ("chaos.inject", "service.job.poisoned"),
    "shm.corrupt_header": (
        "chaos.inject",
        "serve.shm.corrupt",
        "serve.shm.republished",
    ),
    "shm.corrupt_payload": (
        "chaos.inject",
        "serve.shm.corrupt",
        "serve.shm.republished",
    ),
    "shm.orphan": ("chaos.inject", "serve.shm.orphans_reaped"),
}


@dataclass
class ChaosTrial:
    """One fault injection and how the stack classified it."""

    site: str
    trial: int
    status: str
    ok: bool
    recovered: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "trial": self.trial,
            "status": self.status,
            "ok": self.ok,
            "recovered": self.recovered,
            "detail": {k: str(v) for k, v in self.detail.items()},
        }


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` sweep."""

    seed: int
    shape: tuple
    trials: list = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_ok(self) -> int:
        return sum(t.ok for t in self.trials)

    @property
    def n_recovered(self) -> int:
        return sum(t.recovered for t in self.trials)

    @property
    def ok(self) -> bool:
        """True when every trial ended in a classified status."""
        return all(t.ok for t in self.trials)

    def failures(self) -> list:
        return [t for t in self.trials if not t.ok]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "shape": list(self.shape),
            "n_trials": self.n_trials,
            "n_ok": self.n_ok,
            "n_recovered": self.n_recovered,
            "ok": self.ok,
            "trials": [t.to_dict() for t in self.trials],
        }

    def format(self) -> str:
        lines = [
            f"chaos sweep: {self.n_ok}/{self.n_trials} trials classified, "
            f"{self.n_recovered} recovered to convergence "
            f"(seed={self.seed}, shape={tuple(self.shape)})"
        ]
        for t in self.trials:
            mark = "ok " if t.ok else "ESC"
            lines.append(
                f"  [{mark}] {t.site:20s} trial {t.trial}: {t.status}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# trial implementations
# ----------------------------------------------------------------------

def _payload_trial(kind: str, prob, config, seed: int) -> tuple[str, dict]:
    from .faults import FaultInjector
    from .guard import EscalationPolicy, robust_solve

    inj = FaultInjector(seed=seed)

    def post_setup(hierarchy, attempt):
        if attempt > 0:
            return  # escalated hierarchies run clean: recovery must land
        if kind == "bitflip":
            inj.inject_bitflips(hierarchy, count=2, bit=14)
        elif kind == "overflow":
            inj.inject_overflow(hierarchy, count=2)
        elif kind == "underflow":
            inj.inject_underflow(hierarchy, count=16)
        else:
            inj.inject_perturbation(hierarchy, count=16, factor=64.0)

    result, report = robust_solve(
        prob.a,
        prob.b,
        config=config,
        options=prob.mg_options,
        solver=prob.solver,
        rtol=prob.rtol,
        maxiter=300,
        policy=EscalationPolicy(max_escalations=3),
        post_setup=post_setup,
    )
    return result.status, {
        "attempts": len(report.attempts),
        "injected": len(inj.records),
    }


def _policy_trial(prob, prob2, config, seed: int) -> tuple[str, dict]:
    """Seeded payload damage under the adaptive precision policy.

    Unlike the ``payload.*`` sites (which recover through the resilience
    *rebuild* ladder), this one must recover through the closed policy
    loop: the stall has to be detected, journaled as ``policy.escalate``,
    and fixed by re-tiering the damaged level mid-solve — no rebuild.

    The site runs two legs: the SPD problem through its native CG, and
    the nonsymmetric ``prob2`` through flexible GMRES — FGMRES is the
    solver whose contract *allows* the preconditioner to change between
    steps, so the policy's mid-solve re-tier exercises the flexible
    restart path rather than relying on GMRES's cycle-boundary fold.
    Both legs must recover for the trial to classify as converged.
    """
    import dataclasses

    from ..mg import mg_setup
    from ..policy import attach_policy
    from ..solvers import solve
    from .faults import FaultInjector

    cfg = config.with_(policy="adaptive")
    detail: dict = {}
    status = "converged"
    legs = ((prob, prob.solver, "cg_leg"), (prob2, "fgmres", "fgmres_leg"))
    for leg_prob, leg_solver, tag in legs:
        options = dataclasses.replace(leg_prob.mg_options, keep_high=True)
        hierarchy = mg_setup(leg_prob.a, cfg, options)
        # Per-leg damage, tuned so the solve *stalls* (the policy's
        # signal) rather than producing non-finite values: the SPD leg
        # amplifies finest-level entries x32; the nonsymmetric leg
        # sign-flips a quarter of the finest payload (amplification
        # overflows weather's near-65504 FP16 coefficients straight to
        # inf, which is divergence, not a stall).  Both must be
        # unambiguous so the escalate decision fires for every seed.
        inj = FaultInjector(seed=seed)
        if tag == "cg_leg":
            inj.inject_perturbation(hierarchy, level=0, count=256, factor=32.0)
        else:
            inj.inject_perturbation(hierarchy, level=0, count=4000, factor=-1.0)
        controller = attach_policy(hierarchy)
        result = solve(
            leg_solver,
            leg_prob.a,
            leg_prob.b,
            preconditioner=hierarchy.precondition,
            rtol=leg_prob.rtol,
            maxiter=300,
            policy_controller=controller,
        )
        detail[tag] = result.status
        detail[f"{tag}_escalations"] = controller.escalations
        detail[f"{tag}_final_levels"] = "/".join(
            lev.stored.storage.name for lev in hierarchy.levels
        )
        if result.status != "converged":
            status = result.status  # worst leg classifies the trial
    return status, detail


def _abft_trial(prob, config, seed: int) -> tuple[str, dict]:
    from .faults import FaultInjector
    from .guard import EscalationPolicy, robust_solve

    inj = FaultInjector(seed=seed)

    def post_setup(hierarchy, attempt):
        if attempt == 0:
            # Level 0 is the one whose residual SpMV the ABFT checker sees.
            inj.inject_bitflips(hierarchy, level=0, count=1, bit=14)

    result, report = robust_solve(
        prob.a,
        prob.b,
        config=config,
        options=prob.mg_options,
        solver=prob.solver,
        rtol=prob.rtol,
        maxiter=300,
        policy=EscalationPolicy(max_escalations=3),
        post_setup=post_setup,
        abft_verify_every=1,
        health_check=False,  # make ABFT the detector, not the pre-audit
    )
    detected = any(a.status == "corrupted" for a in report.attempts)
    return result.status, {
        "abft_detected": detected,
        "injected": len(inj.records),
    }


def _cycle_trial(prob, config, seed: int) -> tuple[str, dict]:
    from ..mg import mg_setup
    from ..solvers import solve
    from .faults import cycle_fault

    rng = np.random.default_rng([seed, 0xC1C])
    hierarchy = mg_setup(prob.a, config, prob.mg_options)

    def corrupt(arr):
        flat = arr.reshape(-1)
        idx = rng.integers(0, flat.size, size=max(1, flat.size // 64))
        flat[idx] *= 1e6
        return arr

    with cycle_fault(hierarchy, corrupt, at_application=2):
        result = solve(
            prob.solver,
            prob.a,
            prob.b,
            preconditioner=hierarchy.precondition,
            rtol=prob.rtol,
            maxiter=300,
        )
    return result.status, {"iterations": result.iterations}


def _halo_trial(persistent: bool, prob, config, seed: int) -> tuple[str, dict]:
    from ..mg import mg_setup
    from ..parallel import (
        DistributedField,
        DistributedMG,
        DistributedSGDIA,
        distributed_cg,
    )
    from .faults import halo_fault

    hierarchy = mg_setup(prob.a, config, prob.mg_options)
    decomp = DistributedMG.aligned_decomposition(
        prob.a.grid, (2, 1, 1), hierarchy.n_levels
    )
    dmg = DistributedMG(hierarchy, decomp)
    da = DistributedSGDIA.from_global(prob.a, decomp)
    b = DistributedField.scatter(
        np.asarray(prob.b).reshape(prob.a.grid.field_shape),
        decomp,
        dtype=np.float64,
    )

    def precond(r, z):
        e = dmg.precondition(r)
        for rank in range(decomp.nranks):
            z.owned_view(rank)[...] = e.owned_view(rank)

    with halo_fault(
        kind="drop" if persistent else "garble",
        at_message=3,
        persistent=persistent,
        seed=seed,
    ):
        result, _stats = distributed_cg(
            da, b, rtol=prob.rtol, maxiter=300, preconditioner=precond
        )
    return result.status, {"iterations": result.iterations}


def _spill_trial(prob, prob2, config, seed: int) -> tuple[str, dict]:
    from ..serve.cache import HierarchyCache, hierarchy_nbytes
    from .faults import FaultInjector

    with tempfile.TemporaryDirectory() as tmp:
        # Budget fits one hierarchy: admitting the second spills the first.
        probe = HierarchyCache(spill_dir=Path(tmp) / "probe")
        h0, key, _src = probe.get_or_build(prob.a, config, prob.mg_options)
        cache = HierarchyCache(
            max_bytes=hierarchy_nbytes(h0) + 1, spill_dir=tmp
        )
        _h, key, _src = cache.get_or_build(prob.a, config, prob.mg_options)
        cache.get_or_build(prob2.a, config, prob2.mg_options)
        spilled = cache._spill_path(key)
        if not spilled.exists():
            return "unspilled", {}
        FaultInjector(seed=seed).corrupt_spill(spilled, nbytes=256)
        h, _key, source = cache.get_or_build(prob.a, config, prob.mg_options)
        status = "converged" if source == "build" else "corrupted"
        return status, {
            "source": source,
            "spill_corrupt": cache.stats.spill_corrupt,
        }


def _checkpoint_trial(prob, config, seed: int) -> tuple[str, dict]:
    from .faults import FaultInjector
    from .runtime import SolverCheckpoint, load_checkpoint, save_checkpoint

    n = int(np.prod(prob.b.shape))
    rng = np.random.default_rng(seed)
    cp = SolverCheckpoint(
        solver="cg",
        iteration=7,
        arrays={
            "x": rng.standard_normal(n),
            "r": rng.standard_normal(n),
            "p": rng.standard_normal(n),
        },
        scalars={"rz": 1.25},
        history=[1.0, 0.5],
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cp.npz"
        save_checkpoint(path, cp)
        FaultInjector(seed=seed).corrupt_spill(path, nbytes=128)
        try:
            load_checkpoint(path)
        except ValueError:
            return "rejected", {"loader": "ValueError"}
    return "accepted-corrupt", {}


def _deadline_trial(cancelled: bool, prob, config, seed: int):
    from ..mg import mg_setup
    from ..solvers import solve
    from .runtime import CancelToken, Deadline, ExecContext

    hierarchy = mg_setup(prob.a, config, prob.mg_options)
    if cancelled:
        token = CancelToken()
        token.cancel()
        ctx = ExecContext(cancel=token)
    else:
        clock = lambda: 10.0  # noqa: E731 - deterministic frozen clock
        ctx = ExecContext(deadline=Deadline(at=5.0, clock=clock))
    result = solve(
        prob.solver,
        prob.a,
        prob.b,
        preconditioner=hierarchy.precondition,
        rtol=prob.rtol,
        maxiter=300,
        runtime=ctx,
    )
    finite = bool(np.isfinite(result.x).all())
    return result.status, {"iterate_finite": finite}


def _service_trial(prob, config, seed: int) -> tuple[str, dict]:
    import time

    from ..serve.service import SolverService
    from .runtime import Deadline, RetryPolicy

    with SolverService(
        prob.a,
        config=config,
        options=prob.mg_options,
        workers=1,
        queue_size=8,
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.001, seed=seed),
        poll_interval=0.005,
        solver=prob.solver,
        rtol=prob.rtol,
        escalate=False,
    ) as svc:
        blocker = svc.submit(prob.b)
        doomed = svc.submit(
            prob.b, deadline=Deadline(at=-1.0, clock=time.monotonic)
        )
        late = doomed.result(timeout=30.0)
        blocked = blocker.result(timeout=60.0)
    ok_states = doomed.state == "deadline" and late.status == "deadline"
    return late.status if ok_states else "unexpected", {
        "doomed_state": doomed.state,
        "blocker_status": blocked.status,
        "partial_finite": bool(np.isfinite(late.x).all()),
    }


def _proc_trial(mode: str, prob, config, seed: int) -> tuple[str, dict]:
    """Process-pool supervision: crash, hang, or poison-quarantine.

    ``kill`` SIGKILLs the (idle) pool before the job arrives — recovery is
    crash detection + respawn + redelivery.  ``hang`` SIGSTOPs the pool,
    so only the heartbeat path can save the job.  ``poison`` is the hang
    scenario with ``max_redeliveries=0``: the one lost delivery must
    quarantine the job as ``"poisoned"`` instead of crash-looping.
    """
    from ..serve.procpool import ProcessSolverService
    from .faults import FaultInjector

    inj = FaultInjector(seed=seed)
    svc = ProcessSolverService(
        prob.a,
        config=config,
        options=prob.mg_options,
        processes=2,
        heartbeat_interval=0.02,
        hang_timeout=0.5,
        max_redeliveries=0 if mode == "poison" else 2,
        solver=prob.solver,
        rtol=prob.rtol,
        maxiter=300,
        escalate=False,
    )
    try:
        # barrier: a worker frozen before it reports ready never receives
        # the job, which would dodge the redelivery path under test
        svc.wait_ready()
        if mode == "kill":
            inj.kill_worker(svc, index=0)
            inj.kill_worker(svc, index=1)
        else:  # hang / poison: freeze the whole pool
            inj.hang_worker(svc, index=0)
            inj.hang_worker(svc, index=1)
        job = svc.submit(prob.b)
        result = job.result(timeout=120.0)
        status = result.status
        detail = {
            "respawns": svc.n_respawns,
            "requeued": svc.n_requeued,
            "poisoned": svc.n_poisoned,
            "heartbeat_misses": svc.n_heartbeat_miss,
            "iterate_finite": bool(np.isfinite(result.x).all()),
        }
        if mode == "poison" and status != "poisoned":
            status = "unexpected"  # the quarantine bound did not hold
    finally:
        svc.close()
    return status, detail


def _shm_trial(where: str, prob, config, seed: int) -> tuple[str, dict]:
    """Corrupt a published segment before its first attach.

    The worker must classify the segment (``serve.shm.corrupt``), the
    supervisor must rebuild + republish, and the redelivered job must
    return the *same bits* a clean in-process solve produces — corruption
    may delay an answer, never change one.
    """
    from ..serve.procpool import ProcessSolverService
    from ..serve.session import SolverSession
    from .faults import FaultInjector

    inj = FaultInjector(seed=seed)
    reference = SolverSession(
        prob.a, config=config, options=prob.mg_options,
        solver=prob.solver, rtol=prob.rtol, maxiter=300, escalate=False,
    ).solve(prob.b, warm_start=False)
    svc = ProcessSolverService(
        prob.a,
        config=config,
        options=prob.mg_options,
        processes=1,
        heartbeat_interval=0.02,
        solver=prob.solver,
        rtol=prob.rtol,
        maxiter=300,
        escalate=False,
    )
    try:
        seg = svc.segment_names()[0]
        inj.corrupt_segment(
            seg, nbytes=64, offset=0 if where == "header" else None
        )
        result = svc.submit(prob.b, warm_start=False).result(timeout=120.0)
        identical = result.status == reference.status and bool(
            np.array_equal(result.x, reference.x)
        )
        detail = {
            "corrupt_detected": svc.n_shm_corrupt,
            "segment_rebuilds": svc.n_segment_rebuilds,
            "bit_identical": identical,
        }
        if svc.n_shm_corrupt < 1:
            status = "undetected"  # solved from bytes it should have refused
        elif not identical:
            status = "wrong-answer"
        else:
            status = result.status
    finally:
        svc.close()
    return status, detail


def _orphan_trial(prob, config, seed: int) -> tuple[str, dict]:
    """Plant a dead-PID segment; service startup must sweep it."""
    from ..serve import shm as _shm
    from ..serve.procpool import ProcessSolverService
    from .faults import FaultInjector

    name = FaultInjector(seed=seed).orphan_segment()
    if not _shm.segment_exists(name):
        return "unplanted", {}
    svc = ProcessSolverService(
        prob.a,
        config=config,
        options=prob.mg_options,
        processes=1,
        solver=prob.solver,
        rtol=prob.rtol,
        maxiter=300,
        escalate=False,
    )
    try:
        swept = not _shm.segment_exists(name)
        result = svc.submit(prob.b).result(timeout=120.0)
        status = result.status if swept else "orphan-survived"
    finally:
        svc.close()
        _shm.unlink_segment(name)  # hygiene if the sweep failed
    return status, {"orphan": name, "swept": swept}


# ----------------------------------------------------------------------

def run_chaos(
    shape: tuple = (12, 12, 8),
    trials: int = 2,
    seed: int = 0,
    fast: bool = False,
    config: str = "K64P32D16-setup-scale",
    sites: "tuple | None" = None,
) -> ChaosReport:
    """Sweep every fault site ``trials`` times; return the classification.

    ``fast=True`` is the CI smoke mode: one trial per site on a smaller
    grid.  ``sites`` restricts the sweep (names from :data:`CHAOS_SITES`).
    A trial whose injected fault escapes as an exception is recorded with
    status ``unhandled:<ExceptionType>`` and fails the report.  A trial
    that does not journal its :data:`EXPECTED_EVENTS` fails too
    (``detail["events_missing"]``): every injected fault must be visible
    to an operator, not just survivable.
    """
    from ..observability import events as _events
    from ..precision import parse_config
    from ..problems import build_problem

    if fast:
        shape = tuple(min(s, 10) for s in shape)
        trials = 1
    cfg = parse_config(config)
    chosen = CHAOS_SITES if sites is None else tuple(sites)
    unknown = set(chosen) - set(CHAOS_SITES)
    if unknown:
        raise ValueError(f"unknown chaos sites: {sorted(unknown)}")
    report = ChaosReport(seed=seed, shape=tuple(shape))

    for t in range(trials):
        prob = build_problem("laplace27", shape, seed=seed + t)
        prob2 = build_problem("weather", shape, seed=seed + t)
        for site in chosen:
            # Captured journal: the trial's whole stack (service threads
            # included) emits into it, and the gate below checks that the
            # site's required event kinds actually landed.
            with _events.capturing() as journal:
                try:
                    if site.startswith("payload."):
                        status, detail = _payload_trial(
                            site.split(".", 1)[1], prob, cfg, seed + t
                        )
                    elif site == "policy.stall":
                        status, detail = _policy_trial(
                            prob, prob2, cfg, seed + t
                        )
                    elif site == "abft.flip":
                        status, detail = _abft_trial(prob, cfg, seed + t)
                    elif site == "cycle.transient":
                        status, detail = _cycle_trial(prob, cfg, seed + t)
                    elif site == "halo.transient":
                        status, detail = _halo_trial(
                            False, prob, cfg, seed + t
                        )
                    elif site == "halo.persistent":
                        status, detail = _halo_trial(
                            True, prob, cfg, seed + t
                        )
                    elif site == "spill.corrupt":
                        status, detail = _spill_trial(
                            prob, prob2, cfg, seed + t
                        )
                    elif site == "checkpoint.corrupt":
                        status, detail = _checkpoint_trial(
                            prob, cfg, seed + t
                        )
                    elif site == "runtime.deadline":
                        status, detail = _deadline_trial(
                            False, prob, cfg, seed + t
                        )
                    elif site == "runtime.cancel":
                        status, detail = _deadline_trial(
                            True, prob, cfg, seed + t
                        )
                    elif site == "service.deadline":
                        status, detail = _service_trial(prob, cfg, seed + t)
                    elif site.startswith("proc."):
                        status, detail = _proc_trial(
                            site.split(".", 1)[1], prob, cfg, seed + t
                        )
                    elif site == "shm.corrupt_header":
                        status, detail = _shm_trial(
                            "header", prob, cfg, seed + t
                        )
                    elif site == "shm.corrupt_payload":
                        status, detail = _shm_trial(
                            "payload", prob, cfg, seed + t
                        )
                    else:  # shm.orphan
                        status, detail = _orphan_trial(prob, cfg, seed + t)
                except Exception as exc:  # the contract violation we hunt
                    status = f"unhandled:{type(exc).__name__}"
                    detail = {"error": str(exc)}
            # Observability gate: the journal must contain every event
            # kind the site is contracted to emit.
            observed = {e.kind for e in journal.events()}
            missing = [
                k for k in EXPECTED_EVENTS.get(site, ()) if k not in observed
            ]
            if missing:
                detail["events_missing"] = ",".join(missing)
            report.trials.append(
                ChaosTrial(
                    site=site,
                    trial=t,
                    status=status,
                    ok=status in _CLASSIFIED and not missing,
                    recovered=status == "converged",
                    detail=detail,
                )
            )
    return report
