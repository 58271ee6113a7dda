"""Solve services: one job lifecycle core, two worker modes.

Clients submit right-hand sides (single vectors or multi-RHS blocks)
against a service's operator stream and receive
:class:`~repro.solvers.SolveResult` objects through :class:`SolveJob`
futures.  :class:`ServiceCore` owns the whole life of a job, once for
both modes: bounded admission (``block=True`` waits for a slot,
``block=False`` raises :class:`ServiceSaturated`, a draining service
raises :class:`ServiceClosed`), one control thread (queued-job expiry,
retry release, dispatch, status document), retry-or-finalize of every
attempt, and a draining, idempotent ``close()``.  A mode supplies only
its workers:

- :class:`SolverService` (here): worker threads, each owning a
  :class:`~repro.serve.session.SolverSession` — warm-start state is
  per-worker — while all sessions share one :class:`HierarchyCache`, so
  the expensive setup runs once no matter how many workers serve it;
- :class:`~repro.serve.procpool.ProcessSolverService`: supervised worker
  processes serving hierarchies from checksummed shared memory.

Jobs are deadline-aware futures: each :class:`SolveJob` carries an optional
:class:`~repro.resilience.runtime.Deadline` and a per-job
:class:`~repro.resilience.runtime.CancelToken`, combined into the
:class:`~repro.resilience.runtime.ExecContext` the worker hands to its
session — an expired or cancelled job returns a result with status
``"deadline"`` / ``"cancelled"`` carrying the partial iterate, it never
blocks the caller forever.  A job that ages out *while still queued* is
expired without spending worker time, and a retry waits out its
:class:`~repro.resilience.runtime.RetryPolicy` backoff on the core's heap,
so no worker idles through a backoff and a cancel cuts it short.

The module also hosts :func:`run_serve_bench`, the ``repro serve --bench``
workload: a 50-timestep weather replay measuring setup amortization from
the hierarchy cache, plus a batched multi-RHS consistency check, emitted
as a schema-valid ``BENCH_serve.json``.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..mg import MGOptions
from ..observability import events as _events
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..observability.telemetry import STATUS_SCHEMA, ServiceStats, write_status
from ..precision import PrecisionConfig
from ..resilience.runtime import (
    CancelToken,
    Deadline,
    ExecContext,
    RetryPolicy,
)
from ..sgdia import SGDIAMatrix
from ..solvers import (
    FAILURE_STATUSES,
    INTERRUPTED_STATUSES,
    ConvergenceHistory,
    SolveResult,
)
from .cache import HierarchyCache
from .session import SolverSession

__all__ = [
    "ServiceClosed",
    "ServiceSaturated",
    "SolveJob",
    "SolverService",
    "run_serve_bench",
]


class ServiceSaturated(RuntimeError):
    """The job queue is full and the caller asked not to wait."""


class ServiceClosed(RuntimeError):
    """The service is draining (or shut down) and rejects new jobs.

    Distinct from :class:`ServiceSaturated`: saturation is transient
    backpressure — retry later; closed is terminal — submit elsewhere.
    (Subclasses :class:`RuntimeError` for pre-close() callers that caught
    the old bare ``RuntimeError``.)
    """


@dataclass(eq=False)
class SolveJob:
    """One queued solve request (a deadline-aware future).

    ``state`` walks ``"pending"`` (queued) → ``"running"`` (claimed by a
    worker) → a terminal state: ``"done"`` (a result was delivered,
    whatever its solver status), ``"failed"`` (the worker raised),
    ``"deadline"`` / ``"cancelled"`` (the job was interrupted — the result
    still carries the best iterate available, possibly the zero initial
    guess when the job never left the queue), ``"poisoned"`` (quarantined
    after repeated worker-process deaths).  A retry moves ``"running"``
    back to ``"pending"``.  ``result()`` raising :class:`TimeoutError`
    does **not** consume the job: the future stays retrievable and a later
    ``result()`` call returns normally once the job finishes.  Jobs
    compare by identity.
    """

    id: int
    b: np.ndarray
    batched: bool = False
    kwargs: dict = field(default_factory=dict)
    deadline: "Deadline | None" = None
    cancel: CancelToken = field(default_factory=CancelToken)
    state: str = "pending"
    attempts: int = 0
    worker: "int | None" = None
    #: Operator fingerprint the job targets (process service only — the
    #: thread service always solves against its sessions' live operator).
    fp: "str | None" = None
    #: Times the job was re-queued after its worker process died mid-run;
    #: past the service's bound the job is quarantined as ``"poisoned"``.
    redeliveries: int = 0
    #: ``perf_counter`` stamps for the latency histograms: submission time
    #: and first dispatch to a worker (0.0 until the event happened).
    t_submit: float = 0.0
    t_dispatch: float = 0.0
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _result: "SolveResult | list[SolveResult] | None" = field(
        default=None, repr=False
    )
    _error: "BaseException | None" = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def done(self) -> bool:
        return self._done.is_set()

    def request_cancel(self) -> None:
        """Ask the job to stop cooperatively (queued or in flight)."""
        self.cancel.cancel()

    def result(self, timeout: "float | None" = None):
        """Block until the job finishes; re-raise the worker's exception.

        A wait timeout raises :class:`TimeoutError` without consuming the
        future — call again later to retrieve the eventual result.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} did not finish in time")
        if self._error is not None:
            raise self._error
        return self._result

    # -- state transitions (claim/finish race between worker & control) --
    def _claim(self, worker: "int | None") -> bool:
        """Atomically move ``pending`` → ``running``; False if already
        claimed or finished (the loser of the race backs off)."""
        with self._lock:
            if self.state != "pending":
                return False
            self.state = "running"
            self.worker = worker
            return True

    def _finish(self, state: str, result=None, error=None) -> bool:
        """Record the terminal state once; False if already finished.
        The service releases waiters (``_done``) after booking it."""
        with self._lock:
            if self.state not in ("pending", "running"):
                return False
            self.state = state
            self._result = result
            self._error = error
            return True

    def _requeue(self) -> bool:
        """Move ``running`` back to ``pending`` (retry or redelivery)."""
        with self._lock:
            if self.state != "running":
                return False
            self.state = "pending"
            self.worker = None
            return True


def interrupted_result(job: SolveJob, status: str):
    """Synthesize the result of a job that never got solver time.

    Shared by the thread and process services: an expired/cancelled/
    poisoned job still resolves to a real :class:`SolveResult` (zero
    iterate, one recorded residual) so ``result()`` never blocks forever
    and downstream code sees the normal shape.
    """

    def one(col: np.ndarray) -> SolveResult:
        history = ConvergenceHistory()
        history.record(1.0)
        return SolveResult(
            x=np.zeros(col.shape, dtype=np.float64),
            status=status,
            iterations=0,
            history=history,
            solver="service",
            detail={
                "expired_before_run": True,
                "attempts": job.attempts,
                "redeliveries": job.redeliveries,
            },
        )

    b = np.asarray(job.b)
    if job.batched:
        return [one(b[..., j]) for j in range(b.shape[-1])]
    return one(b)


def classify_result(result, batched: bool) -> str:
    """Job-level state for a delivered result.

    ``"cancelled"``/``"deadline"`` when any column was interrupted
    (cancellation wins: it is the explicit signal), ``"retry"`` when any
    column carries a failure status (candidate for the retry policy),
    ``"done"`` otherwise.
    """
    statuses = [r.status for r in result] if batched else [result.status]
    if "cancelled" in statuses:
        return "cancelled"
    if "deadline" in statuses:
        return "deadline"
    if any(s in FAILURE_STATUSES for s in statuses):
        return "retry"
    return "done"


class ServiceCore:
    """Job lifecycle shared by the thread and process services.

    A mode subclasses the core, builds its workers (records with an
    ``index``), then calls :meth:`_launch`.  Its hooks:

    - ``_wait(timeout)`` / ``_wake()``: the control thread's sleep, and
      the early wake-up on a submit, a cancel or a freed worker;
    - ``_supervise()``: worker liveness, once per control round;
    - ``_idle_workers()`` / ``_hand_off(worker, job)``: dispatch of a
      claimed job (``_hand_off`` returns False when the worker stays free);
    - ``_shutdown()``: stop the workers once every job is terminal;
    - ``_target(kwargs)``, ``_worker_rows()``, ``_cache_summary()``: the
      job's operator and the mode's part of the status document.

    Parameters
    ----------
    queue_size:
        Bound of the pending deque — the backpressure knob.  Only live
        queued jobs count: a cancelled or expired job frees its slot.
    retry_policy:
        :class:`~repro.resilience.runtime.RetryPolicy` for re-running
        failed attempts (exceptions and failure-classified statuses such as
        ``"corrupted"``); the default never retries.
    default_deadline:
        Wall-clock budget (seconds) for submissions without a ``deadline``;
        ``None`` leaves jobs unbounded.
    poll_interval:
        Period of the control thread's round when nothing wakes it.
    status_path:
        Where :meth:`status_doc` is published for ``repro top`` (at most
        every 0.5 s, and once more on close).
    """

    #: ``"thread"`` or ``"process"``: the status document's ``mode``.
    mode = ""

    def __init__(
        self,
        queue_size: int,
        retry_policy: "RetryPolicy | None",
        default_deadline: "float | None",
        poll_interval: float,
        status_path: "str | None",
    ) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.queue_size = int(queue_size)
        self.retry_policy = retry_policy or RetryPolicy()
        self.default_deadline = default_deadline
        self.poll_interval = float(poll_interval)
        self.status_path = status_path
        self.telemetry = ServiceStats()
        self._status_written = 0.0
        self._cond = threading.Condition()
        self._pending: deque[SolveJob] = deque()
        self._jobs: dict[int, SolveJob] = {}
        self._retries: list[tuple[float, int, SolveJob]] = []
        self._next_id = 0
        self._pending_submits = 0
        self._closing = False
        self._closed = False
        self._close_lock = threading.Lock()
        self.n_submitted = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_rejected = 0
        self.n_retried = 0
        self.n_deadline = 0
        self.n_cancelled = 0
        self.n_poisoned = 0
        self.n_respawns = 0

    def _launch(self, **attrs) -> None:
        """Start the control thread once the mode's workers exist."""
        self._control = threading.Thread(
            target=self._control_loop, name=f"solve-{self.mode}-control",
            daemon=True,
        )
        self._control.start()
        _events.emit(
            "info", "service.start", f"{self.mode} service up",
            mode=self.mode, **attrs,
        )

    def _target(self, kwargs: dict) -> "str | None":
        """Operator fingerprint for a new job (may consume ``kwargs``)."""
        return None

    # -- submission -----------------------------------------------------
    def submit(
        self,
        b: np.ndarray,
        batched: bool = False,
        block: bool = True,
        timeout: "float | None" = None,
        deadline: "float | Deadline | None" = None,
        **kwargs,
    ) -> SolveJob:
        """Enqueue a solve; returns the :class:`SolveJob` future.

        ``batched=True`` routes the RHS block through ``solve_many``.
        With ``block=False`` (or on timeout) a full queue raises
        :class:`ServiceSaturated` instead of waiting.  ``deadline`` is a
        per-job wall-clock budget in seconds (or a prebuilt
        :class:`Deadline`); it covers queue wait *and* solve time, and
        falls back to the service's ``default_deadline``.  A closed or
        draining service raises :class:`ServiceClosed` — the closed check
        and the queue insertion are coordinated with ``close()`` through
        an in-flight-submit counter, so ``close()`` never returns while a
        submission it accepted is still unfinished.  The process service
        also takes ``operator=`` (see
        :meth:`~repro.serve.procpool.ProcessSolverService.publish`); other
        keywords go to the session's ``solve``.
        """
        with self._cond:
            if self._closing:
                raise ServiceClosed("service is closed to new submissions")
            self._pending_submits += 1
        try:
            fp = self._target(kwargs)
            if deadline is None:
                deadline = self.default_deadline
            if deadline is not None and not isinstance(deadline, Deadline):
                deadline = Deadline.after(float(deadline))
            with self._cond:
                if len(self._pending) >= self.queue_size:
                    ok = block and self._cond.wait_for(
                        lambda: (
                            len(self._pending) < self.queue_size
                            or self._closing
                        ),
                        timeout,
                    )
                    if self._closing:
                        raise ServiceClosed(
                            "service closed while waiting for a queue slot"
                        )
                    if not ok:
                        self.n_rejected += 1
                        _metrics.incr("serve.jobs.rejected")
                        raise ServiceSaturated(
                            f"solve queue is full ({self.queue_size} pending)"
                        )
                job = SolveJob(
                    id=self._next_id, b=np.asarray(b), batched=batched,
                    kwargs=kwargs, deadline=deadline, fp=fp,
                    t_submit=time.perf_counter(),
                )
                self._next_id += 1
                self._jobs[job.id] = job
                self._pending.append(job)
                self.n_submitted += 1
            _metrics.incr("serve.jobs.submitted")
            self._wake()
            return job
        finally:
            with self._cond:
                self._pending_submits -= 1
                self._cond.notify_all()

    def cancel(self, job: SolveJob) -> None:
        """Cooperatively cancel a queued or in-flight job.

        A queued job (or one waiting out a retry backoff) is finalized by
        the control thread; a running job aborts at its next cooperative
        check and returns its partial iterate with status ``"cancelled"``.
        """
        job.request_cancel()
        self._wake()

    def solve(self, b: np.ndarray, **kwargs):
        """Convenience: submit and wait."""
        return self.submit(b, **kwargs).result()

    # -- control thread -------------------------------------------------
    def _control_loop(self) -> None:
        while True:
            self._wait(self.poll_interval)
            self._supervise()
            self._expire_pending()
            self._release_retries()
            self._dispatch()
            self._maybe_write_status()
            if self._closing:
                with self._cond:
                    if not self._jobs:
                        return

    def _expire_pending(self) -> None:
        """Finalize queued jobs that are past their deadline or cancelled.

        Covers jobs waiting out a retry backoff too (they are ``pending``
        on the retry heap), so a cancel cuts a backoff short.
        """
        with self._cond:
            pending = [j for j in self._jobs.values() if j.state == "pending"]
        for job in pending:
            status = ExecContext(
                deadline=job.deadline, cancel=job.cancel
            ).check()
            if status is not None and job._claim(None):
                self._finalize(
                    job, status, result=interrupted_result(job, status)
                )

    def _release_retries(self) -> None:
        """Move retries whose backoff has elapsed back onto the deque."""
        now = time.monotonic()
        with self._cond:
            while self._retries and self._retries[0][0] <= now:
                _due, _id, job = heapq.heappop(self._retries)
                if job.state == "pending":  # not expired during backoff
                    self._pending.append(job)

    def _dispatch(self) -> None:
        """Hand each idle worker its next job (at most one in flight)."""
        for worker in self._idle_workers():
            while True:
                with self._cond:
                    job = self._pending.popleft() if self._pending else None
                    if job is not None:
                        self._cond.notify_all()  # a queue slot freed up
                if job is None:
                    return
                if not job._claim(worker.index):
                    continue  # expired/cancelled while queued
                job.attempts += 1
                if job.t_dispatch == 0.0:
                    job.t_dispatch = time.perf_counter()
                    if job.t_submit:
                        self.telemetry.record(
                            "queue_wait", job.t_dispatch - job.t_submit
                        )
                if self._hand_off(worker, job):
                    break  # this worker is now busy

    # -- outcomes -------------------------------------------------------
    def _complete(self, job: SolveJob, result=None, error=None) -> None:
        """Classify one finished attempt, then retry or finalize the job."""
        if error is not None:
            if not self._schedule_retry(job):
                self._finalize(job, "failed", error=error)
            return
        state = classify_result(result, job.batched)
        if state in INTERRUPTED_STATUSES:
            # Interrupts are not retried — the budget is spent (or the
            # caller asked to stop); the partial iterate is the answer.
            self._finalize(job, state, result=result)
        elif state == "done" or not self._schedule_retry(job):
            self._finalize(job, "done", result=result)

    def _schedule_retry(self, job: SolveJob) -> bool:
        """Put a failed attempt on the backoff heap; False if it must not
        retry (retries exhausted, or the job expired or was cancelled)."""
        policy = self.retry_policy
        ctx = ExecContext(deadline=job.deadline, cancel=job.cancel)
        if job.attempts - 1 >= policy.max_retries or ctx.check() is not None:
            return False
        if not job._requeue():
            return False
        due = time.monotonic() + policy.delay(job.attempts - 1, key=job.id)
        with self._cond:
            self.n_retried += 1
            heapq.heappush(self._retries, (due, job.id, job))
        _metrics.incr("service.job.retry")
        self.telemetry.count("retried")
        _events.emit(
            "warning", "service.job.retry",
            f"job {job.id} attempt {job.attempts} failed; backing off",
            job=job.id, attempt=job.attempts,
        )
        return True

    def _finalize(self, job: SolveJob, state: str, result=None, error=None):
        """Deliver a terminal state exactly once and update the counters."""
        with self._cond:
            if not job._finish(state, result=result, error=error):
                return False
            self._jobs.pop(job.id, None)
            if job in self._pending:  # frees its admission slot now
                self._pending.remove(job)
            if error is not None:
                self.n_failed += 1
                _metrics.incr("serve.jobs.failed")
                self.telemetry.count("failed")
            else:
                self.n_completed += 1
                _metrics.incr("serve.jobs.completed")
                self.telemetry.count("completed")
            if state == "deadline":
                self.n_deadline += 1
                _metrics.incr("service.job.deadline")
                self.telemetry.count("deadline_miss")
                _events.emit(
                    "warning", "service.job.deadline",
                    f"job {job.id} missed its deadline", job=job.id,
                )
            elif state == "cancelled":
                self.n_cancelled += 1
                _metrics.incr("service.job.cancelled")
                self.telemetry.count("cancelled")
                _events.emit(
                    "info", "service.job.cancelled",
                    f"job {job.id} cancelled", job=job.id,
                )
            elif state == "poisoned":
                self.n_poisoned += 1
                _metrics.incr("service.job.poisoned")
                _events.emit(
                    "critical", "service.job.poisoned",
                    f"job {job.id} quarantined after {job.redeliveries} "
                    "redeliveries",
                    job=job.id, redeliveries=job.redeliveries,
                )
            if job.t_submit:
                self.telemetry.record(
                    "e2e", time.perf_counter() - job.t_submit
                )
            job._done.set()  # waiters now see the booked outcome
            self._cond.notify_all()
        return True

    # -- shutdown -------------------------------------------------------
    def drain(self) -> None:
        """Wait until every accepted job has reached a terminal state."""
        with self._cond:
            self._cond.wait_for(lambda: not self._jobs)

    def close(self) -> None:
        """Graceful drain: reject new jobs, finish accepted ones, stop.

        After ``close()`` returns every job accepted before the close has
        a terminal state, the workers have exited, any concurrent
        ``submit()`` has either been accepted (and completed) or raised
        :class:`ServiceClosed`, and the final status document is written.
        Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            with self._cond:
                self._closing = True
                self._cond.notify_all()  # fail queue-slot waiters fast
                self._cond.wait_for(lambda: self._pending_submits == 0)
            self._wake()
            self._control.join()
            self._shutdown()
            self._closed = True
        _events.emit("info", "service.stop", f"{self.mode} service drained")
        self._maybe_write_status(min_interval=0.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """Counters and latency histograms; modes add their own keys."""
        return {
            "submitted": self.n_submitted,
            "completed": self.n_completed,
            "failed": self.n_failed,
            "rejected": self.n_rejected,
            "retried": self.n_retried,
            "deadline": self.n_deadline,
            "cancelled": self.n_cancelled,
            "worker_respawns": self.n_respawns,
            "queue_size": self.queue_size,
            "latency": self.telemetry.snapshot(),
        }

    def status_doc(self) -> dict:
        """Live-state document for ``repro top`` / ``serve --watch``."""
        with self._cond:
            depth = len(self._pending)
        journal = _events.get_journal()
        return {
            "schema": STATUS_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "mode": self.mode,
            "workers": self._worker_rows(),
            "queue_depth": depth,
            "counts": {
                "submitted": self.n_submitted,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "deadline": self.n_deadline,
                "cancelled": self.n_cancelled,
                "poisoned": self.n_poisoned,
            },
            "cache": self._cache_summary(),
            "latency": self.telemetry.snapshot(),
            "events": journal.to_dicts(10) if journal is not None else [],
        }

    def _maybe_write_status(self, min_interval: float = 0.5) -> None:
        """Publish the status document at most every ``min_interval`` s."""
        if not self.status_path:
            return
        now = time.monotonic()
        if now - self._status_written < min_interval:
            return
        self._status_written = now
        try:
            write_status(self.status_path, self.status_doc())
        except OSError:  # pragma: no cover - status is best-effort
            pass


@dataclass(eq=False)
class _ThreadWorker:
    """One worker thread and its hand-off slot: ``wake`` set with a
    ``job`` runs it, set with ``job=None`` stops the thread."""

    index: int
    thread: "threading.Thread | None" = None
    job: "SolveJob | None" = None
    wake: threading.Event = field(default_factory=threading.Event)


class SolverService(ServiceCore):
    """Multi-worker thread service over one operator stream.

    Parameters
    ----------
    a, config, options:
        The operator and setup parameters handed to each worker's session.
    workers:
        Number of worker threads (each with its own warm-start session).
        A worker thread that dies is respawned by the control thread.
    cache:
        Shared hierarchy cache (created when omitted).  Pass a cache with a
        ``spill_dir`` to survive eviction pressure across services.
    queue_size, retry_policy, default_deadline, poll_interval, status_path:
        The job lifecycle (see :class:`ServiceCore`).
    session_kwargs:
        Extra :class:`SolverSession` parameters (``solver``, ``rtol``,
        ``maxiter``, ``drift_threshold``, ``escalate``...).
    """

    mode = "thread"

    def __init__(
        self,
        a: SGDIAMatrix,
        config: "PrecisionConfig | None" = None,
        options: "MGOptions | None" = None,
        workers: int = 2,
        queue_size: int = 8,
        cache: "HierarchyCache | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        default_deadline: "float | None" = None,
        poll_interval: float = 0.02,
        status_path: "str | None" = None,
        **session_kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(
            queue_size, retry_policy, default_deadline, poll_interval,
            status_path,
        )
        self.cache = cache if cache is not None else HierarchyCache()
        self.sessions = [
            SolverSession(
                a, config=config, options=options, cache=self.cache,
                **session_kwargs,
            )
            for _ in range(workers)
        ]
        self._wake_event = threading.Event()
        self._workers = [_ThreadWorker(w) for w in range(workers)]
        for w in self._workers:
            self._start_thread(w)
        self._launch(workers=workers)

    def update_operator(self, a: SGDIAMatrix) -> list[str]:
        """Refresh the operator on every session (between batches).

        Callers are responsible for quiescing in-flight jobs when the
        operator swap must be atomic with respect to running solves.
        """
        return [s.update_operator(a) for s in self.sessions]

    # -- worker threads -------------------------------------------------
    def _start_thread(self, w: _ThreadWorker) -> None:
        w.thread = threading.Thread(
            target=self._worker_loop, args=(w,),
            name=f"solve-worker-{w.index}", daemon=True,
        )
        w.thread.start()

    def _worker_loop(self, w: _ThreadWorker) -> None:
        """Run each attempt the control thread hands over; a wake without
        a job stops the thread."""
        session = self.sessions[w.index]
        while True:
            w.wake.wait()
            w.wake.clear()
            job = w.job
            if job is None:
                return
            ctx = ExecContext(deadline=job.deadline, cancel=job.cancel)
            solve = session.solve_many if job.batched else session.solve
            try:
                t_solve = time.perf_counter()
                with _trace.span(
                    "job", id=job.id, worker=w.index, attempt=job.attempts - 1
                ):
                    result = solve(job.b, runtime=ctx, **job.kwargs)
                self.telemetry.record("solve", time.perf_counter() - t_solve)
                self._complete(job, result=result)
            except BaseException as exc:
                # The caller gets the original exception object (after any
                # retries); the worker thread survives it.
                self._complete(job, error=exc)
            finally:
                w.job = None
                self._wake()  # free for the next dispatch

    # -- core hooks -----------------------------------------------------
    def _wait(self, timeout: float) -> None:
        self._wake_event.wait(timeout)
        self._wake_event.clear()

    def _wake(self) -> None:
        self._wake_event.set()

    def _supervise(self) -> None:
        """Respawn worker threads that died."""
        for w in self._workers:
            if w.thread.is_alive():
                continue
            self._start_thread(w)  # picks up a job handed to the dead one
            with self._cond:
                self.n_respawns += 1
            _metrics.incr("service.worker.respawn")
            _events.emit(
                "error", "service.worker.respawn",
                f"worker thread {w.index} died; respawned", worker=w.index,
            )

    def _idle_workers(self) -> list[_ThreadWorker]:
        return [
            w for w in self._workers
            if w.job is None and w.thread.is_alive()
        ]

    def _hand_off(self, w: _ThreadWorker, job: SolveJob) -> bool:
        w.job = job
        w.wake.set()
        return True

    def _shutdown(self) -> None:
        for w in self._workers:
            w.wake.set()  # no job left: every thread exits
        for w in self._workers:
            w.thread.join()

    def _worker_rows(self) -> list[dict]:
        return [
            {
                "index": w.index,
                "pid": os.getpid(),
                "alive": w.thread.is_alive(),
                "ready": w.thread.is_alive(),
                "inflight": int(w.job is not None),
                "heartbeat_age": 0.0 if w.thread.is_alive() else None,
            }
            for w in self._workers
        ]

    def _cache_summary(self) -> dict:
        return {
            **self.cache.stats.to_dict(),
            "hit_rate": self.cache.stats.hit_rate,
            "entries": len(self.cache),
        }

    def stats(self) -> dict:
        return {
            **super().stats(),
            "workers": len(self.sessions),
            "cache": {
                **self.cache.stats.to_dict(),
                "entries": len(self.cache),
                "resident_bytes": self.cache.resident_bytes,
            },
            "sessions": [s.stats() for s in self.sessions],
        }


# ----------------------------------------------------------------------
# the `repro serve --bench` workload
# ----------------------------------------------------------------------

def run_serve_bench(
    shape: tuple[int, int, int] = (20, 20, 12),
    steps: int = 50,
    refresh_every: int = 10,
    rhs_block: int = 4,
    config: "PrecisionConfig | None" = None,
    seed: int = 0,
    out_dir: "str | None" = ".",
) -> dict:
    """Timestep-replay benchmark of the serving layer.

    Replays ``steps`` solves of the weather problem whose operator is
    refreshed every ``refresh_every`` steps (one "assimilation window"),
    comparing per-step hierarchy setup (the uncached baseline) against the
    fingerprinted cache, and checking the cache counters against the known
    replay schedule.  A second section runs ``solve_many`` on a
    ``rhs_block``-column block of the SPD laplace27 problem against
    sequential solves.  Returns the snapshot document; when ``out_dir`` is
    given, writes schema-valid ``BENCH_serve.json`` there.
    """
    from ..mg import mg_setup
    from ..observability import Metrics
    from ..observability.snapshot import build_snapshot, write_snapshot
    from ..problems import build_problem, consistent_rhs
    from ..solvers import solve as solve_one

    config = config or PrecisionConfig()
    rng = np.random.default_rng(seed)

    prob = build_problem("weather", shape, seed=seed)
    options = prob.mg_options
    n_epochs = (steps + refresh_every - 1) // refresh_every
    # One operator per refresh epoch: re-seeded builds stand in for the
    # assimilation updates that change coefficients between windows.
    epoch_ops = [
        build_problem("weather", shape, seed=seed + e).a
        for e in range(n_epochs)
    ]
    schedule = [t // refresh_every for t in range(steps)]

    # -- uncached baseline: one setup per step ---------------------------
    t0 = time.perf_counter()
    for t in range(steps):
        mg_setup(epoch_ops[schedule[t]], config, options)
    uncached_seconds = time.perf_counter() - t0

    # -- cached replay ----------------------------------------------------
    cache = HierarchyCache()
    t0 = time.perf_counter()
    for t in range(steps):
        cache.get_or_build(epoch_ops[schedule[t]], config, options)
    cached_seconds = time.perf_counter() - t0
    stats = cache.stats
    counters_ok = (
        stats.misses == n_epochs and stats.hits == steps - n_epochs
    )
    # Freeze the replay-phase counters now: the warm-start and multi-RHS
    # sections below reuse the same cache and would skew them.
    replay_cache = stats.to_dict()
    replay_hit_rate = stats.hit_rate

    # -- warm-start service over the same replay -------------------------
    # Routed through a real SolverService so the snapshot's ``latency``
    # section carries measured queue-wait / solve / e2e histograms.
    svc = SolverService(
        epoch_ops[0], config=config, options=options, workers=1,
        queue_size=4, cache=cache, solver=prob.solver, rtol=prob.rtol,
        maxiter=500,
    )
    b = prob.b
    first = svc.submit(b, warm_start=False).result(timeout=600.0)
    second = svc.submit(b).result(timeout=600.0)  # warm-started
    warm_iters = (first.iterations, second.iterations)
    session = svc.sessions[0]
    latency = svc.telemetry.snapshot()
    svc.close()

    # -- batched multi-RHS block vs sequential ---------------------------
    lap = build_problem("laplace27", shape, seed=seed)
    lap_session = SolverSession(
        lap.a, config=config, options=lap.mg_options, cache=cache,
        solver="cg", rtol=lap.rtol, maxiter=500,
    )
    block = np.stack(
        [consistent_rhs(lap.a, rng).ravel() for _ in range(rhs_block)], axis=-1
    )
    batch_results = lap_session.solve_many(block)
    max_rel = 0.0
    for j, rj in enumerate(batch_results):
        ref = solve_one(
            "cg", lap.a, np.ascontiguousarray(block[:, j]),
            preconditioner=lap_session.hierarchy.precondition,
            rtol=lap.rtol, maxiter=500,
        )
        denom = float(np.linalg.norm(ref.x.ravel())) or 1.0
        max_rel = max(
            max_rel,
            float(np.linalg.norm(rj.x.ravel() - ref.x.ravel())) / denom,
        )

    serve_extra = {
        "replay": {
            "problem": "weather",
            "steps": steps,
            "refresh_every": refresh_every,
            "epochs": n_epochs,
            "uncached_setup_seconds": uncached_seconds,
            "cached_setup_seconds": cached_seconds,
            "amortization": (
                uncached_seconds / cached_seconds
                if cached_seconds > 0
                else float("inf")
            ),
            "cache": replay_cache,
            "hit_rate": replay_hit_rate,
            "counters_match_schedule": counters_ok,
        },
        "warm_start": {
            "cold_iterations": warm_iters[0],
            "warm_iterations": warm_iters[1],
        },
        "solve_many": {
            "problem": "laplace27",
            "rhs_block": rhs_block,
            "max_rel_error_vs_sequential": max_rel,
            "statuses": [r.status for r in batch_results],
        },
    }
    metrics = _metrics.get_metrics() or Metrics()
    doc = build_snapshot(
        problem="weather-replay",
        config="serve",
        shape=shape,
        result=second,
        hierarchy=session.hierarchy,
        metrics=metrics,
        extra={"serve": serve_extra, "precision_config": config.name},
        topology={
            "mode": "thread",
            "processes": 1,
            "workers": 1,
            "shard_map": {},
            "respawns": 0,
            "requeued": 0,
        },
        latency=latency,
    )
    if out_dir is not None:
        write_snapshot(doc, out_dir)
    return doc
