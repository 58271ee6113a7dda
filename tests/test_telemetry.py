"""Tests for the cross-process telemetry plane (ISSUE 7).

Covers the latency histograms and SLO counters (`repro.observability.
telemetry`), the structured event journal (`.events`), registry merging
across process boundaries (`Metrics.merge`, `_jsonable` on numpy values),
the Prometheus text writer, the `latency` snapshot-schema section and its
CLI validator, the `repro top` status documents, and the tentpole
acceptance criterion: worker-side metrics shipped through the result pipe
are bit-for-bit equal to an in-process run, and the merged trace keeps
supervisor/worker containment and lanes intact.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro import cli
from repro.mg import mg_setup
from repro.observability import events as obs_events
from repro.observability import export as obs_export
from repro.observability import metrics as obs_metrics
from repro.observability import snapshot as obs_snapshot
from repro.observability import telemetry as obs_tel
from repro.observability import trace as obs_trace
from repro.precision import K64P32D16_SETUP_SCALE, parse_config
from repro.problems import build_problem
from repro.solvers import solve


@pytest.fixture(autouse=True)
def _clean_collectors():
    """Never leak a global tracer/registry/journal across tests."""
    yield
    obs_trace.uninstall()
    obs_metrics.uninstall()
    obs_events.uninstall()


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
class TestHistogram:
    def test_record_and_moments(self):
        h = obs_tel.Histogram()
        for v in (1e-6, 3e-4, 0.02, 0.02, 1.5):
            h.record(v)
        assert h.count == 5
        assert h.sum == pytest.approx(1.540301)
        assert h.min == pytest.approx(1e-6)
        assert h.max == pytest.approx(1.5)
        assert sum(h.counts) == h.count

    def test_nonfinite_and_negative_ignored(self):
        h = obs_tel.Histogram()
        h.record(-1.0)
        h.record(math.nan)
        h.record(math.inf)
        assert h.count == 0 and h.sum == 0.0

    def test_percentiles_ordered_and_clamped(self):
        h = obs_tel.Histogram()
        rng = np.random.default_rng(0)
        for v in rng.uniform(1e-4, 0.5, size=500):
            h.record(float(v))
        assert 0.0 < h.p50 <= h.p95 <= h.p99 <= h.max
        # percentile is an upper-bound estimate clamped to the observed max
        assert h.percentile(1.0) <= h.max

    def test_empty_percentile_zero(self):
        assert obs_tel.Histogram().p99 == 0.0

    def test_merge_histogram_object(self):
        a, b = obs_tel.Histogram(), obs_tel.Histogram()
        for v in (1e-5, 2e-3):
            a.record(v)
        for v in (0.1, 4.0):
            b.record(v)
        a.merge(b)
        assert a.count == 4
        assert a.max == pytest.approx(4.0)
        assert a.min == pytest.approx(1e-5)
        assert sum(a.counts) == 4

    def test_merge_dict_roundtrip_exact(self):
        """A histogram rebuilt from to_dict (the cross-process wire form)
        merges exactly: to_dict of the rebuild equals the original."""
        h = obs_tel.Histogram()
        rng = np.random.default_rng(1)
        for v in rng.uniform(1e-6, 10.0, size=200):
            h.record(float(v))
        d = h.to_dict()
        h2 = obs_tel.Histogram.from_dict(json.loads(json.dumps(d)))
        d2 = h2.to_dict()
        assert d2["buckets"] == d["buckets"]
        assert h2.counts == h.counts
        for key in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            assert d2[key] == pytest.approx(d[key]), key

    def test_merge_rejects_unknown_bound(self):
        with pytest.raises(ValueError, match="unknown histogram bucket"):
            obs_tel.Histogram().merge({"buckets": {"0.123456": 1}})

    def test_merge_rejects_negative_bucket_count(self):
        le = next(iter(obs_tel._BOUND_INDEX))
        with pytest.raises(ValueError, match="negative histogram count"):
            obs_tel.Histogram().merge({"buckets": {le: -3}})

    def test_merge_rejects_negative_total_count(self):
        with pytest.raises(ValueError, match="negative histogram count"):
            obs_tel.Histogram().merge({"buckets": {}, "count": -1})


# ----------------------------------------------------------------------
# ServiceStats
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_record_count_snapshot(self):
        st = obs_tel.ServiceStats()
        st.record("queue_wait", 0.001)
        st.record("e2e", 0.25)
        st.count("completed")
        st.count("deadline_miss")
        st.count("failed")
        snap = st.snapshot()
        assert set(snap["histograms"]) == set(obs_tel.STAGES)
        assert snap["histograms"]["e2e"]["count"] == 1
        assert snap["counts"]["completed"] == 1
        # finished = completed + failed = 2; one deadline miss
        assert snap["rates"]["deadline_miss"] == pytest.approx(0.5)
        assert snap["rates"]["redelivery"] == 0.0

    def test_rates_do_not_divide_by_zero(self):
        snap = obs_tel.ServiceStats().snapshot()
        assert snap["rates"]["deadline_miss"] == 0.0

    def test_unknown_stage_raises(self):
        with pytest.raises(ValueError, match="unknown latency stage"):
            obs_tel.ServiceStats().record("warmup", 0.1)

    def test_unknown_counter_raises(self):
        with pytest.raises(ValueError, match="unknown SLO counter"):
            obs_tel.ServiceStats().count("oops")

    def test_merge_sums(self):
        a, b = obs_tel.ServiceStats(), obs_tel.ServiceStats()
        a.record("solve", 0.1)
        b.record("solve", 0.2)
        b.count("retried", 2)
        a.merge(b)
        snap = a.snapshot()
        assert snap["histograms"]["solve"]["count"] == 2
        assert snap["counts"]["retried"] == 2


# ----------------------------------------------------------------------
# event journal
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_ring_retention_and_dropped(self):
        j = obs_events.EventJournal(capacity=3)
        for i in range(5):
            j.emit("info", "test.kind", f"msg{i}")
        assert j.emitted == 5
        assert j.dropped == 2
        assert [e.message for e in j.events()] == ["msg2", "msg3", "msg4"]
        assert [e.message for e in j.tail(2)] == ["msg3", "msg4"]

    def test_sink_jsonl_roundtrip(self, tmp_path):
        sink = str(tmp_path / "events.jsonl")
        j = obs_events.EventJournal(capacity=2, sink=sink)
        for i in range(4):
            j.emit("warning", "chaos.inject", site=f"s{i}", n=i)
        # ring kept 2, the sink kept all 4
        back = obs_events.load_journal(sink)
        assert len(back) == 4
        assert [e["attrs"]["site"] for e in back] == ["s0", "s1", "s2", "s3"]
        assert obs_events.load_journal(sink, tail=2)[0]["attrs"]["n"] == 2
        assert obs_events.validate_events(back) == []
        text = obs_events.format_events(back)
        assert "chaos.inject" in text and "site=s3" in text

    def test_unknown_severity_raises_even_with_no_journal(self):
        assert not obs_events.active()
        with pytest.raises(ValueError, match="unknown event severity"):
            obs_events.emit("fatal", "some.kind")

    def test_journal_emit_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="unknown event severity"):
            obs_events.EventJournal().emit("notice", "some.kind")

    def test_capturing_restores_previous_journal(self):
        outer = obs_events.install()
        try:
            with obs_events.capturing() as inner:
                obs_events.emit("info", "inner.kind")
                assert obs_events.get_journal() is inner
            assert obs_events.get_journal() is outer
            obs_events.emit("info", "outer.kind")
            assert [e.kind for e in inner.events()] == ["inner.kind"]
            assert [e.kind for e in outer.events()] == ["outer.kind"]
        finally:
            obs_events.uninstall()

    def test_validate_events_flags_bad_docs(self):
        bad = [
            {"severity": "loud", "kind": "k", "ts": 1.0},
            {"severity": "info", "kind": "", "ts": 1.0},
            {"severity": "info", "kind": "k", "ts": "now"},
            "not-an-object",
        ]
        problems = obs_events.validate_events(bad)
        assert len(problems) == 4
        assert any("unknown severity" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_counts_by_severity(self):
        j = obs_events.EventJournal()
        j.emit("error", "a")
        j.emit("error", "b")
        j.emit("info", "c")
        counts = j.counts_by_severity()
        assert counts["error"] == 2 and counts["info"] == 1


# ----------------------------------------------------------------------
# Metrics.merge + numpy-safe export
# ----------------------------------------------------------------------
class TestMetricsMerge:
    def test_merge_metrics_object(self):
        a, b = obs_metrics.Metrics(), obs_metrics.Metrics()
        a.incr("kernel.spmv.calls", 2, level=0)
        b.incr("kernel.spmv.calls", 3, level=0)
        b.incr("precision.fcvt.values", 100, level=1)
        a.merge(b)
        assert a.get("kernel.spmv.calls") == 5
        assert a.get("kernel.spmv.calls", level=0) == 5
        assert a.get("precision.fcvt.values", level=1) == 100

    def test_merge_dict_form_bit_for_bit(self):
        """Merging the to_dict wire form reproduces the source registry
        exactly — the property the worker result pipe relies on."""
        src = obs_metrics.Metrics()
        src.incr("precision.fcvt.values", 220600, level=0)
        src.incr("precision.fcvt.values", 512, level=2)
        src.incr("kernel.sweep.calls", 12)
        wire = json.loads(json.dumps(src.to_dict()))
        dst = obs_metrics.Metrics().merge(wire)
        assert dst.to_dict() == src.to_dict()

    def test_jsonable_numpy_values(self):
        f = obs_export._jsonable
        assert f(np.float32(1.5)) == 1.5
        assert isinstance(f(np.int64(7)), int)
        assert f(np.array(3.0)) == 3.0  # 0-d array
        assert f(np.arange(3)) == [0, 1, 2]
        assert f({"k": np.float64(2.0)}) == {"k": 2.0}
        assert f((np.int32(1), "x")) == [1, "x"]
        # the whole thing must be json-serializable
        json.dumps(f({"a": np.arange(2), "b": np.float16(0.5)}))

    def test_event_attrs_with_numpy_serialize(self, tmp_path):
        sink = str(tmp_path / "ev.jsonl")
        j = obs_events.EventJournal(sink=sink)
        j.emit("info", "k", mismatch=np.float64(1e-3), level=np.int64(2))
        back = obs_events.load_journal(sink)
        assert back[0]["attrs"] == {"mismatch": 1e-3, "level": 2}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_histogram_buckets_cumulative_single_inf(self):
        st = obs_tel.ServiceStats()
        for v in (1e-5, 1e-3, 1e-3, 0.1, 2.0):
            st.record("e2e", v)
        st.count("completed", 5)
        text = obs_export.prometheus_text(stats=st)
        lines = text.splitlines()
        bucket = [l for l in lines if l.startswith(
            "repro_serve_latency_e2e_seconds_bucket")]
        # exactly one +Inf line, and it equals the count
        inf = [l for l in bucket if 'le="+Inf"' in l]
        assert len(inf) == 1
        assert inf[0].endswith(" 5")
        # cumulative counts are monotone nondecreasing
        vals = [int(l.rsplit(" ", 1)[1]) for l in bucket]
        assert vals == sorted(vals)
        assert "repro_serve_latency_e2e_seconds_count 5" in lines
        assert "repro_serve_jobs_completed_total 5" in lines
        assert any(l.startswith("repro_serve_rate_deadline_miss ")
                   for l in lines)

    def test_counter_level_labels_and_gauges(self):
        m = obs_metrics.Metrics()
        m.incr("kernel.spmv.calls", 4, level=0)
        m.incr("kernel.spmv.calls", 2, level=1)
        text = obs_export.prometheus_text(
            metrics=m, extra_gauges={"serve.queue_depth": 3})
        assert "repro_kernel_spmv_calls_total 6" in text
        assert 'repro_kernel_spmv_calls_total{level="0"} 4' in text
        assert 'repro_kernel_spmv_calls_total{level="1"} 2' in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 3" in text

    def test_write_prometheus(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        st = obs_tel.ServiceStats()
        st.record("solve", 0.01)
        assert obs_export.write_prometheus(path, stats=st) == path
        assert "repro_serve_latency_solve_seconds_count 1" in open(path).read()


# ----------------------------------------------------------------------
# `latency` snapshot section + CLI validator
# ----------------------------------------------------------------------
def _profiled_run(shape=(10, 10, 10)):
    problem = build_problem("laplace27", shape=shape, seed=0)
    config = parse_config("K64P32D16-setup-scale")
    with obs_trace.tracing() as tr, obs_metrics.collecting() as m:
        h = mg_setup(problem.a, config, problem.mg_options)
        result = solve("cg", problem.a, problem.b,
                       preconditioner=h.precondition,
                       rtol=1e-8, maxiter=100)
    return problem, config, result, h, tr, m


def _stats_with_traffic() -> obs_tel.ServiceStats:
    st = obs_tel.ServiceStats()
    for stage in obs_tel.STAGES:
        st.record(stage, 0.01)
        st.record(stage, 0.2)
    st.count("completed", 2)
    return st


class TestSnapshotLatency:
    @pytest.fixture(scope="class")
    def run(self):
        return _profiled_run()

    def _doc(self, run, latency):
        problem, config, result, h, tr, m = run
        return obs_snapshot.build_snapshot(
            problem.name, config.name, (10, 10, 10), result, h,
            tracer=tr, metrics=m, latency=latency,
        )

    def test_valid_latency_section_passes(self, run):
        doc = self._doc(run, _stats_with_traffic().snapshot())
        assert obs_snapshot.validate_snapshot(doc) == []
        assert doc["latency"]["histograms"]["e2e"]["count"] == 2

    def test_malformed_latency_flagged(self, run):
        doc = self._doc(run, _stats_with_traffic().snapshot())
        doc["latency"] = ["not", "a", "dict"]
        assert any("'latency' must be a dict" in p
                   for p in obs_snapshot.validate_snapshot(doc))

    def test_missing_stage_flagged(self, run):
        snap = _stats_with_traffic().snapshot()
        del snap["histograms"]["queue_wait"]
        doc = self._doc(run, _stats_with_traffic().snapshot())
        doc["latency"] = snap
        problems = obs_snapshot.validate_snapshot(doc)
        assert any("latency.histograms.queue_wait" in p for p in problems)

    def test_negative_bucket_count_flagged(self, run):
        snap = _stats_with_traffic().snapshot()
        h = snap["histograms"]["e2e"]
        le = next(iter(h["buckets"]))
        h["buckets"][le] = -1
        doc = self._doc(run, _stats_with_traffic().snapshot())
        doc["latency"] = snap
        problems = obs_snapshot.validate_snapshot(doc)
        assert any("non-negative integer" in p for p in problems)

    def test_bucket_sum_mismatch_flagged(self, run):
        snap = _stats_with_traffic().snapshot()
        snap["histograms"]["e2e"]["count"] = 99
        doc = self._doc(run, _stats_with_traffic().snapshot())
        doc["latency"] = snap
        problems = obs_snapshot.validate_snapshot(doc)
        assert any("bucket counts sum" in p and "count says 99" in p
                   for p in problems)

    def test_bench_roundtrip_through_cli_validator(self, run, tmp_path,
                                                   capsys):
        doc = self._doc(run, _stats_with_traffic().snapshot())
        path = obs_snapshot.write_snapshot(doc, directory=str(tmp_path))
        assert cli.main(["snapshot", "validate", path]) == 0
        assert "1 snapshot(s) valid" in capsys.readouterr().out
        # corrupt the latency section on disk: validator must fail
        with open(path) as f:
            on_disk = json.load(f)
        on_disk["latency"]["histograms"]["e2e"]["count"] = -5
        with open(path, "w") as f:
            json.dump(on_disk, f)
        assert cli.main(["snapshot", "validate", path]) == 1
        assert "count must be >= 0" in capsys.readouterr().err


# ----------------------------------------------------------------------
# status documents + `repro top`
# ----------------------------------------------------------------------
class TestStatusTop:
    def _doc(self):
        return {
            "schema": obs_tel.STATUS_SCHEMA,
            "mode": "process",
            "pid": os.getpid(),
            "ts": 1754600000.0,
            "queue_depth": 1,
            "counts": {"submitted": 4, "completed": 3, "failed": 0,
                       "deadline": 0, "cancelled": 0, "poisoned": 0},
            "cache": {"hit_rate": 0.75, "hits": 3, "misses": 1,
                      "evictions": 0, "entries": 1},
            "workers": [{"index": 0, "pid": 1234, "alive": True,
                         "ready": True, "inflight": 1,
                         "heartbeat_age": 0.05}],
            "latency": _stats_with_traffic().snapshot(),
            "events": [{"ts": 1754600000.0, "severity": "warning",
                        "kind": "service.job.deadline", "message": "late"}],
        }

    def test_write_read_roundtrip_atomic(self, tmp_path):
        path = str(tmp_path / "status.json")
        doc = self._doc()
        assert obs_tel.write_status(path, doc) == path
        assert obs_tel.read_status(path) == doc
        # no temp file left behind
        assert os.listdir(tmp_path) == ["status.json"]

    def test_read_status_tolerates_missing_and_garbage(self, tmp_path):
        assert obs_tel.read_status(str(tmp_path / "nope.json")) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert obs_tel.read_status(str(bad)) is None

    def test_render_top_sections(self):
        text = obs_tel.render_top(self._doc())
        assert "repro top — process service" in text
        assert "submitted=4" in text and "queue_depth=1" in text
        assert "hit_ratio=0.750" in text
        assert "workers:" in text and "1234" in text
        assert "latency (s):" in text
        for stage in obs_tel.STAGES:
            assert stage in text
        assert "rates:" in text
        assert "service.job.deadline" in text

    def test_render_top_minimal_doc(self):
        # a sparse document renders without crashing
        text = obs_tel.render_top({"mode": "thread"})
        assert "thread" in text


# ----------------------------------------------------------------------
# chaos observability gate
# ----------------------------------------------------------------------
class TestChaosObservabilityGate:
    def test_expected_events_covers_every_site(self):
        from repro.resilience.chaos import CHAOS_SITES, EXPECTED_EVENTS

        missing = [s for s in CHAOS_SITES if s not in EXPECTED_EVENTS]
        assert missing == [], f"sites without an event contract: {missing}"
        for site, kinds in EXPECTED_EVENTS.items():
            assert kinds, f"{site}: empty event contract"

    def test_fault_injection_emits_chaos_event(self, tmp_path):
        from repro.resilience import FaultInjector

        spill = tmp_path / "entry.npz"
        spill.write_bytes(bytes(range(256)) * 16)
        with obs_events.capturing() as j:
            FaultInjector(seed=0).corrupt_spill(spill, nbytes=64)
        kinds = [e.kind for e in j.events()]
        assert kinds == ["chaos.inject"]
        ev = j.events()[0]
        assert ev.severity == "warning"
        assert ev.attrs["site"] == "spill.corrupt"
        assert ev.attrs["nbytes"] == 64


# ----------------------------------------------------------------------
# tentpole acceptance: process-tier telemetry parity
# ----------------------------------------------------------------------
class TestProcessTelemetryParity:
    def test_worker_metrics_bit_for_bit_and_trace_containment(self):
        from repro.serve.procpool import ProcessSolverService
        from repro.serve.session import SolverSession

        prob = build_problem("laplace27", shape=(10, 10, 6), seed=0)
        kw = dict(solver=prob.solver, rtol=prob.rtol, maxiter=300,
                  escalate=False)

        # in-process reference: session built outside collection so only
        # the solve itself is counted (mirrors the per-job worker scope)
        sess = SolverSession(prob.a, config=K64P32D16_SETUP_SCALE,
                             options=prob.mg_options, **kw)
        with obs_metrics.collecting() as ref:
            r_ref = sess.solve(prob.b, warm_start=False)
        assert r_ref.converged

        svc = ProcessSolverService(
            prob.a, options=prob.mg_options, processes=1,
            config=K64P32D16_SETUP_SCALE, heartbeat_interval=0.02,
            hang_timeout=5.0, poll_interval=0.01, **kw)
        try:
            with obs_trace.tracing() as tr, obs_metrics.collecting() as got:
                r = svc.submit(prob.b, warm_start=False).result(timeout=120)
            assert r.converged
        finally:
            svc.close()

        ref_d, got_d = ref.to_dict(), got.to_dict()
        fcvt = "precision.fcvt.values"
        assert got_d[fcvt] == ref_d[fcvt]
        for name in ("kernel.spmv.calls", "kernel.sweep.calls"):
            if name in ref_d:
                assert got_d[name] == ref_d[name], name

        # merged trace: serve.job root with queue_wait + grafted worker
        # spans, consistent containment, worker lane != supervisor lane
        assert tr.consistent()
        roots = [s for s in tr.finished() if s.name == "serve.job"]
        assert len(roots) == 1
        kids = {c.name for c in tr.children(roots[0].index)}
        assert "queue_wait" in kids and "worker_job" in kids
        lanes = {s.attrs.get("lane") for s in tr.finished()
                 if "lane" in s.attrs}
        assert any(lane and int(lane) >= 1 for lane in lanes)
        # worker spans carry the worker pid for the Chrome pid track
        worker_spans = [s for s in tr.finished()
                       if int(s.attrs.get("lane", 0) or 0) >= 1]
        assert worker_spans
        assert all(s.attrs.get("pid") not in (None, os.getpid())
                   for s in worker_spans if "pid" in s.attrs)

    def test_latency_section_populated_on_both_services(self):
        from repro.serve.procpool import ProcessSolverService

        prob = build_problem("laplace27", shape=(10, 10, 6), seed=0)
        svc = ProcessSolverService(
            prob.a, options=prob.mg_options, processes=1,
            config=K64P32D16_SETUP_SCALE, solver=prob.solver,
            rtol=prob.rtol, maxiter=300, escalate=False,
            heartbeat_interval=0.02, hang_timeout=5.0, poll_interval=0.01)
        try:
            for _ in range(2):
                svc.submit(prob.b, warm_start=False).result(timeout=120)
            stats = svc.stats()
            doc = svc.status_doc()
        finally:
            svc.close()
        lat = stats["latency"]
        for stage in ("queue_wait", "shm_verify", "setup", "solve", "e2e"):
            assert lat["histograms"][stage]["count"] >= 1, stage
        assert lat["rates"]["deadline_miss"] == 0.0
        assert doc.get("schema") == obs_tel.STATUS_SCHEMA
        assert obs_tel.render_top(doc)  # renders without crashing
