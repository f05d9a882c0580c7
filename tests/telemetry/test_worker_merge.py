"""Cross-process telemetry over the real worker pool.

Real OS processes ship span/metric buffers back over the result queue
(``"telemetry"`` messages preceding each ``"ok"``); the parent merges
them deterministically.  These tests pin the three properties the wire
protocol exists for: the merge order never depends on arrival
interleaving, a killed worker contributes exactly the prefix it got
out, and tracing changes no served bit.
"""

import time

import numpy as np
import pytest

from repro.core import LDAHyperParams, save_model_mmap
from repro.core.model import LDAModel
from repro.serving import (
    FaultEvent,
    FaultPlan,
    InferenceEngine,
    ServingRequest,
    WorkerPool,
    pool_results_digest,
    serve_wallclock,
)
from repro.telemetry import (
    DOMAIN_WALL,
    MetricsRegistry,
    Tracer,
    WallClock,
    pinned_percentile,
    span_coverage,
)

NUM_TOPICS = 6
VOCABULARY = 80
SEED = 13
NUM_SWEEPS = 3


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    rng = np.random.default_rng(SEED)
    counts = rng.integers(0, 30, size=(VOCABULARY, NUM_TOPICS)).astype(np.int64)
    model = LDAModel(
        word_topic_counts=counts,
        params=LDAHyperParams(num_topics=NUM_TOPICS, alpha=0.1, beta=0.01),
    )
    directory = str(tmp_path_factory.mktemp("ckpt") / "model")
    return save_model_mmap(model, directory)


@pytest.fixture(scope="module")
def requests():
    rng = np.random.default_rng(SEED + 1)
    return [
        ServingRequest(
            request_id=index,
            word_ids=rng.integers(0, VOCABULARY, size=12).astype(np.int32),
            arrival_seconds=0.0,
        )
        for index in range(12)
    ]


@pytest.fixture(scope="module")
def reference_digest(checkpoint, requests):
    engine = InferenceEngine.from_mmap_checkpoint(
        checkpoint, seed=SEED, num_sweeps=NUM_SWEEPS, mmap_mode=None
    )
    outcomes = [
        type(
            "Outcome",
            (),
            {
                "request_id": request.request_id,
                "theta": engine.infer_request(
                    request.word_ids, request.request_id
                ).theta,
            },
        )()
        for request in requests
    ]
    return pool_results_digest(outcomes)


def _traced_pool(checkpoint, **overrides):
    options = dict(
        checkpoint_dir=checkpoint,
        num_workers=2,
        seed=SEED,
        num_sweeps=NUM_SWEEPS,
        tracer=Tracer(WallClock()),
        metrics=MetricsRegistry(),
    )
    options.update(overrides)
    return WorkerPool(**options)


class TestTracedServing:
    def test_traced_run_keeps_the_digest(self, checkpoint, requests, reference_digest):
        with _traced_pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
        assert report.failed == 0
        assert pool_results_digest(report.outcomes) == reference_digest

    def test_worker_spans_arrive_merged_and_ordered(self, checkpoint, requests):
        with _traced_pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
            tracer = pool.tracer
            assert not pool._telemetry  # drained by serve_wallclock
        names = [span.name for span in tracer.spans]
        assert names.count("ipc_batch") == len(report.batches)
        assert names.count("worker_batch") >= 1
        assert names.count("fold_in") == report.answered
        # seq strictly increasing over the combined record.
        seqs = [span.seq for span in tracer.spans]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Merged worker spans are grouped by ascending worker id
        # (track = worker_id + 1), regardless of arrival interleaving.
        worker_tracks = [
            span.track for span in tracer.spans if span.name == "worker_batch"
        ]
        assert worker_tracks == sorted(worker_tracks)
        assert set(worker_tracks) <= {1, 2}  # parent track 0 never collides

    def test_root_span_and_request_percentiles_match_the_report(
        self, checkpoint, requests
    ):
        with _traced_pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
            tracer = pool.tracer
        roots = [span for span in tracer.spans if span.name == "serve_wallclock"]
        assert len(roots) == 1
        assert roots[0].domain == DOMAIN_WALL
        assert roots[0].duration_seconds == report.wall_seconds
        assert span_coverage(tracer.spans, report.wall_seconds) == pytest.approx(1.0)
        # Request spans reuse the report's exact latency floats.
        latencies = [
            span.duration_seconds
            for span in tracer.spans
            if span.name == "request"
        ]
        assert len(latencies) == report.answered
        assert pinned_percentile(latencies, 50.0) == report.latency_percentile(50.0)
        assert pinned_percentile(latencies, 99.0) == report.latency_percentile(99.0)

    def test_worker_metrics_merge_as_deltas(self, checkpoint, requests):
        with _traced_pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=3)
            flat = pool.metrics.as_dict()
        assert flat["pool.admitted"] == len(requests)
        assert flat["pool.answered"] == report.answered
        assert flat["worker.batches"] == len(report.batches)
        assert flat["worker.documents"] == report.answered
        assert flat["worker.busy_seconds"] > 0.0

    def test_untraced_pool_buffers_nothing(self, checkpoint, requests):
        with WorkerPool(
            checkpoint_dir=checkpoint,
            num_workers=2,
            seed=SEED,
            num_sweeps=NUM_SWEEPS,
        ) as pool:
            serve_wallclock(pool, requests, batch_docs=4)
            assert pool._telemetry == {}
            assert pool.tracer.spans == []
            pool.drain_worker_telemetry()  # harmless no-op
            assert pool.metrics.as_dict() == {}


class TestKilledWorker:
    def test_dead_worker_contributes_its_prefix(
        self, checkpoint, requests, reference_digest
    ):
        # Worker 0's second lane-local batch (index 1) stalls.
        plan = FaultPlan(
            seed=SEED,
            events=(FaultEvent(kind="stall", worker_id=0, at_batch=1, seconds=8.0),),
        )
        with _traced_pool(
            checkpoint, batch_timeout_seconds=20.0, fault_plan=plan
        ) as pool:
            first = requests[: len(requests) // 2]
            second = requests[len(requests) // 2 :]
            # Worker 0 finishes one clean batch (its telemetry gets out)...
            pool.submit(first, worker_id=0)
            outcomes = [pool.collect()]
            # ...then dies mid-flight on the next one.
            pool.submit(first, worker_id=0)
            time.sleep(0.3)
            pool._processes[0].kill()
            pool.submit(second, worker_id=1)
            outcomes.extend([pool.collect(), pool.collect()])
            assert pool.retries == 1
            pool.drain_worker_telemetry()
            tracer = pool.tracer
            flat = pool.metrics.as_dict()
        # The clean batch's worker telemetry survived the kill; the
        # stalled batch died before shipping, so it is simply absent.
        worker_batches = [s for s in tracer.spans if s.name == "worker_batch"]
        batch_ids = {dict(s.args).get("batch_id") for s in worker_batches}
        assert len(worker_batches) == 3  # 1 from worker 0 + retry + second batch
        assert flat["worker.batches"] == 3.0
        assert flat["pool.retries"] == 1.0
        # Every parent-side batch still has its ipc span and the digest holds.
        assert len([s for s in tracer.spans if s.name == "ipc_batch"]) == 3
        assert batch_ids  # worker spans carry their batch tags
        # ``first`` was answered twice (clean + retried); deterministic
        # per-request RNG makes the copies identical, so dedupe by id.
        by_request = {}
        for outcome in outcomes:
            for rid, result in zip(outcome.request_ids, outcome.results, strict=True):
                by_request[rid] = type(
                    "Outcome", (), {"request_id": rid, "theta": result.theta}
                )()
        flat_outcomes = [by_request[rid] for rid in sorted(by_request)]
        assert pool_results_digest(flat_outcomes) == reference_digest
