"""The multi-process data plane: mmap sharing, fault paths, conservation.

Every test here drives *real* OS processes (kept tiny: small models,
few requests, short fold-ins), so the suite asserts the properties that
only hold if the machinery is genuinely multi-process:

* workers open ``phi`` / ``phi_cdf`` as **read-only memory maps of the
  parent's checkpoint files** — one physical copy of the model;
* every fault path — a worker killed mid-batch, a wedged worker blowing
  the IPC deadline, a pool degraded to zero workers — preserves request
  conservation (``admitted == answered + pending + failed``) and the
  request-keyed digest (bit-identity with the in-process engine).
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.bench.timing import stopwatch
from repro.core import LDAHyperParams, save_model_mmap
from repro.core.model import LDAModel
from repro.serving import (
    BackoffPolicy,
    DegradationPolicy,
    FaultEvent,
    FaultPlan,
    InferenceEngine,
    ServingRequest,
    WorkerPool,
    dispatch_tally_increment,
    layout_batch,
    pool_results_digest,
    serve_wallclock,
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


def _pool(checkpoint, **overrides):
    options = dict(
        checkpoint_dir=checkpoint,
        num_workers=2,
        seed=SEED,
        num_sweeps=NUM_SWEEPS,
    )
    options.update(overrides)
    return WorkerPool(**options)


def _assert_conserved(pool):
    stats = pool.stats()
    assert (
        stats["admitted"]
        == stats["answered"] + stats["pending"] + stats["failed"]
    ), stats


class TestMmapSharing:
    def test_workers_map_the_checkpoint_readonly(self, checkpoint):
        with _pool(checkpoint) as pool:
            assert sorted(pool.worker_info) == [0, 1]
            phi_path = os.path.realpath(os.path.join(checkpoint, "phi.npy"))
            for info in pool.worker_info.values():
                assert info["phi_is_memmap"] is True
                assert info["phi_cdf_is_memmap"] is True
                assert info["mmap_mode"] == "r"
                # Every worker maps the parent's file — one on-disk copy.
                assert os.path.realpath(info["phi_filename"]) == phi_path
            pids = {info["pid"] for info in pool.worker_info.values()}
            assert os.getpid() not in pids and len(pids) == 2

    def test_parent_fallback_state_is_memmapped_too(self, checkpoint):
        with _pool(checkpoint, num_workers=0) as pool:
            assert isinstance(pool._fallback_state.phi, np.memmap)
            assert not pool._fallback_state.phi.flags.writeable


class TestHappyPath:
    def test_bit_identical_to_inprocess_engine(
        self, checkpoint, requests, reference_digest
    ):
        with _pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
        assert report.failed == 0
        assert pool_results_digest(report.outcomes) == reference_digest
        assert report.summary()["pool_retries"] == 0

    def test_engine_pool_execute_surface(self, checkpoint, requests, reference_digest):
        # The EnginePool-shaped surface: laid-out batches in, results out,
        # a single measured "wall" phase per participating worker.
        with _pool(checkpoint) as pool:
            outcomes = []
            for start in range(0, len(requests), 4):
                batch = layout_batch(
                    requests[start : start + 4], batch_id=start, dispatch_seconds=0.0
                )
                execution = pool.execute(batch, lane=start % 2)
                assert execution.per_engine_phase_seconds[0]["wall"] > 0
                for request, result in zip(batch.requests, execution.results, strict=True):
                    outcomes.append(
                        type(
                            "Outcome",
                            (),
                            {"request_id": request.request_id, "theta": result.theta},
                        )()
                    )
            _assert_conserved(pool)
        digest = pool_results_digest(sorted(outcomes, key=lambda o: o.request_id))
        assert digest == reference_digest


class TestFaultPaths:
    def test_worker_killed_mid_batch_retries_on_survivor(
        self, checkpoint, requests, reference_digest
    ):
        with _pool(checkpoint, batch_timeout_seconds=20.0) as pool:
            # Pin a stalled batch to worker 0, kill it mid-flight.
            first = requests[: len(requests) // 2]
            second = requests[len(requests) // 2 :]
            pool.submit(first, stall_seconds=8.0, worker_id=0)
            time.sleep(0.3)
            pool._processes[0].kill()
            pool.submit(second, worker_id=1)
            outcomes = [pool.collect(), pool.collect()]
            _assert_conserved(pool)
            assert pool.retries == 1
            assert {outcome.status for outcome in outcomes} == {"answered"}
            assert all(outcome.worker_id == 1 for outcome in outcomes)
            assert 0 not in pool.live_workers
        flat = [
            type("Outcome", (), {"request_id": rid, "theta": result.theta})()
            for outcome in outcomes
            for rid, result in zip(outcome.request_ids, outcome.results, strict=True)
        ]
        flat.sort(key=lambda o: o.request_id)
        assert pool_results_digest(flat) == reference_digest

    def test_ipc_timeout_falls_back_in_process(
        self, checkpoint, requests, reference_digest
    ):
        # One worker, wedged far past the deadline: the pool must kill
        # it, exhaust retries (no survivor exists) and answer in-process.
        with _pool(
            checkpoint, num_workers=1, batch_timeout_seconds=0.4
        ) as pool:
            pool.submit(requests, stall_seconds=60.0, worker_id=0)
            outcome = pool.collect()
            _assert_conserved(pool)
            assert outcome.status == "answered"
            assert outcome.worker_id == -1  # in-process fallback
            assert pool.fallback_batches == 1
            assert pool.degraded
        flat = [
            type("Outcome", (), {"request_id": rid, "theta": result.theta})()
            for rid, result in zip(outcome.request_ids, outcome.results, strict=True)
        ]
        assert pool_results_digest(flat) == reference_digest

    def test_timeout_without_fallback_fails_conserved(self, checkpoint, requests):
        with _pool(
            checkpoint,
            num_workers=1,
            batch_timeout_seconds=0.4,
            max_retries=0,
            inprocess_fallback=False,
        ) as pool:
            pool.submit(requests[:4], stall_seconds=60.0, worker_id=0)
            outcome = pool.collect()
            assert outcome.status == "failed"
            assert outcome.results == []
            assert pool.failed == 4
            _assert_conserved(pool)

    def test_zero_worker_pool_degrades_gracefully(
        self, checkpoint, requests, reference_digest
    ):
        with _pool(checkpoint, num_workers=0) as pool:
            assert pool.degraded
            report = serve_wallclock(pool, requests, batch_docs=5)
            _assert_conserved(pool)
        assert report.failed == 0
        assert all(outcome.worker_id == -1 for outcome in report.outcomes)
        assert pool_results_digest(report.outcomes) == reference_digest


class TestValidation:
    def test_rejects_empty_batch_and_double_start(self, checkpoint):
        with _pool(checkpoint, num_workers=0) as pool:
            with pytest.raises(ValueError, match="at least one request"):
                pool.submit([])
            with pytest.raises(RuntimeError, match="twice"):
                pool.start()
            with pytest.raises(ValueError, match="no batch in flight"):
                pool.collect()

    def test_rejects_non_mmap_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WorkerPool(str(tmp_path / "missing"), num_workers=0).start()

    def test_per_worker_logs_are_written(self, checkpoint, requests):
        with _pool(checkpoint) as pool:
            serve_wallclock(pool, requests, batch_docs=6)
            log_dir = pool.log_dir
        logs = sorted(os.listdir(log_dir))
        assert logs == ["worker00.log", "worker01.log"]
        merged = ""
        for name in logs:
            with open(os.path.join(log_dir, name), encoding="utf-8") as handle:
                merged += handle.read()
        assert "ready" in merged and "batch=" in merged


class TestOutOfOrderCollect:
    """Regression: interleaved submits must never drop a batch's outcome.

    ``execute()`` used to spin ``collect()`` until the batch id matched,
    silently discarding every other batch's answer — a second in-flight
    submit simply lost its results.
    """

    def test_execute_buffers_other_batches_for_their_own_collect(
        self, checkpoint, requests
    ):
        with _pool(checkpoint, num_workers=1) as pool:
            # Two interleaved submits on one worker: the worker answers
            # FIFO, so the async batch resolves *before* execute()'s own.
            async_id = pool.submit(requests[:3])
            batch = layout_batch(list(requests[3:6]), batch_id=0, dispatch_seconds=0.0)
            execution = pool.execute(batch)
            assert len(execution.results) == 3
            # Pre-fix: the async batch's outcome was discarded inside
            # execute() and this collect() raised "no batch in flight".
            outcome = pool.collect()
            assert outcome.batch_id == async_id
            assert outcome.status == "answered"
            assert len(outcome.results) == 3
            _assert_conserved(pool)
            assert pool.pending == 0

    def test_collect_batch_waits_for_the_requested_batch(self, checkpoint, requests):
        with _pool(checkpoint, num_workers=1) as pool:
            first = pool.submit(requests[:2])
            second = pool.submit(requests[2:4])
            outcome = pool.collect_batch(second)
            assert outcome.batch_id == second
            buffered = pool.collect()
            assert buffered.batch_id == first
            _assert_conserved(pool)

    def test_collect_batch_rejects_unknown_batch(self, checkpoint):
        with _pool(checkpoint, num_workers=0) as pool:
            with pytest.raises(ValueError, match="not in flight"):
                pool.collect_batch(99)


def _reap_window(seconds: float = 6.0):
    """Poll until no ``saberlda-worker-*`` children remain (or time out)."""
    watch = stopwatch()
    while watch.elapsed() < seconds:
        alive = [
            process
            for process in multiprocessing.active_children()
            if process.name.startswith("saberlda-worker-")
        ]
        if not alive:
            return []
        time.sleep(0.05)
    return alive


class TestLifecycle:
    """Context-manager hygiene: no zombies, idempotent close."""

    def test_exception_mid_execute_leaves_zero_children(self, checkpoint, requests):
        # Regression: an exception while a batch is in flight must still
        # run close() on the way out and reap every worker process.
        with pytest.raises(RuntimeError, match="boom"):
            with _pool(checkpoint) as pool:
                pool.submit(requests[:4], stall_seconds=5.0)
                raise RuntimeError("boom")
        assert _reap_window() == []

    def test_close_is_idempotent(self, checkpoint, requests):
        pool = _pool(checkpoint).start()
        pool.submit(requests[:3])
        pool.collect()
        pool.close()
        pool.close()  # second close: no-op, no error
        assert _reap_window() == []
        with pool:  # __exit__ after manual close is equally harmless
            pass


class TestDispatchCounting:
    """The pinned counting rule: retries and hedges never double-count."""

    def test_tally_increment_rule(self):
        assert dispatch_tally_increment(0, hedge=False) == 1  # first primary
        assert dispatch_tally_increment(1, hedge=False) == 0  # retry
        assert dispatch_tally_increment(2, hedge=False) == 0
        assert dispatch_tally_increment(0, hedge=True) == 0  # hedge duplicate
        assert dispatch_tally_increment(1, hedge=True) == 0

    def test_retried_batch_counts_once(self, checkpoint, requests):
        # Kill worker 0 mid-batch: the batch re-sends to worker 1, but
        # ``dispatched`` and the lane tallies still see exactly one
        # dispatch per admitted batch (IPC sends = dispatched + retries).
        with _pool(checkpoint, batch_timeout_seconds=20.0) as pool:
            pool.submit(requests[:6], stall_seconds=8.0, worker_id=0)
            time.sleep(0.3)
            pool._processes[0].kill()
            pool.submit(requests[6:], worker_id=1)
            pool.collect()
            pool.collect()
            stats = pool.stats()
            assert stats["retries"] == 1
            assert stats["dispatched"] == 2
            assert sum(stats["lane_dispatches"].values()) == 2
            assert stats["lane_dispatches"] == {0: 1, 1: 1}
            _assert_conserved(pool)


class TestSupervisedPool:
    """The full ladder against real processes, driven by a FaultPlan."""

    # Near-zero backoff so the respawn comes due within these tiny runs.
    FAST_BACKOFF = BackoffPolicy(base_seconds=1e-3, factor=2.0, cap_seconds=0.1)

    def test_crash_respawn_preserves_digest(
        self, checkpoint, requests, reference_digest
    ):
        plan = FaultPlan(
            seed=SEED,
            scenario="crash_respawn",
            events=(FaultEvent(kind="crash", worker_id=0, at_batch=0),),
        )
        policy = DegradationPolicy(
            respawn=True, max_retries=1, backoff=self.FAST_BACKOFF
        )
        with _pool(
            checkpoint,
            policy=policy,
            fault_plan=plan,
            batch_timeout_seconds=15.0,
        ) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
            served = pool.stats()
            _assert_conserved(pool)
            # Three batches can finish before the lane's backoff comes
            # due, and respawns are serviced only from the collect loop:
            # keep it pumping until the supervisor forks the replacement.
            watch = stopwatch()
            stats = served
            while stats["respawns"] == 0 and watch.elapsed() < 20.0:
                pool.submit(requests[:2], worker_id=1)
                pool.collect()
                time.sleep(0.05)
                stats = pool.stats()
            _assert_conserved(pool)
        assert report.failed == 0
        assert pool_results_digest(report.outcomes) == reference_digest
        assert served["retries"] >= 1  # the crashed batch re-ran elsewhere
        assert served["dispatched"] == 3  # 12 requests / 4 per batch, no double count
        assert report.respawns == served["respawns"]
        assert stats["respawns"] == 1  # and the lane was respawned

    def test_respawned_lane_returns_to_service(self, checkpoint, requests):
        plan = FaultPlan(
            seed=SEED,
            events=(FaultEvent(kind="crash", worker_id=0, at_batch=0),),
        )
        policy = DegradationPolicy(
            respawn=True, max_retries=1, backoff=self.FAST_BACKOFF
        )
        with _pool(
            checkpoint,
            policy=policy,
            fault_plan=plan,
            batch_timeout_seconds=15.0,
        ) as pool:
            pool.submit(requests[:4], worker_id=0)
            assert pool.collect().status == "answered"
            # Keep the collect loop pumping until the supervisor brings
            # lane 0 back (spawn + mmap open + ready handshake): recovery
            # is sampled only when the replacement's ready message lands.
            watch = stopwatch()
            stats = pool.stats()
            while stats["recovery_seconds"] == 0.0 and watch.elapsed() < 20.0:
                pool.submit(requests[4:6], worker_id=1)
                pool.collect()
                time.sleep(0.05)
                stats = pool.stats()
            assert 0 in pool.live_workers
            assert stats["respawns"] == 1
            assert stats["recovery_seconds"] > 0.0
            assert stats["mttr_seconds"] > 0.0
            # The revived incarnation serves batches again.
            pool.submit(requests[6:9], worker_id=0)
            outcome = pool.collect()
            assert outcome.status == "answered" and outcome.worker_id == 0
            _assert_conserved(pool)

    def test_straggler_hedge_answers_from_the_other_lane(
        self, checkpoint, requests, reference_digest
    ):
        plan = FaultPlan(
            seed=SEED,
            scenario="straggler_hedge",
            events=(FaultEvent(kind="stall", worker_id=0, at_batch=0, seconds=8.0),),
        )
        policy = DegradationPolicy(hedge=True, hedge_after_fraction=0.1)
        with _pool(
            checkpoint,
            policy=policy,
            fault_plan=plan,
            batch_timeout_seconds=20.0,
        ) as pool:
            watch = stopwatch()
            pool.submit(requests[:6], worker_id=0)
            outcome = pool.collect()
            elapsed = watch.elapsed()
            stats = pool.stats()
            _assert_conserved(pool)
        assert outcome.status == "answered"
        assert outcome.worker_id == 1  # hedge won while the primary stalled
        assert elapsed < 8.0  # answered well before the straggler finished
        assert stats["hedged"] == 1 and stats["hedge_wins"] == 1
        assert stats["retries"] == 0
        assert stats["dispatched"] == 1  # hedge duplicate not double-counted
        flat = [
            type("Outcome", (), {"request_id": rid, "theta": result.theta})()
            for rid, result in zip(outcome.request_ids, outcome.results, strict=True)
        ]
        engine = InferenceEngine.from_mmap_checkpoint(
            checkpoint, seed=SEED, num_sweeps=NUM_SWEEPS, mmap_mode=None
        )
        expected = [
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
            for request in requests[:6]
        ]
        assert pool_results_digest(flat) == pool_results_digest(expected)


class TestReportCompat:
    """WallClockReport speaks ServingReport's stats surface (one rule)."""

    def test_summary_carries_every_simulated_report_key(self, checkpoint, requests):
        from repro.serving.server import ServingReport

        simulated_keys = set(
            ServingReport(
                outcomes=[],
                batches=[],
                makespan_seconds=0.0,
                rejection_rate=0.0,
                mean_batch_docs=0.0,
                cache_hits=0,
                cache_lookups=0,
            ).summary()
        )
        with _pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
        assert simulated_keys <= set(report.summary())

    def test_field_for_field_accessors(self, checkpoint, requests):
        with _pool(checkpoint) as pool:
            report = serve_wallclock(pool, requests, batch_docs=4)
        latencies = sorted(
            outcome.latency_seconds
            for outcome in report.outcomes
            if outcome.status == "answered"
        )
        assert report.latency_percentile(50.0) == np.percentile(latencies, 50.0)
        assert report.p50_seconds == report.latency_percentile(50.0)
        assert report.p99_seconds == report.latency_percentile(99.0)
        assert report.mean_seconds == pytest.approx(float(np.mean(latencies)))
        assert report.rejected == report.failed == 0
        assert report.rejection_rate == 0.0
        assert report.cache_hit_rate == 0.0  # closed loop bypasses the cache
        assert report.mean_batch_docs == pytest.approx(4.0)

    def test_zero_answered_is_nan_not_zero(self):
        from repro.serving.workers import WallClockReport

        empty = WallClockReport(
            outcomes=[], batches=[], wall_seconds=0.1, pool_stats={}
        )
        assert np.isnan(empty.latency_percentile(50.0))
        assert np.isnan(empty.p50_seconds)
        assert np.isnan(empty.p99_seconds)
        assert np.isnan(empty.mean_seconds)
        assert empty.rejection_rate == 0.0
        assert empty.sustained_qps == 0.0
