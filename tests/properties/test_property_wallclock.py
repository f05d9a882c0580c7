"""Property-based tests: open-loop wall-clock runs conserve requests.

The measured plane's core law is accounting, not timing: for any
arrival stream and any fault the pool can hit — a worker killed
mid-run, a wedged batch blowing its IPC deadline, the in-process
fallback, or a refusal to fall back at all — every admitted request is
answered or failed exactly once and nothing stays pending.  Hypothesis
drives random tiny streams through each fault path and checks the
partition on both surfaces (pool stats and report outcomes).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LDAHyperParams, save_model_mmap
from repro.core.model import LDAModel
from repro.serving import (
    BatchScheduler,
    DegradationPolicy,
    FaultEvent,
    FaultPlan,
    RequestQueue,
    ResultCache,
    TopicServer,
    WorkerPool,
    make_requests,
)

NUM_TOPICS = 5
VOCABULARY = 60
SEED = 29

#: Fault paths exercised, keyed by how the pool is built / perturbed.
FAULTS = ("none", "degraded", "worker_kill", "timeout_fallback", "timeout_failed")

#: The wedge both timeout paths hit: lane 0's first batch stalls far
#: past the deadline (its lane is then killed, so no later batch reaches
#: a worker).
WEDGE = FaultPlan(
    seed=SEED,
    events=(FaultEvent(kind="stall", worker_id=0, at_batch=0, seconds=1.0),),
)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    rng = np.random.default_rng(SEED)
    counts = rng.integers(0, 25, size=(VOCABULARY, NUM_TOPICS)).astype(np.int64)
    model = LDAModel(
        word_topic_counts=counts,
        params=LDAHyperParams(num_topics=NUM_TOPICS, alpha=0.1, beta=0.01),
    )
    directory = str(tmp_path_factory.mktemp("ckpt") / "model")
    return save_model_mmap(model, directory)


documents = st.lists(
    st.lists(st.integers(min_value=0, max_value=VOCABULARY - 1), min_size=1, max_size=8),
    min_size=1,
    max_size=6,
)


def _pool(checkpoint, fault: str) -> WorkerPool:
    if fault == "degraded":
        return WorkerPool(checkpoint, num_workers=0, seed=SEED, num_sweeps=2)
    if fault == "timeout_fallback":
        # The first batch wedges past the deadline; no retry budget and no
        # survivor, so the pool must answer in-process.
        return WorkerPool(
            checkpoint,
            num_workers=1,
            seed=SEED,
            num_sweeps=2,
            batch_timeout_seconds=0.2,
            policy=DegradationPolicy(max_retries=0),
            fault_plan=WEDGE,
        )
    if fault == "timeout_failed":
        # Same wedge, but the fallback is refused: batches must FAIL and
        # still be accounted for.
        return WorkerPool(
            checkpoint,
            num_workers=1,
            seed=SEED,
            num_sweeps=2,
            batch_timeout_seconds=0.2,
            policy=DegradationPolicy(max_retries=0, fallback=False),
            fault_plan=WEDGE,
        )
    return WorkerPool(checkpoint, num_workers=2, seed=SEED, num_sweeps=2)


class TestOpenLoopConservation:
    @given(docs=documents, fault=st.sampled_from(FAULTS))
    @settings(max_examples=10, deadline=None)
    def test_admitted_is_answered_plus_failed_plus_pending(
        self, checkpoint, docs, fault
    ):
        streams = [np.asarray(ids, dtype=np.int32) for ids in docs]
        requests = make_requests(streams, [0.002 * i for i in range(len(streams))])
        with _pool(checkpoint, fault) as pool:
            if fault == "worker_kill":
                pool._processes[0].kill()
                time.sleep(0.05)
            server = TopicServer(
                pool,
                scheduler=BatchScheduler(max_batch_docs=8, max_wait_seconds=0.0),
                queue=RequestQueue(max_depth=None),
                cache=ResultCache(capacity=0),
            )
            report = server.serve(requests)
            stats = pool.stats()

        # Pool surface: nothing lost, nothing left in flight.
        assert stats["admitted"] == (
            stats["answered"] + stats["failed"] + stats["pending"]
        )
        assert stats["pending"] == 0
        # Report surface: every arrival has exactly one outcome.
        assert len(report.outcomes) == len(requests)
        assert report.answered + report.rejected == len(requests)
        if fault == "timeout_failed":
            # The first wedged batch fails (no retry budget, fallback
            # refused).  Once its worker is killed the pool is degraded,
            # and degraded batches always answer in-process — so later
            # arrivals may still be answered.  Either way, every request
            # lands in exactly one bucket on both surfaces.
            statuses = {o.status for o in report.outcomes}
            assert "failed" in statuses
            assert statuses <= {"failed", "answered"}
            failed = sum(1 for o in report.outcomes if o.status == "failed")
            assert stats["failed"] == failed
            assert stats["answered"] == len(requests) - failed
        else:
            assert all(o.status == "answered" for o in report.outcomes)
            assert stats["answered"] == len(requests)
            for outcome in report.outcomes:
                assert outcome.latency_seconds >= 0.0
                assert outcome.theta is not None
        if fault in ("degraded", "timeout_fallback"):
            assert all(o.worker_id == -1 for o in report.outcomes)
