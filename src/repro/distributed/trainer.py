"""Multi-device SaberLDA training across a simulated device pool.

The distributed trainer runs the *same mathematics* as the single-device
:class:`~repro.saberlda.trainer.SaberLDATrainer` — ESCA is bulk
synchronous, so resampling every chunk against the frozen ``A``/``B̂`` and
merging the integer count matrices afterwards is order-independent and
exact.  The trainer therefore iterates the chunk layouts in global stream
order with one RNG stream (bit-identical to the sequential run at the
same seed) in every mode, while the *cost* attribution follows the
selected ``parallelism``:

* ``"data"`` — chunks are sharded (:class:`~repro.distributed.shard.ShardPlan`),
  ``B`` is replicated: every device is charged the phases of its own
  shard plus the replicated pre-processing of ``B̂``/``Q`` and the W-ary
  trees, and the counts merge over a ring all-reduce;
* ``"topic"`` — the ``K`` columns of ``B`` are sharded
  (:class:`~repro.distributed.shard.TopicShardPlan`): every device scans
  the full token stream but samples, stores and pre-processes only its
  ``~K/N`` column slice (Problem-2 draws are routed to the owning
  device), and the per-topic sufficient statistics are exchanged with an
  all-to-all instead of the ring;
* ``"hybrid"`` — both shardings at once: each device samples its own
  chunk shard over the full ``K`` (routed draws), but stores and
  pre-processes only its column slice, again merging via the all-to-all.

In every case the per-iteration barrier is the slowest device (BSP), and
under the asynchronous streaming schedule part of the collective hides
behind the E-step tail — the overlap window is derived from the per-chunk
word-completion times of :mod:`repro.saberlda.scheduling`, not a fixed
fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bench.timing import stopwatch
from ..core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from ..core.model import LDAModel
from ..core.tokens import TokenList
from ..gpusim.profiler import PHASE_PREPROCESSING, PHASE_SAMPLING
from ..gpusim.streams import PCIE_P2P, DevicePool, InterconnectSpec
from ..saberlda.config import SaberLDAConfig
from ..saberlda.costing import WorkloadStats, _hot_token_fraction
from ..saberlda.estep import WordSide, esca_estep
from ..saberlda.layout import ChunkLayout, build_layout, gather_layout_tokens
from ..saberlda.projection import cost_iteration_phases
from ..saberlda.scheduling import allreduce_overlap_fraction, alltoall_overlap_fraction
from ..saberlda.trainer import (
    rebuild_doc_topic,
    sparse_training_likelihood,
    train_saberlda,
)
from ..telemetry.metrics import MetricsRegistry, null_metrics
from ..telemetry.tracer import Tracer, null_tracer
from .allreduce import AllToAll, RingAllReduce, exposed_allreduce_seconds
from .shard import ShardPlan, TopicShardPlan, build_sharded_layout, plan_topic_shards

#: The supported cost-attribution modes of the distributed trainer.
PARALLELISM_MODES = ("data", "topic", "hybrid")


@dataclass
class DistributedIterationRecord:
    """Per-iteration measurements of the multi-device run."""

    iteration: int
    per_device_phase_seconds: List[Dict[str, float]]
    per_device_seconds: List[float]
    allreduce_seconds: float
    exposed_allreduce_seconds: float
    simulated_seconds: float
    cumulative_simulated_seconds: float
    log_likelihood_per_token: Optional[float]
    #: Cost of the all-to-all exchange of per-topic sufficient statistics
    #: (zero under pure data parallelism, where the ring merges ``B``).
    alltoall_seconds: float = 0.0
    exposed_alltoall_seconds: float = 0.0

    @property
    def collective_seconds(self) -> float:
        """Total collective cost of the iteration (ring + all-to-all)."""
        return self.allreduce_seconds + self.alltoall_seconds

    @property
    def exposed_collective_seconds(self) -> float:
        """Exposed (non-overlapped) collective cost of the iteration."""
        return self.exposed_allreduce_seconds + self.exposed_alltoall_seconds

    @property
    def barrier_seconds(self) -> float:
        """Compute time of the slowest device (the BSP barrier)."""
        return max(self.per_device_seconds)

    @property
    def balance_efficiency(self) -> float:
        """Mean device busy time over the barrier (1.0 = perfectly balanced)."""
        barrier = self.barrier_seconds
        if barrier <= 0:
            return 1.0
        return float(np.mean(self.per_device_seconds)) / barrier


@dataclass
class DistributedTrainingResult:
    """Everything produced by one data-parallel run."""

    model: LDAModel
    doc_topic: SparseDocTopicMatrix
    history: List[DistributedIterationRecord]
    plan: Optional[ShardPlan]
    pool: DevicePool
    config: SaberLDAConfig
    num_tokens: int
    wall_seconds: float
    topic_plan: Optional[TopicShardPlan] = None
    parallelism: str = "data"

    @property
    def num_devices(self) -> int:
        """Pool size of the run."""
        return self.pool.num_devices

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time of the run (barriers + exposed all-reduces)."""
        if not self.history:
            return 0.0
        return self.history[-1].cumulative_simulated_seconds

    def throughput_tokens_per_second(self) -> float:
        """Aggregate simulated throughput of the pool."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.num_tokens * len(self.history) / self.simulated_seconds

    def final_log_likelihood(self) -> Optional[float]:
        """Last recorded per-token training log-likelihood."""
        for record in reversed(self.history):
            if record.log_likelihood_per_token is not None:
                return record.log_likelihood_per_token
        return None

    def allreduce_share(self) -> float:
        """Fraction of the simulated time spent in exposed collectives."""
        if self.simulated_seconds <= 0:
            return 0.0
        exposed = sum(record.exposed_collective_seconds for record in self.history)
        return exposed / self.simulated_seconds

    def alltoall_seconds_total(self) -> float:
        """Total (pre-overlap) all-to-all cost over the run, separate from the ring."""
        return sum(record.alltoall_seconds for record in self.history)

    def ring_seconds_total(self) -> float:
        """Total (pre-overlap) ring all-reduce cost over the run."""
        return sum(record.allreduce_seconds for record in self.history)

    def model_bytes_per_device(self, element_bytes: int = 4) -> float:
        """Largest per-device footprint of ``B`` under the run's parallelism.

        Replicated (data-parallel) runs hold the full ``V x K`` matrix on
        every device; topic-sharded runs hold only the widest column
        slice of the :class:`~repro.distributed.shard.TopicShardPlan`.
        """
        vocabulary_size, num_topics = self.model.word_topic_counts.shape
        if self.topic_plan is not None:
            return self.topic_plan.max_model_bytes(vocabulary_size, element_bytes)
        return float(vocabulary_size) * num_topics * element_bytes

    def phase_breakdown(self) -> Dict[str, float]:
        """Slowest-device seconds per phase over the run, plus the collectives."""
        totals: Dict[str, float] = {}
        for record in self.history:
            slowest = int(np.argmax(record.per_device_seconds))
            for phase, seconds in record.per_device_phase_seconds[slowest].items():
                totals[phase] = totals.get(phase, 0.0) + seconds
            totals["allreduce"] = (
                totals.get("allreduce", 0.0) + record.exposed_allreduce_seconds
            )
            totals["alltoall"] = (
                totals.get("alltoall", 0.0) + record.exposed_alltoall_seconds
            )
        return totals

    def speedup_versus(self, single_device_seconds: float) -> float:
        """Simulated speedup over a single-device run of the same workload."""
        if self.simulated_seconds <= 0:
            return 0.0
        return single_device_seconds / self.simulated_seconds


@dataclass
class DistributedTrainer:
    """Runs SaberLDA on ``num_devices`` simulated devices.

    ``config.device`` is replicated into a homogeneous pool joined by
    ``interconnect``; ``parallelism`` selects how work and model state are
    split (see the module docstring and :data:`PARALLELISM_MODES`).
    Statistical results are bit-identical to
    :class:`~repro.saberlda.trainer.SaberLDATrainer` run with the same
    seed and the same (effective) chunk count, in every mode.
    """

    config: SaberLDAConfig
    num_devices: int = 2
    interconnect: InterconnectSpec = field(default=PCIE_P2P)
    parallelism: str = "data"
    #: Disabled by default.  An enabled tracer records, per iteration,
    #: one simulated span per device (track = device id, phases as
    #: children) plus the exposed ring/all-to-all collectives — the
    #: multi-track view of the BSP barrier.
    tracer: Tracer = field(default_factory=null_tracer)
    metrics: MetricsRegistry = field(default_factory=null_metrics)

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, "
                f"got {self.parallelism!r}"
            )
        if (
            self.parallelism in ("topic", "hybrid")
            and self.config.params.num_topics < self.num_devices
        ):
            raise ValueError(
                "topic parallelism needs at least one topic column per device "
                f"(K={self.config.params.num_topics} < {self.num_devices} devices)"
            )
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(
        self,
        tokens: TokenList,
        num_documents: int,
        vocabulary_size: int,
        vocabulary=None,
    ) -> DistributedTrainingResult:
        """Run the configured number of multi-device iterations."""
        watch = stopwatch()
        params = self.config.params
        pool = DevicePool.homogeneous(
            self.config.device, self.num_devices, self.interconnect
        )
        ring = RingAllReduce(link=self.interconnect)
        alltoall = AllToAll(link=self.interconnect)

        # ------------- Layout, shard plans and initialisation ------------- #
        working_tokens = tokens.copy()
        if (working_tokens.topics < 0).any():
            working_tokens.randomize_topics(params.num_topics, self._rng)
        if self.parallelism == "topic":
            # Pure model parallelism streams every chunk through every
            # device, so the chunk count never needs raising for the pool.
            layouts = build_layout(working_tokens, num_documents, self.config)
            plan: Optional[ShardPlan] = None
            config = self.config
        else:
            layouts, plan, config = build_sharded_layout(
                working_tokens, num_documents, self.config, self.num_devices
            )
        topic_plan: Optional[TopicShardPlan] = None
        if self.parallelism in ("topic", "hybrid"):
            topic_plan = plan_topic_shards(params.num_topics, self.num_devices)

        doc_topic = self._rebuild_doc_topic(layouts, num_documents)
        word_topic, _ring_cost, _a2a_cost = self._merged_word_topic(
            layouts, plan, vocabulary_size, ring, alltoall
        )
        word_side = WordSide.prepare(word_topic, params.alpha, params.beta)

        # The ring's overlap window depends only on the word-run structure of
        # each device's stream (words never move between chunks), so the
        # per-device fractions are computed once, not per iteration — and
        # only for the mode that runs a ring at all (topic/hybrid merge with
        # the all-to-all, whose per-column window is iteration-dependent).
        num_processors = max(1, config.device.num_sms * 2)
        if self.parallelism == "data":
            overlap_fractions = [
                allreduce_overlap_fraction(
                    plan.layouts_for_device(layouts, device_id), num_processors
                )
                for device_id in range(self.num_devices)
            ]
        else:
            overlap_fractions = None

        history: List[DistributedIterationRecord] = []
        cumulative = 0.0

        for iteration in range(1, config.num_iterations + 1):
            # ------------------------- E-step (global order) ------------------------- #
            for layout in layouts:
                result = esca_estep(
                    layout.tokens,
                    doc_topic,
                    word_side,
                    self._rng,
                    backend=config.kernel_backend,
                )
                layout.tokens.topics = result.new_topics

            # ------------------------------- M-step ---------------------------------- #
            doc_topic = self._rebuild_doc_topic(layouts, num_documents)
            word_topic, ring_cost, a2a_cost = self._merged_word_topic(
                layouts, plan, vocabulary_size, ring, alltoall
            )
            # The E-step is done with the old word side: recycle its buffers.
            word_side = WordSide.prepare(
                word_topic, params.alpha, params.beta, reuse=word_side
            )

            # --------------------------- Simulated timing ---------------------------- #
            per_device_phases = [
                self._device_phase_seconds(
                    device_id, layouts, plan, topic_plan, doc_topic,
                    vocabulary_size, config,
                )
                for device_id in range(self.num_devices)
            ]
            per_device_seconds = [sum(phases.values()) for phases in per_device_phases]
            barrier = max(per_device_seconds)
            slowest = int(np.argmax(per_device_seconds))
            overlappable = (
                config.asynchronous and config.num_workers >= 2 and self.num_devices > 1
            )
            # Reduce-scatter segments of words that completed early can ride
            # the interconnect while the slowest device still samples its
            # tail: the ring window is the word-completion-weighted share of
            # its sampling phase.
            slowest_sampling = per_device_phases[slowest].get(PHASE_SAMPLING, 0.0)
            ring_seconds = ring_cost.seconds if ring_cost is not None else 0.0
            a2a_seconds = a2a_cost.seconds if a2a_cost is not None else 0.0
            if ring_cost is not None:
                window = overlap_fractions[slowest] * slowest_sampling
                exposed_ring = exposed_allreduce_seconds(ring_cost, window, overlappable)
            else:
                exposed_ring = 0.0
            if a2a_cost is not None:
                # The all-to-all moves *column blocks*, which are final only
                # once the stream's last token of each topic has been drawn —
                # a per-column readiness derived from this iteration's
                # assignments (topics move between iterations; word runs do
                # not, which is why the ring window can be precomputed).
                column_fraction = alltoall_overlap_fraction(
                    self._device_stream(layouts, plan, slowest),
                    num_processors,
                    params.num_topics,
                )
                exposed_a2a = exposed_allreduce_seconds(
                    a2a_cost, column_fraction * slowest_sampling, overlappable
                )
            else:
                exposed_a2a = 0.0
            iteration_seconds = barrier + exposed_ring + exposed_a2a
            if self.tracer.enabled:
                self._trace_iteration(
                    iteration, cumulative, per_device_phases, barrier,
                    exposed_ring, exposed_a2a,
                )
            cumulative += iteration_seconds
            self.metrics.counter("train.iterations").inc()
            self.metrics.counter("train.simulated_seconds").inc(iteration_seconds)
            self.metrics.counter("train.exposed_ring_seconds").inc(exposed_ring)
            self.metrics.counter("train.exposed_alltoall_seconds").inc(exposed_a2a)

            # ----------------------------- Model quality ----------------------------- #
            log_likelihood: Optional[float] = None
            if iteration % config.evaluate_every == 0 or iteration == config.num_iterations:
                all_tokens = gather_layout_tokens(layouts)
                likelihood = sparse_training_likelihood(
                    all_tokens, doc_topic, word_topic, num_documents, params, word_side
                )
                log_likelihood = likelihood.per_token

            history.append(
                DistributedIterationRecord(
                    iteration=iteration,
                    per_device_phase_seconds=per_device_phases,
                    per_device_seconds=per_device_seconds,
                    allreduce_seconds=ring_seconds,
                    exposed_allreduce_seconds=exposed_ring,
                    simulated_seconds=iteration_seconds,
                    cumulative_simulated_seconds=cumulative,
                    log_likelihood_per_token=log_likelihood,
                    alltoall_seconds=a2a_seconds,
                    exposed_alltoall_seconds=exposed_a2a,
                )
            )

        model = LDAModel(
            word_topic_counts=word_topic,
            params=params,
            vocabulary=vocabulary,
            metadata={
                "system": "SaberLDA-distributed",
                "device": config.device.name,
                "num_devices": self.num_devices,
                "interconnect": self.interconnect.name,
                "parallelism": self.parallelism,
                "num_iterations": config.num_iterations,
                "num_chunks": config.num_chunks,
                "num_workers": config.num_workers,
                "seed": config.seed,
            },
        )
        return DistributedTrainingResult(
            model=model,
            doc_topic=doc_topic,
            history=history,
            plan=plan,
            pool=pool,
            config=config,
            num_tokens=tokens.num_tokens,
            wall_seconds=watch.elapsed(),
            topic_plan=topic_plan,
            parallelism=self.parallelism,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _trace_iteration(
        self,
        iteration: int,
        start_seconds: float,
        per_device_phases: List[Dict[str, float]],
        barrier_seconds: float,
        exposed_ring: float,
        exposed_a2a: float,
    ) -> None:
        """One iteration's multi-track simulated spans.

        Every device's compute rides its own track (``device_id + 1``);
        the iteration span on track 0 covers barrier + exposed
        collectives — the same floats the iteration record carries.
        """
        tracer = self.tracer
        total = barrier_seconds + exposed_ring + exposed_a2a
        clock = tracer.clock
        if hasattr(clock, "advance_to"):
            clock.advance_to(max(clock.now(), start_seconds + total))
        tracer.add_span(
            "iteration",
            start_seconds,
            total,
            category="train",
            depth=0,
            args={"iteration": iteration},
        )
        for device_id, phases in enumerate(per_device_phases):
            tracer.add_span(
                "device_compute",
                start_seconds,
                sum(phases.values()),
                category="train",
                track=device_id + 1,
                depth=1,
                args={"device": device_id},
            )
            cursor = start_seconds
            for phase, seconds in phases.items():
                tracer.add_span(
                    phase, cursor, seconds, category="phase",
                    track=device_id + 1, depth=2,
                )
                cursor += seconds
        collective_start = start_seconds + barrier_seconds
        if exposed_ring > 0:
            tracer.add_span(
                "allreduce", collective_start, exposed_ring,
                category="collective", depth=1,
            )
            collective_start += exposed_ring
        if exposed_a2a > 0:
            tracer.add_span(
                "alltoall", collective_start, exposed_a2a,
                category="collective", depth=1,
            )

    def _rebuild_doc_topic(
        self, layouts: List[ChunkLayout], num_documents: int
    ) -> SparseDocTopicMatrix:
        return rebuild_doc_topic(layouts, num_documents, self.config.params.num_topics)

    def _device_stream(
        self,
        layouts: List[ChunkLayout],
        plan: Optional[ShardPlan],
        device_id: int,
    ) -> List[ChunkLayout]:
        """The chunk layouts the given device streams through per iteration."""
        if plan is None:  # topic parallelism: every device scans everything
            return list(layouts)
        return plan.layouts_for_device(layouts, device_id)

    def _merged_word_topic(
        self,
        layouts: List[ChunkLayout],
        plan: Optional[ShardPlan],
        vocabulary_size: int,
        ring: RingAllReduce,
        alltoall: AllToAll,
    ) -> tuple:
        """Count the per-device partial ``B`` and merge with the mode's collective.

        Returns ``(word_topic, ring_cost | None, alltoall_cost | None)`` —
        exactly one collective runs per mode, and its cost is reported
        separately so benchmarks can compare the ring against the
        all-to-all.
        """
        num_topics = self.config.params.num_topics
        if self.parallelism == "topic":
            # No data sharding: the merged matrix is one pass over the
            # stream, and the all-to-all routes each owner its columns.
            merged = np.zeros((vocabulary_size, num_topics), dtype=np.int64)
            for layout in layouts:
                merged += count_by_word_topic(
                    layout.tokens, vocabulary_size, num_topics
                )
            # Route through the collective so the wire-format overflow
            # guard applies in this mode too, then charge the exchange at
            # the pool size (the single partial is a correctness artefact).
            merged = alltoall.exchange([merged])
            return merged, None, alltoall.cost(int(merged.size), self.num_devices)

        locals_: List[np.ndarray] = []
        for device_id in range(plan.num_devices):
            device_counts = np.zeros((vocabulary_size, num_topics), dtype=np.int64)
            for layout in plan.layouts_for_device(layouts, device_id):
                device_counts += count_by_word_topic(
                    layout.tokens, vocabulary_size, num_topics
                )
            locals_.append(device_counts)
        if self.parallelism == "hybrid":
            merged, cost = alltoall.exchange_with_cost(locals_)
            return merged, None, cost
        merged, cost = ring.reduce_with_cost(locals_)
        return merged, cost, None

    def _device_phase_seconds(
        self,
        device_id: int,
        layouts: List[ChunkLayout],
        plan: Optional[ShardPlan],
        topic_plan: Optional[TopicShardPlan],
        doc_topic: SparseDocTopicMatrix,
        vocabulary_size: int,
        config: SaberLDAConfig,
    ) -> Dict[str, float]:
        """Cost one device's share of one iteration under the selected mode.

        * ``data``: the device's chunk shard at the full ``K`` (``B``
          replicated, pre-processing included in full);
        * ``topic``: the whole stream, but every ``K``-dependent phase at
          the device's column-shard width (draws routed to the owner);
        * ``hybrid``: the chunk shard at full ``K`` for sampling, with
          only the pre-processing re-costed at the column-shard width
          (each device builds ``B̂``/trees for its own slice only).
        """
        num_topics = config.params.num_topics
        device_layouts = self._device_stream(layouts, plan, device_id)
        if self.parallelism == "topic":
            shard_topics = max(1, topic_plan.shards[device_id].num_topics)
            stats = _device_workload_stats(
                device_layouts, doc_topic, shard_topics, vocabulary_size, config
            )
            return dict(cost_iteration_phases(stats, config).phase_seconds)

        stats = _device_workload_stats(
            device_layouts, doc_topic, num_topics, vocabulary_size, config
        )
        phases = dict(cost_iteration_phases(stats, config).phase_seconds)
        if self.parallelism == "hybrid":
            shard_topics = max(1, topic_plan.shards[device_id].num_topics)
            shard_stats = _device_workload_stats(
                device_layouts, doc_topic, shard_topics, vocabulary_size, config
            )
            shard_phases = cost_iteration_phases(shard_stats, config).phase_seconds
            phases[PHASE_PREPROCESSING] = shard_phases[PHASE_PREPROCESSING]
        return phases


def _device_workload_stats(
    device_layouts: List[ChunkLayout],
    doc_topic: SparseDocTopicMatrix,
    num_topics: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
) -> WorkloadStats:
    """Exact per-shard workload statistics (the device's share of A included).

    A device streams only its own chunks' tokens and ``A`` rows, so the
    transfer and rebuild traffic must be charged on the shard's document
    ranges, not the global matrix — otherwise every device would pay the
    full corpus and nothing would scale.  Pre-processing statistics
    (``V``, ``K``) stay global because ``B̂`` is replicated.
    """
    num_tokens = int(sum(layout.num_tokens for layout in device_layouts))
    distinct_chunk_words = float(
        sum(layout.distinct_words() for layout in device_layouts)
    )
    chunk_token_counts = [layout.num_tokens for layout in device_layouts]

    shard_documents = 0
    shard_nnz = 0
    for layout in device_layouts:
        chunk = layout.chunk
        shard_documents += chunk.num_documents
        shard_nnz += doc_topic.slice_documents(chunk.doc_start, chunk.doc_stop).num_nonzeros

    term_frequencies = np.zeros(vocabulary_size, dtype=np.int64)
    for layout in device_layouts:
        term_frequencies += layout.tokens.tokens_per_word(vocabulary_size)
    hot_fraction = _hot_token_fraction(term_frequencies, num_topics, config.device)

    mean_doc_nnz = shard_nnz / shard_documents if shard_documents else 0.0
    return WorkloadStats(
        num_tokens=num_tokens,
        num_documents=shard_documents,
        vocabulary_size=vocabulary_size,
        num_topics=num_topics,
        mean_doc_nnz=mean_doc_nnz,
        total_doc_nnz=float(shard_nnz),
        distinct_chunk_words=distinct_chunk_words,
        hot_token_fraction=hot_fraction,
        chunk_token_counts=chunk_token_counts,
    )


def train_distributed(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
    num_devices: int,
    interconnect: InterconnectSpec = PCIE_P2P,
    vocabulary=None,
    parallelism: str = "data",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> DistributedTrainingResult:
    """Convenience wrapper: construct a distributed trainer and fit it."""
    trainer = DistributedTrainer(
        config=config,
        num_devices=num_devices,
        interconnect=interconnect,
        parallelism=parallelism,
        tracer=tracer if tracer is not None else null_tracer(),
        metrics=metrics if metrics is not None else null_metrics(),
    )
    return trainer.fit(tokens, num_documents, vocabulary_size, vocabulary)


@dataclass(frozen=True)
class ScalingPoint:
    """One device count of a scaling sweep."""

    num_devices: int
    simulated_seconds: float
    speedup: float
    efficiency: float
    allreduce_share: float
    token_imbalance: float


def measure_scaling(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
    device_counts: Sequence[int],
    interconnect: InterconnectSpec = PCIE_P2P,
) -> List[ScalingPoint]:
    """Strong-scaling sweep: the same corpus trained on each pool size.

    Every point — including the single-device :func:`train_saberlda`
    baseline — runs on one common chunking (the configured count, raised
    to ``2 * max(device_counts)`` when smaller, matching what
    :func:`~repro.distributed.shard.build_sharded_layout` would pick for
    the largest pool), so the reported speedups measure the distribution
    machinery only, never a chunk-count change.
    """
    counts_sorted = sorted(set(int(count) for count in device_counts))
    if not counts_sorted:
        return []
    common_chunks = max(config.num_chunks, 2 * counts_sorted[-1])
    if common_chunks != config.num_chunks:
        config = config.with_overrides(num_chunks=common_chunks)
    baseline: Optional[float] = None
    points: List[ScalingPoint] = []
    for count in counts_sorted:
        if count == 1:
            single = train_saberlda(
                tokens.copy(), num_documents, vocabulary_size, config
            )
            seconds = single.simulated_seconds
            share = 0.0
            imbalance = 0.0
        else:
            result = train_distributed(
                tokens.copy(), num_documents, vocabulary_size, config, count, interconnect
            )
            seconds = result.simulated_seconds
            share = result.allreduce_share()
            imbalance = result.plan.token_imbalance
        if baseline is None:
            baseline = seconds
        speedup = baseline / seconds if seconds > 0 else 0.0
        points.append(
            ScalingPoint(
                num_devices=count,
                simulated_seconds=seconds,
                speedup=speedup,
                # Speedup is relative to the smallest pool in the sweep, so
                # efficiency must be too (equals speedup/count when 1 is swept).
                efficiency=speedup * counts_sorted[0] / count,
                allreduce_share=share,
                token_imbalance=imbalance,
            )
        )
    return points
