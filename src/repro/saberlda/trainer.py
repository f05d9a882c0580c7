"""The SaberLDA trainer: streaming ESCA iterations with simulated GPU timing.

Each iteration follows Alg. 1 exactly:

1. **E-step** — every chunk's tokens are resampled with the
   sparsity-aware decomposition against the frozen matrices ``A`` and
   ``B̂`` (the mathematics run vectorised; see ``estep.py``);
2. **M-step** — the chunk rows of ``A`` are rebuilt and merged, ``B`` is
   recounted, ``B̂``/``Q`` and the per-word sampling structures are
   re-prepared.

Alongside the real computation, the trainer *costs* every phase on the
configured device with the workload analyser + roofline model, and
records the per-phase simulated seconds, the streaming schedule (which
hides transfers when the run is asynchronous) and the training
log-likelihood.  The result carries everything the benchmarks need to
reproduce Figs. 9-12 and Tables 2 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..bench.timing import stopwatch
from ..core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from ..core.likelihood import LikelihoodResult
from ..core.model import LDAModel
from ..core.tokens import TokenList, validate_training_tokens
from ..gpusim.cost_model import CostModel
from ..gpusim.profiler import Profiler
from ..kernels.mstep import doc_side_mass
from ..telemetry.clock import DOMAIN_WALL
from ..telemetry.metrics import MetricsRegistry, null_metrics
from ..telemetry.tracer import Tracer, null_tracer
from .config import SaberLDAConfig
from .costing import WorkloadStats
from .estep import WordSide, esca_estep
from .layout import ChunkLayout, build_layout, gather_layout_tokens
from .projection import cost_iteration_phases
from .ssc import merge_chunk_rows, rebuild_doc_topic_sort


def rebuild_doc_topic(
    layouts: List[ChunkLayout], num_documents: int, num_topics: int
) -> SparseDocTopicMatrix:
    """Rebuild A chunk by chunk and merge the rows (vectorised functional path).

    Shared by the single-device and the distributed trainer — the
    bit-identical equivalence between the two depends on both using this
    exact rebuild.
    """
    chunk_rows = [rebuild_doc_topic_sort(layout, num_topics) for layout in layouts]
    return merge_chunk_rows(chunk_rows, num_documents, num_topics)


def sparse_training_likelihood(
    tokens: TokenList,
    doc_topic: SparseDocTopicMatrix,
    word_topic: np.ndarray,
    num_documents: int,
    params,
    word_side: Optional[WordSide] = None,
) -> LikelihoodResult:
    """Training log-likelihood from the sparse ``A`` in ``O(T·K_d)``.

    A token's probability ``Σ_k θ_dk·B̂_vk`` is the E-step's own normaliser
    over the smoothed document length: ``(Σ_{k∈nz(d)} A_dk·B̂_vk + Q_v) /
    (N_d + Kα)``.  ``word_side`` is the ``WordSide`` prepared from
    ``word_topic`` (prepared here when the caller holds only ``B``).  Agrees
    with :func:`~repro.core.likelihood.training_log_likelihood` on the
    densified ``A`` up to summation order.

    Shared by both trainers for the same reason as :func:`rebuild_doc_topic`.
    """
    if tokens.num_tokens == 0:
        return LikelihoodResult(0.0, 0)
    if word_side is None:
        word_side = WordSide.prepare(word_topic, params.alpha, params.beta)
    doc_mass = doc_side_mass(
        tokens.doc_ids,
        tokens.word_ids,
        doc_topic.indptr,
        doc_topic.indices,
        doc_topic.values,
        word_side.probs,
    )
    smoothed_lengths = (
        np.bincount(doc_topic.row_ids(), weights=doc_topic.values, minlength=num_documents)
        + params.num_topics * params.alpha
    )
    token_probs = (doc_mass + word_side.prior_mass[tokens.word_ids]) / smoothed_lengths[
        tokens.doc_ids
    ]
    token_probs = np.maximum(token_probs, 1e-300)
    return LikelihoodResult(float(np.log(token_probs).sum()), tokens.num_tokens)


@dataclass
class IterationRecord:
    """Per-iteration measurements and simulated timings."""

    iteration: int
    phase_seconds: Dict[str, float]
    simulated_seconds: float
    cumulative_simulated_seconds: float
    log_likelihood_per_token: Optional[float]
    mean_doc_nnz: float
    doc_branch_fraction: float

    @property
    def throughput_tokens_per_second(self) -> float:
        """Filled in by the trainer via :meth:`TrainingResult.throughput`."""
        return 0.0  # pragma: no cover - superseded by TrainingResult.throughput


@dataclass
class TrainingResult:
    """Everything produced by one SaberLDA run."""

    model: LDAModel
    doc_topic: SparseDocTopicMatrix
    history: List[IterationRecord]
    profiler: Profiler
    config: SaberLDAConfig
    num_tokens: int
    wall_seconds: float

    @property
    def simulated_seconds(self) -> float:
        """Total simulated (device) time of the run."""
        if not self.history:
            return 0.0
        return self.history[-1].cumulative_simulated_seconds

    def throughput_tokens_per_second(self) -> float:
        """Simulated end-to-end throughput (tokens/s), the metric of Fig. 10."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.num_tokens * len(self.history) / self.simulated_seconds

    def final_log_likelihood(self) -> Optional[float]:
        """Last recorded per-token training log-likelihood."""
        for record in reversed(self.history):
            if record.log_likelihood_per_token is not None:
                return record.log_likelihood_per_token
        return None

    def convergence_curve(self) -> List[tuple]:
        """``(cumulative simulated seconds, log-likelihood per token)`` pairs."""
        return [
            (record.cumulative_simulated_seconds, record.log_likelihood_per_token)
            for record in self.history
            if record.log_likelihood_per_token is not None
        ]

    def phase_breakdown(self) -> Dict[str, float]:
        """Total simulated seconds per phase over the whole run (Fig. 9 bars)."""
        totals: Dict[str, float] = {}
        for record in self.history:
            for phase, seconds in record.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals


@dataclass
class SaberLDATrainer:
    """Trains LDA with the SaberLDA system on a simulated GPU.

    The heavy per-token mathematics are executed with the vectorised
    functional E-step (statistically identical to the warp kernel, which
    is BSP); the per-phase cost on the configured device is charged by the
    workload analyser.  The functional M-step rebuild uses the vectorised
    sort-based path for both rebuild configurations — SSC and the global
    sort produce identical matrices by construction (verified in the test
    suite) and differ only in cost, which is what the config switch
    changes.
    """

    config: SaberLDAConfig
    #: Disabled by default.  Pass ``Tracer(SimClock())`` to record one
    #: span per iteration with its phase breakdown as children, all on
    #: the *simulated* clock (the cumulative seconds the records carry),
    #: plus one wall-domain ``fit`` span from the run's stopwatch.
    tracer: Tracer = field(default_factory=null_tracer)
    metrics: MetricsRegistry = field(default_factory=null_metrics)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
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
    ) -> TrainingResult:
        """Run the configured number of iterations and return the trained model."""
        watch = stopwatch()
        config = self.config
        params = config.params
        device = config.device
        cost_model = CostModel(device)
        profiler = Profiler(cost_model)

        # ---------------- Layout (PDOW) and initialisation ---------------- #
        validate_training_tokens(tokens, num_documents, vocabulary_size, params.num_topics)
        working_tokens = tokens.copy()
        if (working_tokens.topics < 0).any():
            working_tokens.randomize_topics(params.num_topics, self._rng)
        layouts = build_layout(working_tokens, num_documents, config)

        doc_topic = self._rebuild_doc_topic(layouts, num_documents)
        all_tokens = gather_layout_tokens(layouts)
        word_topic = count_by_word_topic(all_tokens, vocabulary_size, params.num_topics)
        word_side = WordSide.prepare(
            word_topic, params.alpha, params.beta, tokens=all_tokens
        )

        history: List[IterationRecord] = []
        cumulative = 0.0

        for iteration in range(1, config.num_iterations + 1):
            doc_branch_tokens = 0
            total_tokens = 0

            # ------------------------------ E-step ------------------------------ #
            for layout in layouts:
                result = esca_estep(
                    layout.tokens,
                    doc_topic,
                    word_side,
                    self._rng,
                    backend=config.kernel_backend,
                )
                layout.tokens.topics = result.new_topics
                doc_branch_tokens += result.doc_branch_tokens
                total_tokens += layout.num_tokens

            # ------------------------------ M-step ------------------------------ #
            doc_topic = self._rebuild_doc_topic(layouts, num_documents)
            all_tokens = gather_layout_tokens(layouts)
            word_topic = count_by_word_topic(all_tokens, vocabulary_size, params.num_topics)
            # The E-step is done with the old word side: recycle its buffers.
            word_side = WordSide.prepare(
                word_topic, params.alpha, params.beta, tokens=all_tokens, reuse=word_side
            )

            # ------------------------- Simulated timing ------------------------- #
            stats = WorkloadStats.measure(
                layouts, doc_topic, params.num_topics, vocabulary_size, device
            )
            phase_seconds = self._cost_iteration(stats, cost_model, profiler)
            iteration_seconds = sum(phase_seconds.values())
            if self.tracer.enabled:
                self._trace_iteration(iteration, cumulative, phase_seconds)
            cumulative += iteration_seconds
            profiler.record_iteration(iteration_seconds)
            self.metrics.counter("train.iterations").inc()
            self.metrics.counter("train.simulated_seconds").inc(iteration_seconds)
            for phase, seconds in phase_seconds.items():
                self.metrics.counter(f"train.phase.{phase}_seconds").inc(seconds)

            # --------------------------- Model quality -------------------------- #
            log_likelihood: Optional[float] = None
            if iteration % config.evaluate_every == 0 or iteration == config.num_iterations:
                likelihood = sparse_training_likelihood(
                    all_tokens, doc_topic, word_topic, num_documents, params, word_side
                )
                log_likelihood = likelihood.per_token

            history.append(
                IterationRecord(
                    iteration=iteration,
                    phase_seconds=phase_seconds,
                    simulated_seconds=iteration_seconds,
                    cumulative_simulated_seconds=cumulative,
                    log_likelihood_per_token=log_likelihood,
                    mean_doc_nnz=doc_topic.mean_row_nnz(),
                    doc_branch_fraction=doc_branch_tokens / max(total_tokens, 1),
                )
            )

        model = LDAModel(
            word_topic_counts=word_topic,
            params=params,
            vocabulary=vocabulary,
            metadata={
                "system": "SaberLDA",
                "device": device.name,
                "num_iterations": config.num_iterations,
                "num_chunks": config.num_chunks,
                "num_workers": config.num_workers,
                "seed": config.seed,
            },
        )
        wall_seconds = watch.elapsed()
        if self.tracer.enabled:
            # One wall-domain span alongside the simulated ones: the
            # measured cost of producing this simulated run.
            self.tracer.add_span(
                "fit",
                0.0,
                wall_seconds,
                category="train",
                domain=DOMAIN_WALL,
                depth=0,
                args={"iterations": config.num_iterations},
            )
        return TrainingResult(
            model=model,
            doc_topic=doc_topic,
            history=history,
            profiler=profiler,
            config=config,
            num_tokens=tokens.num_tokens,
            wall_seconds=wall_seconds,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _rebuild_doc_topic(
        self, layouts: List[ChunkLayout], num_documents: int
    ) -> SparseDocTopicMatrix:
        return rebuild_doc_topic(layouts, num_documents, self.config.params.num_topics)

    def _trace_iteration(
        self, iteration: int, start_seconds: float, phase_seconds: Dict[str, float]
    ) -> None:
        """One simulated iteration span with its phases as children.

        ``start_seconds`` is the cumulative simulated time *before* this
        iteration — the same floats the iteration records carry, so the
        trace and the history agree exactly.
        """
        tracer = self.tracer
        total = sum(phase_seconds.values())
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
        cursor = start_seconds
        for phase, seconds in phase_seconds.items():
            tracer.add_span(phase, cursor, seconds, category="phase", depth=1)
            cursor += seconds

    def _cost_iteration(
        self, stats: WorkloadStats, cost_model: CostModel, profiler: Profiler
    ) -> Dict[str, float]:
        """Charge one iteration's phases on the simulated device."""
        del cost_model  # the shared projection constructs its own
        cost = cost_iteration_phases(stats, self.config)
        for phase, seconds in cost.phase_seconds.items():
            profiler.record(phase, cost.phase_traffic[phase], seconds)
        return cost.phase_seconds


def train_saberlda(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
    vocabulary=None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> TrainingResult:
    """Convenience wrapper: construct a trainer and fit it."""
    trainer = SaberLDATrainer(
        config=config,
        tracer=tracer if tracer is not None else null_tracer(),
        metrics=metrics if metrics is not None else null_metrics(),
    )
    return trainer.fit(tokens, num_documents, vocabulary_size, vocabulary)
