"""Pinned workloads and metric declarations of the e2e benchmark.

Everything here is a constant: shapes, rates, repeat counts.  Nothing is
derived from a run-time measurement, so two runs of one commit do the
same work.  ``BENCHMARK.json`` at the repo root repeats the workload and
metric names; ``test_e2e_smoke.py`` checks the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: ``run_seconds`` of ``BENCHMARK.json``: the ``--seconds`` the driver passes.
REFERENCE_SECONDS = 20.0
#: The serving phase measures in rounds of about this length.  Each round
#: takes samples of every serving metric, so every metric samples the
#: whole phase and a slow spell of the machine (they last seconds here)
#: is a minority of each metric's samples, not one metric's whole
#: measurement.
SECONDS_PER_ROUND = 4.0

#: Pool and server settings shared by every workload (``nproc`` = 2).
NUM_WORKERS = 2
NUM_SWEEPS = 10
MAX_BATCH_DOCS = 16
MAX_WAIT_SECONDS = 0.005
QUEUE_DEPTH = 256
NUM_CHUNKS = 4
COLD_BURST_REQUESTS = 64
COLD_STARTS_PER_ROUND = 2
#: Closed-burst requests also answered by an in-process engine, whose
#: digest the pool's must equal.
VERIFY_REQUESTS = 96

#: Generative model of every corpus and query stream, and the shape of the
#: generated sparse model.
ZIPF_EXPONENT = 1.05
GENERATIVE_ALPHA = 0.2
#: Log-normal spread of document lengths (the value ``repro.corpus.synthetic`` uses).
LENGTH_SIGMA = 0.6
MODEL_TOPICS_PER_WORD = 5


@dataclass(frozen=True)
class WorkloadSpec:
    """One pinned train -> checkpoint -> serve pipeline."""

    name: str
    why: str
    generator_stream: int
    # Training corpus and fit.
    num_documents: int
    mean_document_length: float
    vocabulary_size: int
    true_topics: int
    num_topics: int
    num_iterations: int
    #: Open-loop arrival rates of the light and the loaded stream: about
    #: 0.15x and 0.7x the closed-burst rate the pool sustains on this
    #: workload's misses (README, *Rates*).
    light_rps: float
    loaded_rps: float
    #: A loaded-stream request answered later than this is a miss: about
    #: 1.5x the loaded stream's p95 at the pinned rate.
    latency_limit_ms: float
    # Served model: the fit's, or a generated sparse one.
    model_source: str = "trained"
    model_tokens: int = 2_000_000
    # Query streams; requests and seconds are per round.
    query_tokens: int = 16
    hot_documents: int = 0
    repeat_share: float = 0.0
    cache_capacity: int = 0
    closed_requests: int = 480
    light_seconds: float = 1.0
    loaded_seconds: float = 1.5

    def stream_rate(self, stream: str) -> Optional[float]:
        """Arrival rate of an open-loop stream (``None``: closed burst).

        The warm-up stream is one more loaded segment: the open loop's
        warm-up repetition, whose report is the largest the runner holds.
        """
        if stream.startswith("light"):
            return self.light_rps
        if stream.startswith("loaded") or stream == "warm":
            return self.loaded_rps
        return None

    def stream_counts(self, seconds: float) -> Dict[str, int]:
        """Requests per generated stream for a run measuring ``seconds``.

        The generator and the runner both call this, so they agree on
        stream lengths without either measuring anything.
        """
        light = max(8, round(self.light_rps * self.light_seconds))
        loaded = max(16, round(self.loaded_rps * self.loaded_seconds))
        counts = {"closed": self.closed_requests, "warm": loaded}
        for index in range(rounds(seconds)):
            counts[f"light{index}"] = light
            counts[f"loaded{index}"] = loaded
        return counts


def rounds(seconds: float, tracing: bool = False) -> int:
    """Measurement rounds of a run.

    A traced round measures the fit and the closed burst twice (tracing
    off and on, for the overhead ratio), so a traced run does fewer.
    """
    count = max(2, round(seconds / SECONDS_PER_ROUND))
    return max(2, math.ceil(count * 0.6)) if tracing else count


_LONGDOC = dict(
    num_documents=200, mean_document_length=200.0, vocabulary_size=1000,
    true_topics=50, num_topics=1000,
)

WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="train_k1k_longdoc",
        why="Token-side training (T>>V, 10 iterations): kernels.estep is most of a fit; "
        "16-token uncached queries at K=1k are the small-reply control for serve_k10k_shortdoc.",
        generator_stream=1, num_iterations=10,
        light_rps=120.0, loaded_rps=560.0, latency_limit_ms=100.0, **_LONGDOC,
    ),
    WorkloadSpec(
        name="train_k4k_shortdoc",
        why="Model-side training (V*K>>T): WordSide.prepare, count_by_word_topic and the "
        "likelihood dominate, the kernel is idle; serves the trained K=4k model with 30% repeats.",
        generator_stream=2, num_documents=500, mean_document_length=16.0,
        vocabulary_size=2000, true_topics=50, num_topics=4000, num_iterations=5,
        light_rps=100.0, loaded_rps=640.0, latency_limit_ms=100.0,
        hot_documents=20, repeat_share=0.3, cache_capacity=10_000,
    ),
    WorkloadSpec(
        name="serve_k1k_longdoc",
        why="Compute-bound serving: 256-token unrepeated queries, cache off, fold-in dominates "
        "a batch and replies are 16 KB; the 5-iteration fit is likelihood-bound.",
        generator_stream=3, num_iterations=5,
        light_rps=60.0, loaded_rps=290.0, latency_limit_ms=175.0,
        query_tokens=256, closed_requests=320, light_seconds=1.7, **_LONGDOC,
    ),
    WorkloadSpec(
        name="serve_k10k_shortdoc",
        why="Wire/queue-bound serving at the paper's K=10k: sparse synthetic model, 16-token "
        "queries, 160 KB replies, 30% cache hits; the tiny K=10k fit is all model-side cost.",
        generator_stream=4, num_documents=100, mean_document_length=16.0,
        vocabulary_size=2000, true_topics=50, num_topics=10_000, num_iterations=2,
        light_rps=100.0, loaded_rps=680.0, latency_limit_ms=120.0,
        model_source="synthetic", hot_documents=20, repeat_share=0.3, cache_capacity=10_000,
    ),
)

#: Scaled-down pipelines for ``test_e2e_smoke.py``; not in BENCHMARK.json.
_SMOKE_STREAMS = dict(
    closed_requests=96, light_rps=200.0, light_seconds=0.2,
    loaded_rps=400.0, loaded_seconds=0.2, latency_limit_ms=400.0,
)

SMOKE_WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="smoke_trained", why="smoke test: trained model, repeats, cache on",
        generator_stream=90, num_documents=40, mean_document_length=20.0,
        vocabulary_size=120, true_topics=5, num_topics=24, num_iterations=3,
        hot_documents=5, repeat_share=0.3, cache_capacity=100, **_SMOKE_STREAMS,
    ),
    WorkloadSpec(
        name="smoke_synthetic", why="smoke test: generated sparse model, cache off",
        generator_stream=91, num_documents=30, mean_document_length=12.0,
        vocabulary_size=100, true_topics=5, num_topics=64, num_iterations=2,
        model_source="synthetic", model_tokens=20_000, **_SMOKE_STREAMS,
    ),
)


def workload(name: str) -> WorkloadSpec:
    """The spec called ``name`` (benchmark or smoke)."""
    for spec in WORKLOADS + SMOKE_WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}")


#: ``(name, unit, better, bound)``; host wall clock, tracing off.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("train_tokens_per_s", "tokens/s", "higher", 0.25),
    ("train_nll_over_oracle", "ratio", "lower", 0.04),
    ("serve_closed_qps", "1/s", "higher", 0.25),
    ("serve_p50_ms", "ms", "lower", 0.25),
    ("serve_p90_ms", "ms", "lower", 0.25),
    ("serve_loaded_ok_frac", "share", "higher", 0.05),
    ("cold_start_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: ``(name, unit, better)``; traced repetitions, layer = module name.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("saberlda.trainer.fit_s", "s", "lower"),
    ("saberlda.trainer.self_s", "s", "lower"),
    ("saberlda.trainer.mean_doc_nnz", "count", "lower"),
    ("kernels.estep.busy_s", "s", "lower"),
    ("kernels.estep.calls", "count", "lower"),
    ("kernels.estep.tokens_per_s", "tokens/s", "higher"),
    ("kernels.estep.doc_branch_frac", "share", "higher"),
    ("saberlda.estep.prepare_s", "s", "lower"),
    ("core.count_matrices.count_s", "s", "lower"),
    ("core.likelihood.eval_s", "s", "lower"),
    ("core.likelihood.temp_mb", "MB", "lower"),
    ("core.likelihood.nll_per_token", "nats", "lower"),
    ("saberlda.ssc.rebuild_s", "s", "lower"),
    ("saberlda.layout.build_s", "s", "lower"),
    ("saberlda.costing.cost_s", "s", "lower"),
    ("gpusim.sim_tokens_per_s", "tokens/s", "higher"),
    ("gpusim.sim_sampling_s", "s", "lower"),
    ("gpusim.sim_preprocessing_s", "s", "lower"),
    ("gpusim.sim_a_update_s", "s", "lower"),
    ("gpusim.sim_transfer_s", "s", "lower"),
    ("gpusim.host_over_sim", "ratio", "lower"),
    ("gpusim.serve_sim_s", "s", "lower"),
    ("gpusim.serve_host_over_sim", "ratio", "lower"),
    ("core.serialization.save_mmap_s", "s", "lower"),
    ("core.serialization.ckpt_mb", "MB", "lower"),
    ("core.serialization.open_s", "s", "lower"),
    ("serving.workers.start_s", "s", "lower"),
    ("serving.workers.lane_busy_frac", "share", "higher"),
    ("serving.workers.ipc_batch_s", "s", "lower"),
    ("serving.engine.worker_batch_s", "s", "lower"),
    ("serving.workers.ipc_overhead_s", "s", "lower"),
    ("serving.workers.ipc_share", "share", "lower"),
    ("serving.workers.reply_bytes_per_req", "bytes", "lower"),
    ("serving.foldin.busy_s", "s", "lower"),
    ("serving.foldin.tokens_per_s", "tokens/s", "higher"),
    ("serving.foldin.sampler_builds", "count", "lower"),
    ("serving.foldin.sampler_hits", "count", "higher"),
    ("serving.foldin.construction_steps", "count", "lower"),
    ("sampling.wary_build_us", "us", "lower"),
    ("serving.queue.wait_ms_p50", "ms", "lower"),
    ("serving.queue.wait_ms_p95", "ms", "lower"),
    ("serving.queue.rejected", "count", "lower"),
    ("serving.scheduler.mean_batch_docs_light", "count", "higher"),
    ("serving.scheduler.mean_batch_docs_loaded", "count", "higher"),
    ("serving.scheduler.batches", "count", "lower"),
    ("serving.cache.hit_rate", "share", "higher"),
    ("serving.cache.lookup_us", "us", "lower"),
    ("serving.open_loop.admit_lag_ms_p95", "ms", "lower"),
    ("serving.open_loop.p95_ms", "ms", "lower"),
    ("serving.open_loop.p99_ms", "ms", "lower"),
    ("serving.open_loop.loaded_p50_ms", "ms", "lower"),
    ("serving.open_loop.loaded_p95_ms", "ms", "lower"),
    ("serving.open_loop.makespan_over_schedule", "ratio", "lower"),
    ("serving.workers.retries", "count", "lower"),
    ("serving.workers.fallback_batches", "count", "lower"),
    ("serving.workers.respawns", "count", "lower"),
    ("telemetry.fit_trace_overhead", "ratio", "lower"),
    ("telemetry.closed_trace_overhead", "ratio", "lower"),
    ("telemetry.span_coverage", "share", "higher"),
)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": int(REFERENCE_SECONDS),
        "workloads": [{"name": spec.name, "why": spec.why} for spec in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
