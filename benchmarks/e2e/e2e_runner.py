"""The measured program: train -> checkpoint -> serve on generated inputs.

Started by ``run.py`` as a fresh subprocess that receives only the
generated ``.npy`` files, so ``peak_rss_mb`` is the program's and not the
generator's.  After one untimed warm-up of everything, the run times its
fits (all before the first fork) and then serves in rounds: each round
takes a few cold starts, one closed burst, one light and one loaded
open-loop segment, so every metric samples the whole run.

A run's value of a metric is the **median** of its per-round samples
(for a latency percentile or the share answered in time: of the
segments' own values).  Values and samples are printed on the
``E2E_DETAIL`` line.  With
``--trace 1`` the fit and the closed burst run untraced and traced
alternately, and the per-layer table is built from the traced
repetitions' spans.

Reports and fit results are reduced to numbers and dropped at once: a
fresh page costs ~25x a recycled one in this VM, so a timed region that
has to grow the heap measures the host's page allocator, not the program.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

import e2e_inputs
from e2e_layers import busy_seconds, durations_ms, percentile_or_zero, trainer_shims
from e2e_spec import (
    COLD_BURST_REQUESTS,
    COLD_STARTS_PER_ROUND,
    MAX_BATCH_DOCS,
    MAX_WAIT_SECONDS,
    NUM_CHUNKS,
    NUM_SWEEPS,
    NUM_WORKERS,
    QUEUE_DEPTH,
    VERIFY_REQUESTS,
    WorkloadSpec,
    rounds,
    workload,
)
from repro.bench.timing import stopwatch, wall_timer
from repro.core import LDAHyperParams, LDAModel, TokenList
from repro.core.serialization import save_model_mmap, word_topic_digest
from repro.saberlda import SaberLDAConfig, train_saberlda
from repro.sampling.wary_tree import WaryTree
from repro.serving import (
    BatchScheduler,
    InferenceEngine,
    RequestQueue,
    ResultCache,
    ServingRequest,
    TopicServer,
    WallClockReport,
    WorkerPool,
    document_digest,
    layout_batch,
    make_requests,
    pool_results_digest,
    serve_wallclock,
)
from repro.telemetry import (
    MetricsRegistry,
    Span,
    Tracer,
    WallClock,
    pinned_percentile,
    span_coverage,
    write_chrome_trace,
)

#: First request id of each stream kind: ids key the per-request RNG, so
#: streams must not share them.
_FIRST_ID = {"closed": 0, "warm": 1_000_000, "light": 2_000_000, "loaded": 3_000_000}
_IDS_PER_STREAM = 100_000
_ANSWERED = ("answered", "cache_hit")


class Run:
    """State of one runner invocation: inputs, checks and samples."""

    def __init__(self, spec: WorkloadSpec, args: argparse.Namespace) -> None:
        self.spec = spec
        self.seed = args.seed
        self.tracing = bool(args.trace)
        self.workdir = args.workdir
        self.rounds = rounds(args.seconds, self.tracing)
        self.inputs = e2e_inputs.read(args.inputs)
        self.setup_seconds: Dict[str, float] = {}
        #: End-to-end metrics of this phase: the run's value, and the raw
        #: per-repetition (per-segment, for latencies) samples behind it.
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.layers: Dict[str, float] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def setup(self, name: str) -> Iterator[None]:
        """Time a step outside the timed regions into ``setup_s`` under ``name``."""
        with wall_timer() as timer:
            yield
        self.setup_seconds[name] = self.setup_seconds.get(name, 0.0) + timer.seconds

    def check(self, condition: bool, message: str) -> None:
        if not condition and message not in self.problems:
            self.problems.append(message)

    def record(self, name: str, samples: List[float]) -> None:
        """An end-to-end metric: its per-round samples and their median."""
        self.samples[name] = samples
        self.values[name] = statistics.median(samples)

    def requests(self, stream: str) -> List[ServingRequest]:
        """The generated stream ``closed``, ``warm``, ``light<i>`` or ``loaded<i>``."""
        kind = stream.rstrip("0123456789")
        index = int(stream[len(kind) :] or 0)
        queries = self.inputs[f"{stream}_queries"]
        arrivals = self.inputs.get(f"{stream}_arrivals", np.zeros(len(queries)))
        first_id = _FIRST_ID[kind] + index * _IDS_PER_STREAM
        return make_requests(list(queries), arrivals, first_request_id=first_id)

    def count_requests(self, report: WallClockReport) -> None:
        """Fold one serving report into attempted/failed and the theta check."""
        self.attempted += len(report.outcomes)
        self.failed += report.rejected
        self.check(
            all(
                math.isclose(float(outcome.theta.sum()), 1.0, abs_tol=1e-9)
                for outcome in report.outcomes
                if outcome.theta is not None
            ),
            "a served theta does not sum to 1",
        )


# --------------------------------------------------------------------------- #
# Train
# --------------------------------------------------------------------------- #
class TrainPhase:
    """Repeated ``train_saberlda`` fits of the generated corpus."""

    def __init__(self, run: Run) -> None:
        spec = run.spec
        self.run = run
        self.tokens = TokenList.from_pairs(
            run.inputs["corpus_doc_ids"], run.inputs["corpus_word_ids"]
        )
        self.config = SaberLDAConfig.paper_defaults(
            spec.num_topics,
            num_iterations=spec.num_iterations,
            num_chunks=NUM_CHUNKS,
            evaluate_every=spec.num_iterations,
            seed=run.seed,
        )
        self.tracer = Tracer(WallClock())
        self.counters: Dict[str, int] = {}
        self.plain_seconds: List[float] = []
        self.traced_seconds: List[float] = []
        with run.setup("train_warmup"):
            result = self.fit()
        self.digest = word_topic_digest(result.model.word_topic_counts)
        likelihood = result.final_log_likelihood()
        run.check(likelihood is not None and math.isfinite(likelihood), "likelihood not finite")
        self.nll_per_token = -float(likelihood)
        run.record(
            "train_nll_over_oracle",
            [self.nll_per_token / float(run.inputs["corpus_oracle_nll"][0])],
        )
        #: Served (and then dropped) by the caller.
        self.model: Optional[LDAModel] = result.model
        # Fits of one seed are bit-identical (checked below by digest), so
        # the simulated figures of this one stand for all of them.
        self.simulated = SimpleNamespace(
            seconds=result.simulated_seconds,
            tokens_per_s=result.throughput_tokens_per_second(),
            phases=result.phase_breakdown(),
            mean_doc_nnz=result.history[-1].mean_doc_nnz,
        )

    def fit(self):
        spec = self.run.spec
        return train_saberlda(
            self.tokens, spec.num_documents, spec.vocabulary_size, self.config
        )

    def _timed_fit(self, traced: bool) -> float:
        with ExitStack() as stack:
            if traced:
                stack.enter_context(trainer_shims(self.tracer, self.counters))
                stack.enter_context(self.tracer.span("fit", category="saberlda.trainer"))
            with wall_timer() as timer:
                result = self.fit()
        same = word_topic_digest(result.model.word_topic_counts) == self.digest
        self.run.check(same, "word_topic_digest differs between repeated fits")
        self.run.attempted += 1
        self.run.failed += 0 if same else 1
        return timer.seconds

    def round(self) -> None:
        self.plain_seconds.append(self._timed_fit(traced=False))
        if self.run.tracing:
            self.traced_seconds.append(self._timed_fit(traced=True))

    def finish(self) -> None:
        run = self.run
        work = self.tokens.num_tokens * run.spec.num_iterations
        run.record("train_tokens_per_s", [work / value for value in self.plain_seconds])
        if run.tracing:
            self._layers()

    def _layers(self) -> None:
        """Per-layer rows of the traced fits (busy seconds are per fit)."""
        run, spans, counters = self.run, self.tracer.spans, self.counters
        repeats = len(self.traced_seconds)
        fit_s = sum(self.traced_seconds) / repeats

        def per_fit(name: str) -> float:
            return busy_seconds(spans, name, depth=1) / repeats

        children = sum(span.duration_seconds for span in spans if span.depth == 1) / repeats
        estep_s = per_fit("estep")
        layers = run.layers
        layers["saberlda.trainer.fit_s"] = fit_s
        layers["saberlda.trainer.self_s"] = fit_s - children
        layers["saberlda.trainer.mean_doc_nnz"] = self.simulated.mean_doc_nnz
        layers["kernels.estep.busy_s"] = estep_s
        layers["kernels.estep.calls"] = counters["estep_calls"] / repeats
        layers["kernels.estep.tokens_per_s"] = counters["estep_tokens"] / repeats / estep_s
        layers["kernels.estep.doc_branch_frac"] = (
            counters["estep_doc_branch_tokens"] / counters["estep_tokens"]
        )
        layers["saberlda.estep.prepare_s"] = per_fit("prepare")
        layers["core.count_matrices.count_s"] = per_fit("count")
        layers["core.likelihood.eval_s"] = per_fit("likelihood")
        # Two dense T x K float64 gathers inside training_log_likelihood.
        layers["core.likelihood.temp_mb"] = (
            2 * self.tokens.num_tokens * run.spec.num_topics * 8 / 1e6
        )
        layers["core.likelihood.nll_per_token"] = self.nll_per_token
        layers["saberlda.ssc.rebuild_s"] = per_fit("rebuild")
        layers["saberlda.layout.build_s"] = per_fit("layout")
        layers["saberlda.costing.cost_s"] = per_fit("cost")
        layers["gpusim.sim_tokens_per_s"] = self.simulated.tokens_per_s
        for phase in ("sampling", "preprocessing", "a_update", "transfer"):
            layers[f"gpusim.sim_{phase}_s"] = self.simulated.phases.get(phase, 0.0)
        layers["gpusim.host_over_sim"] = (
            statistics.median(self.plain_seconds) / self.simulated.seconds
        )
        layers["telemetry.fit_trace_overhead"] = statistics.median(
            self.traced_seconds
        ) / statistics.median(self.plain_seconds)
        layers["telemetry.span_coverage"] = span_coverage(spans, sum(self.traced_seconds))


# --------------------------------------------------------------------------- #
# Checkpoint and serve
# --------------------------------------------------------------------------- #
def served_model(run: Run, trained: LDAModel) -> LDAModel:
    """The trained model, or the generated sparse one for synthetic specs."""
    spec = run.spec
    if spec.model_source != "synthetic":
        return trained
    with run.setup("model_build"):
        counts = np.zeros((spec.vocabulary_size, spec.num_topics), dtype=np.int64)
        np.add.at(
            counts,
            (run.inputs["model_words"], run.inputs["model_topics"]),
            run.inputs["model_counts"],
        )
        return LDAModel(
            word_topic_counts=counts, params=LDAHyperParams.paper_defaults(spec.num_topics)
        )


class ServePhase:
    """A warm pool (two when tracing: one untraced twin) serving the streams."""

    def __init__(self, run: Run, checkpoint: str) -> None:
        self.run = run
        self.checkpoint = checkpoint
        self.closed = run.requests("closed")
        self.closed_tokens = sum(len(request.word_ids) for request in self.closed)
        self.cache = ResultCache(capacity=run.spec.cache_capacity)
        self.server_tracer = Tracer(WallClock()) if run.tracing else None
        self.pools = ExitStack()
        self.cold_seconds: List[float] = []
        self.closed_seconds: List[float] = []
        self.plain_closed_seconds: List[float] = []
        self.closed_spans: List[Span] = []
        #: Per open-loop segment: its latencies and what the per-layer rows
        #: need of its report.
        self.segments: List[SimpleNamespace] = []
        self.reply_bytes = 0

        self._reference_replay()
        with run.setup("cold_warmup"):
            self._cold_start()
        with wall_timer() as timer:
            self.pool = self.pools.enter_context(self._make_pool(traced=run.tracing).start())
        run.setup_seconds["pool_start"] = timer.seconds
        #: Tracing off, same settings: the base of the overhead ratio.
        self.plain_pool: Optional[WorkerPool] = None
        with run.setup("serve_warmup"):
            if run.tracing:
                self.plain_pool = self.pools.enter_context(self._make_pool(traced=False))
            # Two bursts: lazy sampler banks fill and the heap reaches the
            # size a burst's replies need.  One loaded segment: the hot
            # documents enter the cache, and the heap reaches the size of
            # a loaded report, which holds twice a burst's replies.
            pools = [self.pool] if self.plain_pool is None else [self.plain_pool, self.pool]
            for pool in pools * 2:
                serve_wallclock(pool, self.closed, batch_docs=MAX_BATCH_DOCS)
            self._server(None).serve(run.requests("warm"))

    def __enter__(self) -> "ServePhase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.pools.close()

    def _make_pool(self, traced: bool) -> WorkerPool:
        kwargs = {}
        if traced:
            kwargs = {"tracer": Tracer(WallClock()), "metrics": MetricsRegistry()}
        return WorkerPool(
            self.checkpoint,
            num_workers=NUM_WORKERS,
            seed=self.run.seed,
            num_sweeps=NUM_SWEEPS,
            backend="vectorized",
            **kwargs,
        )

    def _server(self, tracer: Optional[Tracer]) -> TopicServer:
        kwargs = {"tracer": tracer} if tracer is not None else {}
        return TopicServer(
            self.pool,
            scheduler=BatchScheduler(
                max_batch_docs=MAX_BATCH_DOCS, max_wait_seconds=MAX_WAIT_SECONDS
            ),
            queue=RequestQueue(max_depth=QUEUE_DEPTH),
            cache=self.cache,
            **kwargs,
        )

    def _reference_replay(self) -> None:
        """Answer the first closed requests on an in-process engine.

        Keeps the digest the pool must reproduce, the engine's sampler
        bank (its counters are per-layer rows), the simulated seconds
        ``gpusim`` charges for the same batches, and the host seconds
        the replay took.
        """
        run = self.run
        requests = self.closed[:VERIFY_REQUESTS]
        with run.setup("engine_open"):
            engine = InferenceEngine.from_mmap_checkpoint(
                self.checkpoint, num_sweeps=NUM_SWEEPS, seed=run.seed
            )
        answers = []
        simulated = 0.0
        with wall_timer() as timer:
            for start in range(0, len(requests), MAX_BATCH_DOCS):
                batch = layout_batch(list(requests[start : start + MAX_BATCH_DOCS]), start, 0.0)
                execution = engine.execute(batch)
                simulated += execution.seconds
                answers.extend(
                    SimpleNamespace(request_id=request.request_id, theta=result.theta)
                    for request, result in zip(batch.requests, execution.results, strict=True)
                )
        run.setup_seconds["reference_replay"] = timer.seconds
        self.digest = pool_results_digest(answers)
        self.bank = engine.state.bank
        self.replay = SimpleNamespace(simulated=simulated, seconds=timer.seconds)

    def _cold_start(self) -> float:
        """Fresh pool -> last answer of a closed burst, in seconds."""
        watch = stopwatch()
        with self._make_pool(traced=False) as pool:
            report = serve_wallclock(
                pool, self.closed[:COLD_BURST_REQUESTS], batch_docs=MAX_BATCH_DOCS
            )
            seconds = watch.elapsed()
        self.run.count_requests(report)
        return seconds

    def _closed_burst(self, pool: WorkerPool) -> float:
        report = serve_wallclock(pool, self.closed, batch_docs=MAX_BATCH_DOCS)
        self.run.count_requests(report)
        self.run.check(
            pool_results_digest(report.outcomes[:VERIFY_REQUESTS]) == self.digest,
            "pool_results_digest differs from the in-process engine's",
        )
        answer = report.batches[0].results[0]
        self.reply_bytes = (
            answer.theta.nbytes + answer.doc_topic_counts.nbytes + answer.topics.nbytes
        )
        return report.wall_seconds

    def _open_loop(self, stream: str) -> SimpleNamespace:
        """Serve one generated Poisson segment; keep numbers, drop the report."""
        run = self.run
        requests = run.requests(stream)
        mark = len(self.pool.tracer.spans)
        report = self._server(self.server_tracer).serve(requests)
        run.count_requests(report)
        answered = [
            outcome for outcome in report.outcomes if outcome.status in _ANSWERED
        ]
        segment = SimpleNamespace(
            stream=stream,
            sent=len(requests),
            latencies_ms=[outcome.latency_seconds * 1e3 for outcome in answered],
            hit_lags_ms=[
                outcome.latency_seconds * 1e3
                for outcome in answered
                if outcome.status == "cache_hit"
            ],
            shed=sum(1 for outcome in report.outcomes if outcome.status == "rejected"),
            batches=len(report.batches),
            mean_batch_docs=report.mean_batch_docs,
            cache_hits=report.cache_hits,
            cache_lookups=report.cache_lookups,
            wall_seconds=report.wall_seconds,
            schedule_seconds=requests[-1].arrival_seconds - requests[0].arrival_seconds,
            pool_spans=self.pool.tracer.spans[mark:],
        )
        self.segments.append(segment)
        return segment

    def round(self, index: int) -> None:
        # A fork write-protects every page of the runner, and the next fork
        # is cheaper for each page still protected: the first cold start
        # after serving is its own, slower, population.  Discard it.
        self._cold_start()
        for _ in range(COLD_STARTS_PER_ROUND):
            self.cold_seconds.append(self._cold_start())
        if self.plain_pool is not None:
            self.plain_closed_seconds.append(self._closed_burst(self.plain_pool))
        mark = len(self.pool.tracer.spans)
        self.closed_seconds.append(self._closed_burst(self.pool))
        self.closed_spans.extend(self.pool.tracer.spans[mark:])
        self._open_loop(f"light{index}")
        self._open_loop(f"loaded{index}")

    def finish(self) -> None:
        run = self.run
        stats = self.pool.stats()
        run.check(
            stats["admitted"] == stats["answered"] + stats["failed"] + stats["pending"],
            "admitted != answered + failed + pending",
        )
        run.check(
            stats["retries"] == stats["fallback_batches"] == stats["respawns"] == 0,
            "the pool retried, fell back or respawned: the run is void",
        )
        closed_seconds = self.plain_closed_seconds if run.tracing else self.closed_seconds
        run.record(
            "serve_closed_qps", [len(self.closed) / seconds for seconds in closed_seconds]
        )
        run.record("cold_start_s", self.cold_seconds)
        light, loaded = self.stream_segments("light"), self.stream_segments("loaded")
        for percentile in (50.0, 90.0):
            run.record(
                f"serve_p{percentile:.0f}_ms",
                [pinned_percentile(segment.latencies_ms, percentile) for segment in light],
            )
        # Unanswered, rejected and failed requests have no latency: misses.
        limit = run.spec.latency_limit_ms
        run.record(
            "serve_loaded_ok_frac",
            [
                sum(1 for value in segment.latencies_ms if value <= limit) / segment.sent
                for segment in loaded
            ],
        )
        # Not metrics: the loaded segments' own percentiles, printed with the
        # samples so that a reader sees how far from the limit they sit.
        for percentile in (50.0, 95.0):
            run.samples[f"loaded_p{percentile:.0f}_ms"] = [
                percentile_or_zero(segment.latencies_ms, percentile) for segment in loaded
            ]
        if run.tracing:
            self._layers(stats)

    def stream_segments(self, kind: str) -> List[SimpleNamespace]:
        return [segment for segment in self.segments if segment.stream.startswith(kind)]

    def _layers(self, stats: Dict[str, object]) -> None:
        """Per-layer rows of the traced serving repetitions (busy seconds
        are per closed burst, or per light segment)."""
        run, layers, setup = self.run, self.run.layers, self.run.setup_seconds
        layers["gpusim.serve_sim_s"] = self.replay.simulated
        layers["gpusim.serve_host_over_sim"] = self.replay.seconds / self.replay.simulated
        layers["core.serialization.save_mmap_s"] = setup["save_mmap"]
        layers["core.serialization.ckpt_mb"] = sum(
            entry.stat().st_size for entry in os.scandir(self.checkpoint) if entry.is_file()
        ) / 1e6
        layers["core.serialization.open_s"] = setup["engine_open"]
        layers["serving.workers.start_s"] = setup["pool_start"]

        # Closed burst: every batch is queued up front, so lanes are either
        # computing or waiting on IPC; ipc_batch spans there are mostly backlog.
        light, loaded = self.stream_segments("light"), self.stream_segments("loaded")
        closed_wall = sum(self.closed_seconds)
        fold_in = busy_seconds(self.closed_spans, "fold_in")
        layers["serving.workers.lane_busy_frac"] = busy_seconds(
            self.closed_spans, "worker_batch"
        ) / (NUM_WORKERS * closed_wall)
        layers["serving.foldin.busy_s"] = fold_in / len(self.closed_seconds)
        layers["serving.foldin.tokens_per_s"] = (
            len(self.closed_seconds) * self.closed_tokens / fold_in
        )
        # Light stream: one or two documents per batch and no backlog, so
        # submit->answer minus the worker's own span is the IPC round trip.
        light_spans = [span for segment in light for span in segment.pool_spans]
        ipc = busy_seconds(light_spans, "ipc_batch") / len(light)
        worker = busy_seconds(light_spans, "worker_batch") / len(light)
        layers["serving.workers.ipc_batch_s"] = ipc
        layers["serving.engine.worker_batch_s"] = worker
        layers["serving.workers.ipc_overhead_s"] = ipc - worker
        layers["serving.workers.ipc_share"] = (ipc - worker) / ipc
        layers["serving.workers.reply_bytes_per_req"] = self.reply_bytes
        layers["serving.foldin.sampler_builds"] = self.bank.builds
        layers["serving.foldin.sampler_hits"] = self.bank.hits
        layers["serving.foldin.construction_steps"] = self.bank.construction_steps
        phi = self.bank.phi
        builds = []
        for word in np.linspace(0, phi.shape[0] - 1, 200).astype(np.int64):
            with wall_timer() as timer:
                WaryTree.build(phi[word])
            builds.append(timer.seconds * 1e6)
        layers["sampling.wary_build_us"] = statistics.median(builds)

        server_spans = self.server_tracer.spans
        waits = durations_ms(server_spans, "queue_wait")
        layers["serving.queue.wait_ms_p50"] = percentile_or_zero(waits, 50.0)
        layers["serving.queue.wait_ms_p95"] = percentile_or_zero(waits, 95.0)
        layers["serving.queue.rejected"] = sum(segment.shed for segment in self.segments)
        layers["serving.scheduler.mean_batch_docs_light"] = statistics.fmean(
            segment.mean_batch_docs for segment in light
        )
        layers["serving.scheduler.mean_batch_docs_loaded"] = statistics.fmean(
            segment.mean_batch_docs for segment in loaded
        )
        layers["serving.scheduler.batches"] = sum(segment.batches for segment in self.segments)
        lookups = sum(segment.cache_lookups for segment in self.segments)
        layers["serving.cache.hit_rate"] = (
            sum(segment.cache_hits for segment in self.segments) / lookups if lookups else 0.0
        )
        scratch = ResultCache(capacity=run.spec.cache_capacity)
        probes = run.requests("light0")
        with wall_timer() as timer:
            for request in probes:
                scratch.get(document_digest(request.word_ids))
        layers["serving.cache.lookup_us"] = timer.seconds * 1e6 / len(probes)
        hit_lags = [value for segment in self.segments for value in segment.hit_lags_ms]
        layers["serving.open_loop.admit_lag_ms_p95"] = percentile_or_zero(hit_lags, 95.0)
        light_ms = [value for segment in light for value in segment.latencies_ms]
        layers["serving.open_loop.p95_ms"] = pinned_percentile(light_ms, 95.0)
        layers["serving.open_loop.p99_ms"] = pinned_percentile(light_ms, 99.0)
        for percentile in (50.0, 95.0):
            layers[f"serving.open_loop.loaded_p{percentile:.0f}_ms"] = statistics.median(
                percentile_or_zero(segment.latencies_ms, percentile) for segment in loaded
            )
        layers["serving.open_loop.makespan_over_schedule"] = max(
            segment.wall_seconds / segment.schedule_seconds for segment in self.segments
        )
        for counter in ("retries", "fallback_batches", "respawns"):
            layers[f"serving.workers.{counter}"] = stats[counter]
        layers["telemetry.closed_trace_overhead"] = statistics.median(
            self.closed_seconds
        ) / statistics.median(self.plain_closed_seconds)
        # Roots only: worker spans are depth 0 on their own process's clock.
        roots = [span for span in self.closed_spans if span.name == "serve_wallclock"]
        open_wall = sum(segment.wall_seconds for segment in self.segments)
        layers["telemetry.span_coverage"] = min(
            layers["telemetry.span_coverage"],
            span_coverage(roots, closed_wall),
            span_coverage(server_spans, open_wall),
        )

    def spans(self) -> List[Span]:
        return [*self.pool.tracer.spans, *self.server_tracer.spans]


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
_PR_SET_THP_DISABLE = 41


def disable_transparent_huge_pages() -> bool:
    """Back this process and its workers with 4 KB pages only (Linux).

    With ``transparent_hugepage=always`` the first touch of a fresh heap
    zeroes 2 MB at a time and, in this VM, has the host back each huge
    page with 512 small ones: the first fit took 3.8 s instead of 0.8 s
    and the following ones drifted for half a minute while khugepaged
    collapsed the rest.  Returns whether the kernel accepted the setting.
    """
    try:
        return ctypes.CDLL(None).prctl(_PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-path", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    watch = stopwatch()
    small_pages = disable_transparent_huge_pages()
    run = Run(workload(args.workload), args)
    run.setup_seconds["load_inputs"] = watch.elapsed()
    train = TrainPhase(run)
    checkpoint = os.path.join(run.workdir, "ckpt")
    model = served_model(run, train.model)
    with run.setup("save_mmap"):
        save_model_mmap(model, checkpoint)
    train.model = model = None
    # Every fit comes before the first fork: a pool forked from the runner
    # shares its heap copy-on-write, and a fit between two forks pays a
    # page fault for every page it writes.
    for _ in range(run.rounds):
        train.round()
    train.finish()
    with ServePhase(run, checkpoint) as serve:
        for index in range(run.rounds):
            serve.round(index)
        serve.finish()
        if run.tracing:
            write_chrome_trace(args.trace_path, [*train.tracer.spans, *serve.spans()])
    # Workers are reaped by now, so RUSAGE_CHILDREN holds the largest one.
    # Pages a forked worker shares with the runner are counted in both.
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    run.record("peak_rss_mb", [peak_kb / 1024.0])
    detail = {
        "values": run.values,
        "samples": run.samples,
        "layers": run.layers,
        "setup_seconds": run.setup_seconds,
        "main_seconds": watch.elapsed(),
        "problems": run.problems,
        "small_pages_only": small_pages,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    print("E2E_DETAIL " + json.dumps(detail, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
