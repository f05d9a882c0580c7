"""Per-layer measurement from outside the program.

The benchmark may not edit ``src/``, so layers are observed at their
public boundaries: :func:`trainer_shims` wraps the callables
``repro.saberlda.trainer`` resolves at call time in wall-clock spans
(category = the layer's module name), and the serving layers are read
from the spans ``WorkerPool`` and ``TopicServer`` already record when
handed a ``Tracer(WallClock())``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List

import repro.saberlda.trainer as trainer_module
from repro.telemetry import Span, Tracer, pinned_percentile

#: Shimmed module-level names of ``repro.saberlda.trainer`` -> (span, layer).
_TRAINER_FUNCTIONS = {
    "esca_estep": ("estep", "kernels.estep"),
    "count_by_word_topic": ("count", "core.count_matrices"),
    "sparse_training_likelihood": ("likelihood", "core.likelihood"),
    "rebuild_doc_topic": ("rebuild", "saberlda.ssc"),
    "build_layout": ("layout", "saberlda.layout"),
    "cost_iteration_phases": ("cost", "saberlda.costing"),
}


@contextmanager
def trainer_shims(tracer: Tracer, counters: Dict[str, int]) -> Iterator[None]:
    """Record one span per call into each training layer while active.

    ``counters`` receives ``estep_calls``, ``estep_tokens`` and
    ``estep_doc_branch_tokens`` — counts that repeat exactly at a fixed
    seed.  The originals are restored on exit, so untraced fits in the
    same process run the unmodified program.
    """

    def spanned(function, name: str, layer: str):
        def shim(*args, **kwargs):
            with tracer.span(name, category=layer):
                return function(*args, **kwargs)

        return shim

    def counting_estep(function):
        def shim(tokens, *args, **kwargs):
            result = function(tokens, *args, **kwargs)
            counters["estep_calls"] = counters.get("estep_calls", 0) + 1
            counters["estep_tokens"] = counters.get("estep_tokens", 0) + tokens.num_tokens
            counters["estep_doc_branch_tokens"] = (
                counters.get("estep_doc_branch_tokens", 0) + result.doc_branch_tokens
            )
            return result

        return shim

    originals = {name: getattr(trainer_module, name) for name in _TRAINER_FUNCTIONS}
    word_side, stats = trainer_module.WordSide, trainer_module.WorkloadStats
    # Fetched through __dict__ so the classmethod objects themselves are
    # put back, not bound methods.
    prepare, measure = word_side.__dict__["prepare"], stats.__dict__["measure"]
    try:
        for name, (span_name, layer) in _TRAINER_FUNCTIONS.items():
            function = originals[name]
            if name == "esca_estep":
                function = counting_estep(function)
            setattr(trainer_module, name, spanned(function, span_name, layer))
        word_side.prepare = staticmethod(
            spanned(word_side.prepare, "prepare", "saberlda.estep")
        )
        stats.measure = staticmethod(spanned(stats.measure, "cost", "saberlda.costing"))
        yield
    finally:
        for name, function in originals.items():
            setattr(trainer_module, name, function)
        word_side.prepare = prepare
        stats.measure = measure


def busy_seconds(spans: Iterable[Span], name: str, depth: int = -1) -> float:
    """Summed duration of the spans called ``name`` (any depth by default)."""
    return sum(
        span.duration_seconds
        for span in spans
        if span.name == name and (depth < 0 or span.depth == depth)
    )


def durations_ms(spans: Iterable[Span], name: str) -> List[float]:
    """Durations of the spans called ``name``, in milliseconds."""
    return [span.duration_seconds * 1e3 for span in spans if span.name == name]


def percentile_or_zero(values: List[float], percentile: float) -> float:
    """``pinned_percentile`` with an empty sample reading 0 instead of NaN."""
    return pinned_percentile(values, percentile) if values else 0.0
