"""Sampling-kernel backends shared by training and serving.

The paper's thesis is that LDA throughput lives in the sampling kernels;
this package is where the reproduction makes those kernels *actually*
fast.  It holds

* the :class:`KernelBackend` switch (``reference`` vs ``vectorized``)
  that every hot path — trainer E-step, distributed E-step, serving
  fold-in — resolves through one config knob,
* the shared CDF primitives (:func:`sample_rows_from_cdf`,
  :func:`sample_from_word_cdf`, :func:`concat_ranges`) both backends and
  both subsystems sample with,
* :func:`esca_estep_vectorized`, the chunk-at-once E-step kernel, and
* the sparsity-aware M-step kernels (:func:`fill_word_side`,
  :func:`doc_side_mass`) whose cost follows the non-zeros of ``B`` and
  ``A`` rather than ``V·K`` and ``T·K``.

The vectorized backend is bit-identical to the reference on every input
— same uniforms, same order, same floating-point reduction shapes — so
switching backends never moves a golden file.  Benchmarked by
``benchmarks/bench_kernel_backends.py`` (``BENCH_kernels.json``).
"""

from .backend import KernelBackend, resolve_backend
from .cdf import (
    CACHE_BLOCK_ELEMENTS,
    DENSE_BLOCK_ELEMENTS,
    concat_ranges,
    sample_from_word_cdf,
    sample_rows_from_cdf,
    segment_pick_ranks,
)
from .estep import esca_estep_vectorized
from .mstep import doc_side_mass, fill_word_side

__all__ = [
    "CACHE_BLOCK_ELEMENTS",
    "DENSE_BLOCK_ELEMENTS",
    "KernelBackend",
    "concat_ranges",
    "doc_side_mass",
    "esca_estep_vectorized",
    "fill_word_side",
    "resolve_backend",
    "sample_from_word_cdf",
    "sample_rows_from_cdf",
    "segment_pick_ranks",
]
