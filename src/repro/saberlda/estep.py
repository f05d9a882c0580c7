"""ESCA E-step (the functional counterpart of the warp kernel).

ESCA is bulk-synchronous: during the E-step every token reads the *frozen*
matrices ``A`` and ``B̂`` (Alg. 1), so the statistical result does not
depend on the order in which tokens are visited.  The trainer therefore
runs the sampling mathematics with NumPy — exactly the same two-branch
decomposition as Alg. 2 — while the layout-dependent *cost* of the pass
is charged separately by ``repro.saberlda.costing``.  The lane-exact
warp kernel in ``repro.saberlda.kernels`` is validated against this
reference in the test suite.

:func:`esca_estep` dispatches between two executions of the same
mathematics (see :class:`repro.kernels.KernelBackend`): the *reference*
per-document loop implemented below — the draw-schedule spec — and the
chunk-at-once *vectorized* kernel in ``repro.kernels.estep``, which is
bit-identical to it and what both trainers run by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core.count_matrices import SparseDocTopicMatrix
from ..core.tokens import TokenList
from ..kernels.backend import KernelBackend, resolve_backend
from ..kernels.cdf import sample_rows_from_cdf
from ..kernels.estep import esca_estep_vectorized
from ..kernels.mstep import fill_word_side


@dataclass
class WordSide:
    """Per-word quantities prepared once per iteration (the M-step's pre-processing).

    Attributes
    ----------
    probs:
        ``B̂`` — the ``V x K`` word-topic probability matrix (Eq. 2).
    cdf:
        Row-wise inclusive prefix sums of ``B̂`` — the functional stand-in
        for the per-word W-ary trees (Problem 2 sampling).
    prior_mass:
        ``Q_v = alpha * sum_k B̂_vk`` for every word.
    """

    probs: np.ndarray
    cdf: np.ndarray
    prior_mass: np.ndarray

    @classmethod
    def prepare(
        cls,
        word_topic_counts: np.ndarray,
        alpha: float,
        beta: float,
        tokens: Optional[TokenList] = None,
        reuse: Optional["WordSide"] = None,
    ) -> "WordSide":
        """Compute ``B̂``, its per-row CDF and the prior masses from the counts ``B``.

        The build is sparsity-aware (:func:`repro.kernels.mstep.fill_word_side`):
        it needs the non-zero coordinates of ``B``, read off ``tokens`` — the
        token list ``B`` was counted from, one ``O(T log T)`` sort — when that is the
        shorter input, and off the matrix itself otherwise.  Either way the
        values come from ``B``, and the result is bit-identical to
        :func:`~repro.core.count_matrices.normalize_word_topic` plus a
        row-wise ``cumsum``/``sum``.

        **Aliasing rule:** a ``WordSide`` passed as ``reuse`` donates its
        buffers to the result when the shapes match and is dead afterwards —
        its arrays are overwritten in place, so the caller must drop every
        reference to it (``side = WordSide.prepare(..., reuse=side)``).
        """
        counts = np.ascontiguousarray(word_topic_counts)
        num_topics = counts.shape[1]
        flat_counts = counts.reshape(-1)
        from_tokens = tokens is not None and tokens.num_tokens < counts.size
        if from_tokens:
            # Sort and drop repeats: ``np.unique`` without counts takes a
            # hash path that is an order of magnitude slower than the sort.
            cells = np.sort(tokens.word_ids.astype(np.int64) * num_topics + tokens.topics)
            nonzeros = cells[np.diff(cells, prepend=-1) > 0]
        else:
            nonzeros = np.flatnonzero(flat_counts)
        values = flat_counts[nonzeros]
        if from_tokens and values.sum() != tokens.num_tokens:
            raise ValueError("word_topic_counts was not counted from tokens")
        if reuse is not None and reuse.probs.shape == counts.shape:
            side = reuse
        else:
            side = cls(
                probs=np.empty(counts.shape, dtype=np.float64),
                cdf=np.empty(counts.shape, dtype=np.float64),
                prior_mass=np.empty(counts.shape[0], dtype=np.float64),
            )
        fill_word_side(
            nonzeros, values, alpha, beta, side.probs, side.cdf, side.prior_mass
        )
        return side

    @property
    def num_topics(self) -> int:
        """``K``."""
        return int(self.probs.shape[1])


@dataclass
class EStepResult:
    """Output of one E-step over a token list."""

    new_topics: np.ndarray
    doc_branch_tokens: int
    prior_branch_tokens: int

    @property
    def doc_branch_fraction(self) -> float:
        """Fraction of tokens resolved on the document (Problem 1) side."""
        total = self.doc_branch_tokens + self.prior_branch_tokens
        if total == 0:
            return 0.0
        return self.doc_branch_tokens / total


#: Shared CDF helper (moved to the kernel package; kept under its old
#: name for callers that imported it from here).
_sample_rows_from_cdf = sample_rows_from_cdf


def esca_estep(
    tokens: TokenList,
    doc_topic: SparseDocTopicMatrix,
    word_side: WordSide,
    rng: np.random.Generator,
    backend: Union[KernelBackend, str] = KernelBackend.REFERENCE,
) -> EStepResult:
    """Resample every token's topic with the sparsity-aware decomposition.

    Returns the new topic assignments aligned with ``tokens`` (the input
    list is not modified).  ``backend`` selects the execution — the
    reference per-document loop below, or the chunk-at-once
    :func:`~repro.kernels.estep.esca_estep_vectorized` kernel, which is
    bit-identical to it (same uniforms, same draw order, same reduction
    shapes) but replaces the Python loop with batched index arithmetic.
    """
    if resolve_backend(backend) is KernelBackend.VECTORIZED:
        new_topics, doc_branch, prior_branch = esca_estep_vectorized(
            tokens.doc_ids,
            tokens.word_ids,
            doc_topic.indptr,
            doc_topic.indices,
            doc_topic.values,
            word_side.probs,
            word_side.cdf,
            word_side.prior_mass,
            rng,
        )
        return EStepResult(
            new_topics=new_topics,
            doc_branch_tokens=doc_branch,
            prior_branch_tokens=prior_branch,
        )
    num_tokens = tokens.num_tokens
    new_topics = np.empty(num_tokens, dtype=np.int32)
    if num_tokens == 0:
        return EStepResult(new_topics, 0, 0)

    doc_branch_total = 0

    # Group token positions by document so each document is one vectorised batch.
    order = np.argsort(tokens.doc_ids, kind="stable")
    sorted_docs = tokens.doc_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_docs)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [num_tokens]])

    for start, stop in zip(starts, stops, strict=True):
        positions = order[start:stop]
        doc_id = int(sorted_docs[start])
        words = tokens.word_ids[positions]
        count = len(positions)

        nz_topics, nz_counts = doc_topic.row(doc_id)
        prior_mass = word_side.prior_mass[words]

        if len(nz_topics) == 0:
            # Empty document row: only Problem 2 has mass.
            chosen = _sample_rows_from_cdf(word_side.cdf[words], rng.random(count))
            new_topics[positions] = chosen.astype(np.int32)
            continue

        # Problem 1 weights: P = A_d ⊙ B̂_v restricted to the non-zero topics.
        product = word_side.probs[words][:, nz_topics] * nz_counts.astype(np.float64)[None, :]
        doc_mass = product.sum(axis=1)

        take_doc_side = rng.random(count) < doc_mass / (doc_mass + prior_mass)
        doc_branch_total += int(take_doc_side.sum())

        result = np.empty(count, dtype=np.int64)

        if take_doc_side.any():
            doc_cdf = np.cumsum(product[take_doc_side], axis=1)
            picks = _sample_rows_from_cdf(doc_cdf, rng.random(int(take_doc_side.sum())))
            result[take_doc_side] = nz_topics[picks]

        prior_side = ~take_doc_side
        if prior_side.any():
            cdf_rows = word_side.cdf[words[prior_side]]
            result[prior_side] = _sample_rows_from_cdf(
                cdf_rows, rng.random(int(prior_side.sum()))
            )

        new_topics[positions] = result.astype(np.int32)

    return EStepResult(
        new_topics=new_topics,
        doc_branch_tokens=doc_branch_total,
        prior_branch_tokens=num_tokens - doc_branch_total,
    )
