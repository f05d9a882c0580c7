"""WarpLDA-style Metropolis-Hastings LDA (the "WarpLDA" baseline of Fig. 11).

WarpLDA achieves O(1) amortised work per token by replacing the exact
per-token draw with a pair of Metropolis-Hastings proposals evaluated
against *frozen* counts (a Monte-Carlo EM view):

* a **document proposal** ``q_d(k) ∝ A_dk + alpha`` — drawn by picking a
  uniformly random token of the same document (or the prior with
  probability ``K alpha / (N_d + K alpha)``);
* a **word proposal** ``q_w(k) ∝ (B_vk + beta) / (C_k + V beta)`` — drawn
  from the word's pre-processed distribution.

Each proposal is accepted with the standard MH ratio against the target
``p(k) ∝ (A_dk + alpha)(B_vk + beta)/(C_k + V beta)``.  Because the
proposals are approximate and the chain takes only a couple of MH steps
per token per iteration, the likelihood improves more slowly per
iteration and can plateau slightly below the exact samplers — the paper
observes exactly this ("WarpLDA converges to a worse local optimum").
"""

from __future__ import annotations


import numpy as np

from ..bench.timing import stopwatch
from ..core.count_matrices import count_by_doc_topic_dense, count_by_word_topic
from ..core.hyperparams import LDAHyperParams
from ..core.tokens import TokenList
from ..gpusim.device import HOST_CPU, DeviceSpec
from ..saberlda.costing import WorkloadStats
from .base import BaselineHistory, BaselineResult, BaselineTrainer


class WarpLdaTrainer(BaselineTrainer):
    """Metropolis-Hastings LDA with document and word proposals against frozen counts."""

    system_name = "WarpLDA"

    def __init__(
        self,
        params: LDAHyperParams,
        num_iterations: int = 50,
        seed: int = 0,
        device: DeviceSpec = HOST_CPU,
        proposals_per_token: int = 2,
    ) -> None:
        super().__init__(params, num_iterations, seed)
        self.device = device
        self.proposals_per_token = proposals_per_token

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #
    def fit(
        self, tokens: TokenList, num_documents: int, vocabulary_size: int
    ) -> BaselineResult:
        """Run the MH sweeps (counts are refreshed once per iteration, as in MCEM)."""
        watch = stopwatch()
        rng = np.random.default_rng(self.seed)
        working = self._initial_topics(tokens, rng)
        params = self.params
        history = BaselineHistory(system=self.system_name)

        for _ in range(self.num_iterations):
            doc_topic = count_by_doc_topic_dense(working, num_documents, params.num_topics)
            word_topic = count_by_word_topic(working, vocabulary_size, params.num_topics)
            column_totals = word_topic.sum(axis=0).astype(np.float64)
            new_topics = self._mh_sweep(
                working, doc_topic, word_topic, column_totals, vocabulary_size, rng
            )
            working.topics = new_topics
            history.record(self._evaluate(working, num_documents, vocabulary_size))

        model = self._build_model(working, vocabulary_size, {"device": self.device.name})
        return BaselineResult(
            model=model,
            history=history,
            num_tokens=tokens.num_tokens,
            wall_seconds=watch.elapsed(),
        )

    def _mh_sweep(
        self,
        tokens: TokenList,
        doc_topic: np.ndarray,
        word_topic: np.ndarray,
        column_totals: np.ndarray,
        vocabulary_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One sweep of alternating document and word proposals over all tokens."""
        params = self.params
        vbeta = vocabulary_size * params.beta
        word_weights = (word_topic + params.beta) / (column_totals + vbeta)[None, :]
        word_cdf = np.cumsum(word_weights, axis=1)

        current = tokens.topics.astype(np.int64).copy()
        doc_ids = tokens.doc_ids
        word_ids = tokens.word_ids
        num_tokens = tokens.num_tokens

        order = np.argsort(doc_ids, kind="stable")
        sorted_docs = doc_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_docs)) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [num_tokens]])

        for _round in range(self.proposals_per_token):
            for seg_start, seg_stop in zip(starts, stops, strict=True):
                positions = order[seg_start:seg_stop]
                d = int(sorted_docs[seg_start])
                words = word_ids[positions]
                topics_now = current[positions]
                count = len(positions)

                # ---------------- Document proposal ---------------- #
                doc_row = doc_topic[d].astype(np.float64)
                doc_length = doc_row.sum()
                alpha_mass = params.num_topics * params.alpha
                use_alpha = rng.random(count) < alpha_mass / (doc_length + alpha_mass)
                random_token_topics = current[
                    positions[rng.integers(0, count, size=count)]
                ]
                uniform_topics = rng.integers(0, params.num_topics, size=count)
                proposals = np.where(use_alpha, uniform_topics, random_token_topics)

                ratio = (
                    (word_topic[words, proposals] + params.beta)
                    * (column_totals[topics_now] + vbeta)
                ) / (
                    (word_topic[words, topics_now] + params.beta)
                    * (column_totals[proposals] + vbeta)
                )
                accept = rng.random(count) < np.minimum(1.0, ratio)
                topics_now = np.where(accept, proposals, topics_now)

                # ------------------- Word proposal ------------------ #
                cdf_rows = word_cdf[words]
                targets = rng.random(count) * cdf_rows[:, -1]
                proposals = np.minimum(
                    (cdf_rows < targets[:, None]).sum(axis=1), params.num_topics - 1
                )
                ratio = (doc_row[proposals] + params.alpha) / (doc_row[topics_now] + params.alpha)
                accept = rng.random(count) < np.minimum(1.0, ratio)
                topics_now = np.where(accept, proposals, topics_now)

                current[positions] = topics_now

        return current.astype(np.int32)

    # ------------------------------------------------------------------ #
    # Cost
    # ------------------------------------------------------------------ #
    def iteration_seconds(self, stats: WorkloadStats) -> float:
        """O(1) work per token: a handful of scattered count lookups per proposal."""
        device = self.device
        tokens = float(stats.num_tokens)
        bytes_per_token = self.proposals_per_token * 3.0 * device.cache_line_bytes * 0.4 + 24.0
        bandwidth = device.global_bandwidth * device.achievable_global_fraction
        return tokens * bytes_per_token / bandwidth
