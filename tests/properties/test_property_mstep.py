"""Property-based tests (hypothesis): sparsity-aware M-step ≡ the dense M-step.

``WordSide.prepare`` builds ``B̂``/CDF/``Q`` from the non-zeros of ``B``
one row block at a time; its contract is *bit-identity* with the dense
expression it replaced, a frozen copy of which lives here as the oracle.
``sparse_training_likelihood`` scores over (token, non-zero) pairs; it
agrees with the dense ``training_log_likelihood`` up to summation order.
The memory tests pin that neither materialises a dense temporary again.
(Single- vs multi-device likelihood equality stays pinned by
``tests/distributed``'s ``test_log_likelihood_trajectory_identical``.)
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LDAHyperParams, TokenList, training_log_likelihood
from repro.core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from repro.kernels import CACHE_BLOCK_ELEMENTS, doc_side_mass, fill_word_side
from repro.saberlda.estep import WordSide
from repro.saberlda.trainer import sparse_training_likelihood

ALPHA, BETA = 0.5, 0.01

seeds = st.integers(min_value=0, max_value=2**31 - 1)
#: Includes V = 1 and K = 1.
matrix_shapes = st.tuples(
    st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=14)
)
#: Share of tokens per cell: 0 is the all-zero matrix, 4 a dense one.
densities = st.sampled_from([0.0, 0.05, 0.5, 4.0])


def frozen_dense_prepare(word_topic_counts, alpha, beta):
    """The dense ``WordSide.prepare`` of the parent commit, kept as the oracle."""
    word_topic = np.asarray(word_topic_counts, dtype=np.float64)
    vocabulary_size = word_topic.shape[0]
    column_totals = word_topic.sum(axis=0) + vocabulary_size * beta
    probs = (word_topic + beta) / column_totals[None, :]
    return probs, np.cumsum(probs, axis=1), alpha * probs.sum(axis=1)


def _assert_side_equals(side, expected):
    probs, cdf, prior_mass = expected
    np.testing.assert_array_equal(side.probs, probs)
    np.testing.assert_array_equal(side.cdf, cdf)
    np.testing.assert_array_equal(side.prior_mass, prior_mass)


def _random_counts(shape, density, seed):
    """Tokens over a ``V x K`` grid and their count matrix; some rows left empty."""
    vocabulary_size, num_topics = shape
    rng = np.random.default_rng(seed)
    num_tokens = int(density * vocabulary_size * num_topics)
    # Drawing words from a prefix of the vocabulary leaves all-zero rows.
    used_words = int(rng.integers(1, vocabulary_size + 1))
    tokens = TokenList(
        rng.integers(0, 3, num_tokens).astype(np.int32),
        rng.integers(0, used_words, num_tokens).astype(np.int32),
        rng.integers(0, num_topics, num_tokens).astype(np.int32),
    )
    return tokens, count_by_word_topic(tokens, vocabulary_size, num_topics)


class TestPrepareBitIdentity:
    @given(shape=matrix_shapes, density=densities, seed=seeds, from_tokens=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_frozen_dense_formula(self, shape, density, seed, from_tokens):
        tokens, counts = _random_counts(shape, density, seed)
        side = WordSide.prepare(
            counts, ALPHA, BETA, tokens=tokens if from_tokens else None
        )
        _assert_side_equals(side, frozen_dense_prepare(counts, ALPHA, BETA))

    @given(
        shape=matrix_shapes,
        density=densities,
        seed=seeds,
        from_tokens=st.booleans(),
        extra_rows=st.sampled_from([0, 0, 1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_reuse_buffer(self, shape, density, seed, from_tokens, extra_rows):
        tokens, counts = _random_counts(shape, density, seed)
        # A buffer full of another model's numbers, of matching or
        # mismatching shape.
        stale_shape = (shape[0] + extra_rows, shape[1])
        _stale_tokens, stale_counts = _random_counts(stale_shape, 1.0, seed + 1)
        stale = WordSide.prepare(stale_counts, ALPHA, BETA)
        stale_probs = stale.probs.copy()
        side = WordSide.prepare(
            counts, ALPHA, BETA, tokens=tokens if from_tokens else None, reuse=stale
        )
        _assert_side_equals(side, frozen_dense_prepare(counts, ALPHA, BETA))
        if extra_rows:
            # Mismatch: fresh buffers, the donor is left alone.
            assert side is not stale
            np.testing.assert_array_equal(stale.probs, stale_probs)
        else:
            assert side is stale

    @given(
        shape=matrix_shapes,
        density=densities,
        seed=seeds,
        block_elements=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_block_size(self, shape, density, seed, block_elements):
        _tokens, counts = _random_counts(shape, density, seed)
        nonzeros = np.flatnonzero(counts)
        probs, cdf = np.empty(shape), np.empty(shape)
        prior_mass = np.empty(shape[0])
        fill_word_side(
            nonzeros, counts.reshape(-1)[nonzeros], ALPHA, BETA,
            probs, cdf, prior_mass, block_elements,
        )
        _assert_side_equals(
            WordSide(probs, cdf, prior_mass), frozen_dense_prepare(counts, ALPHA, BETA)
        )

    @pytest.mark.parametrize("num_topics", [1000, 4099])
    def test_wide_rows_over_several_default_blocks(self, num_topics):
        # Pairwise row sums depend on the row length: check real widths,
        # with the matrix spanning several blocks of the shipped size.
        shape = (2 * CACHE_BLOCK_ELEMENTS // num_topics + 3, num_topics)
        tokens, counts = _random_counts(shape, 0.01, 7)
        side = WordSide.prepare(counts, ALPHA, BETA, tokens=tokens)
        _assert_side_equals(side, frozen_dense_prepare(counts, ALPHA, BETA))

    def test_rejects_tokens_the_matrix_was_not_counted_from(self):
        tokens, counts = _random_counts((6, 9), 0.3, 3)
        other = tokens.copy()
        other.topics = (other.topics + 1) % 9
        with pytest.raises(ValueError, match="not counted from"):
            WordSide.prepare(counts, ALPHA, BETA, tokens=other)


def _random_likelihood_inputs(seed, num_documents, vocabulary_size, num_topics, num_tokens):
    """Tokens plus an ``A`` counted from a subset: empty documents and empty rows."""
    rng = np.random.default_rng(seed)
    # Documents beyond ``used`` have no tokens at all.
    used = int(rng.integers(1, num_documents + 1))
    tokens = TokenList(
        rng.integers(0, used, num_tokens).astype(np.int32),
        rng.integers(0, vocabulary_size, num_tokens).astype(np.int32),
        rng.integers(0, num_topics, num_tokens).astype(np.int32),
    )
    counted = rng.random(num_documents) > 0.25
    doc_topic = SparseDocTopicMatrix.from_tokens(
        tokens.select(counted[tokens.doc_ids]), num_documents, num_topics
    )
    word_topic = count_by_word_topic(tokens, vocabulary_size, num_topics)
    return tokens, doc_topic, word_topic


class TestSparseLikelihood:
    @given(
        shape=st.tuples(
            st.integers(1, 12), st.integers(1, 20), st.integers(1, 9), st.integers(0, 150)
        ),
        seed=seeds,
        pass_word_side=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, shape, seed, pass_word_side):
        num_documents, vocabulary_size, num_topics, num_tokens = shape
        tokens, doc_topic, word_topic = _random_likelihood_inputs(seed, *shape)
        params = LDAHyperParams.paper_defaults(num_topics)
        word_side = (
            WordSide.prepare(word_topic, params.alpha, params.beta)
            if pass_word_side
            else None
        )
        sparse = sparse_training_likelihood(
            tokens, doc_topic, word_topic, num_documents, params, word_side
        )
        dense = training_log_likelihood(tokens, doc_topic.to_dense(), word_topic, params)
        assert sparse.num_tokens == dense.num_tokens == num_tokens
        # abs: with V = 1 every token has probability one and the total is
        # a few ulps of rounding around zero.
        assert sparse.total_log_likelihood == pytest.approx(
            dense.total_log_likelihood, rel=1e-12, abs=1e-15 * num_tokens
        )

    def test_blocks_do_not_change_the_pairs(self):
        tokens, doc_topic, word_topic = _random_likelihood_inputs(5, 30, 40, 16, 600)
        probs = WordSide.prepare(word_topic, ALPHA, BETA).probs
        args = (
            tokens.doc_ids, tokens.word_ids,
            doc_topic.indptr, doc_topic.indices, doc_topic.values, probs,
        )
        whole = doc_side_mass(*args)
        dense = (doc_topic.to_dense()[tokens.doc_ids] * probs[tokens.word_ids]).sum(axis=1)
        np.testing.assert_allclose(whole, dense, rtol=1e-13)
        for block_elements in (1, 7, 64):
            np.testing.assert_array_equal(doc_side_mass(*args, block_elements), whole)


def _traced_peak(function):
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoDenseTemporaries:
    """Ceilings on allocated bytes, not timings: the temporaries are gone."""

    def test_likelihood_stays_far_below_a_token_by_topic_gather(self):
        num_tokens = num_topics = 2000
        tokens, doc_topic, word_topic = _random_likelihood_inputs(
            11, 100, 50, num_topics, num_tokens
        )
        params = LDAHyperParams.paper_defaults(num_topics)
        word_side = WordSide.prepare(word_topic, params.alpha, params.beta)
        peak = _traced_peak(
            lambda: sparse_training_likelihood(
                tokens, doc_topic, word_topic, 100, params, word_side
            )
        )
        assert peak < num_tokens * num_topics * 8 / 4

    def test_prepare_into_a_reuse_buffer_allocates_less_than_a_row_block(self):
        shape = (400, 2000)  # six row blocks of the shipped size
        tokens, counts = _random_counts(shape, 0.004, 13)
        side = WordSide.prepare(counts, ALPHA, BETA, tokens=tokens)
        peak = _traced_peak(
            lambda: WordSide.prepare(counts, ALPHA, BETA, tokens=tokens, reuse=side)
        )
        sparse_terms = tokens.num_tokens + shape[1]
        assert peak < CACHE_BLOCK_ELEMENTS * 8 + 16 * 8 * sparse_terms
        assert peak < shape[0] * shape[1] * 8 / 4
