"""Tests for the count matrices (A, B, B̂)."""

import numpy as np
import pytest

from repro.core import (
    SparseDocTopicMatrix,
    count_by_doc_topic_dense,
    count_by_word_topic,
    normalize_word_topic,
)


class TestWordTopicCounts:
    def test_fig1_example(self, tiny_tokens):
        matrix = count_by_word_topic(tiny_tokens, vocabulary_size=5, num_topics=3)
        # iOS appears twice with topic 3 (0-based: 2).
        assert matrix[0, 2] == 2
        # apple appears twice with topic 1 (0-based: 0) and once with topic 2 (0-based: 1).
        assert matrix[2, 0] == 2
        assert matrix[2, 1] == 1

    def test_total_equals_num_tokens(self, tiny_tokens):
        matrix = count_by_word_topic(tiny_tokens, 5, 3)
        assert matrix.sum() == tiny_tokens.num_tokens

    @pytest.mark.parametrize(
        "count, ids", [(count_by_word_topic, "word_ids"), (count_by_doc_topic_dense, "doc_ids")]
    )
    def test_returns_the_bincount_result_uncopied(self, tiny_tokens, count, ids):
        matrix = count(tiny_tokens, 5, 3)
        expected = np.zeros((5, 3), dtype=np.int64)
        np.add.at(expected, (getattr(tiny_tokens, ids), tiny_tokens.topics), 1)
        assert matrix.dtype == np.int64 and matrix.shape == (5, 3)
        np.testing.assert_array_equal(matrix, expected)
        # A reshaped view of ``np.bincount``'s own int64 buffer, not a
        # second V x K (D x K) copy of it.
        assert not matrix.flags.owndata and matrix.base.ndim == 1

    def test_requires_assigned_topics(self):
        from repro.core import TokenList

        tokens = TokenList.from_pairs([0, 1], [0, 1])
        with pytest.raises(ValueError):
            count_by_word_topic(tokens, 2, 2)


class TestDocTopicDense:
    def test_fig1_example(self, tiny_tokens):
        matrix = count_by_doc_topic_dense(tiny_tokens, num_documents=3, num_topics=3)
        assert matrix[0, 2] == 2  # document 1 has two tokens of topic 3
        assert matrix[1, 0] == 3  # document 2 has three tokens of topic 1
        assert matrix[2, 1] == 2  # document 3 has two tokens of topic 2

    def test_row_sums_are_document_lengths(self, tiny_tokens):
        matrix = count_by_doc_topic_dense(tiny_tokens, 3, 3)
        assert list(matrix.sum(axis=1)) == [2, 4, 2]


class TestNormalizeWordTopic:
    def test_columns_sum_to_one(self, tiny_tokens):
        counts = count_by_word_topic(tiny_tokens, 5, 3)
        normalized = normalize_word_topic(counts, beta=0.01)
        np.testing.assert_allclose(normalized.sum(axis=0), np.ones(3))

    def test_values_roughly_proportional_to_counts(self, tiny_tokens):
        counts = count_by_word_topic(tiny_tokens, 5, 3)
        normalized = normalize_word_topic(counts, beta=1e-6)
        column = counts[:, 0] / counts[:, 0].sum()
        np.testing.assert_allclose(normalized[:, 0], column, atol=1e-4)

    def test_smoothing_gives_nonzero_probability(self):
        counts = np.zeros((4, 2))
        normalized = normalize_word_topic(counts, beta=0.5)
        assert (normalized > 0).all()


class TestSparseDocTopicMatrix:
    def test_matches_dense(self, tiny_tokens):
        sparse = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
        dense = count_by_doc_topic_dense(tiny_tokens, 3, 3)
        np.testing.assert_array_equal(sparse.to_dense(), dense)

    def test_row_access(self, tiny_tokens):
        sparse = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
        topics, counts = sparse.row(1)
        assert dict(zip(topics.tolist(), counts.tolist(), strict=True)) == {0: 3, 2: 1}

    def test_row_nnz_and_mean(self, tiny_tokens):
        sparse = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
        assert sparse.row_nnz(0) == 1
        assert sparse.row_nnz(1) == 2
        assert sparse.mean_row_nnz() == pytest.approx(4 / 3)

    def test_total_count(self, tiny_tokens):
        sparse = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
        assert sparse.total_count() == tiny_tokens.num_tokens

    def test_from_dense_round_trip(self, rng):
        dense = rng.integers(0, 4, size=(6, 5))
        sparse = SparseDocTopicMatrix.from_dense(dense)
        np.testing.assert_array_equal(sparse.to_dense(), dense)

    def test_empty_matrix(self):
        sparse = SparseDocTopicMatrix.empty(4, 3)
        assert sparse.num_nonzeros == 0
        assert sparse.to_dense().sum() == 0

    def test_memory_smaller_than_dense_when_sparse(self, small_corpus):
        tokens = small_corpus.tokens
        num_topics = 500
        sparse = SparseDocTopicMatrix.from_tokens(tokens, small_corpus.num_documents, num_topics)
        dense_bytes = small_corpus.num_documents * num_topics * 4
        assert sparse.memory_bytes() < dense_bytes

    def test_slice_documents(self, tiny_tokens):
        sparse = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
        sliced = sparse.slice_documents(1, 3)
        np.testing.assert_array_equal(sliced.to_dense(), sparse.to_dense()[1:3])

    def test_indptr_length_validated(self):
        with pytest.raises(ValueError):
            SparseDocTopicMatrix(
                num_documents=2,
                num_topics=3,
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                values=np.array([1]),
            )
