"""Property-based tests for count matrices, SSC and warp primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import SparseDocTopicMatrix, TokenList, count_by_doc_topic_dense
from repro.corpus.chunking import DocumentChunk
from repro.gpusim import warp_ballot, warp_prefix_sum, warp_vote
from repro.saberlda import (
    TokenOrder,
    radix_sort_shared,
    rebuild_doc_topic_sort,
    rebuild_doc_topic_ssc,
    segmented_count,
)
from repro.saberlda.layout import layout_chunk


token_lists = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.tuples(
        arrays(np.int32, n, elements=st.integers(0, 15)),   # doc ids
        arrays(np.int32, n, elements=st.integers(0, 30)),   # word ids
        arrays(np.int32, n, elements=st.integers(0, 7)),    # topics
    )
)


class TestCountMatrixProperties:
    @given(data=token_lists)
    @settings(max_examples=50, deadline=None)
    def test_sparse_matches_dense_counts(self, data):
        doc_ids, word_ids, topics = data
        tokens = TokenList(doc_ids, word_ids, topics)
        num_docs = tokens.num_documents
        sparse = SparseDocTopicMatrix.from_tokens(tokens, num_docs, 8)
        dense = count_by_doc_topic_dense(tokens, num_docs, 8)
        np.testing.assert_array_equal(sparse.to_dense(), dense)

    @given(data=token_lists)
    @settings(max_examples=50, deadline=None)
    def test_total_count_equals_tokens(self, data):
        doc_ids, word_ids, topics = data
        tokens = TokenList(doc_ids, word_ids, topics)
        sparse = SparseDocTopicMatrix.from_tokens(tokens, tokens.num_documents, 8)
        assert sparse.total_count() == tokens.num_tokens

    @given(
        dense=arrays(
            np.int64,
            st.tuples(st.integers(0, 8), st.integers(1, 8)),
            # Mostly zeros: empty rows and all-zero matrices are common.
            elements=st.sampled_from([0, 0, 0, 1, 2, 9]),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_dense_round_trip_is_array_for_array(self, dense):
        sparse = SparseDocTopicMatrix.from_dense(dense)
        np.testing.assert_array_equal(sparse.to_dense(), dense)
        again = SparseDocTopicMatrix.from_dense(sparse.to_dense())
        assert again.num_documents == sparse.num_documents == dense.shape[0]
        for name in ("indptr", "indices", "values"):
            np.testing.assert_array_equal(getattr(again, name), getattr(sparse, name))
            assert getattr(again, name).dtype == getattr(sparse, name).dtype
        assert sparse.num_nonzeros == np.count_nonzero(dense)
        np.testing.assert_array_equal(np.diff(sparse.indptr), (dense != 0).sum(axis=1))


class TestSscProperties:
    @given(values=arrays(np.int64, st.integers(1, 300), elements=st.integers(0, 1000)))
    @settings(max_examples=50, deadline=None)
    def test_radix_sort_matches_numpy(self, values):
        np.testing.assert_array_equal(radix_sort_shared(values), np.sort(values))

    @given(values=arrays(np.int64, st.integers(1, 300), elements=st.integers(0, 50)))
    @settings(max_examples=50, deadline=None)
    def test_segmented_count_matches_unique(self, values):
        keys, counts = segmented_count(values)
        expected_keys, expected_counts = np.unique(values, return_counts=True)
        np.testing.assert_array_equal(keys, expected_keys)
        np.testing.assert_array_equal(counts, expected_counts)
        assert counts.sum() == len(values)

    @given(data=token_lists)
    @settings(max_examples=30, deadline=None)
    def test_ssc_rebuild_equals_sort_rebuild(self, data):
        doc_ids, word_ids, topics = data
        tokens = TokenList(doc_ids, word_ids, topics)
        num_docs = tokens.num_documents
        chunk = DocumentChunk(chunk_id=0, doc_start=0, doc_stop=num_docs, tokens=tokens)
        layout = layout_chunk(chunk, TokenOrder.WORD_MAJOR)
        ssc = rebuild_doc_topic_ssc(layout, 8)
        sort = rebuild_doc_topic_sort(layout, 8)
        np.testing.assert_array_equal(ssc.matrix.to_dense(), sort.matrix.to_dense())


class TestWarpPrimitiveProperties:
    @given(values=arrays(np.float64, 32, elements=st.floats(0, 1000, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_prefix_sum_matches_cumsum(self, values):
        np.testing.assert_allclose(warp_prefix_sum(values), np.cumsum(values), rtol=1e-9)

    @given(predicate=arrays(np.bool_, 32, elements=st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_vote_finds_first_true_lane(self, predicate):
        expected = int(np.argmax(predicate)) if predicate.any() else -1
        assert warp_vote(predicate) == expected

    @given(predicate=arrays(np.bool_, 32, elements=st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_ballot_bit_count_matches_true_lanes(self, predicate):
        assert bin(warp_ballot(predicate)).count("1") == int(predicate.sum())
