"""Count matrices used by LDA samplers.

Two matrices are maintained (Sec. 2.1):

* the **document-topic count matrix** ``A`` (``D x K``), which is sparse
  because a document only touches a handful of topics, stored here in CSR
  form (:class:`SparseDocTopicMatrix`);
* the **word-topic count matrix** ``B`` (``V x K``), which is dense, and
  its column-normalised companion ``B_hat`` (Eq. 2), computed by
  :func:`normalize_word_topic`.

Both matrices are *derived* from the token list (`CountByDZ` /
`CountByVZ` in Alg. 1) rather than updated incrementally, matching the
ESCA bulk-synchronous M-step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .tokens import TokenList


# --------------------------------------------------------------------------- #
# Dense word-topic matrix
# --------------------------------------------------------------------------- #
def count_by_word_topic(tokens: TokenList, vocabulary_size: int, num_topics: int) -> np.ndarray:
    """``CountByVZ`` — build the dense ``V x K`` word-topic count matrix ``B``."""
    if tokens.num_tokens == 0:
        return np.zeros((vocabulary_size, num_topics), dtype=np.int64)
    if tokens.topics.min() < 0:
        raise ValueError("all tokens must have a topic assignment before counting")
    flat = tokens.word_ids.astype(np.int64) * num_topics + tokens.topics.astype(np.int64)
    counts = np.bincount(flat, minlength=vocabulary_size * num_topics)
    return counts.reshape(vocabulary_size, num_topics).astype(np.int64, copy=False)


def count_by_doc_topic_dense(tokens: TokenList, num_documents: int, num_topics: int) -> np.ndarray:
    """``CountByDZ`` (dense variant) — build the ``D x K`` document-topic matrix."""
    if tokens.num_tokens == 0:
        return np.zeros((num_documents, num_topics), dtype=np.int64)
    if tokens.topics.min() < 0:
        raise ValueError("all tokens must have a topic assignment before counting")
    flat = tokens.doc_ids.astype(np.int64) * num_topics + tokens.topics.astype(np.int64)
    counts = np.bincount(flat, minlength=num_documents * num_topics)
    return counts.reshape(num_documents, num_topics).astype(np.int64, copy=False)


def normalize_word_topic(word_topic: np.ndarray, beta: float) -> np.ndarray:
    """Compute ``B_hat`` from ``B`` following Eq. (2).

    ``B_hat[v, k] = (B[v, k] + beta) / (sum_v B[v, k] + V * beta)`` — each
    *column* of the result sums to one, i.e. each topic is a proper
    distribution over the vocabulary.
    """
    word_topic = np.asarray(word_topic, dtype=np.float64)
    vocabulary_size = word_topic.shape[0]
    column_totals = word_topic.sum(axis=0) + vocabulary_size * beta
    return (word_topic + beta) / column_totals[None, :]


# --------------------------------------------------------------------------- #
# Sparse document-topic matrix (CSR)
# --------------------------------------------------------------------------- #
@dataclass
class SparseDocTopicMatrix:
    """CSR representation of the sparse document-topic count matrix ``A``.

    Row ``d`` holds the pairs ``(k, A[d, k])`` for every topic ``k`` with a
    non-zero count in document ``d``.  The three arrays follow the standard
    CSR convention:

    * ``indptr`` — length ``D + 1``; row ``d`` occupies
      ``indices[indptr[d]:indptr[d + 1]]``;
    * ``indices`` — topic ids of the non-zero entries;
    * ``values`` — the corresponding counts.
    """

    num_documents: int
    num_topics: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int32)
        self.values = np.asarray(self.values, dtype=np.int32)
        if len(self.indptr) != self.num_documents + 1:
            raise ValueError(
                f"indptr must have length D+1={self.num_documents + 1}, got {len(self.indptr)}"
            )
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have the same length")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tokens(
        cls, tokens: TokenList, num_documents: int, num_topics: int
    ) -> "SparseDocTopicMatrix":
        """``CountByDZ`` — build the CSR matrix from the token list.

        The reference implementation sorts (doc, topic) pairs and collapses
        duplicates; SaberLDA replaces this global sort with SSC
        (``repro.saberlda.ssc``), which produces identical output.
        """
        if tokens.num_tokens == 0:
            return cls.empty(num_documents, num_topics)
        if tokens.topics.min() < 0:
            raise ValueError("all tokens must have a topic assignment before counting")
        flat = tokens.doc_ids.astype(np.int64) * num_topics + tokens.topics.astype(np.int64)
        uniq, counts = np.unique(flat, return_counts=True)
        docs = (uniq // num_topics).astype(np.int64)
        topics = (uniq % num_topics).astype(np.int32)
        row_lengths = np.bincount(docs, minlength=num_documents)
        indptr = np.zeros(num_documents + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=indptr[1:])
        return cls(
            num_documents=num_documents,
            num_topics=num_topics,
            indptr=indptr,
            indices=topics,
            values=counts.astype(np.int32),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseDocTopicMatrix":
        """Build a CSR matrix from a dense ``D x K`` array."""
        dense = np.asarray(dense)
        num_documents, num_topics = dense.shape
        docs, topics = np.nonzero(dense)  # row-major, i.e. CSR order
        indptr = np.zeros(num_documents + 1, dtype=np.int64)
        np.cumsum(np.bincount(docs, minlength=num_documents), out=indptr[1:])
        return cls(num_documents, num_topics, indptr, topics, dense[docs, topics])

    @classmethod
    def empty(cls, num_documents: int, num_topics: int) -> "SparseDocTopicMatrix":
        """An all-zero matrix."""
        return cls(
            num_documents=num_documents,
            num_topics=num_topics,
            indptr=np.zeros(num_documents + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int32),
            values=np.zeros(0, dtype=np.int32),
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nonzeros(self) -> int:
        """Total number of stored (document, topic) pairs."""
        return int(len(self.indices))

    def row(self, doc_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(topic_ids, counts)`` of the non-zero entries of row ``doc_id``."""
        start, stop = self.indptr[doc_id], self.indptr[doc_id + 1]
        return self.indices[start:stop], self.values[start:stop]

    def row_ids(self) -> np.ndarray:
        """Document id of every stored entry, aligned with ``indices``/``values``."""
        return np.repeat(
            np.arange(self.num_documents, dtype=np.int64), np.diff(self.indptr)
        )

    def row_nnz(self, doc_id: int) -> int:
        """Number of non-zero topics (``K_d``) in a document."""
        return int(self.indptr[doc_id + 1] - self.indptr[doc_id])

    def mean_row_nnz(self) -> float:
        """Average ``K_d`` over all documents — the sparsity the paper exploits."""
        if self.num_documents == 0:
            return 0.0
        return self.num_nonzeros / self.num_documents

    def to_dense(self) -> np.ndarray:
        """Densify to a ``D x K`` int64 array (for tests and small inputs)."""
        dense = np.zeros((self.num_documents, self.num_topics), dtype=np.int64)
        dense[self.row_ids(), self.indices] = self.values
        return dense

    def memory_bytes(self, value_bytes: int = 4, index_bytes: int = 4) -> int:
        """Approximate memory footprint in bytes (CSR: index + value per nnz, plus indptr)."""
        return self.num_nonzeros * (value_bytes + index_bytes) + len(self.indptr) * 8

    def total_count(self) -> int:
        """Sum of all counts — equals the number of tokens counted."""
        return int(self.values.sum())

    def slice_documents(self, start: int, stop: int) -> "SparseDocTopicMatrix":
        """Return the sub-matrix for documents ``[start, stop)`` with re-based row ids."""
        lo, hi = self.indptr[start], self.indptr[stop]
        indptr = self.indptr[start : stop + 1] - lo
        return SparseDocTopicMatrix(
            num_documents=stop - start,
            num_topics=self.num_topics,
            indptr=indptr.copy(),
            indices=self.indices[lo:hi].copy(),
            values=self.values[lo:hi].copy(),
        )
