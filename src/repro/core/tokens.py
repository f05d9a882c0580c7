"""Token list representation.

The corpus is represented as a *token list* ``L`` (Sec. 2.1): every
occurrence of word ``v`` in document ``d`` is a token, carrying a mutable
topic assignment ``k``.  The token list is stored in structure-of-arrays
form (three parallel ``numpy`` vectors) because every algorithm in the
paper streams over it sequentially, and the count matrices are rebuilt
from it each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


class MalformedCorpusError(ValueError):
    """A training corpus the trainers refuse to fit.

    ``token_index`` and ``field`` name the first offending token (both
    ``None`` when the fault is a shape — ``D``, ``V`` or ``K`` below 1 —
    or a whole array's dtype).
    """

    def __init__(self, message: str, token_index=None, field=None):
        super().__init__(message)
        self.token_index = token_index
        self.field = field


@dataclass
class TokenList:
    """Structure-of-arrays token list ``L``.

    Attributes
    ----------
    doc_ids:
        ``int32`` array of length ``T`` — document id of each token.
    word_ids:
        ``int32`` array of length ``T`` — word id of each token.
    topics:
        ``int32`` array of length ``T`` — current topic assignment of each
        token.  ``-1`` means "not yet assigned".
    """

    doc_ids: np.ndarray
    word_ids: np.ndarray
    topics: np.ndarray

    def __post_init__(self) -> None:
        self.doc_ids = np.asarray(self.doc_ids, dtype=np.int32)
        self.word_ids = np.asarray(self.word_ids, dtype=np.int32)
        self.topics = np.asarray(self.topics, dtype=np.int32)
        if not (len(self.doc_ids) == len(self.word_ids) == len(self.topics)):
            raise ValueError(
                "doc_ids, word_ids and topics must have the same length: "
                f"{len(self.doc_ids)}, {len(self.word_ids)}, {len(self.topics)}"
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "TokenList":
        """Return a token list with zero tokens."""
        zero = np.zeros(0, dtype=np.int32)
        return cls(zero.copy(), zero.copy(), zero.copy())

    @classmethod
    def from_pairs(cls, doc_ids, word_ids) -> "TokenList":
        """Build a token list from (doc, word) pairs with unassigned topics."""
        doc_ids = np.asarray(doc_ids, dtype=np.int32)
        word_ids = np.asarray(word_ids, dtype=np.int32)
        topics = np.full(len(doc_ids), -1, dtype=np.int32)
        return cls(doc_ids, word_ids, topics)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_tokens(self) -> int:
        """``T`` — total number of tokens."""
        return int(len(self.doc_ids))

    @property
    def num_documents(self) -> int:
        """``D`` — one plus the largest document id present (0 if empty)."""
        if self.num_tokens == 0:
            return 0
        return int(self.doc_ids.max()) + 1

    @property
    def vocabulary_size(self) -> int:
        """``V`` — one plus the largest word id present (0 if empty)."""
        if self.num_tokens == 0:
            return 0
        return int(self.word_ids.max()) + 1

    def __len__(self) -> int:
        return self.num_tokens

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        for d, v, k in zip(self.doc_ids, self.word_ids, self.topics, strict=True):
            yield int(d), int(v), int(k)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def copy(self) -> "TokenList":
        """Deep copy of all three arrays."""
        return TokenList(self.doc_ids.copy(), self.word_ids.copy(), self.topics.copy())

    def randomize_topics(self, num_topics: int, rng: np.random.Generator) -> None:
        """Assign a uniformly random topic in ``[0, num_topics)`` to every token."""
        if num_topics < 1:
            raise ValueError("num_topics must be >= 1")
        self.topics = rng.integers(0, num_topics, size=self.num_tokens, dtype=np.int32)

    def select(self, mask_or_index: np.ndarray) -> "TokenList":
        """Return a new token list restricted to the given mask or index array."""
        return TokenList(
            self.doc_ids[mask_or_index].copy(),
            self.word_ids[mask_or_index].copy(),
            self.topics[mask_or_index].copy(),
        )

    def sorted_by(self, order: str) -> "TokenList":
        """Return a copy sorted by ``"doc"`` or ``"word"`` (stable sort).

        The sort is stable so that tokens of the same document (resp. word)
        keep their relative order — this mirrors the doc-major and
        word-major orderings of Sec. 3.1.3.
        """
        if order == "doc":
            idx = np.argsort(self.doc_ids, kind="stable")
        elif order == "word":
            idx = np.argsort(self.word_ids, kind="stable")
        else:
            raise ValueError(f"order must be 'doc' or 'word', got {order!r}")
        return self.select(idx)

    def tokens_per_document(self, num_documents: int | None = None) -> np.ndarray:
        """Histogram of token counts per document."""
        n = self.num_documents if num_documents is None else num_documents
        return np.bincount(self.doc_ids, minlength=n).astype(np.int64)

    def tokens_per_word(self, vocabulary_size: int | None = None) -> np.ndarray:
        """Histogram of token counts per word (term frequencies)."""
        n = self.vocabulary_size if vocabulary_size is None else vocabulary_size
        return np.bincount(self.word_ids, minlength=n).astype(np.int64)

    def concat(self, other: "TokenList") -> "TokenList":
        """Concatenate two token lists."""
        return TokenList(
            np.concatenate([self.doc_ids, other.doc_ids]),
            np.concatenate([self.word_ids, other.word_ids]),
            np.concatenate([self.topics, other.topics]),
        )


def validate_training_tokens(
    tokens: TokenList, num_documents: int, vocabulary_size: int, num_topics: int
) -> None:
    """Refuse a corpus a fit would silently truncate or mis-count.

    Checks ``D``, ``V``, ``K >= 1``, integral dtypes, ``0 <= doc < D``,
    ``0 <= word < V`` and ``topic == -1 or 0 <= topic < K`` — O(T), no
    count matrix is touched.  Raises :class:`MalformedCorpusError`
    naming the first bad token's index and field.
    """
    for name, value in (
        ("num_documents", num_documents),
        ("vocabulary_size", vocabulary_size),
        ("num_topics", num_topics),
    ):
        if value < 1:
            raise MalformedCorpusError(f"{name} must be >= 1, got {value}")
    first = None
    for field, low, high in (
        ("doc_ids", 0, num_documents),
        ("word_ids", 0, vocabulary_size),
        ("topics", -1, num_topics),
    ):
        values = getattr(tokens, field)
        if not np.issubdtype(values.dtype, np.integer):
            raise MalformedCorpusError(
                f"{field} must be integral, got dtype {values.dtype}", field=field
            )
        bad = np.flatnonzero((values < low) | (values >= high))
        if bad.size and (first is None or bad[0] < first[0]):
            first = (int(bad[0]), field, int(values[bad[0]]), low, high)
    if first is not None:
        index, field, value, low, high = first
        raise MalformedCorpusError(
            f"token {index}: {field}[{index}] = {value} is outside [{low}, {high})",
            token_index=index,
            field=field,
        )
