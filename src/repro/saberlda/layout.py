"""Data layout: partition-by-document, order-by-word (PDOW) and alternatives.

Sec. 3.1 analyses the two simple token orderings (doc-major and
word-major) and combines their advantages: chunks are cut by document
(so the streamed working set — tokens plus the matching rows of ``A`` —
is bounded), and tokens *within* a chunk are sorted by word id (so the
word's ``B̂_v`` row is loaded into shared memory once per chunk and
reused by all of the word's tokens).

The layout also performs the load-balancing word schedule of Sec. 3.4:
words are processed in decreasing token count so that the few very
frequent (Zipf head) words are scheduled first and the tail fills the
gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.tokens import TokenList
from ..corpus.chunking import DocumentChunk, partition_by_document
from .config import SaberLDAConfig, TokenOrder


@dataclass
class WordRun:
    """A run of consecutive tokens of the same word inside a chunk.

    The sampling kernel assigns one *block* per word run: the block loads
    ``B̂_v`` into shared memory once and its warps then sample the run's
    tokens (one warp per token).
    """

    word_id: int
    start: int
    stop: int

    @property
    def num_tokens(self) -> int:
        """Number of tokens in this run."""
        return self.stop - self.start


@dataclass
class ChunkLayout:
    """A chunk after layout: ordered tokens plus the word schedule.

    Attributes
    ----------
    chunk:
        The underlying document chunk (documents ``[doc_start, doc_stop)``).
    tokens:
        The chunk's tokens in the configured order.
    word_runs:
        For word-major layouts, the runs of same-word tokens in scheduling
        order (most frequent word first); empty for doc-major layouts.
    shuffle_pointers:
        Precomputed positions that map each laid-out token back to its
        place in a doc-grouped ordering — the "pre-processed pointer
        array" that SSC uses to shuffle tokens by document (Sec. 3.3).
    """

    chunk: DocumentChunk
    tokens: TokenList
    word_runs: List[WordRun]
    shuffle_pointers: np.ndarray

    @property
    def num_tokens(self) -> int:
        """Number of tokens in the chunk."""
        return self.tokens.num_tokens

    def distinct_words(self) -> int:
        """Number of distinct words in the chunk (rows of B̂ it must load)."""
        if self.num_tokens == 0:
            return 0
        return int(len(np.unique(self.tokens.word_ids)))


def _word_runs_by_frequency(tokens: TokenList) -> List[WordRun]:
    """Runs of same-word tokens, scheduled in decreasing token count."""
    if tokens.num_tokens == 0:
        return []
    word_ids = tokens.word_ids
    # Tokens are already sorted by word: find run boundaries.
    boundaries = np.flatnonzero(np.diff(word_ids)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(word_ids)]])
    runs = [
        WordRun(word_id=int(word_ids[start]), start=int(start), stop=int(stop))
        for start, stop in zip(starts, stops, strict=True)
    ]
    runs.sort(key=lambda run: run.num_tokens, reverse=True)
    return runs


def _doc_grouped_pointers(doc_ids: np.ndarray) -> np.ndarray:
    """Pointer array sending each token to its slot in a doc-grouped ordering."""
    order = np.argsort(doc_ids, kind="stable")
    pointers = np.empty(len(doc_ids), dtype=np.int64)
    pointers[order] = np.arange(len(doc_ids))
    return pointers


def layout_chunk(chunk: DocumentChunk, order: TokenOrder) -> ChunkLayout:
    """Apply the configured token ordering to one chunk."""
    if order is TokenOrder.WORD_MAJOR:
        tokens = chunk.tokens.sorted_by("word")
        word_runs = _word_runs_by_frequency(tokens)
    else:
        tokens = chunk.tokens.sorted_by("doc")
        word_runs = []
    return ChunkLayout(
        chunk=chunk,
        tokens=tokens,
        word_runs=word_runs,
        shuffle_pointers=_doc_grouped_pointers(tokens.doc_ids),
    )


def build_layout(
    tokens: TokenList, num_documents: int, config: SaberLDAConfig
) -> List[ChunkLayout]:
    """Partition the corpus by document and lay out every chunk.

    This is the full PDOW pipeline when ``config.token_order`` is
    ``WORD_MAJOR``; with ``DOC_MAJOR`` it reproduces the G0 baseline
    layout (chunked, doc-sorted).  Raises ``RuntimeError`` if the
    chunks do not hold exactly the corpus's ``T`` tokens (a token whose
    document lies outside ``[0, num_documents)`` would otherwise be
    dropped without a word).
    """
    chunks = partition_by_document(tokens, num_documents, config.num_chunks)
    laid_out = sum(chunk.tokens.num_tokens for chunk in chunks)
    if laid_out != tokens.num_tokens:
        raise RuntimeError(
            f"layout holds {laid_out} of {tokens.num_tokens} tokens: "
            f"document ids outside [0, {num_documents})"
        )
    return [layout_chunk(chunk, config.token_order) for chunk in chunks]


def gather_layout_tokens(layouts: List[ChunkLayout]) -> TokenList:
    """Concatenate the laid-out chunk token lists back into one corpus list."""
    merged = TokenList.empty()
    for layout in layouts:
        merged = merged.concat(layout.tokens)
    return merged
