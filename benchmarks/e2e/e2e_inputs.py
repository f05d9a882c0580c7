"""Seeded input generator of the e2e benchmark.

Everything the runner consumes is produced here, from ``--seed`` alone,
and written as ``.npy`` files: the training corpus, the synthetic sparse
K=10k model (as ``(word, topic, count)`` triplets), the query documents
with their repeat pattern, and the Poisson arrival times of every
stream.  Two calls with one seed write byte-identical files.

The corpus comes with ``corpus_oracle_nll``: its per-token negative log
likelihood under the mixtures and topics that generated it.  Corpora of
different seeds differ in entropy by a few percent; a fit's likelihood
over the oracle's does not, so it is the quality metric that can be
compared across seeds.

``repro.corpus.generate_lda_corpus`` is not used: it materialises a
``T x V`` comparison matrix (1.6 GB for 100k tokens at V=2,000).  Here
topics are drawn per document and words per topic with ``searchsorted``
on the CDFs, which is linear in ``T``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import numpy as np

from e2e_spec import (
    GENERATIVE_ALPHA,
    LENGTH_SIGMA,
    MODEL_TOPICS_PER_WORD,
    ZIPF_EXPONENT,
    WorkloadSpec,
)


def _zipf(size: int) -> np.ndarray:
    mass = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return mass / mass.sum()


def _draw_words(
    topics: np.ndarray, word_cdf: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One word per token from its topic's CDF, grouped by topic."""
    uniforms = rng.random(len(topics))
    words = np.empty(len(topics), dtype=np.int32)
    order = np.argsort(topics, kind="stable")
    bounds = np.searchsorted(topics[order], np.arange(word_cdf.shape[0] + 1))
    for topic in range(word_cdf.shape[0]):
        members = order[bounds[topic] : bounds[topic + 1]]
        if len(members):
            words[members] = np.searchsorted(word_cdf[topic], uniforms[members])
    return np.minimum(words, word_cdf.shape[1] - 1)


def _draw_documents(
    lengths: np.ndarray,
    word_cdf: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Word ids of ``len(lengths)`` LDA documents, concatenated, and the
    documents' topic mixtures."""
    num_topics = word_cdf.shape[0]
    mixtures = rng.dirichlet(np.full(num_topics, GENERATIVE_ALPHA), size=len(lengths))
    uniforms = rng.random(int(lengths.sum()))
    topics = np.empty(len(uniforms), dtype=np.int32)
    start = 0
    for mixture, length in zip(mixtures, lengths, strict=True):
        stop = start + int(length)
        topics[start:stop] = np.searchsorted(np.cumsum(mixture), uniforms[start:stop])
        start = stop
    return _draw_words(np.minimum(topics, num_topics - 1), word_cdf, rng), mixtures


def _sparse_model(spec: WorkloadSpec, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """``(word, topic, count)`` triplets: each word on a few topics, Zipf mass."""
    per_word = MODEL_TOPICS_PER_WORD
    words = np.repeat(np.arange(spec.vocabulary_size, dtype=np.int32), per_word)
    topics = rng.integers(0, spec.num_topics, size=len(words)).astype(np.int32)
    mass = _zipf(spec.vocabulary_size) * spec.model_tokens
    shares = rng.dirichlet(np.ones(per_word), size=spec.vocabulary_size)
    counts = np.maximum((shares * mass[:, None]).round(), 1).astype(np.int64)
    return {
        "model_words": words,
        "model_topics": topics,
        "model_counts": counts.reshape(-1),
    }


def _queries(
    count: int,
    hot: np.ndarray,
    spec: WorkloadSpec,
    word_cdf: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count x query_tokens`` query documents with the spec's repeat share.

    Exactly ``round(count * repeat_share)`` requests, at random positions,
    repeat one of the pinned ``hot`` documents; every other request is a
    fresh draw.  The cache hit rate of a stream is thus set by the spec,
    not by chance: a percentile taken with cache hits included sits at
    the same rank of the served requests in every stream.
    """
    lengths = np.full(count, spec.query_tokens)
    flat, _ = _draw_documents(lengths, word_cdf, rng)
    documents = flat.reshape(count, spec.query_tokens)
    if len(hot):
        repeats = rng.permutation(count)[: round(count * spec.repeat_share)]
        documents[repeats] = hot[rng.integers(0, len(hot), size=len(repeats))]
    return np.ascontiguousarray(documents, dtype=np.int32)


def generate(spec: WorkloadSpec, seed: int, counts: Dict[str, int]) -> Dict[str, np.ndarray]:
    """Every input array of one workload, keyed by file stem.

    ``counts`` gives the number of requests of each stream (the runner's
    plan, scaled from ``--seconds``), so the generator and the runner
    agree on stream lengths without either measuring anything.
    """
    rng = np.random.default_rng([seed, spec.generator_stream])
    base = _zipf(spec.vocabulary_size)
    topic_word = rng.dirichlet(
        base * spec.vocabulary_size * 0.05 + 1e-3, size=spec.true_topics
    )
    word_cdf = np.cumsum(topic_word, axis=1)

    # Log-normal shape, rescaled so every seed's corpus has exactly
    # D x mean tokens: throughput and peak memory follow the token count.
    total = round(spec.num_documents * spec.mean_document_length)
    shape = np.exp(rng.normal(0.0, LENGTH_SIGMA, size=spec.num_documents))
    lengths = np.maximum((shape * total / shape.sum()).round().astype(np.int64), 2)
    lengths[np.argmax(lengths)] += total - lengths.sum()
    doc_ids = np.repeat(np.arange(spec.num_documents, dtype=np.int32), lengths)
    word_ids, mixtures = _draw_documents(lengths, word_cdf, rng)
    token_mass = np.einsum("tk,kt->t", mixtures[doc_ids], topic_word[:, word_ids])
    arrays: Dict[str, np.ndarray] = {
        "corpus_doc_ids": doc_ids,
        "corpus_word_ids": word_ids,
        "corpus_oracle_nll": np.array([-np.mean(np.log(token_mass))]),
    }
    if spec.model_source == "synthetic":
        arrays.update(_sparse_model(spec, rng))
    hot = _queries(spec.hot_documents, np.empty((0, 0)), spec, word_cdf, rng)
    for stream, count in sorted(counts.items()):
        queries = _queries(count, hot, spec, word_cdf, rng)
        if stream == "warm":
            # The hot documents were popular before the measurement began:
            # the warm-up stream asks each once, so measured streams see
            # the steady hit rate from their first request.
            queries[: len(hot)] = hot[:count]
        arrays[f"{stream}_queries"] = queries
        rate = spec.stream_rate(stream)
        if rate is not None:
            arrays[f"{stream}_arrivals"] = np.cumsum(
                rng.exponential(1.0 / rate, size=count)
            )
    return arrays


def write(arrays: Dict[str, np.ndarray], directory: str) -> None:
    """One ``.npy`` per array under ``directory`` (created if needed)."""
    os.makedirs(directory, exist_ok=True)
    for stem, array in sorted(arrays.items()):
        np.save(os.path.join(directory, f"{stem}.npy"), array)


def read(directory: str) -> Dict[str, np.ndarray]:
    """Inverse of :func:`write`."""
    return {
        name[: -len(".npy")]: np.load(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name.endswith(".npy")
    }
