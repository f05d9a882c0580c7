"""Sparsity-aware M-step kernels: cost follows the non-zeros of ``A`` and ``B``.

``B̂[v, k] = (B[v, k] + β) / (c_k + Vβ)`` equals the shared *base row*
``β / (c_k + Vβ)`` everywhere except at the non-zeros of ``B``, and a
token's likelihood ``Σ_k θ_dk·B̂_vk`` splits into the E-step's own two
masses — a sum over the non-zeros of ``A_d`` plus the prior mass ``Q_v``.
Both kernels below exploit that:

* :func:`fill_word_side` builds ``B̂``, its row CDFs and ``Q`` one
  cache-sized row block at a time (base-row fill, ``O(nnz)`` scatter,
  row sum and prefix sum while the block is still in L2), so the
  ``V x K`` matrices stream past the core once instead of ten times;
* :func:`doc_side_mass` evaluates ``Σ_{k∈nz(d)} A_dk·B̂_vk`` per token
  over flattened (token, non-zero) pairs — ``O(T·K_d)``, no ``T x K``
  gather.

Like the rest of the package the functions are array-in/array-out (no
repro imports above ``kernels``).  :func:`fill_word_side` is
bit-identical to the dense expression it replaced (same operands, same
per-row ``sum``/``cumsum`` shapes; the column totals are exact integers
in float64 however they are accumulated) — pinned against a frozen copy
of that expression in ``tests/properties/test_property_mstep.py``.
"""

from __future__ import annotations

import numpy as np

from .cdf import CACHE_BLOCK_ELEMENTS, concat_ranges


def fill_word_side(
    nonzeros: np.ndarray,
    values: np.ndarray,
    alpha: float,
    beta: float,
    probs: np.ndarray,
    cdf: np.ndarray,
    prior_mass: np.ndarray,
    block_elements: int = CACHE_BLOCK_ELEMENTS,
) -> None:
    """Fill ``probs`` (``B̂``), ``cdf`` and ``prior_mass`` (``Q``) in place.

    ``nonzeros`` are the ascending flat (``v * K + k``) coordinates of a
    superset of the non-zeros of ``B`` and ``values`` the counts there;
    every other cell of ``B`` is zero.  ``probs``/``cdf`` are C-contiguous
    ``V x K`` float64 outputs and ``prior_mass`` a length-``V`` one; their
    previous contents are irrelevant.
    """
    vocabulary_size, num_topics = probs.shape
    columns = nonzeros % num_topics
    column_totals = (
        np.bincount(columns, weights=values, minlength=num_topics)
        + vocabulary_size * beta
    )
    base_row = beta / column_totals
    overrides = (values.astype(np.float64) + beta) / column_totals[columns]

    rows_per_block = max(1, block_elements // num_topics)
    for lo in range(0, vocabulary_size, rows_per_block):
        hi = min(lo + rows_per_block, vocabulary_size)
        first, last = np.searchsorted(nonzeros, (lo * num_topics, hi * num_topics))
        block = probs[lo:hi]
        block[:] = base_row
        block.reshape(-1)[nonzeros[first:last] - lo * num_topics] = overrides[first:last]
        block.sum(axis=1, out=prior_mass[lo:hi])
        np.cumsum(block, axis=1, out=cdf[lo:hi])
    prior_mass *= alpha


def doc_side_mass(
    doc_ids: np.ndarray,
    word_ids: np.ndarray,
    doc_indptr: np.ndarray,
    doc_nz_topics: np.ndarray,
    doc_nz_counts: np.ndarray,
    probs: np.ndarray,
    block_elements: int = CACHE_BLOCK_ELEMENTS,
) -> np.ndarray:
    """``Σ_{k∈nz(d)} A_dk·B̂_vk`` for every token ``(d, v)`` — the Problem-1 mass.

    ``doc_indptr``/``doc_nz_topics``/``doc_nz_counts`` are the CSR arrays
    of ``A``.  Tokens are processed in runs whose (token, non-zero) pairs
    number at most ``block_elements``; each token's products accumulate
    sequentially in float64.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    word_ids = np.asarray(word_ids, dtype=np.int64)
    num_tokens = int(doc_ids.shape[0])
    num_topics = probs.shape[1]
    flat_probs = probs.reshape(-1)
    doc_indptr = np.asarray(doc_indptr, dtype=np.int64)
    row_starts = doc_indptr[doc_ids]
    widths = doc_indptr[doc_ids + 1] - row_starts
    pair_ends = np.cumsum(widths)

    mass = np.empty(num_tokens, dtype=np.float64)
    start = 0
    while start < num_tokens:
        pairs_before = int(pair_ends[start - 1]) if start else 0
        stop = int(np.searchsorted(pair_ends, pairs_before + block_elements, side="right"))
        stop = max(stop, start + 1)
        run_widths = widths[start:stop]
        pairs = concat_ranges(row_starts[start:stop], run_widths)
        token_of_pair = np.repeat(np.arange(stop - start, dtype=np.int64), run_widths)
        cells = word_ids[start:stop][token_of_pair] * num_topics + doc_nz_topics[pairs]
        products = flat_probs[cells] * doc_nz_counts[pairs]
        mass[start:stop] = np.bincount(
            token_of_pair, weights=products, minlength=stop - start
        )
        start = stop
    return mass
