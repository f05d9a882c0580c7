"""F+LDA — the DMLC ``FTreeLDA`` baseline.

F+LDA is a sparsity-aware collapsed Gibbs sampler: the per-token
distribution is split into a document-sparse part (over the ``K_d``
non-zero entries of ``A_d``) and a word part answered from a Fenwick
("F+") tree that supports O(log2 K) sampling and O(log2 K) updates.  The
algorithmic trajectory is that of collapsed Gibbs; the cost per iteration
is ``O(K_d + log2 K)`` per token on the CPU.  The paper finds SaberLDA
about 5.4x faster to converge than DMLC's implementation.
"""

from __future__ import annotations

from ..core.hyperparams import LDAHyperParams
from ..gpusim.device import HOST_CPU, DeviceSpec
from ..saberlda.costing import WorkloadStats
from .gibbs import CollapsedGibbsTrainer

import numpy as np


class FTreeLdaTrainer(CollapsedGibbsTrainer):
    """Sparsity-aware collapsed Gibbs with a Fenwick-tree word side (DMLC F+LDA)."""

    system_name = "DMLC F+LDA"

    def __init__(
        self,
        params: LDAHyperParams,
        num_iterations: int = 50,
        seed: int = 0,
        device: DeviceSpec = HOST_CPU,
        num_threads: int = 24,
    ) -> None:
        super().__init__(params, num_iterations, seed, device)
        self.num_threads = num_threads

    def iteration_seconds(self, stats: WorkloadStats) -> float:
        """Sparse CGS sweep: ``O(K_d + log2 K)`` work and traffic per token.

        The document-sparse part streams ``K_d`` (index, value) pairs per
        token; the Fenwick-tree descent and update touch ``2 log2 K``
        scattered nodes, most of which miss the last-level cache once the
        tree working set (``V * K`` floats) exceeds it.
        """
        device = self.device
        tokens = float(stats.num_tokens)
        log_k = float(np.log2(max(stats.num_topics, 2)))

        tree_bytes = float(stats.vocabulary_size) * stats.num_topics * 4.0
        resident_fraction = min(1.0, device.l2_capacity_bytes / max(tree_bytes, 1.0))
        miss_fraction = 1.0 - max(stats.hot_token_fraction, resident_fraction)

        bytes_per_token = (
            stats.mean_doc_nnz * 8.0                       # sparse A_d row
            + 2.0 * log_k * device.cache_line_bytes * miss_fraction  # F+ tree descent + update
            + 24.0                                          # token bookkeeping
        )
        bandwidth = device.global_bandwidth * device.achievable_global_fraction
        compute = tokens * (stats.mean_doc_nnz + 2.0 * log_k) * 2.0 / device.compute_throughput
        return max(tokens * bytes_per_token / bandwidth, compute)
