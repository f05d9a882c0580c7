"""Ablation runner for the optimisation-impact experiment (Fig. 9).

Fig. 9 trains NYTimes with K = 1000 for 100 iterations under five
cumulative configurations (G0 … G4) and reports the total time split
into sampling, document-topic update, pre-processing and transfer.  The
runner below executes each preset on a replica corpus for a handful of
real iterations (enough for the document-topic sparsity to settle),
takes the steady-state per-iteration phase times from the simulated
costing, and scales them to the requested iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..corpus.datasets import DatasetDescriptor
from ..corpus.synthetic import SyntheticCorpus
from ..gpusim.profiler import ALL_PHASES
from .config import SaberLDAConfig, ablation_presets
from .costing import WorkloadStats
from .projection import cost_iteration_phases
from .trainer import SaberLDATrainer


@dataclass
class AblationEntry:
    """Phase breakdown of one optimisation level, scaled to ``reported_iterations``."""

    name: str
    config: SaberLDAConfig
    phase_seconds: Dict[str, float]
    reported_iterations: int

    @property
    def total_seconds(self) -> float:
        """Total time across all phases."""
        return sum(self.phase_seconds.values())


@dataclass
class AblationReport:
    """Results of the full G0..G4 sweep."""

    entries: List[AblationEntry]

    def entry(self, name: str) -> AblationEntry:
        """Look up one optimisation level by name."""
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def speedup(self, baseline: str = "G0", optimised: str = "G4") -> float:
        """Overall speedup between two levels (the paper reports ~2.9x G0 -> G4)."""
        return self.entry(baseline).total_seconds / self.entry(optimised).total_seconds

    def rows(self) -> List[Dict[str, float]]:
        """Tabular form: one row per level with per-phase and total seconds."""
        rows = []
        for entry in self.entries:
            row: Dict[str, float] = {"level": entry.name}  # type: ignore[dict-item]
            row.update({phase: entry.phase_seconds.get(phase, 0.0) for phase in ALL_PHASES})
            row["total"] = entry.total_seconds
            rows.append(row)
        return rows


def run_ablation(
    corpus: SyntheticCorpus,
    num_topics: int,
    measured_iterations: int = 3,
    reported_iterations: int = 100,
    num_chunks: int = 3,
    presets: Optional[Dict[str, SaberLDAConfig]] = None,
    seed: int = 0,
    descriptor: Optional[DatasetDescriptor] = None,
) -> AblationReport:
    """Run every optimisation level and report per-phase times for ``reported_iterations``.

    ``measured_iterations`` real iterations are executed per level; the
    phase times of the *last* measured iteration (steady-state sparsity)
    are scaled up to ``reported_iterations``.

    When ``descriptor`` is given (e.g. the published NYTimes statistics),
    the per-phase times are projected at the descriptor's full scale using
    the document sparsity (``K_d``) measured on the replica — this is what
    the Fig. 9 bench does, since the optimisation trade-offs only show at
    a scale where ``B̂`` does not fit in the L2 cache.
    """
    if presets is None:
        presets = ablation_presets(num_topics, num_chunks=num_chunks)

    entries: List[AblationEntry] = []

    # The measured document sparsity K_d is a property of the data and the
    # topic count, not of the optimisation level, so a single replica run
    # suffices when the costing is projected at full scale.
    measured_mean_nnz: Optional[float] = None
    if descriptor is not None:
        probe_config = next(iter(presets.values())).with_overrides(
            num_iterations=measured_iterations, seed=seed, evaluate_every=measured_iterations
        )
        probe = SaberLDATrainer(config=probe_config).fit(
            corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size
        )
        measured_mean_nnz = probe.history[-1].mean_doc_nnz

    for name, preset in presets.items():
        config = preset.with_overrides(
            num_iterations=measured_iterations, seed=seed, evaluate_every=measured_iterations
        )
        if descriptor is not None:
            stats = WorkloadStats.from_descriptor(
                descriptor,
                num_topics,
                config.device,
                num_chunks=config.num_chunks,
                mean_doc_nnz=measured_mean_nnz,
            )
            steady = cost_iteration_phases(stats, config).phase_seconds
        else:
            result = SaberLDATrainer(config=config).fit(
                corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size
            )
            steady = result.history[-1].phase_seconds
        scaled = {phase: seconds * reported_iterations for phase, seconds in steady.items()}
        entries.append(
            AblationEntry(
                name=name,
                config=config,
                phase_seconds=scaled,
                reported_iterations=reported_iterations,
            )
        )
    return AblationReport(entries=entries)
