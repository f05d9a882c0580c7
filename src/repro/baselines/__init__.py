"""Baseline LDA systems the paper compares against (Sec. 4.4)."""

from .base import BaselineHistory, BaselineResult, BaselineTrainer, GpuOutOfMemoryError
from .dense_gpu import DenseGpuTrainer
from .esca_cpu import EscaCpuTrainer
from .ftree_lda import FTreeLdaTrainer
from .gibbs import CollapsedGibbsTrainer
from .warplda import WarpLdaTrainer

__all__ = [
    "BaselineHistory",
    "BaselineResult",
    "BaselineTrainer",
    "CollapsedGibbsTrainer",
    "DenseGpuTrainer",
    "EscaCpuTrainer",
    "FTreeLdaTrainer",
    "GpuOutOfMemoryError",
    "WarpLdaTrainer",
]
