"""Core LDA data structures shared by all samplers and the SaberLDA system."""

from .count_matrices import (
    SparseDocTopicMatrix,
    count_by_doc_topic_dense,
    count_by_word_topic,
    normalize_word_topic,
)
from .hyperparams import LDAHyperParams
from .likelihood import (
    LikelihoodResult,
    document_topic_distributions,
    heldout_log_likelihood,
    log_likelihood_from_tokens,
    split_heldout_documents,
    training_log_likelihood,
)
from .model import LDAModel
from .serialization import (
    FrozenArtifacts,
    detect_checkpoint_format,
    load_mmap_model,
    load_model,
    load_sharded_model,
    open_frozen_artifacts,
    resolve_checkpoint,
    save_model,
    save_model_mmap,
    save_sharded_model,
    word_topic_digest,
)
from .tokens import MalformedCorpusError, TokenList, validate_training_tokens

__all__ = [
    "FrozenArtifacts",
    "LDAHyperParams",
    "LDAModel",
    "LikelihoodResult",
    "MalformedCorpusError",
    "SparseDocTopicMatrix",
    "TokenList",
    "count_by_doc_topic_dense",
    "count_by_word_topic",
    "detect_checkpoint_format",
    "document_topic_distributions",
    "heldout_log_likelihood",
    "load_mmap_model",
    "load_model",
    "load_sharded_model",
    "log_likelihood_from_tokens",
    "normalize_word_topic",
    "open_frozen_artifacts",
    "resolve_checkpoint",
    "save_model",
    "save_model_mmap",
    "save_sharded_model",
    "word_topic_digest",
    "split_heldout_documents",
    "training_log_likelihood",
    "validate_training_tokens",
]
