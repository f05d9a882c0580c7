"""The training front door: a malformed corpus is refused, never truncated.

Every trainer used to fit whatever survived the document partition: a
token whose doc id lay outside ``[0, D)`` was dropped without a word, a
word id outside ``[0, V)`` failed deep inside the first iteration with
an opaque ``reshape``/``bincount`` error, and a preset topic equal to
``K`` silently counted into the next word's cell.  Each probe below runs
on the single-device trainer (one and three chunks) and on the
distributed trainer in all three parallelism modes, and must raise
:class:`MalformedCorpusError` naming the first bad token.
"""

import numpy as np
import pytest

from repro.core import MalformedCorpusError, TokenList, validate_training_tokens
from repro.distributed import DistributedTrainer
from repro.saberlda import SaberLDAConfig, SaberLDATrainer
from repro.saberlda.layout import build_layout

NUM_DOCUMENTS = 20
VOCABULARY = 50
NUM_TOPICS = 8
NUM_TOKENS = 200
BAD = 17  # position of the planted bad token


def _tokens(assigned: bool = False) -> TokenList:
    rng = np.random.default_rng(3)
    doc_ids = np.sort(rng.integers(0, NUM_DOCUMENTS, size=NUM_TOKENS))
    word_ids = rng.integers(0, VOCABULARY, size=NUM_TOKENS)
    tokens = TokenList.from_pairs(doc_ids, word_ids)
    if assigned:
        tokens.topics = rng.integers(0, NUM_TOPICS, size=NUM_TOKENS, dtype=np.int32)
    return tokens


def _config(num_chunks: int) -> SaberLDAConfig:
    return SaberLDAConfig.paper_defaults(
        NUM_TOPICS, num_iterations=1, num_chunks=num_chunks, seed=1
    )


TRAINERS = {
    "single_1chunk": lambda: SaberLDATrainer(_config(1)),
    "single_3chunks": lambda: SaberLDATrainer(_config(3)),
    "data": lambda: DistributedTrainer(_config(4), num_devices=2, parallelism="data"),
    "topic": lambda: DistributedTrainer(_config(4), num_devices=2, parallelism="topic"),
    "hybrid": lambda: DistributedTrainer(_config(4), num_devices=2, parallelism="hybrid"),
}


@pytest.fixture(params=sorted(TRAINERS))
def trainer(request):
    return TRAINERS[request.param]()


def _fit(trainer, tokens, num_documents=NUM_DOCUMENTS, vocabulary_size=VOCABULARY):
    return trainer.fit(tokens, num_documents, vocabulary_size)


class TestRefusedOnEveryTrainer:
    @pytest.mark.parametrize("doc_id", [NUM_DOCUMENTS, NUM_DOCUMENTS + 5, -1])
    def test_doc_id_outside_range(self, trainer, doc_id):
        tokens = _tokens()
        tokens.doc_ids[BAD] = doc_id
        with pytest.raises(MalformedCorpusError, match=rf"token {BAD}: doc_ids") as info:
            _fit(trainer, tokens)
        assert info.value.token_index == BAD and info.value.field == "doc_ids"

    @pytest.mark.parametrize("word_id", [VOCABULARY, -1])
    def test_word_id_outside_range(self, trainer, word_id):
        tokens = _tokens()
        tokens.word_ids[BAD] = word_id
        with pytest.raises(MalformedCorpusError, match=rf"token {BAD}: word_ids"):
            _fit(trainer, tokens)

    def test_vocabulary_below_the_largest_word_id(self, trainer):
        tokens = _tokens()
        largest = int(tokens.word_ids.max())
        first = int(np.flatnonzero(tokens.word_ids == largest)[0])
        with pytest.raises(MalformedCorpusError, match=rf"token {first}: word_ids"):
            _fit(trainer, tokens, vocabulary_size=largest)

    @pytest.mark.parametrize("topic", [NUM_TOPICS, -2])
    def test_preset_topic_outside_range(self, trainer, topic):
        tokens = _tokens(assigned=True)
        tokens.topics[BAD] = topic
        with pytest.raises(MalformedCorpusError, match=rf"token {BAD}: topics"):
            _fit(trainer, tokens)

    @pytest.mark.parametrize("shape", [(0, VOCABULARY), (NUM_DOCUMENTS, 0)])
    def test_empty_shape(self, trainer, shape):
        with pytest.raises(MalformedCorpusError, match="must be >= 1"):
            _fit(trainer, _tokens(), *shape)

    def test_valid_corpus_still_fits_every_token(self, trainer):
        result = _fit(trainer, _tokens())
        assert int(result.model.word_topic_counts.sum()) == NUM_TOKENS


class TestValidator:
    def test_names_the_first_bad_token_across_fields(self):
        tokens = _tokens(assigned=True)
        tokens.topics[BAD + 3] = NUM_TOPICS
        tokens.word_ids[BAD] = VOCABULARY
        with pytest.raises(MalformedCorpusError) as info:
            validate_training_tokens(tokens, NUM_DOCUMENTS, VOCABULARY, NUM_TOPICS)
        assert (info.value.token_index, info.value.field) == (BAD, "word_ids")

    def test_non_integral_dtype(self):
        tokens = _tokens()
        tokens.doc_ids = tokens.doc_ids.astype(np.float64)
        with pytest.raises(MalformedCorpusError, match="integral") as info:
            validate_training_tokens(tokens, NUM_DOCUMENTS, VOCABULARY, NUM_TOPICS)
        assert info.value.field == "doc_ids"

    def test_is_a_value_error(self):
        assert issubclass(MalformedCorpusError, ValueError)

    def test_unassigned_topics_are_valid(self):
        validate_training_tokens(_tokens(), NUM_DOCUMENTS, VOCABULARY, NUM_TOPICS)


def test_layout_refuses_to_drop_a_token():
    # The layout's own conservation check: whatever reaches it unvalidated
    # must not lose a token to the document partition.
    tokens = _tokens()
    tokens.doc_ids[-1] = NUM_DOCUMENTS
    with pytest.raises(RuntimeError, match=f"{NUM_TOKENS - 1} of {NUM_TOKENS} tokens"):
        build_layout(tokens, NUM_DOCUMENTS, _config(3))
