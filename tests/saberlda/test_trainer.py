"""Tests for the SaberLDA trainer and the ablation runner."""

import numpy as np
import pytest

import repro.saberlda.trainer as trainer_module
from repro.corpus import NYTIMES
from repro.saberlda import SaberLDAConfig, run_ablation, train_saberlda


@pytest.fixture(scope="module")
def small_corpus_module(make_corpus):
    return make_corpus(60, 150, 6, 40, 7)


@pytest.fixture(scope="module")
def trained(small_corpus_module):
    corpus = small_corpus_module
    config = SaberLDAConfig.paper_defaults(
        8, num_iterations=6, num_chunks=2, seed=1, evaluate_every=1
    )
    result = train_saberlda(
        corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size, config
    )
    return corpus, config, result


class TestTrainingResult:
    def test_history_length(self, trained):
        _corpus, config, result = trained
        assert len(result.history) == config.num_iterations

    def test_likelihood_improves(self, trained):
        _corpus, _config, result = trained
        first = result.history[0].log_likelihood_per_token
        last = result.history[-1].log_likelihood_per_token
        assert last > first

    def test_simulated_time_is_cumulative(self, trained):
        _corpus, _config, result = trained
        times = [record.cumulative_simulated_seconds for record in result.history]
        assert all(later > earlier for earlier, later in zip(times, times[1:], strict=False))

    def test_phase_breakdown_sums_to_total(self, trained):
        _corpus, _config, result = trained
        assert sum(result.phase_breakdown().values()) == pytest.approx(
            result.simulated_seconds, rel=1e-6
        )

    def test_doc_topic_counts_match_corpus_size(self, trained):
        corpus, _config, result = trained
        assert result.doc_topic.total_count() == corpus.num_tokens

    def test_model_metadata(self, trained):
        _corpus, config, result = trained
        assert result.model.metadata["system"] == "SaberLDA"
        assert result.model.metadata["num_chunks"] == config.num_chunks

    def test_throughput_positive(self, trained):
        _corpus, _config, result = trained
        assert result.throughput_tokens_per_second() > 0

    def test_convergence_curve_points(self, trained):
        _corpus, config, result = trained
        curve = result.convergence_curve()
        assert len(curve) == config.num_iterations

    def test_deterministic_given_seed(self, small_corpus_module):
        corpus = small_corpus_module
        config = SaberLDAConfig.paper_defaults(6, num_iterations=2, seed=42)
        first = train_saberlda(
            corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size, config
        )
        second = train_saberlda(
            corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size, config
        )
        np.testing.assert_array_equal(
            first.model.word_topic_counts, second.model.word_topic_counts
        )

    def test_mean_doc_nnz_stays_below_topics(self, trained):
        _corpus, config, result = trained
        for record in result.history:
            assert record.mean_doc_nnz <= config.params.num_topics


class TestLayerBoundaries:
    """The e2e benchmark's per-layer table is measured from outside, by
    patching these names; a refactor that stops calling one through its
    module global (or its class) would silently zero that row."""

    MODULE_NAMES = (
        "esca_estep",
        "count_by_word_topic",
        "sparse_training_likelihood",
        "rebuild_doc_topic",
        "build_layout",
        "cost_iteration_phases",
    )

    def test_fit_calls_every_patched_layer(self, small_corpus_module, monkeypatch):
        corpus = small_corpus_module
        calls = {}

        def counted(name, function):
            def shim(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)

            return shim

        for name in self.MODULE_NAMES:
            monkeypatch.setattr(
                trainer_module, name, counted(name, getattr(trainer_module, name))
            )
        # Classmethods, patched the way the benchmark does: a plain
        # function over the bound original, looked up at call time.
        for owner, name in (
            (trainer_module.WordSide, "prepare"),
            (trainer_module.WorkloadStats, "measure"),
        ):
            monkeypatch.setattr(
                owner, name, staticmethod(counted(name, getattr(owner, name)))
            )

        iterations, chunks = 3, 2
        config = SaberLDAConfig.paper_defaults(
            8, num_iterations=iterations, num_chunks=chunks, seed=1, evaluate_every=2
        )
        result = train_saberlda(
            corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size, config
        )
        assert calls == {
            "build_layout": 1,
            "rebuild_doc_topic": iterations + 1,
            "count_by_word_topic": iterations + 1,
            "prepare": iterations + 1,
            "esca_estep": iterations * chunks,
            "measure": iterations,
            "cost_iteration_phases": iterations,
            "sparse_training_likelihood": 2,  # iteration 2, and the last one
        }
        assert result.final_log_likelihood() is not None


class TestTopicRecovery:
    def test_recovers_planted_structure(self, medium_corpus):
        """Training on an LDA-generated corpus should beat the random-assignment likelihood."""
        from repro.core import LDAHyperParams

        config = SaberLDAConfig(
            params=LDAHyperParams(num_topics=10, alpha=0.1, beta=0.01),
            num_iterations=12,
            num_chunks=2,
            seed=0,
        )
        result = train_saberlda(
            medium_corpus.unassigned_copy(),
            medium_corpus.num_documents,
            medium_corpus.vocabulary_size,
            config,
        )
        improvement = (
            result.history[-1].log_likelihood_per_token
            - result.history[0].log_likelihood_per_token
        )
        assert improvement > 0.1


class TestAblationRunner:
    def test_replica_scale_ablation_runs(self, small_corpus_module):
        report = run_ablation(
            small_corpus_module, num_topics=8, measured_iterations=2, reported_iterations=10
        )
        assert [entry.name for entry in report.entries] == ["G0", "G1", "G2", "G3", "G4"]
        assert report.speedup("G0", "G4") > 0

    def test_full_scale_ablation_reproduces_fig9_shape(self, small_corpus_module):
        report = run_ablation(
            small_corpus_module,
            num_topics=1000,
            measured_iterations=2,
            reported_iterations=100,
            descriptor=NYTIMES,
        )
        g0, g1, g2, g3, g4 = (report.entry(name) for name in ["G0", "G1", "G2", "G3", "G4"])
        # PDOW reduces sampling time; the tree removes most of the pre-processing;
        # SSC removes most of the A update; async hides most of the transfer.
        assert g1.phase_seconds["sampling"] < g0.phase_seconds["sampling"]
        assert g2.phase_seconds["preprocessing"] < 0.2 * g1.phase_seconds["preprocessing"]
        assert g3.phase_seconds["a_update"] < 0.5 * g2.phase_seconds["a_update"]
        assert g4.phase_seconds["transfer"] < g3.phase_seconds["transfer"]
        assert report.speedup("G0", "G4") > 1.5

    def test_unknown_entry_raises(self, small_corpus_module):
        report = run_ablation(
            small_corpus_module, num_topics=8, measured_iterations=1, reported_iterations=1
        )
        with pytest.raises(KeyError):
            report.entry("G9")
