"""Smoke test of the e2e benchmark on the scaled-down specs (~12 s).

Checks the harness, not the numbers: every declared metric is printed
under a well-formed name, counts that must repeat at a fixed seed do,
the checks inside the run pass, and ``--compare`` of a result file with
itself reports no regression.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import e2e_inputs
import e2e_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 5
SECONDS = 2

#: Per-layer rows that are counts or simulated figures: equal across two
#: runs of one seed, whatever the machine does.
EXACT = (
    "saberlda.trainer.mean_doc_nnz",
    "kernels.estep.calls",
    "kernels.estep.doc_branch_frac",
    "core.likelihood.temp_mb",
    "core.likelihood.nll_per_token",
    "gpusim.sim_tokens_per_s",
    "gpusim.sim_sampling_s",
    "gpusim.serve_sim_s",
    "core.serialization.ckpt_mb",
    "serving.workers.reply_bytes_per_req",
    "serving.foldin.sampler_builds",
    "serving.foldin.sampler_hits",
    "serving.foldin.construction_steps",
    "serving.workers.retries",
    "serving.workers.fallback_batches",
    "serving.workers.respawns",
)


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )


def contract_result(workload: str, trace: int) -> dict:
    finished = run_benchmark(
        "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
        "--trace", str(trace),
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    """One full table (untraced run + traced run) of ``smoke_trained``."""
    path = tmp_path_factory.mktemp("e2e") / "report.json"
    finished = run_benchmark(
        "--workload", "smoke_trained", "--seed", str(SEED), "--seconds", str(SECONDS),
        "--out", str(path),
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    with open(path, encoding="utf-8") as handle:
        return {"path": str(path), "stdout": finished.stdout, **json.load(handle)}


def test_manifest_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == e2e_spec.manifest()
    names = [name for name, *_ in e2e_spec.END_TO_END + e2e_spec.PER_LAYER]
    names += [spec.name for spec in e2e_spec.WORKLOADS]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in names


def test_generator_writes_identical_bytes_for_one_seed(tmp_path):
    spec = e2e_spec.workload("smoke_synthetic")
    for name in ("first", "second"):
        arrays = e2e_inputs.generate(spec, SEED, spec.stream_counts(SECONDS))
        e2e_inputs.write(arrays, str(tmp_path / name))
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second")) and "model_counts.npy" in names
    for name in names:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
    other = e2e_inputs.generate(spec, SEED + 1, spec.stream_counts(SECONDS))
    assert not (other["corpus_word_ids"][:50] == arrays["corpus_word_ids"][:50]).all()


def test_report_prints_every_declared_metric(report):
    table = report["workloads"]["smoke_trained"]
    assert report["correct"] is True and table["problems"] == []
    for name, unit, _, _ in e2e_spec.END_TO_END:
        entry = table["end_to_end"][name]
        assert entry["unit"] == unit and entry["samples"] and entry["repeats"]
        assert f"{name} " in report["stdout"]
    for name, unit, _ in e2e_spec.PER_LAYER:
        assert table["per_layer"][name]["unit"] == unit
        assert f"{name} " in report["stdout"]
    for key in ("schema", "git_sha", "seed", "nproc", "cpu_model", "python", "numpy"):
        assert key in report
    assert os.path.exists(os.path.join(ROOT, table["trace_path"]))


def test_counts_repeat_exactly_at_a_fixed_seed(report):
    first = report["workloads"]["smoke_trained"]["per_layer"]
    second = contract_result("smoke_trained", trace=1)["metrics"]
    assert sorted(second) == sorted(name for name, *_ in e2e_spec.PER_LAYER)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_synthetic_model_workload_runs():
    metrics = contract_result("smoke_synthetic", trace=0)["metrics"]
    assert sorted(metrics) == sorted(name for name, *_ in e2e_spec.END_TO_END)
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_compare_with_itself_is_clean(report):
    finished = run_benchmark("--compare", report["path"], report["path"])
    assert finished.returncode == 0, finished.stdout + finished.stderr
    assert "regressed" not in finished.stdout.replace("0 regressed", "")
    assert finished.stdout.count("smoke_trained") == len(e2e_spec.END_TO_END)
