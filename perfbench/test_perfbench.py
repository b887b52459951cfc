"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _result(capsys, workload, trace, tmp_path):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
        "--size", "smoke", "--spans-out", str(tmp_path),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, "\n".join(lines)
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(capsys, tmp_path, workload, trace):
    lines, result = _result(capsys, workload, trace, tmp_path)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']} (n=" in line for line in lines)
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_vendor",
                "blas_threads_set", "loadavg_start", "loadavg_end"):
        assert key in env
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.jsonl").stat().st_size > 0
    if trace and workload != "train-pooled":
        assert result["metrics"]["protocol.validate_calls"]["value"] > 0
        assert result["metrics"]["transport.frames"]["value"] in (12, 24)


def test_traced_run_leaves_the_program_unpatched(capsys, tmp_path):
    from msbls import bls, experiment, protocol, transport

    before = (experiment.run_protocol, protocol.as_matrix, protocol.Party.handle,
              transport.encode_message, bls.ridge_solve, protocol.ProtocolMessage)
    _result(capsys, "train-tcp", 1, tmp_path)
    after = (experiment.run_protocol, protocol.as_matrix, protocol.Party.handle,
             transport.encode_message, bls.ridge_solve, protocol.ProtocolMessage)
    assert before == after


@pytest.fixture(scope="module")
def masked():
    wl = workloads.WORKLOADS["train-inproc"](3, workloads.SMOKE)
    wl.setup()
    return wl


def test_clean_masked_op_passes(masked):
    assert masked.check(0, masked.op(0)).problems == []


def test_corrupted_prediction_fails_the_op(masked):
    result = masked.op(0)
    result.test_predictions[0] = (result.test_predictions[0] + 1) % masked.test.num_classes
    problems = masked.check(0, result).problems
    assert any("predictions" in p for p in problems)


def test_wrong_feature_block_fails_the_op(masked):
    result = masked.op(0)
    n_a = len(result.train_labels) // 2
    result.train_mapped[:n_a] = result.train_mapped[:n_a][::-1].copy()
    problems = masked.check(0, result).problems
    assert any("train_mapped" in p for p in problems)


def test_corrupted_batch_fails_the_op():
    wl = workloads.WORKLOADS["predict-tcp"](3, workloads.SMOKE)
    wl.setup()
    try:
        session, predictions, tapped, run_s = wl.op(0)
        predictions = predictions.copy()
        predictions[0] = (predictions[0] + 1) % 10
        problems = wl.check(0, (session, predictions, tapped, run_s)).problems
        assert any("predictions" in p for p in problems)
        session.mapped_features[0] += 1.0
        problems = wl.check(0, (session, predictions, tapped, run_s)).problems
        assert any("features" in p for p in problems)
    finally:
        wl.close()


def test_loop_counts_a_corrupted_op_as_failed(masked, monkeypatch):
    op = masked.op

    def corrupt(i):
        result = op(i)
        result.test_predictions[:] = (result.test_predictions + 1) % masked.test.num_classes
        return result

    monkeypatch.setattr(masked, "op", corrupt)
    records = run.timed_loop(masked, 0.0, 0, 2)
    assert records and all(r.outcome.problems for r in records)


def test_same_seed_gives_same_inputs():
    a = workloads.WORKLOADS["train-pooled"](5, workloads.SMOKE)
    b = workloads.WORKLOADS["train-pooled"](5, workloads.SMOKE)
    a.setup()
    b.setup()
    assert np.array_equal(a.train.x, b.train.x) and a.op_seeds == b.op_seeds
