import dataclasses
import gc
import json
import os
import re
import socket
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from msbls import bls, datasets, experiment, protocol, transport
from msbls.bls import (
    BlsHyperParams,
    augment,
    enhancement_features,
    generate_enhancement_keys,
    generate_map_key_half,
    generate_mix_key,
    joint_mapped_features,
    predict_labels,
    readout_scores,
    train_output_weights,
)
from msbls.cli import main
from msbls.datasets import LabeledDataset, SplitPlan, desk_dataset, write_idx
from msbls.experiment import (
    ExperimentConfig,
    accuracy,
    load_experiment_data,
    run_experiment,
    run_msbls,
    run_non_privacy,
    run_single_party,
    summary_table,
)
from msbls.linalg import RngStream, SolverError

SMALL_HYPER = BlsHyperParams(map_groups=2, map_dim=6, enh_groups=1, enh_dim=40, seed=0)


def small_config(**kwargs):
    defaults = dict(
        split=SplitPlan(mode="quantity", ratio_a=0.5),
        hyper=SMALL_HYPER,
        baselines=("msbls", "nbls"),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_half(self):
        assert accuracy([1, 0], [1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])


class TestPairedRuns:
    def test_zero_masks_give_bitwise_identical_readout(self, small_desk_data):
        train, test = small_desk_data
        cfg = small_config(zero_masks=True)
        masked = run_msbls(train, test, cfg, seed=1)
        pooled = run_non_privacy(train, test, cfg, seed=1)
        assert np.array_equal(masked.train_mapped, pooled.train_mapped)
        assert np.array_equal(
            masked.model.output_weights, pooled.model.output_weights
        )
        assert masked.report.train_accuracy == pooled.report.train_accuracy
        assert masked.report.test_accuracy == pooled.report.test_accuracy

    def test_masked_accuracy_gap_within_half_point(self, small_desk_data):
        train, test = small_desk_data
        cfg = small_config()
        masked = run_msbls(train, test, cfg, seed=2)
        pooled = run_non_privacy(train, test, cfg, seed=2)
        gap = abs(masked.report.test_accuracy - pooled.report.test_accuracy)
        assert gap <= 0.005

    def test_msbls_reports_twelve_messages(self, small_desk_data):
        train, test = small_desk_data
        result = run_msbls(train, test, small_config(), seed=3)
        assert result.report.message_count == 12
        assert result.report.bytes_on_wire > 0

    def test_same_seed_same_model(self, small_desk_data):
        train, test = small_desk_data
        cfg = small_config()
        first = run_msbls(train, test, cfg, seed=4)
        second = run_msbls(train, test, cfg, seed=4)
        assert np.array_equal(first.model.output_weights, second.model.output_weights)
        assert first.report.test_accuracy == second.report.test_accuracy


class TestFinishedRunKeepsNoPartyState:
    def test_parties_die_while_the_result_is_held(self, small_desk_data, monkeypatch):
        # Each party holds masks, blinded rows and its inputs; a finished run
        # needs only the sessions' features, keys and transcripts.
        train, test = small_desk_data
        refs = []
        run_protocol = experiment.run_protocol

        def keep_refs(*args, **kwargs):
            session = run_protocol(*args, **kwargs)
            refs.extend(weakref.ref(party) for party in session.parties.values())
            return session

        monkeypatch.setattr(experiment, "run_protocol", keep_refs)
        result = run_msbls(train, test, small_config(), seed=0)
        gc.collect()
        assert len(refs) == 6
        assert [ref() for ref in refs] == [None] * 6
        train_session, test_session = result.train_sessions
        assert train_session.keys.mix_key is result.model.mix_key
        assert len(train_session.transcript) == len(test_session.transcript) == 12


class TestSplitRowsReleased:
    @pytest.mark.parametrize("runner", [run_non_privacy, run_msbls])
    def test_training_split_is_gone_before_the_readout(self, small_desk_data, monkeypatch, runner):
        # Once the training features exist, nothing reads the split's row copies.
        train, test = small_desk_data
        refs, alive = [], []
        split, fit = experiment.split_dataset, bls.train_output_weights

        def spy_split(ds, plan):
            parts = split(ds, plan)
            refs.append([weakref.ref(part.x) for part in parts])
            return parts

        def spy_fit(*args, **kwargs):
            alive.append([ref() is not None for ref in refs[0]])
            return fit(*args, **kwargs)

        monkeypatch.setattr(experiment, "split_dataset", spy_split)
        monkeypatch.setattr(bls, "train_output_weights", spy_fit)
        runner(train, test, small_config(), seed=0)
        assert alive == [[False, False]]


class TestDeskTargets:
    def test_pooled_baseline_reaches_target_accuracy(self, desk_data):
        # Expected level established by running this plaintext oracle itself.
        train, test = desk_data
        cfg = ExperimentConfig(
            split=SplitPlan(mode="quantity", ratio_a=0.5),
            hyper=BlsHyperParams(),
            baselines=("nbls",),
        )
        result = run_non_privacy(train, test, cfg, seed=0)
        assert result.report.test_accuracy >= 0.90


class TestFusionErasesSplit:
    def test_pooled_model_independent_of_partition_given_row_order(self):
        # Two different partitions of the same pooled rows; restoring the
        # original row order must give the same model up to solver noise.
        rng = np.random.default_rng(0)
        n, d = 60, 5
        x = rng.uniform(0, 1, (n, d))
        labels = rng.integers(0, 3, n)
        hyper = BlsHyperParams(map_groups=2, map_dim=4, enh_groups=1, enh_dim=10)
        key_a = generate_map_key_half(d, hyper, RngStream(1))
        key_b = generate_map_key_half(d, hyper, RngStream(2))
        mix = generate_mix_key(hyper, RngStream(3))
        enh = generate_enhancement_keys(hyper, RngStream(4))

        def model_for(ratio, seed):
            perm = np.random.default_rng(seed).permutation(n)
            take = int(round(ratio * n))
            idx_a, idx_b = np.sort(perm[:take]), np.sort(perm[take:])
            zn = joint_mapped_features(x[idx_a], x[idx_b], key_a, key_b, mix)
            order = np.concatenate([idx_a, idx_b])
            inverse = np.argsort(order)
            zn = zn[inverse]
            hm = enhancement_features(zn, enh, "tanh")
            y = np.eye(3)[labels]
            w = train_output_weights(zn, hm, y, 1e-8)
            return w, predict_labels(np.hstack([zn, hm]), w)

        w1, pred1 = model_for(0.5, seed=10)
        w2, pred2 = model_for(0.05, seed=11)
        assert np.max(np.abs(w1 - w2)) < 1e-8
        assert np.array_equal(pred1, pred2)


class TestSingleParty:
    def test_small_shard_below_large_shard(self, small_desk_data):
        train, test = small_desk_data
        cfg = small_config(split=SplitPlan(mode="quantity", ratio_a=0.05),
                           baselines=("sbls",))
        small_accs, large_accs = [], []
        for seed in range(5):
            sp = run_single_party(train, test, cfg, seed=seed)
            small_accs.append(sp.client_a.report.test_accuracy)
            large_accs.append(sp.client_b.report.test_accuracy)
        assert np.mean(small_accs) < np.mean(large_accs)

    def test_single_class_shard_dominates_its_own_class(self):
        rng = np.random.default_rng(5)
        x0 = np.clip(rng.normal(0.25, 0.05, (40, 6)), 0, 1)
        x1 = np.clip(rng.normal(0.75, 0.05, (40, 6)), 0, 1)
        train = LabeledDataset(
            x=np.vstack([x0, x1]),
            labels=np.repeat([0, 1], 40),
            num_classes=2,
            name="two-blob",
        )
        test = LabeledDataset(
            x=np.clip(rng.normal(0.25, 0.05, (20, 6)), 0, 1),
            labels=np.zeros(20, dtype=int),
            num_classes=2,
            name="class0-only",
        )
        hyper = BlsHyperParams(map_groups=2, map_dim=2, enh_groups=1, enh_dim=8)
        shard = LabeledDataset(x=x0, labels=np.zeros(40, dtype=int), num_classes=2,
                               name="shard0")
        cfg = ExperimentConfig(hyper=hyper, baselines=("sbls",))
        from msbls.experiment import _run_own_model

        result = _run_own_model(shard, test, cfg, seed=0, stream=RngStream(6), tag="sbls_a")
        assert np.mean(result.test_predictions == 0) > 0.9

    def test_mean_report_retains_both_sides(self, small_desk_data):
        train, test = small_desk_data
        cfg = small_config(baselines=("sbls",))
        sp = run_single_party(train, test, cfg, seed=0)
        expected = (
            sp.client_a.report.test_accuracy + sp.client_b.report.test_accuracy
        ) / 2
        assert sp.mean_report.test_accuracy == pytest.approx(expected)
        assert sp.client_a.report.baseline == "sbls_a"
        assert sp.client_b.report.baseline == "sbls_b"
        assert sp.mean_report.baseline == "sbls"

    def test_mean_report_own_fields(self, small_desk_data):
        train, test = small_desk_data
        sp = run_single_party(train, test, small_config(baselines=("sbls",)), seed=0)
        a, b, mean = sp.client_a.report, sp.client_b.report, sp.mean_report
        assert mean.dataset == train.name
        assert a.dataset != train.name and b.dataset != train.name
        assert mean.train_time_s == a.train_time_s + b.train_time_s
        assert mean.train_accuracy == (a.train_accuracy + b.train_accuracy) / 2
        assert (mean.message_count, mean.bytes_on_wire) == (0, 0)
        assert (mean.seed, mean.split, mean.config) == (a.seed, a.split, a.config)


class TestRunExperiment:
    def test_reports_complete_and_serializable(self, small_desk_data, tmp_path):
        train, test = small_desk_data
        out = tmp_path / "metrics.jsonl"
        cfg = small_config(baselines=("msbls", "nbls", "sbls"), reps=2, out=str(out))
        reports = run_experiment(cfg, train, test)
        # 2 reps x (msbls + nbls + 3 single-party records)
        assert len(reports) == 10
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        for line in lines:
            record = json.loads(line)
            for field in (
                "baseline", "seed", "train_accuracy", "test_accuracy",
                "train_time_s", "message_count", "bytes_on_wire", "rng_algorithm",
            ):
                assert field in record
            assert 0.0 <= record["train_accuracy"] <= 1.0
            assert 0.0 <= record["test_accuracy"] <= 1.0
            if record["baseline"] == "msbls":
                assert record["message_count"] == 12

    def test_summary_table_mentions_every_baseline(self, small_desk_data):
        train, test = small_desk_data
        reports = run_experiment(small_config(baselines=("msbls", "nbls")), train, test)
        table = summary_table(reports)
        assert "msbls" in table and "nbls" in table

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(baselines=())
        with pytest.raises(ValueError):
            ExperimentConfig(baselines=("msbls", "gan"))
        with pytest.raises(ValueError):
            ExperimentConfig(reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(transport="carrier-pigeon")


class TestNumpyIsTheOnlyRuntime:
    """With scipy made unimportable, the CLI imports and a run of every
    baseline completes, under tanh and under sigmoid, and loads no scipy."""

    SCRIPT = """
import sys
sys.modules["scipy"] = None
import msbls.cli
from msbls.bls import BlsHyperParams
from msbls.experiment import ExperimentConfig, run_experiment
for activation in ("tanh", "sigmoid"):
    config = ExperimentConfig(train_size=200, test_size=50, baselines=("msbls", "nbls", "sbls"),
                              hyper=BlsHyperParams(activation=activation))
    reports = run_experiment(config)
    assert [r.baseline for r in reports] == ["msbls", "nbls", "sbls_a", "sbls_b", "sbls"]
    assert all(0.0 < r.gram_rcond <= 1.0 for r in reports)
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""

    def test_cli_and_every_baseline_run_without_scipy(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestCli:
    def test_smoke_run_with_summary(self, tmp_path):
        out = tmp_path / "m.jsonl"
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "--dataset", "synthetic", "--train-size", "300", "--test-size", "80",
                "--n", "2", "--dz", "6", "--m", "1", "--dh", "30",
                "--baselines", "msbls,nbls", "--split", "quantity:0.4",
                "--seed", "3", "--out", str(out), "--summary",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.startswith("{")]
        assert len(lines) == 2
        assert out.exists()
        assert "baseline" in result.output

    def test_zero_mask_flag_matches_nbls(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "--dataset", "synthetic", "--train-size", "200", "--test-size", "50",
                "--n", "2", "--dz", "4", "--dh", "20",
                "--baselines", "msbls,nbls", "--zero-masks",
            ],
        )
        assert result.exit_code == 0, result.output
        records = [json.loads(l) for l in result.output.splitlines() if l.startswith("{")]
        msbls = next(r for r in records if r["baseline"] == "msbls")
        nbls = next(r for r in records if r["baseline"] == "nbls")
        assert msbls["test_accuracy"] == nbls["test_accuracy"]
        assert msbls["train_accuracy"] == nbls["train_accuracy"]

    def test_bad_split_errors_cleanly(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--split", "sideways"])
        assert result.exit_code == 1
        assert "error" in result.output.lower()

    def test_odd_width_errors_cleanly(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--n", "1", "--dz", "3"])
        assert result.exit_code == 1
        assert "even" in result.output

    @pytest.mark.parametrize("role", ["foo", "client_b"])
    def test_listen_rejects_roles_that_do_not_listen(self, role):
        result = CliRunner().invoke(main, ["--transport", "tcp", "--listen", f"{role}=127.0.0.1:0"])
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output
        assert repr(role) in result.output

    def test_listen_on_the_server_still_runs(self):
        result = CliRunner().invoke(
            main,
            [
                "--dataset", "synthetic", "--train-size", "200", "--test-size", "50",
                "--n", "2", "--dz", "4", "--dh", "20", "--baselines", "msbls",
                "--transport", "tcp", "--listen", "server=127.0.0.1:0",
            ],
        )
        assert result.exit_code == 0, result.output
        (record,) = [json.loads(l) for l in result.output.splitlines() if l.startswith("{")]
        assert (record["message_count"], record["config"]["transport"]) == (12, "tcp")

    def test_listen_naming_a_role_twice_is_a_usage_error(self):
        result = CliRunner().invoke(
            main,
            ["--train-size", "200", "--test-size", "40", "--baselines", "msbls", "--transport", "tcp",
             "--listen", "server=127.0.0.1:0", "--listen", "server=127.0.0.1:1"],
        )
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output
        assert "role 'server' is given more than once" in result.output

    def test_listen_without_an_address_is_a_usage_error(self):
        result = CliRunner().invoke(main, ["--transport", "tcp", "--listen", "server"])
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output
        assert "expected ROLE=HOST:PORT, got 'server'" in result.output

    def test_busy_listen_port_errors_cleanly(self):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            result = CliRunner().invoke(
                main,
                [
                    "--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
                    "--dh", "20", "--baselines", "msbls",
                    "--transport", "tcp", "--listen", f"server=127.0.0.1:{port}",
                ],
            )
        assert result.exit_code == 1, result.output
        assert "error: tcp setup failed" in result.output

    def test_protocol_abort_errors_cleanly(self, monkeypatch):
        encode = transport.encode_message

        def flip_a_byte_of_seq3(msg):
            frame = bytearray(encode(msg))
            if msg.seq == 3:
                frame[len(frame) // 2] ^= 0xFF
            return bytes(frame)

        monkeypatch.setattr(transport, "encode_message", flip_a_byte_of_seq3)
        result = CliRunner().invoke(
            main,
            [
                "--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
                "--dh", "20", "--baselines", "msbls", "--transport", "tcp",
            ],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == "error: CLIENT_B aborted at seq 3: FrameError: checksum mismatch\n"


class TestTimeoutVariable:
    """MSBLS_TIMEOUT_MS is read and checked once per session: a value that is
    not a positive finite count of milliseconds ends a masked run with exit 1
    before any party starts, and never breaks a run that does not read it."""

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "nan", "inf"])
    def test_bad_value_ends_a_masked_run_cleanly(self, value, monkeypatch):
        started = []
        monkeypatch.setattr(protocol, "_drive_in_order", lambda *args: started.append(args))
        monkeypatch.setenv("MSBLS_TIMEOUT_MS", value)
        result = CliRunner().invoke(
            main,
            [
                "--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
                "--dh", "20", "--baselines", "msbls",
            ],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith("error: MSBLS_TIMEOUT_MS must be"), result.output
        assert f"got {value!r}" in result.output
        assert started == []

    def test_help_ignores_the_value(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, MSBLS_TIMEOUT_MS="abc")
        paths = [os.path.join(root, "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        proc = subprocess.run(
            [sys.executable, "-m", "msbls.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Usage:" in proc.stdout

    def test_pooled_run_ignores_the_value(self, monkeypatch):
        monkeypatch.setenv("MSBLS_TIMEOUT_MS", "abc")
        result = CliRunner().invoke(
            main,
            ["--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
             "--dh", "20", "--baselines", "nbls"],
        )
        assert result.exit_code == 0, result.output


@pytest.fixture
def idx_paths(tmp_path):
    names = ("train-images", "train-labels", "test-images", "test-labels")
    for name in names:
        (tmp_path / name).write_bytes(b"")
    return [arg for name in names for arg in (f"--{name}", str(tmp_path / name))]


class TestIgnoredOptionsRejected:
    """Options the run would not use end it with exit 1 before any work."""

    def _assert_rejected(self, args, phrase):
        result = CliRunner().invoke(main, ["--train-size", "200", "--test-size", "50", *args])
        assert result.exit_code == 1, result.output
        assert "error:" in result.output and phrase in result.output

    def test_data_dir_with_synthetic_dataset(self):
        self._assert_rejected(["--data-dir", "/no/such/dir"], "data_dir")

    def test_data_dir_with_all_four_idx_paths(self, idx_paths, tmp_path):
        self._assert_rejected(
            ["--dataset", "mnist", *idx_paths, "--data-dir", str(tmp_path)], "data_dir"
        )

    def test_some_but_not_all_idx_paths(self, idx_paths):
        self._assert_rejected(idx_paths[:4], "all four")

    def test_listen_without_tcp_transport(self):
        self._assert_rejected(["--listen", "server=127.0.0.1:0"], "tcp")


class TestDataSource:
    @pytest.fixture
    def idx_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MSBLS_DATA_DIR", raising=False)
        train, test = desk_dataset(train_n=60, test_n=20)
        write_idx(train, tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
        write_idx(test, tmp_path / "t10k-images-idx3-ubyte", tmp_path / "t10k-labels-idx1-ubyte")
        monkeypatch.setenv("MSBLS_DATA_DIR", str(tmp_path))
        return tmp_path

    def test_synthetic_ignores_data_dir_env(self, idx_dir):
        train, test = load_experiment_data(
            ExperimentConfig(dataset="synthetic", train_size=50, test_size=10)
        )
        assert (train.name, test.name) == ("synthetic-train", "synthetic-test")

    def test_named_dataset_without_a_source_names_all_three(self, monkeypatch):
        monkeypatch.delenv("MSBLS_DATA_DIR", raising=False)
        result = CliRunner().invoke(main, ["--dataset", "mnist"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == (
            "error: dataset 'mnist' needs --*-images/--*-labels paths, --data-dir "
            "or MSBLS_DATA_DIR\n"
        )

    def test_named_dataset_reads_data_dir_env(self, idx_dir):
        train, test = load_experiment_data(
            ExperimentConfig(dataset="mnist", train_size=50, test_size=10)
        )
        assert (train.name, test.name, len(train), len(test)) == ("idx-train", "idx-test", 50, 10)


class TestIdxSource:
    """Explicit IDX paths and --data-dir feed one loader: the same rows, sized
    by --train-size/--test-size."""

    @pytest.fixture
    def idx_files(self, tmp_path, monkeypatch):
        """300/80-row IDX files under their conventional names, as CLI paths."""
        monkeypatch.delenv("MSBLS_DATA_DIR", raising=False)
        train, test = desk_dataset(train_n=300, test_n=80)
        files = {
            "--train-images": tmp_path / "train-images-idx3-ubyte",
            "--train-labels": tmp_path / "train-labels-idx1-ubyte",
            "--test-images": tmp_path / "t10k-images-idx3-ubyte",
            "--test-labels": tmp_path / "t10k-labels-idx1-ubyte",
        }
        write_idx(train, files["--train-images"], files["--train-labels"])
        write_idx(test, files["--test-images"], files["--test-labels"])
        return tmp_path, [arg for opt, path in files.items() for arg in (opt, str(path))]

    def _invoke(self, *args):
        return CliRunner().invoke(
            main,
            ["--n", "2", "--dz", "4", "--dh", "20", "--baselines", "nbls", *args],
        )

    def test_synthetic_with_idx_paths_rejected(self, idx_files):
        _, paths = idx_files
        result = self._invoke("--dataset", "synthetic", *paths)
        assert result.exit_code == 1, result.output
        assert "error:" in result.output and "IDX paths" in result.output

    def test_paths_honour_sizes_and_match_data_dir(self, idx_files):
        data_dir, paths = idx_files
        by_path = load_experiment_data(ExperimentConfig(
            dataset="mnist", train_size=50, test_size=10,
            train_images=paths[1], train_labels=paths[3],
            test_images=paths[5], test_labels=paths[7],
        ))
        by_dir = load_experiment_data(
            ExperimentConfig(dataset="mnist", data_dir=str(data_dir), train_size=50, test_size=10)
        )
        assert [(ds.name, len(ds)) for ds in by_path] == [("idx-train", 50), ("idx-test", 10)]
        for a, b in zip(by_path, by_dir):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)
            assert a.name == b.name

        result = self._invoke(
            "--dataset", "mnist", *paths, "--train-size", "50", "--test-size", "10"
        )
        assert result.exit_code == 0, result.output
        (record,) = [json.loads(l) for l in result.output.splitlines() if l.startswith("{")]
        assert record["dataset"] == "idx-train"

    @pytest.mark.parametrize(
        "option, size, rows", [("--train-size", 301, 300), ("--test-size", 0, 80)]
    )
    def test_size_outside_file_rows_rejected(self, idx_files, option, size, rows):
        _, paths = idx_files
        result = self._invoke("--dataset", "mnist", *paths, "--train-size", "50",
                              "--test-size", "10", option, str(size))
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert f"size {size} " in result.output and f"{rows}," in result.output

    def test_empty_data_dir_raises_without_generating_data(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MSBLS_DATA_DIR", raising=False)

        def no_synthetic(*args, **kwargs):
            raise AssertionError("a missing IDX directory must not build synthetic data")

        monkeypatch.setattr(datasets, "synthetic_image_dataset", no_synthetic)
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path))):
            load_experiment_data(ExperimentConfig(dataset="mnist", data_dir=str(tmp_path)))


class TestOutOfRangeValuesRejected:
    """A size below 1 or a mask range without a finite positive span ends the
    run with exit 1 and an error naming the field and the value, never a traceback."""

    @pytest.mark.parametrize("option, value, shown", [
        ("--train-size", "0", "0"),
        ("--train-size", "-5", "-5"),
        ("--test-size", "0", "0"),
        ("--test-size", "-5", "-5"),
        ("--mask-range", "inf", "inf"),
        ("--mask-range", "nan", "nan"),
        ("--mask-range", "1e308", "1e+308"),
        ("--mask-range", "-1", "-1.0"),
        ("--mask-range", "0", "0.0"),
    ])
    def test_rejected_cleanly(self, option, value, shown):
        result = CliRunner().invoke(
            main,
            [
                "--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
                "--dh", "20", "--baselines", "msbls,nbls", option, value,
            ],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        field = option[2:].replace("-", "_")
        assert result.output.startswith(f"error: {field} must be"), result.output
        assert f"got {shown}" in result.output


class TestRangesCheckedWithoutAMaskedRun:
    """The mask range and the ridge are checked for every run, so a non-finite
    value never reaches the JSON report as Infinity or NaN."""

    @staticmethod
    def invoke(*args):
        return CliRunner().invoke(
            main,
            ["--train-size", "300", "--test-size", "60", "--n", "2", "--dz", "4",
             "--dh", "20", *args],
        )

    @pytest.mark.parametrize("baseline", ["nbls", "sbls"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_mask_range_rejected(self, baseline, value):
        result = self.invoke("--baselines", baseline, "--mask-range", value)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith("error: mask_range must be in"), result.output

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_ridge_rejected(self, value):
        result = self.invoke("--baselines", "nbls", "--lambda", value)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith("error: ridge must be"), result.output
        assert f"got {value}" in result.output


class TestChoiceLists:
    """The library owns the dataset, transport and baseline lists; the config
    checks them and the CLI offers exactly them."""

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset 'foo'"):
            ExperimentConfig(dataset="foo")

    def test_help_offers_the_library_lists(self):
        result = CliRunner().invoke(main, ["--help"])
        assert result.exit_code == 0, result.output
        assert f"[{'|'.join(experiment.DATASETS)}]" in result.output
        assert f"[{'|'.join(experiment.TRANSPORTS)}]" in result.output

    def test_options_are_the_config_fields(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"hyper"}
        fields |= {f.name for f in dataclasses.fields(BlsHyperParams)}
        assert {p.name for p in main.params} == fields | {"show_summary"}


class TestSetupErrorsEndCleanly:
    def test_failed_readout_solve_errors_cleanly(self):
        # A mapped width (800) above the augmented input width (785) leaves the
        # Gram matrix singular at the default ridge.
        result = CliRunner().invoke(
            main,
            ["--train-size", "1000", "--test-size", "50", "--n", "80", "--dz", "10",
             "--dh", "10", "--baselines", "nbls"],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith("error: positive-definite factorization failed"), result.output
        assert "Traceback" not in result.output

    def test_listen_port_out_of_range_is_a_usage_error(self):
        result = CliRunner().invoke(
            main,
            ["--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4", "--dh", "20",
             "--baselines", "msbls", "--transport", "tcp", "--listen", "server=127.0.0.1:70000"],
        )
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output
        assert "'server=127.0.0.1:70000'" in result.output


TRANSPORT_FACTORIES = [("inproc", "make_bus_endpoints"), ("tcp", "make_tcp_endpoints")]


class TestOneTrioPerRun:
    """Both sessions of a masked run share one endpoint trio, and every
    endpoint of it is closed when the run returns or raises."""

    @staticmethod
    def spy(monkeypatch, factory_name):
        made, closed = [], []
        factory = getattr(experiment, factory_name)

        def spy_factory(*args, **kwargs):
            endpoints = factory(*args, **kwargs)
            for ep in endpoints.values():
                def counted_close(ep=ep, close=ep.close):
                    closed.append(ep)
                    close()
                ep.close = counted_close
            made.append(endpoints)
            return endpoints

        monkeypatch.setattr(experiment, factory_name, spy_factory)
        return made, closed

    @staticmethod
    def assert_all_closed(made, closed):
        assert len(made) == 1
        assert all(ep in closed for ep in made[0].values())

    @pytest.mark.parametrize("transport_name, factory_name", TRANSPORT_FACTORIES)
    def test_one_trio_closed_on_return(self, small_desk_data, monkeypatch,
                                       transport_name, factory_name):
        train, test = small_desk_data
        made, closed = self.spy(monkeypatch, factory_name)
        result = run_msbls(train, test, small_config(transport=transport_name), seed=0)
        assert len(result.train_sessions) == 2
        self.assert_all_closed(made, closed)

    @pytest.mark.parametrize("transport_name, factory_name", TRANSPORT_FACTORIES)
    def test_abort_in_the_test_session_closes_the_trio(self, small_desk_data, monkeypatch,
                                                       transport_name, factory_name):
        train, test = small_desk_data
        made, closed = self.spy(monkeypatch, factory_name)
        run_protocol = experiment.run_protocol
        calls = []

        def abort_the_second(*args, **kwargs):
            calls.append(kwargs["endpoints"])
            if len(calls) == 2:
                raise protocol.ProtocolAbort(protocol.Role.SERVER, 1, "injected")
            return run_protocol(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_protocol", abort_the_second)
        with pytest.raises(protocol.ProtocolAbort, match="injected"):
            run_msbls(train, test, small_config(transport=transport_name), seed=0)
        assert len(calls) == 2 and calls[0] is calls[1] is made[0]
        self.assert_all_closed(made, closed)


class TestReadoutAppliesTheModel:
    """Test-row predictions are the stored model's stacked readout bit for
    bit, and the reported test accuracy recounts them."""

    @pytest.mark.parametrize("runner", [
        run_msbls,
        run_non_privacy,
        lambda *args: run_single_party(*args).client_a,
    ], ids=["msbls", "nbls", "sbls_a"])
    def test_predictions_recomputed_from_the_model(self, small_desk_data, runner):
        train, test = small_desk_data
        result = runner(train, test, small_config(), 0)
        model = result.model
        hm = enhancement_features(
            result.test_mapped, model.enhancement_keys, model.hyperparams.activation
        )
        expected = predict_labels(np.hstack([result.test_mapped, hm]), model.output_weights)
        assert np.array_equal(result.test_predictions, expected)
        assert result.report.test_accuracy == accuracy(expected, result.test_labels)


class TestOneScoringPath:
    """Test rows are scored from their feature blocks, as training rows are.

    The block sum rounds differently from the stacked product that
    ``predict_labels`` takes; the difference must stay far below both the
    scores and the gap between each row's top two scores, or a drift back
    toward an ill-conditioned readout could flip a prediction.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("runner", [
        run_msbls,
        run_non_privacy,
        lambda *args: run_single_party(*args).client_a,
    ], ids=["msbls", "nbls", "sbls_a"])
    def test_block_scores_match_the_stacked_readout(self, small_desk_data, runner, seed):
        train, test = small_desk_data
        result = runner(train, test, small_config(), seed)
        model = result.model
        zn = result.test_mapped
        hm = enhancement_features(zn, model.enhancement_keys, model.hyperparams.activation)
        block = readout_scores(zn, hm, model.output_weights)
        stacked = np.hstack([zn, hm]) @ model.output_weights
        assert np.array_equal(result.test_predictions, np.argmax(block, axis=1))
        diff = np.max(np.abs(block - stacked))
        assert diff < 1e-10 * np.max(np.abs(block))
        top2 = np.sort(block, axis=1)[:, -2:]
        assert diff < 1e-3 * np.min(top2[:, 1] - top2[:, 0])


class TestRepeatedBaselineAndNegativeSeedRejected:
    """Both end with exit 1 and an error naming the value, before any data is built."""

    @pytest.mark.parametrize("args, message", [
        (["--baselines", "nbls,nbls"], "error: repeated baselines: ['nbls']\n"),
        (["--baselines", "nbls", "--seed", "-1"], "error: seed must be >= 0, got -1\n"),
    ], ids=["repeated-baseline", "negative-seed"])
    def test_rejected_before_any_data(self, monkeypatch, args, message):
        def no_data(*args, **kwargs):
            raise AssertionError("data was built")

        monkeypatch.setattr(experiment, "synthetic_desk_dataset", no_data)
        result = CliRunner().invoke(
            main,
            ["--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
             "--dh", "20", *args],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == message


class TestOutDirectoryCheckedFirst:
    def test_missing_out_directory_ends_before_any_data(self, monkeypatch, tmp_path):
        def no_data(*args, **kwargs):
            raise AssertionError("data was built")

        monkeypatch.setattr(experiment, "synthetic_desk_dataset", no_data)
        out = tmp_path / "missing" / "m.jsonl"
        result = CliRunner().invoke(
            main,
            ["--train-size", "200", "--test-size", "50", "--n", "2", "--dz", "4",
             "--dh", "20", "--baselines", "nbls", "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output == f"error: out {str(out)!r}: no such directory\n"
        assert not out.parent.exists()


class TestInputErrorsEndCleanly:
    """Bad IDX files and split requests end with exit 1 and an error naming
    the cause; bad IDX files before any runner starts."""

    @pytest.fixture
    def idx_paths(self, tmp_path, monkeypatch):
        """Writes a 28x28 train pair and a 28x28 test pair and stubs out the
        runners; returns the four CLI path options by name."""
        monkeypatch.delenv("MSBLS_DATA_DIR", raising=False)

        def no_training(*args, **kwargs):
            raise AssertionError("a runner started")

        for runner in ("run_msbls", "run_non_privacy", "run_single_party"):
            monkeypatch.setattr(experiment, runner, no_training)
        train, test = desk_dataset(train_n=40, test_n=10)
        paths = {opt: tmp_path / opt.strip("-") for opt in
                 ("--train-images", "--train-labels", "--test-images", "--test-labels")}
        write_idx(train, paths["--train-images"], paths["--train-labels"])
        write_idx(test, paths["--test-images"], paths["--test-labels"])
        return paths

    def _invoke(self, *args):
        return CliRunner().invoke(
            main, ["--n", "2", "--dz", "4", "--dh", "20", "--baselines", "msbls,nbls,sbls", *args]
        )

    def _idx_args(self, paths):
        return ["--dataset", "mnist", "--train-size", "20", "--test-size", "5",
                *[arg for opt, path in paths.items() for arg in (opt, str(path))]]

    def _assert_error(self, result, start):
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.output.startswith(f"error: {start}"), result.output

    def test_over_claiming_idx_header(self, idx_paths):
        with open(idx_paths["--train-images"], "r+b") as f:
            f.write(struct.pack(">IIII", datasets.IDX_IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFF, 0xFFFF))
        result = self._invoke(*self._idx_args(idx_paths))
        self._assert_error(result, "truncated IDX file")

    def test_train_and_test_widths_disagree(self, idx_paths):
        narrow = LabeledDataset(x=np.zeros((10, 27 * 27)), labels=np.arange(10), num_classes=10,
                                name="narrow")
        write_idx(narrow, idx_paths["--test-images"], idx_paths["--test-labels"])
        result = self._invoke(*self._idx_args(idx_paths))
        self._assert_error(result, "idx-train rows have 784 pixels, idx-test rows 729")

    @pytest.mark.parametrize("args, message", [
        (["--split", "noniid", "--test-size", "1"], "split noniid of 1 rows leaves one part empty\n"),
        (["--split", "quantity:abc"], "cannot parse split plan 'quantity:abc'\n"),
    ], ids=["noniid-one-row", "unparsable-ratio"])
    def test_split_errors(self, args, message):
        result = self._invoke("--train-size", "40", *args)
        self._assert_error(result, message)


class TestWeightParity:
    """Masked and pooled readouts agree in their weights, not only in accuracy.

    The data are perfbench's seed-65 desk set; op seed 3918397951 once drifted
    by 4e-3 and flipped one test prediction, when saturated enhancement
    features left the readout ill-conditioned.
    """

    @pytest.fixture(scope="class")
    def seed65_data(self):
        return desk_dataset(10000, 2000, dataset_seed=2375597883)

    @pytest.mark.parametrize("seed", [3918397951, 1402496762])
    def test_masked_weights_match_pooled(self, seed65_data, seed):
        train, test = seed65_data
        config = ExperimentConfig(train_size=10000, test_size=2000)
        masked = run_msbls(train, test, config, seed)
        pooled = run_non_privacy(train, test, config, seed)
        w_masked, w_pooled = masked.model.output_weights, pooled.model.output_weights
        assert np.linalg.norm(w_masked - w_pooled) / np.linalg.norm(w_pooled) < 1e-6
        assert np.array_equal(masked.test_predictions, pooled.test_predictions)


class TestNumericalHealth:
    HEALTH = ("test_preact_ratio", "gram_rcond", "readout_residual")

    def test_every_report_carries_finite_health_and_no_payload(self, small_desk_data):
        train, test = small_desk_data
        reports = run_experiment(small_config(baselines=("msbls", "nbls", "sbls")), train, test)
        assert [r.baseline for r in reports] == ["msbls", "nbls", "sbls_a", "sbls_b", "sbls"]
        for report in reports:
            record = json.loads(report.to_json())
            for name in self.HEALTH:
                assert isinstance(record[name], float) and np.isfinite(record[name]), name
            # The shrinkage scale is fitted on the training rows, whose ratio
            # is 1; the test rows of one distribution land near it.
            assert 0.5 < record["test_preact_ratio"] < 2.0
            assert 0.0 < record["gram_rcond"] <= 1.0
            # Zero weights leave the residual at 1; the ridge fit does no worse.
            assert 0.0 <= record["readout_residual"] <= 1.0
            # Only names, counts, shapes and scalars: no list or array of values.
            leaves = [record]
            while leaves:
                value = leaves.pop()
                if isinstance(value, dict):
                    leaves.extend(value.values())
                else:
                    assert isinstance(value, (str, int, float, bool, type(None))), value

    def test_single_party_mean_takes_the_worse_client(self, small_desk_data):
        train, test = small_desk_data
        sp = run_single_party(train, test, small_config(split=SplitPlan(ratio_a=0.2)), 0)
        a, b, mean = sp.client_a.report, sp.client_b.report, sp.mean_report
        assert mean.gram_rcond == min(a.gram_rcond, b.gram_rcond)
        assert mean.readout_residual == max(a.readout_residual, b.readout_residual)
        assert mean.test_preact_ratio == max(a.test_preact_ratio, b.test_preact_ratio)


class TestSingularGramNamesItsCause:
    """A mapped width above the input width + 1 leaves the Gram matrix singular
    at the default ridge; the error names both widths and the remedy, and a
    larger ridge solves the same run."""

    ARGS = ["--train-size", "1000", "--test-size", "50", "--n", "80", "--dz", "10",
            "--dh", "10", "--baselines", "nbls"]

    def test_default_ridge_fails_naming_the_widths(self):
        result = CliRunner().invoke(main, self.ARGS)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert re.fullmatch(
            r"error: positive-definite factorization failed: .*; the mapped width 800 exceeds "
            r"the input width \+ 1 \(785\), so the mapped features are rank-deficient: "
            r"use a larger --lambda\n",
            result.output,
        ), result.output

    def test_narrow_mapped_width_reraises_the_solver_error_unchanged(self):
        # 60 identical rows leave the Gram matrix singular at a ridge of 1e-300,
        # though the mapped width (4) is within the input width + 1 (6).
        flat = LabeledDataset(x=np.full((60, 5), 0.5), labels=np.arange(60) % 2,
                              num_classes=2, name="flat")
        hyper = BlsHyperParams(map_groups=2, map_dim=2, enh_dim=30, ridge=1e-300)
        with pytest.raises(SolverError) as failure:
            run_non_privacy(flat, flat, small_config(hyper=hyper, baselines=("nbls",)), seed=0)
        assert re.fullmatch(
            r"positive-definite factorization failed: \d+-th leading minor .*", str(failure.value)
        ), failure.value
        assert "mapped width" not in str(failure.value)
        assert not isinstance(failure.value.__cause__, SolverError)

    def test_larger_ridge_solves(self):
        result = CliRunner().invoke(main, [*self.ARGS, "--lambda", "1e-4"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["baseline"] == "nbls"
