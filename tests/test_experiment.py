import json
import re
import socket

import numpy as np
import pytest
from click.testing import CliRunner

from msbls import datasets
from msbls.bls import (
    BlsHyperParams,
    augment,
    enhancement_features,
    generate_enhancement_keys,
    generate_map_key_half,
    generate_mix_key,
    joint_mapped_features,
    predict_labels,
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
from msbls.linalg import RngStream

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
