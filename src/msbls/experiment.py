"""End-to-end experiment runs and baselines.

Three runners share seeds and derived key streams so they are directly
comparable per seed:

* ``run_msbls``      -- masked joint training: one protocol session for the
                        training rows, a second session with the persisted
                        keys (fresh masks) for the test rows.
* ``run_non_privacy`` -- the same model trained on the directly pooled data
                        with the identical keys; with masking disabled the
                        two produce bit-identical readout weights.
* ``run_single_party`` -- one independent model per client trained on its
                        own shard only; both are evaluated on the full test
                        set and reported alongside their mean.

Labels travel outside the feature-generation session: the trainer needs
them, the protocol never carries them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bls
from .datasets import (
    LabeledDataset, SplitPlan, find_idx_pair, load_idx_subset, one_hot, split_dataset,
    synthetic_desk_dataset,
)
from .linalg import RNG_ALGORITHM, RngStream, derive_streams
from .protocol import DEFAULT_MASK_RANGE, PartyRngs, check_mask_range, run_protocol
from .transport import make_bus_endpoints, make_tcp_endpoints

# Positional stream derivation order; part of the reproducibility contract.
_STREAMS = (
    "split_train",
    "split_test",
    "key_a",
    "key_b",
    "mix",
    "enhancement",
    "masks_train",
    "masks_test",
    "single_a",
    "single_b",
)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    data_dir: str | None = None
    train_size: int = 10000
    test_size: int = 2000
    split: SplitPlan = field(default_factory=SplitPlan)
    hyper: bls.BlsHyperParams = field(default_factory=bls.BlsHyperParams)
    transport: str = "inproc"
    listen: dict | None = None
    baselines: tuple = ("msbls", "nbls", "sbls")
    reps: int = 1
    mask_range: float = DEFAULT_MASK_RANGE
    zero_masks: bool = False
    out: str | None = None

    def __post_init__(self):
        if not self.baselines:
            raise ValueError("at least one baseline must be selected")
        unknown = set(self.baselines) - {"msbls", "nbls", "sbls"}
        if unknown:
            raise ValueError(f"unknown baselines: {sorted(unknown)}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        check_mask_range(self.mask_range)
        # An IDX source checks its sizes against its files' rows as it loads them.
        if self.dataset == "synthetic":
            for name in ("train_size", "test_size"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.listen and self.transport != "tcp":
            raise ValueError("listen addresses need the tcp transport")
        paths = (self.train_images, self.train_labels, self.test_images, self.test_labels)
        if any(paths) and not all(paths):
            raise ValueError("give all four of train/test images/labels paths, or none")
        # A named dataset reads one source, the synthetic dataset none.
        if bool(self.data_dir) + all(paths) > (self.dataset != "synthetic"):
            raise ValueError("data_dir and IDX paths exclude each other and the synthetic dataset")


@dataclass
class MetricsReport:
    """One run's metrics. Message/byte counts cover the training-feature
    session; the test-feature session has the same fixed shape."""

    baseline: str
    seed: int
    dataset: str
    split: str
    train_accuracy: float
    test_accuracy: float
    train_time_s: float
    message_count: int
    bytes_on_wire: int
    rng_algorithm: str = RNG_ALGORITHM
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass
class RunResult:
    report: MetricsReport
    model: bls.BlsModel
    train_mapped: np.ndarray
    test_mapped: np.ndarray
    train_predictions: np.ndarray
    test_predictions: np.ndarray
    train_labels: np.ndarray
    test_labels: np.ndarray
    train_sessions: tuple = ()


@dataclass
class SinglePartyResult:
    client_a: RunResult
    client_b: RunResult
    mean_report: MetricsReport


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} predictions vs {labels.shape} labels"
        )
    return float(np.mean(predictions == labels))


def _config_echo(config: ExperimentConfig) -> dict:
    return {
        "hyper": asdict(config.hyper),
        "split": config.split.describe(),
        "transport": config.transport,
        "mask_range": config.mask_range,
        "zero_masks": config.zero_masks,
    }


def _split_pair(ds, plan, stream):
    # Mix the plan's own seed into the derived stream seed so explicit plan
    # seeds stay honored while per-run seeds still vary the partition.
    seed = (stream.seed ^ (plan.seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    return split_dataset(ds, SplitPlan(mode=plan.mode, ratio_a=plan.ratio_a, seed=seed))


def _session(config: ExperimentConfig, x_a, x_b, rngs: PartyRngs, keys=None):
    """One protocol session on freshly opened endpoints, closed afterwards."""
    if config.transport == "tcp":
        endpoints = make_tcp_endpoints(listen=config.listen)
    else:
        endpoints = make_bus_endpoints()
    try:
        return run_protocol(
            x_a, x_b, config.hyper, rngs, keys=keys, endpoints=endpoints,
            mask_range=config.mask_range, zero_masks=config.zero_masks,
        )
    finally:
        for ep in endpoints.values():
            ep.close()


def _fit_and_evaluate(
    baseline: str,
    train: LabeledDataset,
    config: ExperimentConfig,
    seed: int,
    started: float,
    zn_train: np.ndarray,
    train_labels: np.ndarray,
    test_features,
    test_labels: np.ndarray,
    enh_stream: RngStream,
    mix_key: np.ndarray,
    wire=None,
) -> RunResult:
    """Fit the readout on ``zn_train``, score the train and test rows, and
    build the run's report, model and result.

    ``started`` is the clock reading taken before the training features
    were made; ``train_time_s`` stops after the fit, before
    ``test_features()`` makes the test features. The report's message and
    byte counts are those of ``wire``, the training session, if there is one.
    """
    hyper = config.hyper
    enh_keys = bls.generate_enhancement_keys(hyper, enh_stream)
    hm = bls.enhancement_features(zn_train, enh_keys, hyper.activation)
    weights = bls.train_output_weights(
        zn_train, hm, one_hot(train_labels, train.num_classes), hyper.ridge
    )
    train_pred = bls.predict_labels(np.hstack([zn_train, hm]), weights)
    train_time = time.perf_counter() - started
    del hm  # release the training enhancement block before the test rows are mapped

    zn_test = test_features()
    hm_test = bls.enhancement_features(zn_test, enh_keys, hyper.activation)
    test_pred = bls.predict_labels(np.hstack([zn_test, hm_test]), weights)

    report = MetricsReport(
        baseline=baseline,
        seed=seed,
        dataset=train.name,
        split=config.split.describe(),
        train_accuracy=accuracy(train_pred, train_labels),
        test_accuracy=accuracy(test_pred, test_labels),
        train_time_s=train_time,
        message_count=wire.message_count if wire else 0,
        bytes_on_wire=wire.bytes_on_wire if wire else 0,
        config=_config_echo(config),
    )
    model = bls.BlsModel(
        mix_key=mix_key,
        enhancement_keys=enh_keys,
        output_weights=weights,
        hyperparams=hyper,
    )
    return RunResult(
        report=report,
        model=model,
        train_mapped=zn_train,
        test_mapped=zn_test,
        train_predictions=train_pred,
        test_predictions=test_pred,
        train_labels=train_labels,
        test_labels=test_labels,
    )


def run_msbls(train: LabeledDataset, test: LabeledDataset, config: ExperimentConfig, seed: int) -> RunResult:
    """Protocol-backed training and evaluation for one seed."""
    streams = derive_streams(seed, list(_STREAMS))
    train_a, train_b = _split_pair(train, config.split, streams["split_train"])
    test_a, test_b = _split_pair(test, config.split, streams["split_test"])

    t0 = time.perf_counter()
    session_train = _session(
        config,
        train_a.x,
        train_b.x,
        PartyRngs(
            mask=streams["masks_train"],
            key_a=streams["key_a"],
            key_b=streams["key_b"],
            mix=streams["mix"],
        ),
    )
    session_test = None

    def test_features():
        nonlocal session_test
        session_test = _session(
            config, test_a.x, test_b.x, PartyRngs(mask=streams["masks_test"]), keys=session_train.keys
        )
        return session_test.mapped_features

    result = _fit_and_evaluate(
        "msbls", train, config, seed, t0,
        zn_train=session_train.mapped_features,
        train_labels=np.concatenate([train_a.labels, train_b.labels]),
        test_features=test_features,
        test_labels=np.concatenate([test_a.labels, test_b.labels]),
        enh_stream=streams["enhancement"],
        mix_key=session_train.keys.mix_key,
        wire=session_train,
    )
    result.train_sessions = (session_train, session_test)
    return result


def run_non_privacy(train: LabeledDataset, test: LabeledDataset, config: ExperimentConfig, seed: int) -> RunResult:
    """Directly pooled training with the same derived keys; no protocol."""
    hyper = config.hyper
    streams = derive_streams(seed, list(_STREAMS))
    train_a, train_b = _split_pair(train, config.split, streams["split_train"])
    test_a, test_b = _split_pair(test, config.split, streams["split_test"])

    d = train.x.shape[1]
    key_a = bls.generate_map_key_half(d, hyper, streams["key_a"])
    key_b = bls.generate_map_key_half(d, hyper, streams["key_b"])
    mix_key = bls.generate_mix_key(hyper, streams["mix"])

    t0 = time.perf_counter()
    zn_train = bls.joint_mapped_features(train_a.x, train_b.x, key_a, key_b, mix_key)
    return _fit_and_evaluate(
        "nbls", train, config, seed, t0,
        zn_train=zn_train,
        train_labels=np.concatenate([train_a.labels, train_b.labels]),
        test_features=lambda: bls.joint_mapped_features(test_a.x, test_b.x, key_a, key_b, mix_key),
        test_labels=np.concatenate([test_a.labels, test_b.labels]),
        enh_stream=streams["enhancement"],
        mix_key=mix_key,
    )


def _run_own_model(shard: LabeledDataset, test: LabeledDataset, config: ExperimentConfig,
                   seed: int, stream: RngStream, tag: str) -> RunResult:
    hyper = config.hyper
    sub = derive_streams(stream.seed, ["map", "mix", "enh"])
    map_key = bls.generate_full_map_key(shard.x.shape[1], hyper, sub["map"])
    mix_key = bls.generate_mix_key(hyper, sub["mix"])

    t0 = time.perf_counter()
    zn_train = bls.mapped_features_simplified(bls.augment(shard.x), map_key, mix_key)
    return _fit_and_evaluate(
        tag, shard, config, seed, t0,
        zn_train=zn_train,
        train_labels=shard.labels,
        test_features=lambda: bls.mapped_features_simplified(bls.augment(test.x), map_key, mix_key),
        test_labels=test.labels,
        enh_stream=sub["enh"],
        mix_key=mix_key,
    )


def run_single_party(train: LabeledDataset, test: LabeledDataset, config: ExperimentConfig, seed: int) -> SinglePartyResult:
    """One independent model per client shard, both evaluated on the full
    test set; the headline number is their mean, both sides retained."""
    streams = derive_streams(seed, list(_STREAMS))
    train_a, train_b = _split_pair(train, config.split, streams["split_train"])
    result_a = _run_own_model(train_a, test, config, seed, streams["single_a"], "sbls_a")
    result_b = _run_own_model(train_b, test, config, seed, streams["single_b"], "sbls_b")
    mean_report = MetricsReport(
        baseline="sbls",
        seed=seed,
        dataset=train.name,
        split=config.split.describe(),
        train_accuracy=(result_a.report.train_accuracy + result_b.report.train_accuracy) / 2,
        test_accuracy=(result_a.report.test_accuracy + result_b.report.test_accuracy) / 2,
        train_time_s=result_a.report.train_time_s + result_b.report.train_time_s,
        message_count=0,
        bytes_on_wire=0,
        config=_config_echo(config),
    )
    return SinglePartyResult(client_a=result_a, client_b=result_b, mean_report=mean_report)


def load_experiment_data(config: ExperimentConfig):
    """Resolve the configured dataset into a (train, test) pair of the configured sizes."""
    if config.dataset == "synthetic":
        return synthetic_desk_dataset(config.train_size, config.test_size)
    pairs = [(config.train_images, config.train_labels), (config.test_images, config.test_labels)]
    if not config.train_images:  # the config holds all four IDX paths or none
        data_dir = config.data_dir or os.environ.get("MSBLS_DATA_DIR")
        if not data_dir:
            raise FileNotFoundError(
                f"dataset {config.dataset!r} needs --*-images/--*-labels paths, --data-dir "
                "or MSBLS_DATA_DIR"
            )
        pairs = [find_idx_pair(data_dir, split) for split in ("train", "test")]
        if not all(pairs):
            raise FileNotFoundError(f"no IDX files for {config.dataset!r} under {data_dir}")
    return load_idx_subset(*pairs, config.train_size, config.test_size)


def run_experiment(config: ExperimentConfig, train=None, test=None) -> list[MetricsReport]:
    """Run every selected baseline for every repetition; returns all reports
    (single-party contributes per-client reports plus the mean)."""
    if train is None or test is None:
        train, test = load_experiment_data(config)
    reports: list[MetricsReport] = []
    for rep in range(config.reps):
        seed = config.hyper.seed + rep
        for baseline in config.baselines:
            if baseline == "msbls":
                reports.append(run_msbls(train, test, config, seed).report)
            elif baseline == "nbls":
                reports.append(run_non_privacy(train, test, config, seed).report)
            else:
                sp = run_single_party(train, test, config, seed)
                reports.extend([sp.client_a.report, sp.client_b.report, sp.mean_report])
    if config.out:
        with open(config.out, "w") as f:
            for report in reports:
                f.write(report.to_json() + "\n")
    return reports


def summary_table(reports: list[MetricsReport]) -> str:
    """Plain-text comparison table, one row per (baseline, split)."""
    groups: dict[tuple, list[MetricsReport]] = {}
    for r in reports:
        groups.setdefault((r.baseline, r.split), []).append(r)
    lines = [
        f"{'baseline':<10} {'split':<16} {'runs':>4} {'train acc':>10} "
        f"{'test acc':>10} {'time (s)':>9} {'msgs':>5}"
    ]
    for (baseline, split), rs in sorted(groups.items()):
        train_acc = np.mean([r.train_accuracy for r in rs])
        test_acc = np.mean([r.test_accuracy for r in rs])
        t = np.mean([r.train_time_s for r in rs])
        msgs = rs[0].message_count
        lines.append(
            f"{baseline:<10} {split:<16} {len(rs):>4} {train_acc:>9.2%} "
            f"{test_acc:>9.2%} {t:>9.2f} {msgs:>5}"
        )
    return "\n".join(lines)
