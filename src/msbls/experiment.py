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

Each runner states only its feature map; ``_fit_and_evaluate`` maps the rows,
fits the readout, scores both row sets and builds the report.

Labels travel outside the feature-generation session: the trainer needs
them, the protocol never carries them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bls
from .datasets import (
    LabeledDataset, SplitPlan, find_idx_pair, load_idx_subset, one_hot, split_dataset,
    synthetic_desk_dataset,
)
from .linalg import RNG_ALGORITHM, RngStream, SolverError, derive_streams
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

# The run grid's choice lists: ExperimentConfig checks against them and the
# CLI offers them. The generated dataset and the socket transport come last.
DATASETS = ("mnist", "fashion", "synthetic")
TRANSPORTS = ("inproc", "tcp")
BASELINES = ("msbls", "nbls", "sbls")


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
    baselines: tuple = BASELINES
    reps: int = 1
    mask_range: float = DEFAULT_MASK_RANGE
    zero_masks: bool = False
    out: str | None = None

    def __post_init__(self):
        for name, choices in (("dataset", DATASETS), ("transport", TRANSPORTS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if not self.baselines:
            raise ValueError("at least one baseline must be selected")
        unknown = set(self.baselines) - set(BASELINES)
        if unknown:
            raise ValueError(f"unknown baselines: {sorted(unknown)}")
        repeated = sorted({b for b in self.baselines if self.baselines.count(b) > 1})
        if repeated:
            raise ValueError(f"repeated baselines: {repeated}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        check_mask_range(self.mask_range)
        # An IDX source checks its sizes against its files' rows as it loads them.
        if self.dataset == "synthetic":
            for name in ("train_size", "test_size"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.listen and self.transport != "tcp":
            raise ValueError("listen addresses need the tcp transport")
        paths = (self.train_images, self.train_labels, self.test_images, self.test_labels)
        if any(paths) and not all(paths):
            raise ValueError("give all four of train/test images/labels paths, or none")
        # A named dataset reads one source, the synthetic dataset none.
        if bool(self.data_dir) + all(paths) > (self.dataset != "synthetic"):
            raise ValueError("data_dir and IDX paths exclude each other and the synthetic dataset")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError(f"out {self.out!r}: no such directory")


@dataclass
class MetricsReport:
    """One run's metrics. Message/byte counts cover the training-feature
    session; the test-feature session has the same fixed shape.

    Numerical health: ``test_preact_ratio`` is the test rows' peak
    |pre-activation| over ``bls.SHRINKAGE``, above 1 when they leave the
    range the shrinkage scale was fitted on; of the training fit,
    ``gram_rcond`` is the reciprocal condition
    estimate of the factorized regularized Gram matrix (the n x n kernel
    when there are fewer rows than features), and ``readout_residual`` is
    ||[Zn | H] W - Y||_F / ||Y||_F.
    """

    baseline: str
    seed: int
    dataset: str
    split: str
    train_accuracy: float
    test_accuracy: float
    train_time_s: float
    message_count: int
    bytes_on_wire: int
    test_preact_ratio: float
    gram_rcond: float
    readout_residual: float
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


def _seeded_split(seed: int, plan: SplitPlan, *datasets):
    """The run's derived streams, then each dataset split into a list of its
    two client parts: the training rows by the ``split_train`` stream, the
    test rows by ``split_test``."""
    streams = derive_streams(seed, list(_STREAMS))
    pairs = []
    for ds, name in zip(datasets, ("split_train", "split_test")):
        # Mix the plan's own seed into the derived stream seed so explicit plan
        # seeds stay honored while per-run seeds still vary the partition.
        mixed = (streams[name].seed ^ (plan.seed * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
        pairs.append(list(split_dataset(ds, replace(plan, seed=mixed))))
    return streams, *pairs


def _fit_and_evaluate(baseline: str, dataset: str, config: ExperimentConfig, seed: int,
                      features, train_rows: list, test_rows: list, enh_stream: RngStream,
                      mix_key: np.ndarray | None = None, sessions=()) -> RunResult:
    """Map the training rows, fit the readout, map and score the test rows,
    and build the run's report, model and result.

    ``bls.fit_enhancement`` makes the training enhancement block in one pass
    and folds its shrinkage scale into the enhancement keys, which map the
    test rows. Both row sets are scored from their feature blocks by
    ``bls.readout_scores``, whose rounding margin moves no prediction.

    ``features(rows)`` maps ``train_rows`` or ``test_rows``, each a list of
    datasets, to one feature block in row order. It empties the list as it
    hands each dataset's rows on, so that no frame keeps a split copy once
    it is mapped; the labels are read first and stacked in the same order.
    ``train_time_s`` covers the training features and the fit, not the test
    features. A masked map appends its protocol sessions to ``sessions``;
    the first, the training session, holds the mix key and gives the report
    its message and byte counts.
    """
    hyper = config.hyper
    train_labels = np.concatenate([part.labels for part in train_rows])
    num_classes, d = train_rows[0].num_classes, train_rows[0].x.shape[1]
    started = time.perf_counter()
    zn_train = features(train_rows)
    y = one_hot(train_labels, num_classes)
    enh_keys, hm = bls.fit_enhancement(
        zn_train, bls.generate_enhancement_keys(hyper, enh_stream), hyper.activation
    )
    health = {}
    try:
        weights = bls.train_output_weights(zn_train, hm, y, hyper.ridge, health)
    except SolverError as exc:
        if hyper.mapped_width <= d + 1:
            raise
        raise SolverError(
            f"{exc}; the mapped width {hyper.mapped_width} exceeds the input width + 1 "
            f"({d + 1}), so the mapped features are rank-deficient: use a larger --lambda"
        ) from exc
    scores = bls.readout_scores(zn_train, hm, weights)
    train_pred = np.argmax(scores, axis=1)
    train_time = time.perf_counter() - started
    health["readout_residual"] = float(np.linalg.norm(scores - y) / np.linalg.norm(y))
    del hm, scores  # release the training enhancement block before the test rows are mapped

    test_labels = np.concatenate([part.labels for part in test_rows])
    zn_test = features(test_rows)
    test_health = {}
    hm_test = bls.enhancement_features(zn_test, enh_keys, hyper.activation, test_health)
    health["test_preact_ratio"] = test_health["preact_ratio"]
    test_pred = np.argmax(bls.readout_scores(zn_test, hm_test, weights), axis=1)

    wire = sessions[0] if sessions else None
    report = MetricsReport(
        baseline=baseline,
        seed=seed,
        dataset=dataset,
        split=config.split.describe(),
        train_accuracy=accuracy(train_pred, train_labels),
        test_accuracy=accuracy(test_pred, test_labels),
        train_time_s=train_time,
        message_count=wire.message_count if wire else 0,
        bytes_on_wire=wire.bytes_on_wire if wire else 0,
        **health,
        config={
            "hyper": asdict(hyper),
            "split": config.split.describe(),
            "transport": config.transport,
            "mask_range": config.mask_range,
            "zero_masks": config.zero_masks,
        },
    )
    model = bls.BlsModel(
        mix_key=wire.keys.mix_key if wire else mix_key,
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
        train_sessions=tuple(sessions),
    )


def run_msbls(train: LabeledDataset, test: LabeledDataset, config: ExperimentConfig, seed: int) -> RunResult:
    """Protocol-backed training and evaluation for one seed. Both sessions run
    on one endpoint trio, closed when the run returns or raises."""
    streams, train_rows, test_rows = _seeded_split(seed, config.split, train, test)
    if config.transport == "tcp":
        endpoints = make_tcp_endpoints(listen=config.listen)
    else:
        endpoints = make_bus_endpoints()
    sessions = []

    def features(rows):
        # The training session's parties draw the keys from their streams;
        # the test session reuses those keys under fresh masks.
        rngs = PartyRngs(
            streams["masks_test" if sessions else "masks_train"],
            streams["key_a"], streams["key_b"], streams["mix"],
        )
        # run_protocol drops the popped rows once its clients hold augmented copies.
        session = run_protocol(
            rows.pop(0).x, rows.pop().x, config.hyper, rngs,
            keys=sessions[0].keys if sessions else None, endpoints=endpoints,
            mask_range=config.mask_range, zero_masks=config.zero_masks,
        )
        # Every party's masks, blinded rows and inputs would otherwise outlive the run.
        session.parties = {}
        sessions.append(session)
        return session.mapped_features

    try:
        return _fit_and_evaluate(
            "msbls", train.name, config, seed, features, train_rows, test_rows,
            streams["enhancement"], sessions=sessions,
        )
    finally:
        for ep in endpoints.values():
            ep.close()


def run_non_privacy(train: LabeledDataset, test: LabeledDataset, config: ExperimentConfig, seed: int) -> RunResult:
    """Directly pooled training with the same derived keys; no protocol."""
    streams, train_rows, test_rows = _seeded_split(seed, config.split, train, test)
    d, hyper = train.x.shape[1], config.hyper
    key_a = bls.generate_map_key_half(d, hyper, streams["key_a"])
    key_b = bls.generate_map_key_half(d, hyper, streams["key_b"])
    mix_key = bls.generate_mix_key(hyper, streams["mix"])
    return _fit_and_evaluate(
        "nbls", train.name, config, seed,
        lambda rows: bls.joint_mapped_features(
            rows.pop(0).x, rows.pop().x, key_a, key_b, mix_key
        ),
        train_rows, test_rows, streams["enhancement"], mix_key,
    )


def _run_own_model(shard: LabeledDataset, test: LabeledDataset, config: ExperimentConfig,
                   seed: int, stream: RngStream, tag: str) -> RunResult:
    sub = derive_streams(stream.seed, ["map", "mix", "enh"])
    map_key = bls.generate_full_map_key(shard.x.shape[1], config.hyper, sub["map"])
    mix_key = bls.generate_mix_key(config.hyper, sub["mix"])
    return _fit_and_evaluate(
        tag, shard.name, config, seed,
        lambda rows: bls.mapped_features_simplified(bls.augment(rows.pop().x), map_key, mix_key),
        [shard], [test], sub["enh"], mix_key,
    )


def run_single_party(train: LabeledDataset, test: LabeledDataset, config: ExperimentConfig, seed: int) -> SinglePartyResult:
    """One independent model per client shard, both evaluated on the full
    test set; the headline number is their mean, both sides retained. The
    mean report's health fields take the worse of the two."""
    streams, (train_a, train_b) = _seeded_split(seed, config.split, train)
    result_a = _run_own_model(train_a, test, config, seed, streams["single_a"], "sbls_a")
    result_b = _run_own_model(train_b, test, config, seed, streams["single_b"], "sbls_b")
    a, b = result_a.report, result_b.report
    mean_report = replace(
        a,
        baseline="sbls",
        dataset=train.name,
        train_accuracy=(a.train_accuracy + b.train_accuracy) / 2,
        test_accuracy=(a.test_accuracy + b.test_accuracy) / 2,
        train_time_s=a.train_time_s + b.train_time_s,
        test_preact_ratio=max(a.test_preact_ratio, b.test_preact_ratio),
        gram_rcond=min(a.gram_rcond, b.gram_rcond),
        readout_residual=max(a.readout_residual, b.readout_residual),
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
