"""Workloads of the msbls benchmark: inputs, one timed operation, output checks.

Each workload is a closed loop with one caller: ``setup`` builds the inputs
(and, for ``predict-tcp``, trains once and opens a standing TCP endpoint
trio), ``op`` is the timed unit of work, and ``check`` inspects its output
outside the timed region and returns an ``Outcome``. ``check_once`` runs the
once-per-run zero-mask session. Every input derives from the workload seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from msbls import bls, datasets, experiment, protocol, transport
from msbls.datasets import SplitPlan
from msbls.experiment import ExperimentConfig
from msbls.linalg import RngStream
from msbls.protocol import FederationKeys, PartyRngs

FEATURE_RTOL = 1e-8  # acceptance criterion C1's relative tolerance
SESSION_MESSAGES = 12
SPLIT = SplitPlan(mode="quantity", ratio_a=0.5)


@dataclass(frozen=True)
class Size:
    train_rows: int
    test_rows: int
    batch_rows_per_client: int
    setup_repeats: int
    op_seeds: int  # distinct run seeds cycled by the train workloads
    batches: int  # distinct batches cycled by predict-tcp
    min_batches: int  # predict-tcp runs at least this many ops


DESK = Size(10000, 2000, 256, setup_repeats=3, op_seeds=3, batches=25, min_batches=100)
SMOKE = Size(300, 120, 16, setup_repeats=1, op_seeds=1, batches=1, min_batches=1)


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a fixed path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@dataclass
class Outcome:
    """What the checks found for one op, and what the op delivered."""

    problems: list = field(default_factory=list)
    input_id: int = 0
    rows: int = 0
    accuracy: float = float("nan")
    wire_bytes: int = 0
    seq_bytes: dict = field(default_factory=dict)
    frames: int = 0
    run_s: float | None = None  # time of the library run call inside the op
    weight_drift: float | None = None


@dataclass
class Reference:
    """The parts of a counterpart run that the checks compare against."""

    train_mapped: np.ndarray
    test_mapped: np.ndarray
    test_predictions: np.ndarray
    model: bls.BlsModel


def session_problems(session, what: str) -> list[str]:
    """Every masked session carries exactly one message per seq 1..12."""
    seqs = sorted(e.seq for e in session.transcript)
    if seqs != list(range(1, SESSION_MESSAGES + 1)):
        return [f"{what} session sent seqs {seqs}, expected 1..{SESSION_MESSAGES}"]
    return []


def frame_problems(session, messages, what: str) -> list[str]:
    """Transcript byte counts must equal the frames encode_message builds."""
    logged = {e.seq: e.byte_length for e in session.transcript}
    encoded = {m.seq: len(transport.encode_message(m)) for m in messages}
    if logged != encoded:
        return [f"{what} transcript bytes {logged} != encoded frame lengths {encoded}"]
    return []


def add_session_bytes(outcome: Outcome, *sessions) -> None:
    for session in sessions:
        for entry in session.transcript:
            outcome.seq_bytes[entry.seq] = outcome.seq_bytes.get(entry.seq, 0) + entry.byte_length
            outcome.frames += 1
    outcome.wire_bytes = sum(outcome.seq_bytes.values())


def readout_predictions(zn, model) -> np.ndarray:
    hm = bls.enhancement_features(zn, model.enhancement_keys, model.hyperparams.activation)
    return bls.predict_labels(np.hstack([zn, hm]), model.output_weights)


def zero_mask_problems(x_a, x_b, keys, hyper, endpoints, mask_seed) -> list[str]:
    """A zero-mask session must reproduce the pooled features bit for bit."""
    tapped = []
    session = protocol.run_protocol(
        x_a, x_b, hyper, PartyRngs(mask=RngStream(mask_seed)), keys=keys,
        endpoints=endpoints, zero_masks=True, message_tap=tapped.append,
    )
    pooled = bls.joint_mapped_features(x_a, x_b, keys.key_a, keys.key_b, keys.mix_key)
    problems = session_problems(session, "zero-mask")
    problems += frame_problems(session, tapped, "zero-mask")
    if not np.array_equal(session.mapped_features, pooled):
        problems.append("zero-mask session features differ from the pooled features")
    return problems


class Workload:
    name: str
    transport: str = "inproc"

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.hyper = bls.BlsHyperParams()

    def min_ops(self) -> int:
        return 1

    def build_data(self):
        return datasets.desk_dataset(
            self.size.train_rows, self.size.test_rows, dataset_seed=derive(self.seed, 0)
        )

    def experiment_config(self, transport_name: str) -> ExperimentConfig:
        return ExperimentConfig(
            train_size=self.size.train_rows, test_size=self.size.test_rows,
            split=SPLIT, hyper=self.hyper, transport=transport_name,
        )

    def endpoints(self):
        if self.transport == "tcp":
            return transport.make_tcp_endpoints()
        return transport.make_bus_endpoints()

    def standing_endpoints(self) -> list:
        return []

    def close(self) -> None:
        pass


class TrainWorkload(Workload):
    """One op is one full run: ``run_msbls`` or ``run_non_privacy``.

    The op seeds cycle through ``size.op_seeds`` values. The first op of each
    seed also computes that seed's counterpart reference outside the timed
    region: the pooled run for a masked op. A pooled op's masked counterpart
    is computed only when asked for its weight drift, because it would lift
    the pooled workload's peak memory.
    """

    def __init__(self, name: str, seed: int, size: Size, transport_name: str, masked: bool):
        super().__init__(seed, size)
        self.name = name
        self.transport = transport_name
        self.masked = masked
        self.op_seeds = [derive(seed, 1, k) for k in range(size.op_seeds)]
        self._first: dict[int, dict] = {}
        self._counterpart: dict[int, Reference] = {}

    def min_ops(self) -> int:
        return len(self.op_seeds)

    def setup(self) -> None:
        self.train, self.test = self.build_data()
        self.config = self.experiment_config(self.transport)
        self.config_inproc = self.experiment_config("inproc")

    def op(self, i: int):
        seed = self.op_seeds[i % len(self.op_seeds)]
        if self.masked:
            return experiment.run_msbls(self.train, self.test, self.config, seed)
        return experiment.run_non_privacy(self.train, self.test, self.config, seed)

    def counterpart(self, seed: int) -> Reference:
        if seed not in self._counterpart:
            other = experiment.run_non_privacy if self.masked else experiment.run_msbls
            run = other(self.train, self.test, self.config_inproc, seed)
            # Keep only what the checks read, not the sessions' party state.
            self._counterpart[seed] = Reference(
                run.train_mapped, run.test_mapped, run.test_predictions, run.model
            )
        return self._counterpart[seed]

    def check(self, i: int, result, traced: bool = False) -> Outcome:
        seed = self.op_seeds[i % len(self.op_seeds)]
        rows = len(result.train_labels) + len(result.test_labels)
        out = Outcome(input_id=seed, rows=rows, accuracy=result.report.test_accuracy)
        problems = out.problems
        recount = float(np.mean(result.test_predictions == result.test_labels))
        if recount != result.report.test_accuracy:
            problems.append(f"reported accuracy {result.report.test_accuracy} != recount {recount}")
        if not np.array_equal(readout_predictions(result.test_mapped, result.model), result.test_predictions):
            problems.append("test predictions differ from the model applied to the test features")
        first = self._first.setdefault(seed, {
            "train_mapped": result.train_mapped, "test_predictions": result.test_predictions,
        })
        if not (np.array_equal(first["train_mapped"], result.train_mapped)
                and np.array_equal(first["test_predictions"], result.test_predictions)):
            problems.append("same seed gave different features or predictions")
        if self.masked:
            session_train, session_test = result.train_sessions
            problems += session_problems(session_train, "train")
            problems += session_problems(session_test, "test")
            add_session_bytes(out, session_train, session_test)
            if not np.array_equal(result.model.mix_key, session_train.keys.mix_key):
                problems.append("model mix key is not the session's mix key")
        else:
            # The plain baseline moves no protocol messages; its wire cost is
            # the float64 rows that pooling at one site has to carry.
            out.wire_bytes = rows * self.train.x.shape[1] * 8
        if self.masked or traced:
            ref = self.counterpart(seed)
            masked, pooled = (result, ref) if self.masked else (ref, result)
            for part in ("train_mapped", "test_mapped"):
                rel = relative_error(getattr(masked, part), getattr(pooled, part))
                if not rel <= FEATURE_RTOL:
                    problems.append(f"masked {part} differs from pooled by {rel:.2e} relative")
            if not np.array_equal(masked.test_predictions, pooled.test_predictions):
                problems.append("masked and pooled test predictions disagree")
            if not np.array_equal(masked.model.mix_key, pooled.model.mix_key):
                problems.append("masked session keys differ from the pooled keys")
            out.weight_drift = relative_error(
                masked.model.output_weights, pooled.model.output_weights
            )
        return out

    def check_once(self) -> list[str]:
        test_a, test_b = datasets.split_dataset(
            self.test, SplitPlan(mode="quantity", ratio_a=0.5, seed=derive(self.seed, 4))
        )
        d = self.test.x.shape[1]
        keys = FederationKeys(
            key_a=bls.generate_map_key_half(d, self.hyper, RngStream(derive(self.seed, 5, 0))),
            key_b=bls.generate_map_key_half(d, self.hyper, RngStream(derive(self.seed, 5, 1))),
            mix_key=bls.generate_mix_key(self.hyper, RngStream(derive(self.seed, 5, 2))),
        )
        endpoints = self.endpoints()
        try:
            return zero_mask_problems(
                test_a.x, test_b.x, keys, self.hyper, endpoints, derive(self.seed, 5, 3)
            )
        finally:
            for ep in endpoints.values():
                ep.close()


class PredictWorkload(Workload):
    """One op is one batch through a masked test session over standing TCP.

    Setup trains once with ``run_msbls`` (in-process), keeps the session keys
    and the model, splits the test rows between the clients and opens the
    endpoint trio that every batch reuses. A batch takes
    ``batch_rows_per_client`` rows from each client's test shard; the
    ``size.batches`` distinct batches cycle, while each op draws fresh masks.
    """

    name = "predict-tcp"
    transport = "tcp"

    def __init__(self, seed: int, size: Size):
        super().__init__(seed, size)
        self.eps = None
        self._pooled_model = None

    def min_ops(self) -> int:
        return self.size.min_batches

    def setup(self) -> None:
        self.close()
        train, test = self.build_data()
        self.config = self.experiment_config("inproc")
        self.train_seed = derive(self.seed, 1, 0)
        trained = experiment.run_msbls(train, test, self.config, self.train_seed)
        self.train, self.test = train, test
        self.keys = trained.train_sessions[0].keys
        self.model = trained.model
        test_a, test_b = datasets.split_dataset(
            test, SplitPlan(mode="quantity", ratio_a=0.5, seed=derive(self.seed, 4))
        )
        pick = np.random.Generator(np.random.PCG64(derive(self.seed, 3)))
        n = self.size.batch_rows_per_client
        self.batches = []
        for _ in range(self.size.batches):
            rows_a = np.sort(pick.choice(len(test_a), n, replace=False))
            rows_b = np.sort(pick.choice(len(test_b), n, replace=False))
            self.batches.append((
                test_a.x[rows_a], test_b.x[rows_b],
                np.concatenate([test_a.labels[rows_a], test_b.labels[rows_b]]),
            ))
        self.eps = transport.make_tcp_endpoints()

    def standing_endpoints(self) -> list:
        return list(self.eps.values())

    def close(self) -> None:
        if self.eps is not None:
            for ep in self.eps.values():
                ep.close()
            self.eps = None

    def op(self, i: int):
        x_a, x_b, _ = self.batches[i % len(self.batches)]
        tapped = []
        start = time.perf_counter()
        session = protocol.run_protocol(
            x_a, x_b, self.hyper, PartyRngs(mask=RngStream(derive(self.seed, 2, i))),
            keys=self.keys, endpoints=self.eps, message_tap=tapped.append,
        )
        run_s = time.perf_counter() - start
        predictions = readout_predictions(session.mapped_features, self.model)
        return session, predictions, tapped, run_s

    def pooled_model(self):
        if self._pooled_model is None:
            self._pooled_model = experiment.run_non_privacy(
                self.train, self.test, self.config, self.train_seed
            ).model
        return self._pooled_model

    def check(self, i: int, result, traced: bool = False) -> Outcome:
        session, predictions, tapped, run_s = result
        j = i % len(self.batches)
        x_a, x_b, labels = self.batches[j]
        out = Outcome(
            input_id=j, rows=len(labels), run_s=run_s,
            accuracy=float(np.mean(predictions == labels)),
        )
        out.problems += session_problems(session, "batch")
        if i < len(self.batches):  # first op of each distinct batch: frame sizes depend on shapes only
            out.problems += frame_problems(session, tapped, "batch")
        add_session_bytes(out, session)
        clear = bls.joint_mapped_features(
            x_a, x_b, self.keys.key_a, self.keys.key_b, self.keys.mix_key
        )
        rel = relative_error(session.mapped_features, clear)
        if not rel <= FEATURE_RTOL:
            out.problems.append(f"batch features differ from cleartext by {rel:.2e} relative")
        if not np.array_equal(predictions, readout_predictions(clear, self.model)):
            out.problems.append("batch predictions differ from the model on cleartext features")
        if traced:
            out.weight_drift = relative_error(
                self.model.output_weights, self.pooled_model().output_weights
            )
        return out

    def check_once(self) -> list[str]:
        x_a, x_b, _ = self.batches[0]
        return zero_mask_problems(x_a, x_b, self.keys, self.hyper, self.eps, derive(self.seed, 5, 3))


WORKLOADS = {
    "train-inproc": lambda seed, size: TrainWorkload("train-inproc", seed, size, "inproc", True),
    "train-tcp": lambda seed, size: TrainWorkload("train-tcp", seed, size, "tcp", True),
    "train-pooled": lambda seed, size: TrainWorkload("train-pooled", seed, size, "inproc", False),
    "predict-tcp": lambda seed, size: PredictWorkload(seed, size),
}
