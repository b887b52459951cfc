#!/usr/bin/env python3
"""Fixed-seed fingerprints of every run artifact, printed as JSON.

Runs seeds 0-2 on the splits quantity:0.5 and noniid of the synthetic desk
dataset, through run_msbls over the in-process bus and over TCP,
run_msbls with zero masks, run_non_privacy and run_single_party. Each
(runner, artifact) pair gets one SHA-256 over every seed and split, and a
combined digest covers them all. The artifacts are the mapped features,
output weights, mix and enhancement keys, session key halves, predictions,
labels, reports without ``train_time_s`` and transcripts without
``session_id``. Two checkouts that print the same JSON computed the same
bits.

Digests depend on the machine and its BLAS build, so compare a change with
its parent on one machine, never across machines. Exits 1 if the bus and
TCP features differ, if zero-mask msbls differs from nbls in features,
weights or predictions, or if msbls and nbls hold different mix keys.

With --golden, prints only the numpy version and the THREAD_INDEPENDENT
digests: the content of tests/golden_fingerprint.json at --size smoke,
which tier-1 compares with a fresh smoke run under the numpy version it
names.

With --compare, reads two printed fingerprints, taken at different BLAS
thread counts or one of them the golden file, instead of running anything,
and exits 1 if they differ in any THREAD_INDEPENDENT digest that the first
one holds.

Usage: python scripts/fingerprint.py [--size desk|smoke] [--golden]
       python scripts/fingerprint.py --compare A.json B.json
"""

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from msbls.bls import BlsHyperParams
from msbls.datasets import SplitPlan, synthetic_desk_dataset
from msbls.experiment import ExperimentConfig, run_msbls, run_non_privacy, run_single_party

SIZES = {
    "desk": (ExperimentConfig.train_size, ExperimentConfig.test_size),
    "smoke": (300, 60),
}
SEEDS = (0, 1, 2)
SPLITS = ("quantity:0.5", "noniid")
# Pairs of (runner, runner, artifacts) whose digests must agree.
CHECKS = (
    ("msbls_bus", "msbls_tcp", ("train_mapped", "test_mapped")),
    ("msbls_zero_masks", "nbls", ("train_mapped", "test_mapped", "output_weights", "predictions")),
    ("msbls_bus", "nbls", ("mix_key",)),
)
# Artifacts whose digests must not depend on the BLAS thread count: keys,
# labels and transcripts involve no BLAS sums, and predictions keep their
# margins.
THREAD_INDEPENDENT = ("key_halves", "labels", "mix_key", "predictions", "transcripts")


def _feed(h, value) -> None:
    """Hash arrays by dtype, shape and bytes, sequences item by item, and
    anything else as sorted JSON."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).data)
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}]".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(json.dumps(value, sort_keys=True).encode())


def _runs(train, test, cfg: ExperimentConfig, seed: int):
    """(runner, result) for every run of one seed and split."""
    yield "msbls_bus", run_msbls(train, test, cfg, seed)
    yield "msbls_tcp", run_msbls(train, test, replace(cfg, transport="tcp"), seed)
    yield "msbls_zero_masks", run_msbls(train, test, replace(cfg, zero_masks=True), seed)
    yield "nbls", run_non_privacy(train, test, cfg, seed)
    single = run_single_party(train, test, cfg, seed)
    yield "sbls", single.client_a
    yield "sbls", single.client_b


def _artifacts(result) -> dict:
    """One run's artifacts by name, with its timing and session ids left out."""
    report = result.report.to_dict()
    del report["train_time_s"]
    out = {
        "train_mapped": result.train_mapped,
        "test_mapped": result.test_mapped,
        "output_weights": result.model.output_weights,
        "mix_key": result.model.mix_key,
        "enhancement_keys": result.model.enhancement_keys,
        "predictions": [result.train_predictions, result.test_predictions],
        "labels": [result.train_labels, result.test_labels],
        "report": report,
    }
    if result.train_sessions:
        keys = result.train_sessions[0].keys
        out["key_halves"] = [keys.key_a, keys.key_b]
        out["transcripts"] = [
            [{k: v for k, v in e.to_dict().items() if k != "session_id"} for e in s.transcript]
            for s in result.train_sessions
        ]
    return out


def fingerprint(size: str) -> dict:
    """{"runners": {runner: {artifact: sha256}}, "combined": sha256} for one size."""
    train, test = synthetic_desk_dataset(*SIZES[size])
    hashes = {}
    for seed in SEEDS:
        for split in SPLITS:
            cfg = ExperimentConfig(split=SplitPlan.parse(split), hyper=BlsHyperParams(seed=seed))
            for runner, result in _runs(train, test, cfg, seed):
                for name, value in _artifacts(result).items():
                    _feed(hashes.setdefault((runner, name), hashlib.sha256()), value)
    runners = {}
    for (runner, name), h in hashes.items():
        runners.setdefault(runner, {})[name] = h.hexdigest()
    combined = hashlib.sha256(json.dumps(runners, sort_keys=True).encode()).hexdigest()
    return {"size": size, "runners": runners, "combined": combined}


def failed_checks(prints: dict) -> list[str]:
    runners = prints["runners"]
    return [
        f"{left} and {right} differ in {name}"
        for left, right, names in CHECKS
        for name in names
        if runners[left][name] != runners[right][name]
    ]


def thread_independent(runners: dict) -> dict:
    """{runner: {artifact: sha256}} cut down to the THREAD_INDEPENDENT artifacts."""
    return {runner: {name: digests[name] for name in THREAD_INDEPENDENT if name in digests}
            for runner, digests in runners.items()}


def compare(paths) -> None:
    """Print how many THREAD_INDEPENDENT digests of two printed fingerprints
    agree, and exit: 0 if all agree, else 1."""
    first, second = (thread_independent(json.loads(Path(path).read_text())["runners"])
                     for path in paths)
    if first.keys() != second.keys():
        sys.exit(f"runners differ: {sorted(first)} vs {sorted(second)}")
    pairs = [(runner, name) for runner in first for name in first[runner]]
    differ = [pair for pair in pairs if first[pair[0]][pair[1]] != second[pair[0]].get(pair[1])]
    print(f"{len(pairs) - len(differ)} of {len(pairs)} thread-independent digests agree")
    sys.exit(f"thread-independent digests differ: {differ}" if differ else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", choices=sorted(SIZES), default="desk")
    parser.add_argument("--golden", action="store_true",
                        help="print the numpy version and the thread-independent digests only")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        compare(args.compare)
    prints = fingerprint(args.size)
    if args.golden:
        out = {"numpy": np.__version__, "size": args.size,
               "runners": thread_independent(prints["runners"])}
    else:
        out = prints
    print(json.dumps(out, indent=1, sort_keys=True))
    failures = failed_checks(prints)
    for failure in failures:
        print(f"fingerprint check failed: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
