"""Smoke runs of the scripts under scripts/, so a renamed API breaks a test
instead of the scripts alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from msbls.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_fingerprint.json"


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_reproduce_tables_prints_both_tables():
    out = run_script("reproduce_tables.py", "--train-n", "300", "--test-n", "60").stdout
    assert "Quantity imbalance (test accuracy)" in out
    assert "Non-IID scenario (test accuracy)" in out
    assert "protocol messages per session: 12" in out


def test_idx_files_feed_the_cli(tmp_path):
    run_script("make_idx_files.py", "--out-dir", str(tmp_path), "--train-n", "50", "--test-n", "10")
    names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    paths = [str(tmp_path / name) for name in names]
    result = CliRunner().invoke(main, [
        "--dataset", "mnist",
        "--train-images", paths[0], "--train-labels", paths[1],
        "--test-images", paths[2], "--test-labels", paths[3],
        "--train-size", "50", "--test-size", "10", "--baselines", "nbls",
    ])
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def smoke_fingerprint():
    """One smoke fingerprint run's printed JSON, shared by the tests below."""
    # A zero exit means bus and TCP features agree and zero-mask msbls equals nbls.
    return run_script("fingerprint.py", "--size", "smoke").stdout


def test_fingerprint_is_reproducible_and_consistent(smoke_fingerprint):
    first = smoke_fingerprint
    assert run_script("fingerprint.py", "--size", "smoke").stdout == first
    prints = json.loads(first)
    assert sorted(prints["runners"]) == [
        "msbls_bus", "msbls_tcp", "msbls_zero_masks", "nbls", "sbls",
    ]
    assert len(prints["combined"]) == 64


def test_fingerprint_matches_the_golden_digests(smoke_fingerprint, tmp_path):
    # numpy fixes its Generator streams per version only, so the digests hold
    # for the version that wrote the file; under another one the test skips.
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"{GOLDEN.name} holds numpy {golden['numpy']}'s digests, this is "
                    f"{np.__version__}; regenerate it with: PYTHONPATH=src python "
                    f"scripts/fingerprint.py --size smoke --golden > tests/{GOLDEN.name}")
    fresh = tmp_path / "smoke.json"
    fresh.write_text(smoke_fingerprint)
    proc = run_script("fingerprint.py", "--compare", str(GOLDEN), str(fresh))
    assert proc.stdout == "21 of 21 thread-independent digests agree\n"


@pytest.mark.parametrize("changed, returncode", [
    (None, 0), ("predictions", 1), ("output_weights", 0),
])
def test_fingerprint_compare_checks_the_thread_independent_digests(tmp_path, changed, returncode):
    msbls = {name: "0" * 64 for name in (
        "key_halves", "labels", "mix_key", "predictions", "transcripts", "output_weights",
    )}
    nbls = {name: "1" * 64 for name in ("labels", "predictions", "output_weights")}
    first = {"runners": {"msbls_bus": msbls, "nbls": nbls}}
    second = json.loads(json.dumps(first))
    if changed:
        second["runners"]["msbls_bus"][changed] = "f" * 64
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, prints in zip(paths, (first, second)):
        path.write_text(json.dumps(prints))
    proc = run_script("fingerprint.py", "--compare", *map(str, paths), returncode=returncode)
    assert proc.stdout == f"{7 - returncode} of 7 thread-independent digests agree\n"
    if returncode:
        assert "('msbls_bus', 'predictions')" in proc.stderr
