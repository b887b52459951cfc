"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale experiments use real IDX files when MSBLS_DATA_DIR is
set, otherwise the deterministic synthetic stand-in with the same shape.
"""

import time

import numpy as np
import pytest

from msbls.bls import (
    BlsHyperParams,
    augment,
    classic_mapped_features,
    mapped_features_simplified,
    stack_affine_groups,
)
from msbls.datasets import SplitPlan
from msbls.experiment import (
    ExperimentConfig,
    run_msbls,
    run_non_privacy,
    run_single_party,
)
from msbls.linalg import RngStream, pseudoinverse, ridge_solve
from msbls.messages import MessageKind, ProtocolMessage, Role
from msbls.protocol import ProtocolAbort, run_protocol
from msbls.transport import FrameError, decode_message, encode_message, make_bus_endpoints
from tests.test_protocol import TamperEndpoint, rngs_and_keys

PP = 0.01  # one percentage point


def _criterion(number, ok, detail):
    print(f"ACCEPTANCE C{number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _random_instances(count, seed=2024):
    master = np.random.default_rng(seed)
    for k in range(count):
        n_a = int(master.integers(1, 201))
        n_b = int(master.integers(1, 201))
        d = int(master.integers(1, 51))
        width = 2 * int(master.integers(2, 21))  # mapped width in {4,...,40}
        hyper = BlsHyperParams(map_groups=1, map_dim=width, enh_groups=1, enh_dim=4)
        x_a = master.uniform(0, 1, (n_a, d))
        x_b = master.uniform(0, 1, (n_b, d))
        yield k, hyper, x_a, x_b


@pytest.fixture(scope="module")
def protocol_sweep():
    """Shared sweep for criteria 1 and 2: 100 randomized sessions."""
    results = []
    start = time.perf_counter()
    for k, hyper, x_a, x_b in _random_instances(100):
        res = run_protocol(x_a, x_b, hyper, *rngs_and_keys(k, x_a.shape[1], hyper))
        pooled_key = np.hstack([res.keys.key_a, res.keys.key_b])
        oracle = mapped_features_simplified(
            augment(np.vstack([x_a, x_b])), pooled_key, res.keys.mix_key
        )
        rel = np.linalg.norm(res.mapped_features - oracle) / np.linalg.norm(oracle)
        results.append((rel, res.message_count))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_c1_protocol_matches_cleartext_pipeline(protocol_sweep):
    results, elapsed = protocol_sweep
    worst = max(rel for rel, _ in results)
    ok = worst < 1e-8 and elapsed < 30.0
    _criterion(
        1, ok,
        f"worst relative error {worst:.2e} over {len(results)} sessions "
        f"(tolerance 1e-8), runtime {elapsed:.1f}s (< 30s)",
    )


def test_c2_message_budget_constant(protocol_sweep):
    results, _ = protocol_sweep
    counts = {count for _, count in results}
    # One deliberately large instance: ten thousand rows in total.
    hyper = BlsHyperParams(map_groups=1, map_dim=6, enh_groups=1, enh_dim=4)
    rng = np.random.default_rng(7)
    res = run_protocol(
        rng.uniform(0, 1, (6000, 3)), rng.uniform(0, 1, (4000, 3)), hyper,
        *rngs_and_keys(900, 3, hyper),
    )
    counts.add(res.message_count)
    ok = counts == {12}
    _criterion(
        2, ok,
        f"transcript lengths observed {sorted(counts)} across 101 sessions "
        f"including a 10000-row instance (required: exactly 12)",
    )


@pytest.fixture(scope="module")
def desk(request):
    from msbls.datasets import desk_dataset

    train, test = desk_dataset(train_n=10000, test_n=2000)
    print(f"\n[desk data: {train.name}, {len(train)} train / {len(test)} test rows]")
    return train, test


def _config(split, **kwargs):
    return ExperimentConfig(split=split, hyper=BlsHyperParams(), **kwargs)


def test_c3_privacy_costs_no_accuracy(desk):
    train, test = desk
    cfg = _config(SplitPlan(mode="quantity", ratio_a=0.5))
    gaps, times = [], []
    for seed in range(5):
        t0 = time.perf_counter()
        masked = run_msbls(train, test, cfg, seed=seed)
        pooled = run_non_privacy(train, test, cfg, seed=seed)
        times.append(time.perf_counter() - t0)
        gaps.append(abs(masked.report.test_accuracy - pooled.report.test_accuracy))
    ok = max(gaps) <= 0.5 * PP and max(times) < 120.0
    _criterion(
        3, ok,
        f"per-seed |masked - pooled| test-accuracy gap max {max(gaps) / PP:.3f}pp "
        f"over 5 seeds (tolerance 0.5pp), slowest paired run {max(times):.1f}s",
    )


def test_c4_quantity_imbalance_stability(desk):
    train, test = desk
    ratios = (0.5, 0.4, 0.3, 0.2, 0.1, 0.05)
    msbls_acc = {}
    for ratio in ratios:
        cfg = _config(SplitPlan(mode="quantity", ratio_a=ratio))
        msbls_acc[ratio] = run_msbls(train, test, cfg, seed=0).report.test_accuracy
    spread = max(msbls_acc.values()) - min(msbls_acc.values())
    cfg_extreme = _config(SplitPlan(mode="quantity", ratio_a=0.05))
    single = run_single_party(train, test, cfg_extreme, seed=0)
    small_shard = single.client_a.report.test_accuracy
    margin = msbls_acc[0.05] - small_shard
    ok = spread <= 1.0 * PP and margin >= 3.0 * PP
    _criterion(
        4, ok,
        f"masked-run accuracy spread across ratios {spread / PP:.3f}pp (<= 1pp); "
        f"5%-shard single-party trails by {margin / PP:.1f}pp (>= 3pp)",
    )


def test_c5_non_iid_scenario(desk):
    train, test = desk
    cfg = _config(SplitPlan(mode="non_iid"))
    masked = run_msbls(train, test, cfg, seed=0)
    pooled = run_non_privacy(train, test, cfg, seed=0)
    single = run_single_party(train, test, cfg, seed=0)
    single_acc = single.mean_report.test_accuracy
    msbls_acc = masked.report.test_accuracy
    gap_privacy = abs(msbls_acc - pooled.report.test_accuracy)
    advantage = msbls_acc - single_acc
    ok = single_acc <= 0.65 and advantage >= 20.0 * PP and gap_privacy <= 0.5 * PP
    _criterion(
        5, ok,
        f"single-party {single_acc:.2%} (<= 65%), masked advantage "
        f"{advantage / PP:.1f}pp (>= 20pp), masked-vs-pooled gap "
        f"{gap_privacy / PP:.3f}pp (<= 0.5pp)",
    )


def test_c6_groupwise_and_product_forms_agree():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 12))
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
        groups = [
            (rng.standard_normal((d, g)), rng.uniform(-1, 1, (1, g))) for g in sizes
        ]
        x = rng.uniform(-1, 1, (n, d))
        classic = classic_mapped_features(x, groups)
        stacked = stack_affine_groups(groups)
        simplified = mapped_features_simplified(
            augment(x), stacked, np.eye(stacked.shape[1])
        )
        worst = max(worst, float(np.max(np.abs(classic - simplified))))
    ok = worst < 1e-10
    _criterion(
        6, ok,
        f"groupwise vs single-product mapped features: worst entry gap "
        f"{worst:.2e} over 100 instances (tolerance 1e-10)",
    )


def test_c7_pseudoinverse_properties():
    rng = np.random.default_rng(321)
    worst_recon, worst_recover = 0.0, 0.0
    for _ in range(50):
        m = int(rng.integers(2, 25))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        q = pseudoinverse(a, 1e-10)
        worst_recon = max(worst_recon, float(np.max(np.abs(a @ q @ a - a))))

        rows = int(rng.integers(6, 30))
        cols = int(rng.integers(1, 6))
        targets = int(rng.integers(1, 4))
        a2 = rng.standard_normal((rows, cols))
        w_true = rng.standard_normal((cols, targets))
        w = ridge_solve(a2, a2 @ w_true, 1e-10)
        worst_recover = max(worst_recover, float(np.max(np.abs(w - w_true))))
    ok = worst_recon < 1e-6 and worst_recover < 1e-5
    _criterion(
        7, ok,
        f"reconstruction residual {worst_recon:.2e} (< 1e-6), synthetic ridge "
        f"recovery {worst_recover:.2e} (< 1e-5) over 50 instances each",
    )


def test_c8_security_properties():
    from msbls.protocol import blind_data, blind_key_and_cross

    mask_range = 1e3
    confinement_ok = True
    ambiguity_ok = True
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        x_a = rng.uniform(0, 1, (int(rng.integers(2, 30)), int(rng.integers(1, 12))))
        x_b = rng.uniform(0, 1, (int(rng.integers(2, 30)), x_a.shape[1]))
        hyper = BlsHyperParams(map_groups=1, map_dim=8, enh_groups=1, enh_dim=4)
        to_server = []
        res = run_protocol(
            x_a, x_b, hyper, *rngs_and_keys(5000 + seed, x_a.shape[1], hyper),
            mask_range=mask_range,
            message_tap=lambda m: to_server.append(m) if m.receiver == Role.SERVER else None,
        )
        # View confinement: the server only ever receives products.
        if {m.kind for m in to_server} - {
            MessageKind.UNBLINDED_CROSS,
            MessageKind.OWN_PRODUCT_A,
            MessageKind.OWN_PRODUCT_B,
        }:
            confinement_ok = False
        secrets = [augment(x_a), augment(x_b), res.keys.key_a, res.keys.key_b]
        for m in to_server:
            for p in m.payloads:
                if any(p.shape == s.shape and np.array_equal(p, s) for s in secrets):
                    confinement_ok = False
        a_view = res.parties[Role.CLIENT_A].view_matrices()
        b_view = res.parties[Role.CLIENT_B].view_matrices()
        for held in a_view.values():
            if any(held.shape == s.shape and np.array_equal(held, s)
                   for s in (res.keys.key_b, augment(x_b))):
                confinement_ok = False
        for held in b_view.values():
            if any(held.shape == s.shape and np.array_equal(held, s)
                   for s in (res.keys.key_a, augment(x_a))):
                confinement_ok = False

        # Transcript ambiguity: a second plaintext reproduces each message.
        observed = b_view["peer_blinded_data"]
        alt_mask = RngStream(7000 + seed).uniform(-mask_range, mask_range, *observed.shape)
        alt_plain = observed - alt_mask
        tol = 8 * np.spacing(mask_range)
        if not np.allclose(blind_data(alt_plain, alt_mask), observed, rtol=0, atol=tol):
            ambiguity_ok = False
        obs_key = a_view["peer_blinded_key"]
        obs_cross = a_view["masked_cross"]
        blinded = a_view["blinded_data"]
        alt_key = RngStream(8000 + seed).standard_normal(*obs_key.shape)
        replay_key, replay_cross = blind_key_and_cross(
            blinded, alt_key, obs_key - alt_key, obs_cross - blinded @ alt_key
        )
        scale = max(float(np.abs(obs_cross).max()), mask_range)
        if not (
            np.allclose(replay_key, obs_key, rtol=0, atol=tol)
            and np.allclose(replay_cross, obs_cross, rtol=0, atol=128 * np.spacing(scale))
        ):
            ambiguity_ok = False

    # Abort atomicity: a tampered message leaves zeroized parties, no output.
    endpoints = make_bus_endpoints()
    endpoints[Role.CLIENT_B] = TamperEndpoint(endpoints[Role.CLIENT_B], corrupt_seq=3)
    hyper = BlsHyperParams(map_groups=1, map_dim=8, enh_groups=1, enh_dim=4)
    abort_ok = False
    try:
        run_protocol(
            np.full((3, 2), 0.5), np.full((4, 2), 0.5), hyper, *rngs_and_keys(1, 2, hyper),
            endpoints=endpoints, timeout_s=2.0,
        )
    except ProtocolAbort as abort:
        abort_ok = abort.parties is not None and all(
            p.aborted and p.view_matrices() == {} for p in abort.parties.values()
        )
        server = abort.parties[Role.SERVER]
        abort_ok = abort_ok and (
            server.mapped_features is None or not np.any(server.mapped_features)
        )
    ok = confinement_ok and ambiguity_ok and abort_ok
    _criterion(
        8, ok,
        f"view confinement {'ok' if confinement_ok else 'VIOLATED'}, transcript "
        f"ambiguity {'ok' if ambiguity_ok else 'VIOLATED'} on 20 sessions, abort "
        f"zeroization {'ok' if abort_ok else 'VIOLATED'}",
    )


def test_c9_transport_equivalence(small_desk_data):
    train, test = small_desk_data
    hyper = BlsHyperParams(map_groups=2, map_dim=6, enh_groups=1, enh_dim=40)
    results = {}
    for backend in ("inproc", "tcp"):
        cfg = ExperimentConfig(
            split=SplitPlan(mode="quantity", ratio_a=0.5),
            hyper=hyper,
            transport=backend,
            baselines=("msbls",),
        )
        results[backend] = run_msbls(train, test, cfg, seed=11)
    zn_equal = np.array_equal(
        results["inproc"].train_mapped, results["tcp"].train_mapped
    )
    w_equal = np.array_equal(
        results["inproc"].model.output_weights, results["tcp"].model.output_weights
    )

    payload = np.random.default_rng(9).standard_normal((4, 3))
    message = ProtocolMessage(
        session_id=bytes(16), seq=3, sender=Role.CLIENT_A, receiver=Role.CLIENT_B,
        kind=MessageKind.BLINDED_DATA, payloads=(payload,),
    )
    raw = encode_message(message)
    round_trip = decode_message(raw).payloads[0].tobytes() == payload.tobytes()
    corrupted = bytearray(raw)
    corrupted[len(raw) // 2] ^= 0x10
    try:
        decode_message(bytes(corrupted))
        crc_rejects = False
    except FrameError:
        crc_rejects = True

    ok = zn_equal and w_equal and round_trip and crc_rejects
    _criterion(
        9, ok,
        f"in-process vs loopback TCP: mapped features bit-identical={zn_equal}, "
        f"readout weights bit-identical={w_equal}; frame round-trip bit-exact="
        f"{round_trip}, corrupted frame rejected={crc_rejects}",
    )
