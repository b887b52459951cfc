"""Semi-honest security properties checked as state assertions.

Each party follows the schedule exactly; the checks here confirm that what
a party stores or observes never contains (or trivially reconstructs) the
secrets of the other parties, that every transcript message is consistent
with more than one plaintext, and that masks are never reused.
"""

import numpy as np
import pytest

from msbls import experiment
from msbls.bls import BlsHyperParams, augment
from msbls.datasets import synthetic_desk_dataset
from msbls.linalg import RngStream, derive_streams
from msbls.messages import MessageKind, Role
from msbls.protocol import FederationKeys, PartyRngs, blind_data, blind_key_and_cross, run_protocol
from tests.test_protocol import rngs_and_keys

MASK_RANGE = 1e3


def run_session(seed, na=6, nb=9, d=4, tap=None):
    rng = np.random.default_rng(seed)
    xa, xb = rng.uniform(0, 1, (na, d)), rng.uniform(0, 1, (nb, d))
    hyper = BlsHyperParams(map_groups=2, map_dim=4)
    result = run_protocol(
        xa, xb, hyper, *rngs_and_keys(seed, d, hyper),
        mask_range=MASK_RANGE,
        message_tap=tap,
    )
    return xa, xb, result


def equals_any(candidate, matrices):
    return any(
        candidate.shape == m.shape and np.array_equal(candidate, m) for m in matrices
    )


class TestViewConfinement:
    @pytest.mark.parametrize("seed", range(5))
    def test_client_a_never_holds_b_secrets(self, seed):
        xa, xb, res = run_session(seed)
        server = res.parties[Role.SERVER]
        b_secrets = [
            res.keys.key_b,
            augment(xb),
            server.masks_ab.key_mask,      # delivered only to B
            server.masks_ab.cross_mask,    # delivered only to B
            server.masks_ba.data_mask,     # delivered only to B
        ]
        for name, held in res.parties[Role.CLIENT_A].view_matrices().items():
            assert not equals_any(held, b_secrets), f"client A holds {name}"

    @pytest.mark.parametrize("seed", range(5))
    def test_client_b_never_holds_a_secrets(self, seed):
        xa, xb, res = run_session(seed + 100)
        server = res.parties[Role.SERVER]
        a_secrets = [
            res.keys.key_a,
            augment(xa),
            server.masks_ab.data_mask,     # delivered only to A
            server.masks_ba.key_mask,      # delivered only to A
            server.masks_ba.cross_mask,    # delivered only to A
        ]
        for name, held in res.parties[Role.CLIENT_B].view_matrices().items():
            assert not equals_any(held, a_secrets), f"client B holds {name}"

    @pytest.mark.parametrize("seed", range(5))
    def test_server_receives_only_products(self, seed):
        to_server = []
        xa, xb, res = run_session(
            seed + 200, tap=lambda m: to_server.append(m) if m.receiver == Role.SERVER else None
        )
        assert sorted(m.seq for m in to_server) == [5, 10, 11, 12]
        assert {m.kind for m in to_server} == {
            MessageKind.UNBLINDED_CROSS,
            MessageKind.OWN_PRODUCT_A,
            MessageKind.OWN_PRODUCT_B,
        }
        raw_secrets = [augment(xa), augment(xb), res.keys.key_a, res.keys.key_b]
        for msg in to_server:
            for payload in msg.payloads:
                assert not equals_any(payload, raw_secrets)

    @pytest.mark.parametrize("seed", range(3))
    def test_server_state_excludes_raw_data_and_keys(self, seed):
        xa, xb, res = run_session(seed + 300)
        raw_secrets = [augment(xa), augment(xb), res.keys.key_a, res.keys.key_b]
        for name, held in res.parties[Role.SERVER].view_matrices().items():
            if name == "mix_key":
                continue
            assert not equals_any(held, raw_secrets), f"server holds {name}"

    def test_blinded_reconstructions_available_to_a_miss_the_secrets(self):
        # The combinations A could actually form from its view leave the
        # key mask or cross mask in place, so none equals a B secret.
        xa, xb, res = run_session(999)
        a_view = res.parties[Role.CLIENT_A].view_matrices()
        key_b = res.keys.key_b
        blinded_key = a_view["peer_blinded_key"]
        assert not np.allclose(blinded_key, key_b, atol=1e-3)
        cross_clear = augment(xa) @ key_b
        assert not np.allclose(a_view["masked_cross"], cross_clear, atol=1e-3)


class TestTranscriptAmbiguity:
    """For each observed message, a second plaintext reproduces it, so the
    observer's view cannot pin down the real one. Re-blinding a constructed
    plaintext reproduces the observed bytes up to one rounding ulp of the
    mask scale; the constructed plaintext itself differs at mask scale."""

    @pytest.mark.parametrize("seed", range(20))
    def test_blinded_data_has_second_preimage(self, seed):
        xa, xb, res = run_session(seed + 400)
        observed = res.parties[Role.CLIENT_B].view_matrices()["peer_blinded_data"]
        fresh = RngStream(10_000 + seed)
        alt_mask = fresh.uniform(-MASK_RANGE, MASK_RANGE, *observed.shape)
        alt_plain = observed - alt_mask
        replay = blind_data(alt_plain, alt_mask)
        tol = 4 * np.spacing(MASK_RANGE)
        assert np.allclose(replay, observed, rtol=0, atol=tol)
        assert np.max(np.abs(alt_plain - augment(xa))) > 1.0  # genuinely different

    @pytest.mark.parametrize("seed", range(20))
    def test_masked_key_and_cross_have_second_preimage(self, seed):
        xa, xb, res = run_session(seed + 600)
        a_view = res.parties[Role.CLIENT_A].view_matrices()
        observed_key = a_view["peer_blinded_key"]
        observed_cross = a_view["masked_cross"]
        blinded_data = a_view["blinded_data"]
        fresh = RngStream(20_000 + seed)
        alt_key = fresh.standard_normal(*observed_key.shape)
        alt_key_mask = observed_key - alt_key
        alt_cross_mask = observed_cross - blinded_data @ alt_key
        replay_key, replay_cross = blind_key_and_cross(
            blinded_data, alt_key, alt_key_mask, alt_cross_mask
        )
        scale = max(np.abs(observed_cross).max(), MASK_RANGE)
        tol = 64 * np.spacing(scale)
        assert np.allclose(replay_key, observed_key, rtol=0, atol=4 * np.spacing(MASK_RANGE))
        assert np.allclose(replay_cross, observed_cross, rtol=0, atol=tol)
        assert np.max(np.abs(alt_key - res.keys.key_b)) > 0.1

    @pytest.mark.parametrize("seed", range(20))
    def test_recovered_cross_product_has_two_factorizations(self, seed):
        # The server ends with data @ key; any invertible change of basis
        # yields a distinct factor pair with the same product.
        xa, xb, res = run_session(seed + 800)
        cross = res.parties[Role.SERVER].view_matrices()["cross_ab"]
        x_aug, key_b = augment(xa), res.keys.key_b
        rng = np.random.default_rng(30_000 + seed)
        basis = rng.standard_normal((x_aug.shape[1], x_aug.shape[1]))
        basis += np.eye(x_aug.shape[1]) * 3.0  # keep it comfortably invertible
        alt_data = x_aug @ basis
        alt_key = np.linalg.solve(basis, key_b)
        assert np.max(np.abs(alt_data - x_aug)) > 0.5
        alt_product = alt_data @ alt_key
        assert np.allclose(alt_product, cross, rtol=1e-8, atol=1e-8)


class TestMaskFreshness:
    def test_no_mask_repeats_across_sessions(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(0)
        xa, xb = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (5, 3))
        rngs = PartyRngs(mask=RngStream(42))
        keys = FederationKeys.draw(3, hyper, derive_streams(1, ["key_a", "key_b", "mix"]))
        first = run_protocol(xa, xb, hyper, rngs, keys)
        second = run_protocol(xa, xb, hyper, rngs, keys)
        all_masks = []
        for res in (first, second):
            server = res.parties[Role.SERVER]
            for ms in (server.masks_ab, server.masks_ba):
                all_masks.extend([ms.data_mask, ms.key_mask, ms.cross_mask])
        for i in range(len(all_masks)):
            for j in range(i + 1, len(all_masks)):
                if all_masks[i].shape == all_masks[j].shape:
                    assert not np.array_equal(all_masks[i], all_masks[j])

    def test_the_twelve_seeds_of_a_run_are_distinct(self, monkeypatch):
        # Training and test session each draw three seeds per pass.
        seeds = []
        run = experiment.run_protocol

        def keep_seeds(*args, **kwargs):
            session = run(*args, **kwargs)
            held = session.parties[Role.SERVER].view_matrices()
            seeds.extend(tuple(row) for tag in ("ab", "ba") for row in held[f"seeds_{tag}"])
            return session

        monkeypatch.setattr(experiment, "run_protocol", keep_seeds)
        train, test = synthetic_desk_dataset(200, 40)
        config = experiment.ExperimentConfig(
            hyper=BlsHyperParams(map_groups=2, map_dim=4, enh_dim=20)
        )
        experiment.run_msbls(train, test, config, seed=3)
        assert len(seeds) == 12
        assert len({row[:-1] for row in seeds}) == 12
        assert {row[-1] for row in seeds} == {config.mask_range}
