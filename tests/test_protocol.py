import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from msbls import transport
from msbls.bls import BlsHyperParams, augment, mapped_features_simplified
from msbls.linalg import RngStream, derive_streams, random_matrix
from msbls.messages import MessageKind, ProtocolMessage, Role
from msbls.messages import SCHEDULE
from msbls.protocol import (
    MaskSet,
    PartyRngs,
    ProtocolAbort,
    ServerParty,
    assemble_mapped_features,
    blind_data,
    blind_key_and_cross,
    draw_mask_set,
    recover_cross_product,
    run_protocol,
    unblind_cross,
)
from msbls.transport import make_bus_endpoints, make_tcp_endpoints


def party_rngs(seed):
    s = derive_streams(seed, ["mask", "key_a", "key_b", "mix"])
    return PartyRngs(mask=s["mask"], key_a=s["key_a"], key_b=s["key_b"], mix=s["mix"])


def run_once(xa, xb, hyper, seed=0, **kwargs):
    return run_protocol(xa, xb, hyper, party_rngs(seed), **kwargs)


class TestServerInit:
    def test_mask_shapes_from_dimensions(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=2, enh_groups=1, enh_dim=2)
        server = ServerParty(
            bytes(16), n_a=2, n_b=2, d=3, hyper=hyper,
            mask_rng=RngStream(0), mix_rng=RngStream(1),
        )
        assert server.masks_ab.data_mask.shape == (2, 4)
        assert server.masks_ab.key_mask.shape == (4, 2)
        assert server.masks_ab.cross_mask.shape == (2, 2)
        first, second = server.start()
        assert (first.seq, first.receiver, first.kind) == (1, Role.CLIENT_A, MessageKind.DATA_MASK)
        assert (second.seq, second.receiver, second.kind) == (2, Role.CLIENT_B, MessageKind.KEY_MASKS)
        assert len(second.payloads) == 2

    def test_same_seed_same_masks(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=2)

        def masks():
            server = ServerParty(
                bytes(16), 3, 4, 2, hyper, mask_rng=RngStream(9), mix_rng=RngStream(1)
            )
            return server.masks_ab, server.masks_ba

        m1, m2 = masks(), masks()
        for a, b in zip(m1, m2):
            assert np.array_equal(a.data_mask, b.data_mask)
            assert np.array_equal(a.key_mask, b.key_mask)
            assert np.array_equal(a.cross_mask, b.cross_mask)

    def test_wide_mask_distribution_statistics(self):
        draw = random_matrix(100000, 1, ("uniform", -1e6, 1e6), RngStream(4))
        assert abs(draw.mean()) < 1e4

    def test_odd_width_rejected_at_hyperparams(self):
        with pytest.raises(ValueError):
            BlsHyperParams(map_groups=1, map_dim=3)


class TestStepAlgebra:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.x_aug = augment(rng.uniform(0, 1, (6, 4)))
        self.key = rng.standard_normal((5, 3))
        self.masks = MaskSet(
            data_mask=rng.uniform(-50, 50, (6, 5)),
            key_mask=rng.uniform(-50, 50, (5, 3)),
            cross_mask=rng.uniform(-50, 50, (6, 3)),
        )

    def test_blind_data_zero_mask(self):
        assert np.array_equal(blind_data(self.x_aug, np.zeros_like(self.x_aug)), self.x_aug)

    def test_blind_data_zero_data(self):
        zeros = np.zeros_like(self.masks.data_mask)
        assert np.array_equal(blind_data(zeros, self.masks.data_mask), self.masks.data_mask)

    def test_blind_data_mask_removal_recovers_exactly(self):
        blinded = blind_data(self.x_aug, self.masks.data_mask)
        assert np.allclose(blinded - self.masks.data_mask, self.x_aug, atol=1e-12)

    def test_blind_data_shape_mismatch(self):
        with pytest.raises(ValueError):
            blind_data(self.x_aug, np.zeros((2, 2)))

    def test_key_round_zero_masks_reduces_to_plain_product(self):
        blinded_key, masked_cross = blind_key_and_cross(
            self.x_aug, self.key, np.zeros_like(self.key), np.zeros((6, 3))
        )
        assert np.array_equal(blinded_key, self.key)
        assert np.array_equal(masked_cross, self.x_aug @ self.key)

    def test_key_round_zero_data_yields_cross_mask(self):
        _, masked_cross = blind_key_and_cross(
            np.zeros_like(self.x_aug), self.key, self.masks.key_mask, self.masks.cross_mask
        )
        assert np.array_equal(masked_cross, self.masks.cross_mask)

    def test_key_round_mask_removal_is_exact_algebra(self):
        blinded_data = blind_data(self.x_aug, self.masks.data_mask)
        _, masked_cross = blind_key_and_cross(
            blinded_data, self.key, self.masks.key_mask, self.masks.cross_mask
        )
        assert np.allclose(
            masked_cross - self.masks.cross_mask, blinded_data @ self.key, atol=1e-9
        )

    def test_unblind_cross_matches_clear_identity(self):
        # Replays the published identity in the clear:
        # partial = data @ key + cross_mask - data_mask @ key_mask.
        blinded_data = blind_data(self.x_aug, self.masks.data_mask)
        blinded_key, masked_cross = blind_key_and_cross(
            blinded_data, self.key, self.masks.key_mask, self.masks.cross_mask
        )
        partial = unblind_cross(masked_cross, blinded_key, self.masks.data_mask)
        expected = (
            self.x_aug @ self.key
            + self.masks.cross_mask
            - self.masks.data_mask @ self.masks.key_mask
        )
        rel = np.linalg.norm(partial - expected) / np.linalg.norm(expected)
        assert rel < 1e-9

    def test_unblind_cross_zero_masks(self):
        masked_cross = self.x_aug @ self.key
        out = unblind_cross(masked_cross, self.key, np.zeros_like(self.masks.data_mask))
        assert np.array_equal(out, masked_cross)

    def test_unblind_cross_pure_mask_term(self):
        # Zero data and zero cross mask leave only -data_mask @ key_mask.
        blinded_data = self.masks.data_mask
        blinded_key, masked_cross = blind_key_and_cross(
            blinded_data, self.key, self.masks.key_mask, np.zeros((6, 3))
        )
        partial = unblind_cross(masked_cross, blinded_key, self.masks.data_mask)
        expected = -self.masks.data_mask @ self.masks.key_mask
        assert np.allclose(partial, expected, atol=1e-9 * np.abs(expected).max())

    def test_recover_cross_product_matches_cleartext(self):
        blinded_data = blind_data(self.x_aug, self.masks.data_mask)
        blinded_key, masked_cross = blind_key_and_cross(
            blinded_data, self.key, self.masks.key_mask, self.masks.cross_mask
        )
        partial = unblind_cross(masked_cross, blinded_key, self.masks.data_mask)
        recovered = recover_cross_product(partial, self.masks)
        clear = self.x_aug @ self.key
        assert np.linalg.norm(recovered - clear) / np.linalg.norm(clear) < 1e-9

    def test_recover_zero_masks_is_identity(self):
        zero = MaskSet(np.zeros((6, 5)), np.zeros((5, 3)), np.zeros((6, 3)))
        partial = self.x_aug @ self.key
        assert np.array_equal(recover_cross_product(partial, zero), partial)

    def test_recover_identity_data_square_toy(self):
        key = np.random.default_rng(1).standard_normal((4, 2))
        masks = MaskSet(
            data_mask=np.random.default_rng(2).uniform(-10, 10, (4, 4)),
            key_mask=np.random.default_rng(3).uniform(-10, 10, (4, 2)),
            cross_mask=np.random.default_rng(4).uniform(-10, 10, (4, 2)),
        )
        x_aug = np.eye(4)
        blinded_key, masked_cross = blind_key_and_cross(
            blind_data(x_aug, masks.data_mask), key, masks.key_mask, masks.cross_mask
        )
        partial = unblind_cross(masked_cross, blinded_key, masks.data_mask)
        assert np.allclose(recover_cross_product(partial, masks), key, atol=1e-10)


class TestAssemble:
    def test_identity_mix_returns_raw_blocks(self):
        rng = np.random.default_rng(5)
        own_a, cross_ab = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        cross_ba, own_b = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        out = assemble_mapped_features(own_a, cross_ab, cross_ba, own_b, np.eye(4))
        assert np.array_equal(out, np.block([[own_a, cross_ab], [cross_ba, own_b]]))

    def test_single_row_toy_by_hand(self):
        # One sample per client, one input column, width two.
        xa, xb = np.array([[2.0]]), np.array([[3.0]])
        key_a, key_b = np.array([[1.0], [1.0]]), np.array([[2.0], [0.0]])
        mix = np.array([[1.0, 0.0], [1.0, 1.0]])
        # Augmented rows are [2,1] and [3,1].
        own_a = augment(xa) @ key_a            # [[3]]
        cross_ab = augment(xa) @ key_b         # [[4]]
        cross_ba = augment(xb) @ key_a         # [[4]]
        own_b = augment(xb) @ key_b            # [[6]]
        out = assemble_mapped_features(own_a, cross_ab, cross_ba, own_b, mix)
        assert np.array_equal(out, np.array([[3.0 + 4.0, 4.0], [4.0 + 6.0, 6.0]]))

    def test_tiling_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_mapped_features(
                np.ones((2, 2)), np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 2)), np.eye(4)
            )


class TestFullSession:
    def test_transcript_is_twelve_messages_and_fixed_schedule(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4, enh_groups=1, enh_dim=4)
        rng = np.random.default_rng(0)
        for na, nb, d in [(1, 1, 1), (20, 5, 3), (7, 31, 10)]:
            res = run_once(rng.uniform(0, 1, (na, d)), rng.uniform(0, 1, (nb, d)), hyper)
            assert res.message_count == 12
            assert [e.seq for e in res.transcript] == list(range(1, 13))
            kinds = [e.kind for e in res.transcript]
            assert kinds[:5] == [
                "DATA_MASK", "KEY_MASKS", "BLINDED_DATA",
                "BLINDED_KEY_AND_CROSS", "UNBLINDED_CROSS",
            ]
            assert kinds[5:10] == kinds[:5]
            assert kinds[10:] == ["OWN_PRODUCT_A", "OWN_PRODUCT_B"]
            assert res.bytes_on_wire == sum(e.byte_length for e in res.transcript)

    def test_output_matches_cleartext_pipeline(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=6, enh_groups=1, enh_dim=4)
        rng = np.random.default_rng(1)
        xa, xb = rng.uniform(0, 1, (20, 5)), rng.uniform(0, 1, (30, 5))
        res = run_once(xa, xb, hyper, seed=3)
        pooled_key = np.hstack([res.keys.key_a, res.keys.key_b])
        oracle = mapped_features_simplified(
            augment(np.vstack([xa, xb])), pooled_key, res.keys.mix_key
        )
        rel = np.linalg.norm(res.mapped_features - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8

    def test_zero_mask_debug_mode_is_bitwise_clear(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(2)
        xa, xb = rng.uniform(0, 1, (8, 3)), rng.uniform(0, 1, (5, 3))
        res = run_once(xa, xb, hyper, seed=4, zero_masks=True)
        xa_aug, xb_aug = augment(xa), augment(xb)
        clear = np.block([
            [xa_aug @ res.keys.key_a, xa_aug @ res.keys.key_b],
            [xb_aug @ res.keys.key_a, xb_aug @ res.keys.key_b],
        ]) @ res.keys.mix_key
        assert np.array_equal(res.mapped_features, clear)

    def test_key_reuse_second_session_fresh_masks(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(3)
        xa, xb = rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (4, 3))
        first = run_once(xa, xb, hyper, seed=5)
        xa2, xb2 = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (7, 3))
        second = run_protocol(
            xa2, xb2, hyper, PartyRngs(mask=RngStream(77)), keys=first.keys
        )
        assert np.array_equal(second.keys.key_a, first.keys.key_a)
        assert np.array_equal(second.keys.key_b, first.keys.key_b)
        assert np.array_equal(second.keys.mix_key, first.keys.mix_key)
        m1 = first.parties[Role.SERVER].masks_ab.key_mask
        m2 = second.parties[Role.SERVER].masks_ab.key_mask
        assert not np.array_equal(m1, m2)
        pooled_key = np.hstack([first.keys.key_a, first.keys.key_b])
        oracle = mapped_features_simplified(
            augment(np.vstack([xa2, xb2])), pooled_key, first.keys.mix_key
        )
        rel = np.linalg.norm(second.mapped_features - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8

    def test_mirrored_pass_draws_fresh_masks(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(4)
        res = run_once(rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (5, 3)), hyper)
        server = res.parties[Role.SERVER]
        assert not np.array_equal(server.masks_ab.data_mask, server.masks_ba.data_mask)
        assert not np.array_equal(server.masks_ab.key_mask, server.masks_ba.key_mask)

    def test_mirrored_cross_block_matches_cleartext(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(5)
        xa, xb = rng.uniform(0, 1, (6, 4)), rng.uniform(0, 1, (9, 4))
        res = run_once(xa, xb, hyper, seed=6)
        server = res.parties[Role.SERVER]
        clear_ba = augment(xb) @ res.keys.key_a
        got = server.view_matrices()["cross_ba"]
        assert np.linalg.norm(got - clear_ba) / np.linalg.norm(clear_ba) < 1e-9
        clear_own = augment(xa) @ res.keys.key_a
        assert np.array_equal(server.view_matrices()["own_a"], clear_own)

    def test_feature_dimension_mismatch_rejected(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        with pytest.raises(ValueError):
            run_once(np.ones((2, 3)), np.ones((2, 4)), hyper)

    def test_identity_key_makes_own_block_the_augmented_data(self):
        # Square toy: half width equals d+1, client A's key is the identity.
        from msbls.protocol import FederationKeys

        hyper = BlsHyperParams(map_groups=1, map_dim=8)  # half width 4
        rng = np.random.default_rng(8)
        xa, xb = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (4, 3))
        s = derive_streams(31, ["mask", "key_b", "mix"])
        keys = FederationKeys(
            key_a=np.eye(4),
            key_b=s["key_b"].standard_normal(4, 4),
            mix_key=s["mix"].standard_normal(8, 8),
        )
        res = run_protocol(xa, xb, hyper, PartyRngs(mask=s["mask"]), keys=keys)
        server = res.parties[Role.SERVER]
        assert np.array_equal(server.view_matrices()["own_a"], augment(xa))

    def test_zero_data_gives_zero_own_block(self):
        hyper = BlsHyperParams(map_groups=1, map_dim=4)
        xa = np.zeros((3, 2))
        xb = np.full((2, 2), 0.5)
        res = run_once(xa, xb, hyper, seed=32)
        own_a = res.parties[Role.SERVER].view_matrices()["own_a"]
        # The ones column still contributes the key's bias row.
        expected = augment(xa) @ res.keys.key_a
        assert np.array_equal(own_a, expected)

    def test_transcript_jsonl_metadata_only(self):
        import json

        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(9)
        res = run_once(rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (4, 2)), hyper)
        lines = res.transcript_jsonl().splitlines()
        assert len(lines) == 12
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {
                "session_id", "seq", "sender", "receiver", "kind",
                "payload_shapes", "byte_length",
            }

    def test_concurrent_sessions_are_isolated(self):
        import concurrent.futures

        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(10)
        inputs = [
            (rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (4, 3)), seed)
            for seed in (50, 51, 52, 53)
        ]

        def solo(args):
            xa, xb, seed = args
            return run_once(xa, xb, hyper, seed=seed).mapped_features

        sequential = [solo(args) for args in inputs]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            concurrent_results = list(pool.map(solo, inputs))
        for a, b in zip(sequential, concurrent_results):
            assert np.array_equal(a, b)

    def test_transcript_rows_name_sender_and_receiver(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(16)
        res = run_once(rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (4, 2)), hyper)
        rows = [(e.seq, e.sender, e.receiver, e.kind) for e in res.transcript]
        assert rows == [
            (1, "SERVER", "CLIENT_A", "DATA_MASK"),
            (2, "SERVER", "CLIENT_B", "KEY_MASKS"),
            (3, "CLIENT_A", "CLIENT_B", "BLINDED_DATA"),
            (4, "CLIENT_B", "CLIENT_A", "BLINDED_KEY_AND_CROSS"),
            (5, "CLIENT_A", "SERVER", "UNBLINDED_CROSS"),
            (6, "SERVER", "CLIENT_B", "DATA_MASK"),
            (7, "SERVER", "CLIENT_A", "KEY_MASKS"),
            (8, "CLIENT_B", "CLIENT_A", "BLINDED_DATA"),
            (9, "CLIENT_A", "CLIENT_B", "BLINDED_KEY_AND_CROSS"),
            (10, "CLIENT_B", "SERVER", "UNBLINDED_CROSS"),
            (11, "CLIENT_A", "SERVER", "OWN_PRODUCT_A"),
            (12, "CLIENT_B", "SERVER", "OWN_PRODUCT_B"),
        ]

    def test_finished_session_frees_its_parties_without_the_cycle_collector(self):
        # A reference cycle through a party would keep every matrix it holds
        # alive until the cyclic collector runs.
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(17)
        xa, xb = rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (4, 2))
        gc.collect()
        gc.disable()
        try:
            res = run_once(xa, xb, hyper)
            refs = [weakref.ref(party) for party in res.parties.values()]
            del res
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TamperEndpoint:
    """Delivers one chosen message with a corrupted sequence number."""

    def __init__(self, inner, corrupt_seq):
        self._inner = inner
        self._corrupt_seq = corrupt_seq
        self.role = inner.role

    def send(self, msg):
        self._inner.send(msg)

    def recv(self, sender, timeout=None):
        msg = self._inner.recv(sender, timeout)
        if msg.seq == self._corrupt_seq:
            wrong = 12 if msg.seq != 12 else 11
            msg = ProtocolMessage(
                session_id=msg.session_id,
                seq=wrong,
                sender=msg.sender,
                receiver=msg.receiver,
                kind=msg.kind,
                payloads=msg.payloads,
            )
        return msg

    def close(self):
        self._inner.close()


class RewriteEndpoint:
    """Replaces fields of one received message before the party sees it."""

    def __init__(self, inner, seq, rewrite):
        self._inner = inner
        self._seq = seq
        self._rewrite = rewrite
        self.role = inner.role

    def send(self, msg):
        self._inner.send(msg)

    def recv(self, sender, timeout=None):
        msg = self._inner.recv(sender, timeout)
        if msg.seq == self._seq:
            msg = dataclasses.replace(msg, **self._rewrite(msg))
        return msg

    def close(self):
        self._inner.close()


RECEIVER_OF_SEQ = {
    1: Role.CLIENT_A, 2: Role.CLIENT_B, 3: Role.CLIENT_B, 4: Role.CLIENT_A,
    5: Role.SERVER, 6: Role.CLIENT_B, 7: Role.CLIENT_A, 8: Role.CLIENT_A,
    9: Role.CLIENT_B, 10: Role.SERVER, 11: Role.SERVER, 12: Role.SERVER,
}


def widen_first_payload(msg):
    first, *rest = msg.payloads
    return {"payloads": (np.hstack([first, np.zeros((first.shape[0], 1))]), *rest)}


class TestAbort:
    def test_out_of_order_message_aborts_and_zeroizes(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(6)
        xa, xb = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))
        endpoints = make_bus_endpoints()
        endpoints[Role.CLIENT_B] = TamperEndpoint(endpoints[Role.CLIENT_B], corrupt_seq=3)
        with pytest.raises(ProtocolAbort) as excinfo:
            run_protocol(xa, xb, hyper, party_rngs(7), endpoints=endpoints, timeout_s=2.0)
        assert excinfo.value.role == Role.CLIENT_B

    def test_timeout_aborts(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        endpoints = make_bus_endpoints()

        class DropEndpoint:
            def __init__(self, inner):
                self._inner = inner
                self.role = inner.role

            def send(self, msg):
                if msg.seq != 3:  # swallow the blinded data, B waits forever
                    self._inner.send(msg)

            def recv(self, sender, timeout=None):
                return self._inner.recv(sender, timeout)

            def close(self):
                self._inner.close()

        endpoints[Role.CLIENT_A] = DropEndpoint(endpoints[Role.CLIENT_A])
        with pytest.raises(ProtocolAbort):
            run_protocol(
                np.ones((2, 2)), np.ones((2, 2)),
                hyper, party_rngs(8), endpoints=endpoints, timeout_s=0.3,
            )

    def test_abort_releases_no_output_and_zeroizes_secrets(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(7)
        xa, xb = rng.uniform(0.2, 1, (4, 3)), rng.uniform(0.2, 1, (5, 3))
        endpoints = make_bus_endpoints()
        endpoints[Role.CLIENT_A] = TamperEndpoint(endpoints[Role.CLIENT_A], corrupt_seq=4)
        with pytest.raises(ProtocolAbort) as excinfo:
            run_protocol(xa, xb, hyper, party_rngs(9), endpoints=endpoints, timeout_s=2.0)
        parties = excinfo.value.parties
        assert parties is not None
        for party in parties.values():
            assert party.aborted
            assert party.view_matrices() == {}
        assert parties[Role.SERVER].mapped_features is None or not np.any(
            parties[Role.SERVER].mapped_features
        )

    def test_session_partial_state_not_exposed(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        server = ServerParty(
            bytes(16), 2, 2, 2, hyper, mask_rng=RngStream(0), mix_rng=RngStream(1)
        )
        with pytest.raises(ProtocolAbort):
            server.result()

    def _assert_tampered_session_aborts(self, seq, rewrite):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(11)
        xa, xb = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))
        receiver = RECEIVER_OF_SEQ[seq]
        endpoints = make_bus_endpoints()
        endpoints[receiver] = RewriteEndpoint(endpoints[receiver], seq, rewrite)
        with pytest.raises(ProtocolAbort) as excinfo:
            run_protocol(xa, xb, hyper, party_rngs(12), endpoints=endpoints, timeout_s=2.0)
        assert (excinfo.value.role, excinfo.value.seq) == (receiver, seq)
        for party in excinfo.value.parties.values():
            assert party.aborted
            assert party.view_matrices() == {}

    @pytest.mark.parametrize("seq", range(1, 13))
    def test_wrong_payload_shape_aborts_at_receiver(self, seq):
        self._assert_tampered_session_aborts(seq, widen_first_payload)

    def test_foreign_session_id_aborts(self):
        self._assert_tampered_session_aborts(3, lambda msg: {"session_id": bytes(16)})

    def test_misdelivered_message_aborts(self):
        self._assert_tampered_session_aborts(3, lambda msg: {"receiver": Role.SERVER})

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_features_abort_at_the_server(self):
        # Every message is finite; only the server's mixed features overflow.
        from msbls.protocol import FederationKeys

        hyper = BlsHyperParams(map_groups=1, map_dim=4)
        keys = FederationKeys(
            key_a=np.ones((3, 2)), key_b=np.ones((3, 2)), mix_key=np.full((4, 4), 1e308)
        )
        with pytest.raises(ProtocolAbort) as excinfo:
            run_protocol(
                np.ones((3, 2)), np.ones((2, 2)), hyper, PartyRngs(mask=RngStream(14)), keys=keys
            )
        assert excinfo.value.role == Role.SERVER
        for party in excinfo.value.parties.values():
            assert party.aborted
            assert party.view_matrices() == {}

    def test_corrupted_tcp_frame_aborts_at_its_receiver(self, monkeypatch):
        # B's checksum check is the cause; the transport errors that the
        # other parties see once the session closes are only fallout.
        encode = transport.encode_message

        def flip_a_byte_of_seq3(msg):
            frame = bytearray(encode(msg))
            if msg.seq == 3:
                frame[len(frame) // 2] ^= 0xFF
            return bytes(frame)

        monkeypatch.setattr(transport, "encode_message", flip_a_byte_of_seq3)
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(13)
        xa, xb = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))
        endpoints = make_tcp_endpoints()
        try:
            with pytest.raises(ProtocolAbort) as excinfo:
                run_protocol(xa, xb, hyper, party_rngs(13), endpoints=endpoints, timeout_s=5.0)
        finally:
            for ep in endpoints.values():
                ep.close()
        assert (excinfo.value.role, excinfo.value.seq) == (Role.CLIENT_B, 3)
        assert "checksum" in excinfo.value.reason
        for party in excinfo.value.parties.values():
            assert party.aborted
            assert party.view_matrices() == {}

    def test_abort_attribution_under_thread_switch_stress(self):
        # 48 tampered sessions, alternating bus and TCP, each seq twice on
        # each; a lost or late first failure would misattribute an abort.
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(15)
        xa, xb = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))
        baseline = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(48):
                seq = i // 2 % 12 + 1
                receiver = RECEIVER_OF_SEQ[seq]
                endpoints = make_tcp_endpoints() if i % 2 else make_bus_endpoints()
                endpoints[receiver] = RewriteEndpoint(endpoints[receiver], seq, widen_first_payload)
                try:
                    with pytest.raises(ProtocolAbort) as excinfo:
                        run_protocol(
                            xa, xb, hyper, party_rngs(i), endpoints=endpoints, timeout_s=5.0
                        )
                finally:
                    for ep in endpoints.values():
                        ep.close()
                assert (excinfo.value.role, excinfo.value.seq) == (receiver, seq), i
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == baseline


def tampered_abort(seq, rewrite):
    """The abort of a small session whose ``seq`` message is rewritten at its
    receiver; every party must end zeroized."""
    hyper = BlsHyperParams(map_groups=2, map_dim=4)
    rng = np.random.default_rng(18)
    xa, xb = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))
    receiver = RECEIVER_OF_SEQ[seq]
    endpoints = make_bus_endpoints()
    endpoints[receiver] = RewriteEndpoint(endpoints[receiver], seq, rewrite)
    with pytest.raises(ProtocolAbort) as excinfo:
        run_protocol(xa, xb, hyper, party_rngs(18), endpoints=endpoints, timeout_s=2.0)
    for party in excinfo.value.parties.values():
        assert party.aborted
        assert party.view_matrices() == {}
    return excinfo.value


class TestScheduleShapes:
    """Each ``SCHEDULE`` row states its payloads' shapes in the session's dimensions."""

    def test_transcript_shapes_are_the_schedule_rows_resolved(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=6)
        rng = np.random.default_rng(19)
        d = 3
        train = run_once(rng.uniform(0, 1, (5, d)), rng.uniform(0, 1, (9, d)), hyper)
        test = run_protocol(
            rng.uniform(0, 1, (8, d)), rng.uniform(0, 1, (2, d)), hyper,
            PartyRngs(mask=RngStream(20)), keys=train.keys,
        )
        for res, (n_a, n_b) in ((train, (5, 9)), (test, (8, 2))):
            dims = {"a": n_a, "b": n_b, "d1": d + 1, "h": hyper.half_width}
            assert [e.seq for e in res.transcript] == [row[0] for row in SCHEDULE]
            assert [e.payload_shapes for e in res.transcript] == [
                [tuple(dims[name] for name in names) for names in row[4]] for row in SCHEDULE
            ]

    def test_missing_payload_aborts_at_its_receiver_naming_the_count(self):
        abort = tampered_abort(2, lambda msg: {"payloads": msg.payloads[:1]})
        assert (abort.role, abort.seq) == (Role.CLIENT_B, 2)
        assert "KEY_MASKS needs 2 payloads, got 1" in abort.reason

    def test_cross_mask_with_wrong_rows_aborts_at_the_blinded_data(self):
        # B learns A's row count from the seq-2 cross mask, so a taller mask
        # surfaces when A's real rows arrive at seq 3.
        def taller_cross_mask(msg):
            key_mask, cross_mask = msg.payloads
            return {"payloads": (key_mask, np.vstack([cross_mask, cross_mask[:1]]))}

        abort = tampered_abort(2, taller_cross_mask)
        assert (abort.role, abort.seq) == (Role.CLIENT_B, 3)
        assert "BLINDED_DATA payload has shape (4, 4), expected (5, 4)" in abort.reason
