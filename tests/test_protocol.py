import dataclasses
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from msbls import protocol, transport
from msbls.bls import BlsHyperParams, augment, mapped_features_simplified
from msbls.linalg import RngStream, derive_streams, random_matrix
from msbls.messages import SCHEDULE, SEED_DIMS, MessageKind, Role
from msbls.protocol import (
    FederationKeys,
    MaskSet,
    PartyRngs,
    ProtocolAbort,
    ServerParty,
    assemble_mapped_features,
    blind_data,
    blind_key_and_cross,
    draw_mask_set,
    mask_correction,
    recover_cross_product,
    run_protocol,
    unblind_cross,
)
from msbls.transport import make_bus_endpoints, make_tcp_endpoints


def rngs_and_keys(seed, d, hyper):
    """``run_protocol``'s ``rngs`` and ``keys`` for rows of ``d`` columns,
    drawn from the streams that ``seed`` derives."""
    s = derive_streams(seed, ["mask", "key_a", "key_b", "mix"])
    return PartyRngs(mask=s["mask"]), FederationKeys.draw(d, hyper, s)


def run_once(xa, xb, hyper, seed=0, **kwargs):
    return run_protocol(xa, xb, hyper, *rngs_and_keys(seed, np.shape(xa)[1], hyper), **kwargs)


class TestServerInit:
    def test_mask_shapes_from_dimensions(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=2, enh_groups=1, enh_dim=2)
        server = ServerParty(
            bytes(16), n_a=2, n_b=2, d=3, hyper=hyper,
            mask_rng=RngStream(0), mix_key=np.eye(hyper.mapped_width),
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
                bytes(16), 3, 4, 2, hyper, mask_rng=RngStream(9), mix_key=np.eye(hyper.mapped_width)
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


class TestClientKeyErrorsNameTheParty:
    """A misshapen client key half names the client it belongs to."""

    HYPER = BlsHyperParams(map_groups=2, map_dim=4)  # half width 4

    @pytest.mark.parametrize("role", [Role.CLIENT_A, Role.CLIENT_B], ids=lambda r: r.name)
    def test_misshapen_persisted_key_names_the_client(self, role):
        good, bad = np.ones((3, 4)), np.ones((2, 2))
        keys = protocol.FederationKeys(
            key_a=bad if role == Role.CLIENT_A else good,
            key_b=bad if role == Role.CLIENT_B else good,
            mix_key=np.eye(8),
        )
        with pytest.raises(
            ValueError, match=rf"^{role.name} key must be \(3, 4\), got \(2, 2\)$"
        ):
            run_protocol(np.ones((3, 2)), np.ones((2, 2)), self.HYPER,
                         PartyRngs(mask=RngStream(0)), keys=keys)


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
        recovered = recover_cross_product(partial, mask_correction(self.masks))
        clear = self.x_aug @ self.key
        assert np.linalg.norm(recovered - clear) / np.linalg.norm(clear) < 1e-9

    def test_recover_zero_masks_is_identity(self):
        zero = MaskSet(np.zeros((6, 5)), np.zeros((5, 3)), np.zeros((6, 3)))
        partial = self.x_aug @ self.key
        assert np.array_equal(recover_cross_product(partial, mask_correction(zero)), partial)

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
        assert np.allclose(recover_cross_product(partial, mask_correction(masks)), key, atol=1e-10)


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

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "Python 3.10 keeps call arguments on the caller's stack until the call returns"
    ))
    def test_inputs_the_caller_does_not_keep_are_gone_by_the_first_send(self):
        # The clients hold augmented copies, so nothing reads the inputs after.
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(7)
        refs, alive = [], []

        def rows(n):
            x = rng.uniform(0, 1, (n, 5))
            refs.append(weakref.ref(x))
            return x

        def tap(msg):
            if not alive:
                alive.append([ref() is not None for ref in refs])

        # Not unpacked into the call, whose argument tuple would keep the rows.
        rngs, keys = rngs_and_keys(0, 5, hyper)
        run_protocol(rows(9), rows(6), hyper, rngs, keys, message_tap=tap)
        assert alive == [[False, False]]

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


class FaultyEndpoint:
    """Swallows the ``seq`` message at its sender (``drop``), or replaces the
    fields that ``rewrite(msg)`` returns in it at its receiver."""

    def __init__(self, inner, seq, rewrite=None, drop=False):
        self._inner, self._seq, self._rewrite, self._drop = inner, seq, rewrite, drop
        self.role = inner.role

    def send(self, msg):
        if not (self._drop and msg.seq == self._seq):
            self._inner.send(msg)

    def recv(self, sender, timeout=None):
        msg = self._inner.recv(sender, timeout)
        if self._rewrite is not None and msg.seq == self._seq:
            msg = dataclasses.replace(msg, **self._rewrite(msg))
        return msg

    def close(self):
        self._inner.close()


def wrong_seq(msg):
    return {"seq": 12 if msg.seq != 12 else 11}


def TamperEndpoint(inner, corrupt_seq):
    """Delivers one chosen message with a corrupted sequence number."""
    return FaultyEndpoint(inner, corrupt_seq, rewrite=wrong_seq)


def session_abort(xa, xb, seed, seq=None, tcp=False, timeout_s=2.0, **fault):
    """The abort of a small session over the bus, or a TCP trio if ``tcp``,
    whose ``seq`` message is faulted by a ``FaultyEndpoint(**fault)`` at that
    message's sender (``drop``) or receiver (``rewrite``). Every party must
    end aborted and zeroized."""
    endpoints = make_tcp_endpoints() if tcp else make_bus_endpoints()
    if seq is not None:
        _, sender, receiver, _, _ = SCHEDULE[seq - 1]
        at = sender if fault.get("drop") else receiver
        endpoints[at] = FaultyEndpoint(endpoints[at], seq, **fault)
    try:
        with pytest.raises(ProtocolAbort) as excinfo:
            run_once(xa, xb, BlsHyperParams(map_groups=2, map_dim=4), seed,
                     endpoints=endpoints, timeout_s=timeout_s)
    finally:
        for ep in endpoints.values():
            ep.close()
    for party in excinfo.value.parties.values():
        assert party.aborted
        assert party.view_matrices() == {}
    return excinfo.value


def uniform_rows(seed):
    """Four rows for client A and five for client B, three features each."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))


RECEIVER_OF_SEQ = {
    1: Role.CLIENT_A, 2: Role.CLIENT_B, 3: Role.CLIENT_B, 4: Role.CLIENT_A,
    5: Role.SERVER, 6: Role.CLIENT_B, 7: Role.CLIENT_A, 8: Role.CLIENT_A,
    9: Role.CLIENT_B, 10: Role.SERVER, 11: Role.SERVER, 12: Role.SERVER,
}


def widen_first_payload(msg):
    first, *rest = msg.payloads
    return {"payloads": (np.hstack([first, np.zeros((first.shape[0], 1))]), *rest)}


def nan_in_first_payload(msg):
    first, *rest = msg.payloads
    first = first.copy()
    first[-1, -1] = np.nan
    return {"payloads": (first, *rest)}


class TestAbort:
    def test_out_of_order_message_aborts_and_zeroizes(self):
        abort = session_abort(*uniform_rows(6), 7, seq=3, rewrite=wrong_seq)
        assert abort.role == Role.CLIENT_B

    def test_timeout_aborts(self):
        # A swallows its blinded data, so B's receive times out: at once on
        # the bus, where nothing else can send it meanwhile.
        session_abort(np.ones((2, 2)), np.ones((2, 2)), 8, seq=3, drop=True, timeout_s=0.3)

    @pytest.mark.parametrize("timeout_s", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_timeout_rejected_before_any_party_starts(self, timeout_s, monkeypatch):
        started = []
        monkeypatch.setattr(protocol, "_drive_in_order", lambda *args: started.append(args))
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        with pytest.raises(ValueError, match="^timeout_s must be in"):
            run_once(np.ones((2, 2)), np.ones((2, 2)), hyper, timeout_s=timeout_s)
        assert started == []

    def test_abort_releases_no_output_and_zeroizes_secrets(self):
        rng = np.random.default_rng(7)
        xa, xb = rng.uniform(0.2, 1, (4, 3)), rng.uniform(0.2, 1, (5, 3))
        parties = session_abort(xa, xb, 9, seq=4, rewrite=wrong_seq).parties
        assert parties is not None
        assert parties[Role.SERVER].mapped_features is None or not np.any(
            parties[Role.SERVER].mapped_features
        )

    def test_session_partial_state_not_exposed(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        server = ServerParty(
            bytes(16), 2, 2, 2, hyper, mask_rng=RngStream(0), mix_key=np.eye(hyper.mapped_width)
        )
        with pytest.raises(ProtocolAbort):
            server.result()

    def test_abort_outside_a_session_carries_no_parties_or_time(self):
        # Only run_protocol fills these in, once the session is closed.
        server = ServerParty(
            bytes(16), 2, 2, 2, BlsHyperParams(map_groups=2, map_dim=4),
            mask_rng=RngStream(0), mix_key=np.eye(8),
        )
        with pytest.raises(ProtocolAbort) as excinfo:
            server.result()
        assert (excinfo.value.role, excinfo.value.seq) == (Role.SERVER, None)
        assert excinfo.value.parties is None
        assert excinfo.value.elapsed_s is None

    def _assert_tampered_session_aborts(self, seq, rewrite):
        abort = session_abort(*uniform_rows(11), 12, seq=seq, rewrite=rewrite)
        assert (abort.role, abort.seq) == (RECEIVER_OF_SEQ[seq], seq)
        return abort

    @pytest.mark.parametrize("seq", range(1, 13))
    def test_wrong_payload_shape_aborts_at_receiver(self, seq):
        self._assert_tampered_session_aborts(seq, widen_first_payload)

    @pytest.mark.parametrize("seq", range(1, 13))
    def test_non_finite_payload_aborts_at_receiver(self, seq):
        abort = self._assert_tampered_session_aborts(seq, nan_in_first_payload)
        assert f"{SCHEDULE[seq - 1][3].name} payload has non-finite entries" in abort.reason

    def test_one_dimensional_payload_aborts_at_receiver(self):
        def flatten_payload(msg):
            return {"payloads": (msg.payloads[0].ravel(),)}

        abort = self._assert_tampered_session_aborts(3, flatten_payload)
        assert "BLINDED_DATA payload has shape (16,), expected 2-D" in abort.reason

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
        abort = session_abort(*uniform_rows(13), 13, tcp=True, timeout_s=5.0)
        assert (abort.role, abort.seq) == (Role.CLIENT_B, 3)
        assert "checksum" in abort.reason

    @pytest.mark.parametrize("rewrite, reason", [
        (nan_in_first_payload, "BLINDED_DATA payload has non-finite entries"),
        (lambda msg: {"seq": 0}, "expected seq 3 BLINDED_DATA from CLIENT_A, got seq 0"),
        (lambda msg: {"receiver": msg.sender}, "misdelivered message for CLIENT_A"),
    ], ids=["non-finite", "seq-0", "receiver-is-sender"])
    def test_forged_tcp_frame_aborts_at_its_receiver(
        self, rewrite, reason, monkeypatch
    ):
        # The codec checks a frame's structure only, so a well-formed seq-3
        # frame with a bad value or field reaches B, whose handle rejects it.
        encode = transport.encode_message

        def rewrite_seq3(msg):
            if msg.seq == 3:
                msg = dataclasses.replace(msg, **rewrite(msg))
            return encode(msg)

        monkeypatch.setattr(transport, "encode_message", rewrite_seq3)
        abort = session_abort(*uniform_rows(13), 13, tcp=True, timeout_s=5.0)
        assert (abort.role, abort.seq) == (Role.CLIENT_B, 3)
        assert reason in abort.reason

    def test_abort_attribution_over_48_tampered_sessions(self):
        # 48 tampered sessions, alternating bus and TCP, each seq twice on
        # each; a lost or late first failure would misattribute an abort.
        rows = uniform_rows(15)
        for i in range(48):
            seq = i // 2 % 12 + 1
            abort = session_abort(*rows, i, seq=seq, tcp=bool(i % 2), timeout_s=5.0,
                                  rewrite=widen_first_payload)
            assert (abort.role, abort.seq) == (RECEIVER_OF_SEQ[seq], seq), i


@pytest.fixture
def ledger(monkeypatch):
    """Every array that a party holds, as (role, name, array) in hold order,
    recorded through ``Party._hold``, so that a test can see what was
    dropped without being wiped."""
    held = []
    hold = protocol.Party._hold

    def record(party, name, mat):
        held.append((party.role, name, mat))
        return hold(party, name, mat)

    monkeypatch.setattr(protocol.Party, "_hold", record)
    return held


def unwiped(ledger):
    """The names of the ledger's arrays that are not all zeros."""
    return [(role.name, name) for role, name, mat in ledger if np.any(mat)]


class TestLedger:
    """What each party holds, wipes and releases, read from the ledger."""

    HYPER = BlsHyperParams(map_groups=2, map_dim=4)  # half width 4, mapped width 8

    @pytest.mark.parametrize("widths, key_a, key_b, mix_key, reason", [
        ((2, 2), (3, 4), (2, 2), 8, r"CLIENT_B key must be \(3, 4\), got \(2, 2\)"),
        ((2, 3), (3, 4), (4, 4), 8, "clients disagree on feature count: 2 vs 3"),
        ((2, 2), (3, 4), (3, 4), 4, r"SERVER mix_key must be \(8, 8\), got \(4, 4\)"),
    ], ids=["key-b", "widths", "mix-key"])
    def test_setup_error_wipes_every_party_built(self, ledger, widths, key_a, key_b, mix_key,
                                                 reason):
        keys = FederationKeys(np.ones(key_a), np.ones(key_b), np.ones((mix_key, mix_key)))
        with pytest.raises(ValueError, match=f"^{reason}$"):
            run_protocol(np.ones((3, widths[0])), np.ones((2, widths[1])), self.HYPER,
                         PartyRngs(mask=RngStream(0)), keys)
        assert ledger
        assert unwiped(ledger) == []
        # The parties wiped their copies, not the caller's keys.
        assert all(np.all(key == 1) for key in vars(keys).values())

    def test_finished_session_holds_its_named_arrays(self, ledger):
        res = run_once(*uniform_rows(26), self.HYPER)
        assert {role: set(party.view_matrices()) for role, party in res.parties.items()} == {
            Role.SERVER: {
                "cross_ab", "cross_ba", "mapped_features", "mix_key",
                "own_a", "own_b", "seeds_ab", "seeds_ba",
            },
            **dict.fromkeys((Role.CLIENT_A, Role.CLIENT_B), {
                "blinded_data", "key", "masked_cross", "own_blinded_key", "own_masked_cross",
                "own_product", "partial_cross", "peer_blinded_data", "peer_blinded_key", "x_aug",
            }),
        }

    def test_arrays_released_mid_session_are_zeros(self, ledger):
        res = run_once(*uniform_rows(27), self.HYPER)
        still_held = {id(mat) for party in res.parties.values()
                      for mat in party.view_matrices().values()}
        released = [entry for entry in ledger if id(entry[2]) not in still_held]
        # Per client its data mask, key and cross masks and their two seed
        # rows; the server's two corrections.
        assert len(released) == 12
        assert unwiped(released) == []

    def test_seed_rows_of_the_data_masks_are_wiped_once_expanded(self):
        # On the bus a received payload is the sent array itself.
        tapped = []
        run_once(*uniform_rows(28), self.HYPER, message_tap=tapped.append)
        seeds = [p for msg in tapped if msg.seq in (1, 6) for p in msg.payloads]
        assert len(seeds) == 2
        assert not any(np.any(seed) for seed in seeds)

    @pytest.mark.parametrize("seq", range(1, 13))
    def test_aborted_session_wipes_every_held_array(self, ledger, seq):
        session_abort(*uniform_rows(29), 29, seq=seq, rewrite=wrong_seq)
        assert ledger
        assert unwiped(ledger) == []


def tampered_abort(seq, rewrite):
    """The abort of a small session whose ``seq`` message is rewritten at its receiver."""
    return session_abort(*uniform_rows(18), 18, seq=seq, rewrite=rewrite)


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
            dims = {**SEED_DIMS, "a": n_a, "b": n_b, "d1": d + 1, "h": hyper.half_width}
            assert [e.seq for e in res.transcript] == [row[0] for row in SCHEDULE]
            assert [e.payload_shapes for e in res.transcript] == [
                [tuple(dims[name] for name in names) for names in row[4]] for row in SCHEDULE
            ]

    def test_missing_payload_aborts_at_its_receiver_naming_the_count(self):
        abort = tampered_abort(2, lambda msg: {"payloads": msg.payloads[:1]})
        assert (abort.role, abort.seq) == (Role.CLIENT_B, 2)
        assert "KEY_MASKS needs 2 payloads, got 1" in abort.reason

    def test_blinded_data_with_wrong_rows_aborts_at_the_data_holder(self):
        # B learns A's row count from the seq-3 blinded rows and sizes its
        # cross mask by it, so a taller seq 3 surfaces when A checks seq 4.
        def taller_blinded_data(msg):
            (blinded,) = msg.payloads
            return {"payloads": (np.vstack([blinded, blinded[:1]]),)}

        abort = tampered_abort(3, taller_blinded_data)
        assert (abort.role, abort.seq) == (Role.CLIENT_A, 4)
        assert "BLINDED_KEY_AND_CROSS payload has shape (5, 4), expected (4, 4)" in abort.reason


def rewrite_last_seed(column, value):
    """A rewrite of a message's last seed row with one entry replaced."""
    def rewrite(msg):
        row = msg.payloads[-1].copy()
        row[0, column] = value
        return {"payloads": (*msg.payloads[:-1], row)}

    return rewrite


class TestSeedRows:
    """Seq 1, 2, 6 and 7 carry 1 x 5 seed rows, which their receivers expand
    into the masks that the server expands from the same seeds."""

    @pytest.mark.parametrize("seq", [1, 2])
    @pytest.mark.parametrize("column,value,reason", [
        (0, 2.0**32, "seed words must be integers in [0, 2**32)"),
        (3, 0.5, "seed words must be integers in [0, 2**32)"),
        (4, -1.0, "mask range must be in [0, "),
        (4, protocol.MAX_MASK_RANGE * 1.5, "mask range must be in [0, "),
    ], ids=["word-2**32", "fractional-word", "negative-range", "range-above-max"])
    def test_malformed_seed_row_aborts_at_its_receiver(self, seq, column, value, reason):
        abort = tampered_abort(seq, rewrite_last_seed(column, value))
        assert (abort.role, abort.seq) == (RECEIVER_OF_SEQ[seq], seq)
        assert abort.reason.startswith(f"{SCHEDULE[seq - 1][3].name} {reason}")

    def test_mask_frames_do_not_grow_with_the_rows(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(21)
        lengths = []
        for na, nb in [(1, 1), (20, 5), (300, 7)]:
            tapped = []
            res = run_once(
                rng.uniform(0, 1, (na, 3)), rng.uniform(0, 1, (nb, 3)), hyper,
                message_tap=tapped.append,
            )
            by_seq = {e.seq: e.byte_length for e in res.transcript if e.seq in (1, 2, 6, 7)}
            assert by_seq == {
                m.seq: len(transport.encode_message(m)) for m in tapped if m.seq in by_seq
            }
            lengths.append(by_seq)
        # header 27 + per seed row 8 bytes of dims and 5 doubles + crc 4
        assert lengths == [{1: 79, 2: 127, 6: 79, 7: 127}] * 3

    def test_clients_expand_the_servers_masks(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(22)
        xa, xb = rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (4, 3))
        res = run_once(xa, xb, hyper, seed=23)
        server = res.parties[Role.SERVER]
        a_view = res.parties[Role.CLIENT_A].view_matrices()
        b_view = res.parties[Role.CLIENT_B].view_matrices()
        # A's blinded rows are its augmented rows plus the server's data mask.
        assert np.array_equal(a_view["blinded_data"], augment(xa) + server.masks_ab.data_mask)
        assert np.array_equal(b_view["blinded_data"], augment(xb) + server.masks_ba.data_mask)
        assert np.array_equal(b_view["own_blinded_key"], res.keys.key_b + server.masks_ab.key_mask)

    def test_finished_session_holds_no_dense_mask(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        rng = np.random.default_rng(24)
        res = run_once(rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (5, 3)), hyper, seed=25)
        server = res.parties[Role.SERVER]
        masks = [m for ms in (server.masks_ab, server.masks_ba) for m in vars(ms).values()]
        held = server.view_matrices()
        assert set(held) <= {
            "mix_key", "seeds_ab", "seeds_ba", "correction_ab", "correction_ba",
            "cross_ab", "cross_ba", "own_a", "own_b", "mapped_features",
        }
        assert held["seeds_ab"].shape == held["seeds_ba"].shape == (3, 5)
        for role in (Role.CLIENT_A, Role.CLIENT_B):
            client = res.parties[role].view_matrices()
            assert not set(client) & {
                "data_mask", "key_mask", "cross_mask", "key_mask_seed", "cross_mask_seed"
            }
            held.update({f"{role.name}:{name}": mat for name, mat in client.items()})
        for name, mat in held.items():
            assert not any(np.array_equal(mat, mask) for mask in masks), name

    def test_zero_mask_seed_rows_expand_to_zeros(self):
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        server = ServerParty(
            bytes(16), 3, 2, 2, hyper, mask_rng=RngStream(0), mix_key=np.eye(hyper.mapped_width),
            zero_masks=True,
        )
        assert np.all(server.view_matrices()["seeds_ab"][:, -1] == 0)
        for mask in vars(server.masks_ab).values():
            assert not np.any(mask)
        assert not np.any(server.view_matrices()["correction_ab"])

    def test_draw_mask_set_expands_each_row_to_its_shape(self):
        rows = [protocol.seed_row(RngStream(s).words(4), 7.0) for s in (1, 2)]
        first, second = draw_mask_set(rows, [(3, 2), (1, 4)])
        assert first.shape == (3, 2) and second.shape == (1, 4)
        assert np.all(np.abs(first) <= 7.0) and not np.array_equal(first[0, :2], second[0, :2])
        assert np.array_equal(first, draw_mask_set(rows[:1], [(3, 2)])[0])

    def test_blocks_of_a_mask_are_the_whole_mask(self):
        row = protocol.seed_row(RngStream(3).words(4), 50.0)
        blocks = list(protocol.mask_blocks(row, (10, 3), 4))
        assert [lo for lo, _ in blocks] == [0, 4, 8]
        whole = protocol.expand_mask(row, (10, 3))
        assert np.array_equal(np.vstack([block for _, block in blocks]), whole)

    def test_server_correction_without_the_dense_data_mask(self, monkeypatch):
        monkeypatch.setattr(protocol, "CORRECTION_BLOCK_ROWS", 4)
        rows = [protocol.seed_row(RngStream(s).words(4), 1e3) for s in (4, 5, 6)]
        shapes = [(10, 6), (6, 3), (10, 3)]
        expected = mask_correction(MaskSet(*draw_mask_set(rows, shapes)))
        assert np.allclose(protocol.seeded_correction(rows, shapes), expected, rtol=0, atol=1e-9)


class TestAbortElapsed:
    """An abort carries the seconds from the start of the session to its first failure."""

    def test_tampered_session(self):
        started = time.perf_counter()
        abort = tampered_abort(3, widen_first_payload)
        assert 0 < abort.elapsed_s < time.perf_counter() - started

    @pytest.mark.parametrize("tcp", [False, True], ids=["bus", "tcp"])
    def test_stalled_session(self, tcp):
        # A TCP frame may still be in flight, so its receive waits out the
        # timeout; a bus message that is not queued can never be sent.
        started = time.perf_counter()
        abort = session_abort(np.ones((2, 2)), np.ones((2, 2)), 0, seq=3, drop=True, tcp=tcp,
                              timeout_s=0.3)
        assert (abort.role, abort.seq, abort.reason) == (
            Role.CLIENT_B, 3,
            "TransportTimeout: seq 3 BLINDED_DATA from CLIENT_A did not arrive within 0.3s",
        )
        assert abort.elapsed_s < time.perf_counter() - started
        if tcp:
            assert abort.elapsed_s >= 0.3
        else:
            assert abort.elapsed_s < 0.03


class TestStalledSession:
    """A session stalled by a missing message names the message that never
    came, not whichever party's receive timed out first."""

    @pytest.mark.parametrize("seq", range(1, 13))
    def test_dropped_message_aborts_at_its_receiver(self, seq):
        _, sender, receiver, kind, _ = SCHEDULE[seq - 1]
        abort = session_abort(np.ones((2, 2)), np.ones((3, 2)), 0, seq=seq, drop=True,
                              timeout_s=0.2)
        assert (abort.role, abort.seq) == (receiver, seq)
        if seq == 10:
            # B's seq 12 follows seq 10 on the same queue, and overtakes it.
            assert abort.reason.startswith("expected seq 10 UNBLINDED_CROSS from CLIENT_B")
        else:
            assert abort.reason.startswith(
                f"TransportTimeout: seq {seq} {kind.name} from {sender.name} did not arrive"
            )


class TestSessionThreads:
    """A session runs every party on the calling thread, over the bus and
    over TCP: no send waits for its receiver."""

    @staticmethod
    def senders(**kwargs):
        """(sender, sending thread, live thread count) of each message of a session."""
        seen = []

        def tap(msg):
            seen.append((msg.sender, threading.current_thread(), threading.active_count()))

        res = run_once(*uniform_rows(20), BlsHyperParams(map_groups=2, map_dim=4),
                       message_tap=tap, **kwargs)
        assert res.message_count == len(seen) == 12
        return seen

    def test_bus_session_starts_no_thread(self):
        baseline = threading.active_count()
        seen = self.senders()
        assert {(thread, count) for _, thread, count in seen} == {
            (threading.current_thread(), baseline)
        }

    def test_tcp_session_starts_no_thread(self):
        baseline = threading.active_count()
        endpoints = make_tcp_endpoints()
        try:
            seen = self.senders(endpoints=endpoints)
        finally:
            for ep in endpoints.values():
                ep.close()
        assert {(thread, count) for _, thread, count in seen} == {
            (threading.current_thread(), baseline)
        }
        assert threading.active_count() == baseline

    def test_interrupt_in_a_bus_session_is_raised_unwrapped(self, monkeypatch):
        def interrupt(party, msg):
            raise KeyboardInterrupt

        monkeypatch.setattr(protocol.ClientParty, "_on_blinded_data", interrupt)
        driven = self.spy_on_drives(monkeypatch)
        endpoints = make_bus_endpoints()
        with pytest.raises(KeyboardInterrupt):
            run_once(*uniform_rows(21), BlsHyperParams(map_groups=2, map_dim=4),
                     endpoints=endpoints)
        with pytest.raises(transport.TransportClosed):
            endpoints[Role.SERVER].recv(Role.CLIENT_A, 0.1)
        for party in driven[0].values():
            assert party.aborted
            assert party.view_matrices() == {}

    @staticmethod
    def spy_on_drives(monkeypatch):
        """A list that gets the parties of each call of ``_drive_in_order``."""
        driven = []
        drive_in_order = protocol._drive_in_order

        def spy(parties, *args):
            driven.append(parties)
            return drive_in_order(parties, *args)

        monkeypatch.setattr(protocol, "_drive_in_order", spy)
        return driven

    @pytest.mark.parametrize("seq", [3, 10])
    def test_dropped_message_gives_the_same_abort_on_both_backends(self, seq, monkeypatch):
        driven = self.spy_on_drives(monkeypatch)
        aborts = [
            session_abort(np.ones((2, 2)), np.ones((3, 2)), 0, seq=seq, drop=True, tcp=tcp,
                          timeout_s=0.2)
            for tcp in (False, True)
        ]
        bus, tcp = ((a.role, a.seq, a.reason) for a in aborts)
        assert bus == tcp
        assert bus[:2] == (SCHEDULE[seq - 1][2], seq)
        assert len(driven) == 2


class TestStepShapeChecks:
    """A mismatch the step's own product refuses raises ValueError from the
    step; the checks that remain guard what numpy would broadcast or tile."""

    def test_cross_inner_dimension(self):
        with pytest.raises(ValueError):
            blind_key_and_cross(np.ones((3, 4)), np.ones((5, 2)), np.ones((5, 2)), np.ones((3, 2)))

    def test_mix_key_width(self):
        with pytest.raises(ValueError):
            assemble_mapped_features(
                np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2)), np.ones((3, 2)), np.eye(5)
            )

    def test_uneven_column_tiling(self):
        # np.block would tile (2,3)|(2,1) over (3,2)|(3,2) into a (5,4) matrix.
        with pytest.raises(ValueError, match="column counts do not tile"):
            assemble_mapped_features(
                np.ones((2, 3)), np.ones((2, 1)), np.ones((3, 2)), np.ones((3, 2)), np.eye(4)
            )

    def test_single_row_data_mask(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            blind_data(np.ones((3, 4)), np.ones((1, 4)))

    def test_single_row_key_mask(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            blind_key_and_cross(np.ones((3, 4)), np.ones((4, 2)), np.ones((1, 2)), np.ones((3, 2)))
