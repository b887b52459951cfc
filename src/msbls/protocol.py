"""Three-party masked feature generation.

Two clients hold private row-blocks of the input; a helper server holds
additive masks and the second-stage mix key. The session computes the joint
mapped features

    Zn = [[Xa_aug @ Ka, Xa_aug @ Kb],
          [Xb_aug @ Ka, Xb_aug @ Kb]] @ mix_key

without either client revealing its rows or key half and without the server
ever receiving data or keys unblinded. The off-diagonal blocks need
interaction; each is produced by one masked pass:

    seq  1  server  -> A       data mask Ra
    seq  2  server  -> B       key mask Rb_key, cross mask Rb_cross
    seq  3  A       -> B       Xa_aug + Ra
    seq  4  B       -> A       Kb + Rb_key,  (Xa_aug + Ra) @ Kb + Rb_cross
    seq  5  A       -> server  seq4 product - Ra @ (Kb + Rb_key)
    seq  6..10  the mirrored pass (B holds data, A holds the key, fresh masks)
    seq 11  A       -> server  Xa_aug @ Ka
    seq 12  B       -> server  Xb_aug @ Kb

The server removes its own masks from seq5/seq10 to recover the two cross
blocks, then mixes all four blocks with a locally drawn mix key. Exactly 12
matrix-bearing messages are exchanged for any input size. Any out-of-order,
malformed, or missing message aborts the session: no features are released
and every party zeroizes its held matrices.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import transport
from .bls import BlsHyperParams, augment
from .linalg import RngStream, as_matrix
from .messages import MessageKind, ProtocolMessage, Role, new_session_id

DEFAULT_MASK_RANGE = 1e3


class ProtocolAbort(RuntimeError):
    """Session failed; carries the aborting role and offending step.

    When raised from run_protocol, ``parties`` holds the (already zeroized)
    party states for post-mortem inspection.
    """

    def __init__(self, role: Role, seq, reason: str):
        self.role = role
        self.seq = seq
        self.reason = reason
        self.parties: dict | None = None
        super().__init__(f"{role.name} aborted at seq {seq}: {reason}")


@dataclass
class MaskSet:
    """Server-held masks for one directional pass.

    data_mask blinds the data holder's augmented rows, key_mask blinds the
    key holder's key half, cross_mask blinds the masked cross product.
    """

    data_mask: np.ndarray
    key_mask: np.ndarray
    cross_mask: np.ndarray


def draw_mask_set(
    n_rows: int,
    d: int,
    half_width: int,
    rng: RngStream,
    mask_range: float,
    zero_masks: bool = False,
) -> MaskSet:
    # In MaskSet field order: data mask, key mask, cross mask.
    shapes = ((n_rows, d + 1), (d + 1, half_width), (n_rows, half_width))
    if zero_masks:
        return MaskSet(*(np.zeros(shape) for shape in shapes))
    return MaskSet(*(rng.uniform(-mask_range, mask_range, *shape) for shape in shapes))


# Pure per-step calculations, shared by both directional passes.

def blind_data(x_aug, data_mask) -> np.ndarray:
    """Data holder's step: additively mask the augmented rows."""
    if x_aug.shape != data_mask.shape:
        raise ValueError(
            f"shape mismatch: data {x_aug.shape} vs mask {data_mask.shape}"
        )
    return x_aug + data_mask


def blind_key_and_cross(blinded_data, key_half, key_mask, cross_mask):
    """Key holder's step: mask the key and the product with the blinded data."""
    if key_half.shape != key_mask.shape:
        raise ValueError(
            f"shape mismatch: key {key_half.shape} vs mask {key_mask.shape}"
        )
    if blinded_data.shape[1] != key_half.shape[0]:
        raise ValueError(
            f"blinded data has {blinded_data.shape[1]} columns, "
            f"key expects {key_half.shape[0]}"
        )
    blinded_key = key_half + key_mask
    masked_cross = blinded_data @ key_half + cross_mask
    return blinded_key, masked_cross


def unblind_cross(masked_cross, blinded_key, data_mask) -> np.ndarray:
    """Data holder's step: strip its own mask's contribution from the product."""
    return masked_cross - data_mask @ blinded_key


def recover_cross_product(partial, masks: MaskSet) -> np.ndarray:
    """Server's step: remove the remaining mask terms, leaving data @ key."""
    return partial - masks.cross_mask + masks.data_mask @ masks.key_mask


def assemble_mapped_features(own_a, cross_ab, cross_ba, own_b, mix_key) -> np.ndarray:
    """Tile the four blocks (A rows above B rows) and apply the mix key."""
    if own_a.shape[0] != cross_ab.shape[0] or own_b.shape[0] != cross_ba.shape[0]:
        raise ValueError("block row counts do not tile")
    if len({own_a.shape[1], cross_ab.shape[1], cross_ba.shape[1], own_b.shape[1]}) != 1:
        raise ValueError("block column counts do not tile")
    block = np.block([[own_a, cross_ab], [cross_ba, own_b]])
    if block.shape[1] != mix_key.shape[0]:
        raise ValueError(
            f"assembled width {block.shape[1]} does not match mix key {mix_key.shape}"
        )
    return block @ mix_key


# Per-role receive schedules: (seq, sender, kind) in strict order.

_EXPECTED = {
    Role.SERVER: (
        (5, Role.CLIENT_A, MessageKind.UNBLINDED_CROSS),
        (10, Role.CLIENT_B, MessageKind.UNBLINDED_CROSS),
        (11, Role.CLIENT_A, MessageKind.OWN_PRODUCT_A),
        (12, Role.CLIENT_B, MessageKind.OWN_PRODUCT_B),
    ),
    Role.CLIENT_A: (
        (1, Role.SERVER, MessageKind.DATA_MASK),
        (4, Role.CLIENT_B, MessageKind.BLINDED_KEY_AND_CROSS),
        (7, Role.SERVER, MessageKind.KEY_MASKS),
        (8, Role.CLIENT_B, MessageKind.BLINDED_DATA),
    ),
    Role.CLIENT_B: (
        (2, Role.SERVER, MessageKind.KEY_MASKS),
        (3, Role.CLIENT_A, MessageKind.BLINDED_DATA),
        (6, Role.SERVER, MessageKind.DATA_MASK),
        (9, Role.CLIENT_A, MessageKind.BLINDED_KEY_AND_CROSS),
    ),
}

# Per client: its peer, and the seq and kind of the own block it sends once
# its scheduled receives are done.
_CLIENTS = {
    Role.CLIENT_A: (Role.CLIENT_B, 11, MessageKind.OWN_PRODUCT_A),
    Role.CLIENT_B: (Role.CLIENT_A, 12, MessageKind.OWN_PRODUCT_B),
}


class Party:
    """Base state machine: strict receive schedule, held-matrix registry.

    Payloads arrive validated by ``ProtocolMessage``; handlers check only
    that their shapes fit this party's state.
    """

    role: Role

    def __init__(self, session_id: bytes):
        self.session_id = session_id
        self.aborted = False
        self._cursor = 0
        self._mats: dict[str, np.ndarray] = {}

    def _hold(self, name: str, mat: np.ndarray) -> np.ndarray:
        self._mats[name] = mat
        return mat

    def _hold_key(self, name: str, key, shape: tuple[int, int]) -> np.ndarray:
        """Validate a key and hold a copy of it."""
        # Copy so a later zeroize cannot destroy caller-persisted keys.
        held = self._hold(name, as_matrix(np.array(key, dtype=np.float64, copy=True), name))
        if held.shape != shape:
            raise ValueError(f"{name} must be {shape}, got {held.shape}")
        return held

    def view_matrices(self) -> dict[str, np.ndarray]:
        """Everything this party has stored; used by confinement checks."""
        return dict(self._mats)

    def zeroize(self) -> None:
        """Overwrite all held matrices in place and drop them."""
        self.aborted = True
        for mat in self._mats.values():
            mat.fill(0.0)
        self._mats.clear()

    def start(self) -> list[ProtocolMessage]:
        return []

    def expected_receive(self):
        schedule = _EXPECTED[self.role]
        if self._cursor >= len(schedule):
            return None
        return schedule[self._cursor]

    def abort(self, seq, reason: str):
        raise ProtocolAbort(self.role, seq, reason)

    def handle(self, msg: ProtocolMessage) -> list[ProtocolMessage]:
        expected = self.expected_receive()
        if expected is None:
            self.abort(msg.seq, "unexpected message after schedule end")
        seq, sender, kind = expected
        if msg.session_id != self.session_id:
            self.abort(msg.seq, "message from a different session")
        if msg.receiver != self.role:
            self.abort(msg.seq, f"misdelivered message for {msg.receiver.name}")
        if (msg.seq, msg.sender, msg.kind) != (seq, sender, kind):
            self.abort(
                msg.seq,
                f"expected seq {seq} {kind.name} from {sender.name}, "
                f"got seq {msg.seq} {msg.kind.name} from {msg.sender.name}",
            )
        out = getattr(self, f"_on_{kind.name.lower()}")(msg)
        self._cursor += 1
        if self.expected_receive() is None:
            out += self._finish()
        return out

    def _finish(self) -> list[ProtocolMessage]:
        """Work due after the last scheduled receive."""
        return []

    def _msg(self, seq, receiver, kind, payloads) -> ProtocolMessage:
        return ProtocolMessage(
            session_id=self.session_id,
            seq=seq,
            sender=self.role,
            receiver=receiver,
            kind=kind,
            payloads=tuple(payloads),
        )

    def _check_shape(self, seq, mat, shape, what: str):
        if mat.shape != shape:
            self.abort(seq, f"{what} has shape {mat.shape}, expected {shape}")


class ServerParty(Party):
    """Draws masks, recovers the cross blocks, mixes the assembled features."""

    role = Role.SERVER

    def __init__(
        self,
        session_id: bytes,
        n_a: int,
        n_b: int,
        d: int,
        hyper: BlsHyperParams,
        mask_rng: RngStream,
        mix_rng: RngStream | None = None,
        mix_key=None,
        mask_range: float = DEFAULT_MASK_RANGE,
        zero_masks: bool = False,
    ):
        super().__init__(session_id)
        if min(n_a, n_b, d) < 1:
            raise ValueError("all dimensions must be positive")
        self.n_a, self.n_b, self.d = n_a, n_b, d
        self.half_width = hyper.half_width
        self.hyper = hyper
        self._mix_rng = mix_rng
        if mix_key is None:
            if mix_rng is None:
                raise ValueError("need either a persisted mix key or a mix stream")
            self.mix_key = None
        else:
            width = hyper.mapped_width
            self.mix_key = self._hold_key("mix_key", mix_key, (width, width))
        # Both passes' masks are drawn up front; the mirrored pass gets fresh
        # draws sized to the other client's row count.
        self.masks_ab = draw_mask_set(n_a, d, self.half_width, mask_rng, mask_range, zero_masks)
        self.masks_ba = draw_mask_set(n_b, d, self.half_width, mask_rng, mask_range, zero_masks)
        for tag, ms in (("ab", self.masks_ab), ("ba", self.masks_ba)):
            self._hold(f"data_mask_{tag}", ms.data_mask)
            self._hold(f"key_mask_{tag}", ms.key_mask)
            self._hold(f"cross_mask_{tag}", ms.cross_mask)
        self.mapped_features = None

    def _open_pass(self, seq, data_holder, key_holder, masks: MaskSet) -> list[ProtocolMessage]:
        """Send one directional pass's masks: seq to the data holder, seq + 1 to the key holder."""
        return [
            self._msg(seq, data_holder, MessageKind.DATA_MASK, [masks.data_mask]),
            self._msg(
                seq + 1, key_holder, MessageKind.KEY_MASKS, [masks.key_mask, masks.cross_mask]
            ),
        ]

    def start(self) -> list[ProtocolMessage]:
        return self._open_pass(1, Role.CLIENT_A, Role.CLIENT_B, self.masks_ab)

    def _on_unblinded_cross(self, msg) -> list[ProtocolMessage]:
        (partial,) = msg.payloads
        if msg.sender == Role.CLIENT_A:
            self._check_shape(msg.seq, partial, (self.n_a, self.half_width), "unblinded cross")
            self._hold("cross_ab", recover_cross_product(partial, self.masks_ab))
            return self._open_pass(6, Role.CLIENT_B, Role.CLIENT_A, self.masks_ba)
        self._check_shape(msg.seq, partial, (self.n_b, self.half_width), "unblinded cross")
        self._hold("cross_ba", recover_cross_product(partial, self.masks_ba))
        return []

    def _on_own_product_a(self, msg) -> list[ProtocolMessage]:
        (own,) = msg.payloads
        self._check_shape(msg.seq, own, (self.n_a, self.half_width), "own product A")
        self._hold("own_a", own)
        return []

    def _on_own_product_b(self, msg) -> list[ProtocolMessage]:
        (own,) = msg.payloads
        self._check_shape(msg.seq, own, (self.n_b, self.half_width), "own product B")
        self._hold("own_b", own)
        return []

    def _finish(self) -> list[ProtocolMessage]:
        if self.mix_key is None:
            # The mix key is drawn only once every block has arrived and
            # never leaves the server.
            self.mix_key = self._hold(
                "mix_key",
                self._mix_rng.standard_normal(self.hyper.mapped_width, self.hyper.mapped_width),
            )
        features = assemble_mapped_features(
            self._mats["own_a"],
            self._mats["cross_ab"],
            self._mats["cross_ba"],
            self._mats["own_b"],
            self.mix_key,
        )
        # No message carries the features, so nothing else checks them
        # before they are released.
        if not np.all(np.isfinite(features)):
            self.abort(12, "mapped features contain non-finite entries")
        self.mapped_features = self._hold("mapped_features", features)
        return []

    def result(self) -> np.ndarray:
        if self.aborted or self.mapped_features is None:
            raise ProtocolAbort(self.role, None, "session did not complete")
        return self.mapped_features


class ClientParty(Party):
    """One client: the data holder in its own pass, the key holder in its peer's.

    Client A holds the data in the first pass (seq 1-5) and client B in the
    mirrored pass (seq 6-10); each handler answers within the pass of the
    message it received.
    """

    def __init__(
        self,
        session_id: bytes,
        role: Role,
        x,
        hyper: BlsHyperParams,
        key_rng: RngStream | None = None,
        key=None,
    ):
        super().__init__(session_id)
        if role not in _CLIENTS:
            raise ValueError(f"{role.name} is not a client role")
        self.role = role
        self.peer, self._own_seq, self._own_kind = _CLIENTS[role]
        self.x_aug = self._hold("x_aug", augment(x))
        self.n_rows, self.d = self.x_aug.shape[0], self.x_aug.shape[1] - 1
        self.half_width = hyper.half_width
        if key is None:
            if key_rng is None:
                raise ValueError(
                    f"{role.name} needs either a persisted key half or a key stream"
                )
            key = key_rng.standard_normal(self.d + 1, self.half_width)
        self.key = self._hold_key("key", key, (self.d + 1, self.half_width))
        self.peer_rows = None

    def _on_data_mask(self, msg) -> list[ProtocolMessage]:
        (data_mask,) = msg.payloads
        self._check_shape(msg.seq, data_mask, self.x_aug.shape, "data mask")
        self._hold("data_mask", data_mask)
        blinded = self._hold("blinded_data", blind_data(self.x_aug, data_mask))
        # The peer's key masks go out in between, as seq + 1.
        return [self._msg(msg.seq + 2, self.peer, MessageKind.BLINDED_DATA, [blinded])]

    def _on_key_masks(self, msg) -> list[ProtocolMessage]:
        key_mask, cross_mask = msg.payloads
        self._check_shape(msg.seq, key_mask, (self.d + 1, self.half_width), "key mask")
        if cross_mask.shape[1] != self.half_width:
            self.abort(msg.seq, f"cross mask has width {cross_mask.shape[1]}")
        self._hold("key_mask", key_mask)
        self._hold("cross_mask", cross_mask)
        self.peer_rows = cross_mask.shape[0]
        return []

    def _on_blinded_data(self, msg) -> list[ProtocolMessage]:
        (peer_blinded_data,) = msg.payloads
        self._check_shape(
            msg.seq, peer_blinded_data, (self.peer_rows, self.d + 1), "peer blinded data"
        )
        self._hold("peer_blinded_data", peer_blinded_data)
        blinded_key, masked_cross = blind_key_and_cross(
            peer_blinded_data, self.key, self._mats["key_mask"], self._mats["cross_mask"]
        )
        self._hold("own_blinded_key", blinded_key)
        self._hold("own_masked_cross", masked_cross)
        return [
            self._msg(
                msg.seq + 1,
                self.peer,
                MessageKind.BLINDED_KEY_AND_CROSS,
                [blinded_key, masked_cross],
            )
        ]

    def _on_blinded_key_and_cross(self, msg) -> list[ProtocolMessage]:
        blinded_key, masked_cross = msg.payloads
        self._check_shape(msg.seq, blinded_key, (self.d + 1, self.half_width), "blinded key")
        self._check_shape(msg.seq, masked_cross, (self.n_rows, self.half_width), "masked cross")
        self._hold("peer_blinded_key", blinded_key)
        self._hold("masked_cross", masked_cross)
        partial = self._hold(
            "partial_cross",
            unblind_cross(masked_cross, blinded_key, self._mats["data_mask"]),
        )
        return [self._msg(msg.seq + 1, Role.SERVER, MessageKind.UNBLINDED_CROSS, [partial])]

    def _finish(self) -> list[ProtocolMessage]:
        own_product = self._hold("own_product", self.x_aug @ self.key)
        return [self._msg(self._own_seq, Role.SERVER, self._own_kind, [own_product])]


@dataclass
class PartyRngs:
    """Per-role random streams; key streams are unused when keys are reused."""

    mask: RngStream
    key_a: RngStream | None = None
    key_b: RngStream | None = None
    mix: RngStream | None = None


@dataclass
class FederationKeys:
    """Keys persisted across sessions so test rows map like training rows."""

    key_a: np.ndarray
    key_b: np.ndarray
    mix_key: np.ndarray


@dataclass
class TranscriptEntry:
    session_id: str
    seq: int
    sender: str
    receiver: str
    kind: str
    payload_shapes: list
    byte_length: int

    def to_dict(self) -> dict:
        return {**asdict(self), "payload_shapes": [list(s) for s in self.payload_shapes]}


@dataclass
class SessionResult:
    mapped_features: np.ndarray
    keys: FederationKeys
    transcript: list[TranscriptEntry]
    parties: dict[Role, Party]

    @property
    def message_count(self) -> int:
        return len(self.transcript)

    @property
    def bytes_on_wire(self) -> int:
        return sum(e.byte_length for e in self.transcript)

    def transcript_jsonl(self) -> str:
        """Transcript metadata as JSON lines; payload contents never appear."""
        return "\n".join(json.dumps(e.to_dict()) for e in self.transcript)


def _drive_party(party, endpoint, timeout, record, errors):
    try:
        outbox = party.start()
        while True:
            for out in outbox:
                record(out)
                endpoint.send(out)
            expected = party.expected_receive()
            if expected is None:
                return
            _, sender, _ = expected
            outbox = party.handle(endpoint.recv(sender, timeout))
    except BaseException as exc:
        party.zeroize()
        errors[party.role] = exc


def run_protocol(
    x_a,
    x_b,
    hyper: BlsHyperParams,
    rngs: PartyRngs,
    keys: FederationKeys | None = None,
    endpoints: dict[Role, transport.Endpoint] | None = None,
    mask_range: float = DEFAULT_MASK_RANGE,
    zero_masks: bool = False,
    timeout_s: float | None = None,
    session_id: bytes | None = None,
    message_tap=None,
) -> SessionResult:
    """Run one full 12-message session and return the server-held features.

    ``keys`` reuses persisted per-client key halves and the server mix key
    (masks are always fresh); otherwise keys are drawn from the per-role
    streams in ``rngs``. ``endpoints`` defaults to the in-process bus; a TCP
    endpoint trio gives the identical result bit for bit. ``message_tap``,
    when set, sees every sent message (diagnostics only; the transcript
    itself records metadata, never payloads).
    """
    x_a = as_matrix(x_a, "x_a")
    x_b = as_matrix(x_b, "x_b")
    if x_a.shape[1] != x_b.shape[1]:
        raise ValueError(
            f"clients disagree on feature count: {x_a.shape[1]} vs {x_b.shape[1]}"
        )
    session_id = session_id or new_session_id()
    timeout = transport.DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s

    server = ServerParty(
        session_id,
        n_a=x_a.shape[0],
        n_b=x_b.shape[0],
        d=x_a.shape[1],
        hyper=hyper,
        mask_rng=rngs.mask,
        mix_rng=rngs.mix,
        mix_key=None if keys is None else keys.mix_key,
        mask_range=mask_range,
        zero_masks=zero_masks,
    )
    client_a = ClientParty(
        session_id, Role.CLIENT_A, x_a, hyper,
        key_rng=rngs.key_a, key=None if keys is None else keys.key_a,
    )
    client_b = ClientParty(
        session_id, Role.CLIENT_B, x_b, hyper,
        key_rng=rngs.key_b, key=None if keys is None else keys.key_b,
    )
    parties = {Role.SERVER: server, Role.CLIENT_A: client_a, Role.CLIENT_B: client_b}

    own_endpoints = endpoints is None
    if own_endpoints:
        endpoints = transport.make_bus_endpoints()

    transcript: list[TranscriptEntry] = []
    log_lock = threading.Lock()

    def record(msg: ProtocolMessage):
        entry = TranscriptEntry(
            session_id=msg.session_id.hex(),
            seq=msg.seq,
            sender=msg.sender.name,
            receiver=msg.receiver.name,
            kind=msg.kind.name,
            payload_shapes=msg.payload_shapes(),
            byte_length=msg.encoded_size,
        )
        with log_lock:
            transcript.append(entry)
            if message_tap is not None:
                message_tap(msg)

    errors: dict[Role, BaseException] = {}
    threads = [
        threading.Thread(
            target=_drive_party,
            args=(party, endpoints[role], timeout, record, errors),
            daemon=True,
        )
        for role, party in parties.items()
    ]
    for t in threads:
        t.start()
    closed_early = False
    while any(t.is_alive() for t in threads):
        for t in threads:
            t.join(timeout=0.02)
        if errors and not closed_early:
            # Unblock peers still waiting on a message that will never come.
            closed_early = True
            for ep in endpoints.values():
                ep.close()
    if own_endpoints or errors:
        for ep in endpoints.values():
            ep.close()

    if errors:
        for party in parties.values():
            party.zeroize()
        # A real schedule violation is the root cause; transport errors on
        # the other parties are fallout from closing their endpoints.
        for role in Role:
            if isinstance(errors.get(role), ProtocolAbort):
                first = errors[role]
                first.parties = parties
                raise first
        role = next(r for r in Role if r in errors)
        first = errors[role]
        abort = ProtocolAbort(role, None, f"{type(first).__name__}: {first}")
        abort.parties = parties
        raise abort from first

    transcript.sort(key=lambda e: e.seq)
    return SessionResult(
        mapped_features=server.result(),
        keys=FederationKeys(
            key_a=client_a.key, key_b=client_b.key, mix_key=server.mix_key
        ),
        transcript=transcript,
        parties=parties,
    )
