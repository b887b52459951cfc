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
from .bls import BlsHyperParams, augment, generate_map_key_half, generate_mix_key
from .linalg import RngStream, as_matrix
from .messages import SCHEDULE, ProtocolMessage, Role, new_session_id

DEFAULT_MASK_RANGE = 1e3
# Masks are drawn from a span of 2 * mask_range, which must stay finite.
MAX_MASK_RANGE = float(np.finfo(np.float64).max) / 2


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


def draw_mask_set(shapes, rng: RngStream, mask_range: float, zero_masks: bool = False) -> MaskSet:
    """One pass's masks, ``shapes`` in MaskSet field order: data, key, cross."""
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


class Party:
    """Base state machine: its ``SCHEDULE`` rows in order, held-matrix registry.

    ``dims`` holds the session dimensions this party knows; one it does not
    know yet is taken from the first received payload that carries it.
    ``handle`` checks every payload's shape against its row before any
    handler runs.
    """

    def __init__(self, session_id: bytes, role: Role, dims: dict[str, int]):
        self.session_id = session_id
        self.role = role
        self.dims = dims
        self.aborted = False
        # Built eagerly: a generator over SCHEDULE that read self.role would
        # tie the party into a reference cycle and delay freeing its matrices.
        self._receives = [row for row in SCHEDULE if row[2] == role]
        self._sends = [row for row in SCHEDULE if row[1] == role]
        self._mats: dict[str, np.ndarray] = {}

    def _hold(self, name: str, mat: np.ndarray) -> np.ndarray:
        self._mats[name] = mat
        return mat

    def _hold_key(self, name: str, key, shape: tuple) -> np.ndarray:
        """Hold a copy of a persisted or freshly drawn key."""
        if key is None:
            raise ValueError(f"{self.role.name} needs a persisted {name} or a key stream")
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
        """The next ``SCHEDULE`` row this party receives, or None when done."""
        return self._receives[0] if self._receives else None

    def abort(self, seq, reason: str):
        raise ProtocolAbort(self.role, seq, reason)

    def handle(self, msg: ProtocolMessage) -> list[ProtocolMessage]:
        expected = self.expected_receive()
        if expected is None:
            self.abort(msg.seq, "unexpected message after schedule end")
        seq, sender, _, kind, shapes = expected
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
        if len(msg.payloads) != len(shapes):
            self.abort(seq, f"{kind.name} needs {len(shapes)} payloads, got {len(msg.payloads)}")
        for p, names in zip(msg.payloads, shapes):
            want = tuple(self.dims.setdefault(name, n) for name, n in zip(names, p.shape))
            if p.shape != want:
                self.abort(seq, f"{kind.name} payload has shape {p.shape}, expected {want}")
        out = getattr(self, f"_on_{kind.name.lower()}")(msg)
        self._receives.pop(0)
        if not self._receives:
            out += self._finish(msg)
        return out

    def _finish(self, last: ProtocolMessage) -> list[ProtocolMessage]:
        """Work due after ``last``, the final scheduled receive."""
        return []

    def _msg(self, *payloads) -> ProtocolMessage:
        """This party's next scheduled message, carrying ``payloads``."""
        seq, sender, receiver, kind, _ = self._sends.pop(0)
        return ProtocolMessage(
            session_id=self.session_id,
            seq=seq,
            sender=sender,
            receiver=receiver,
            kind=kind,
            payloads=payloads,
        )


class ServerParty(Party):
    """Draws masks, recovers the cross blocks, mixes the assembled features."""

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
        if min(n_a, n_b, d) < 1:
            raise ValueError("all dimensions must be positive")
        if not 0 < mask_range <= MAX_MASK_RANGE:
            raise ValueError(f"mask_range must be in (0, {MAX_MASK_RANGE!r}], got {mask_range}")
        dims = {"a": n_a, "b": n_b, "d1": d + 1, "h": hyper.half_width}
        super().__init__(session_id, Role.SERVER, dims)
        width = hyper.mapped_width
        if mix_key is None and mix_rng is not None:
            mix_key = generate_mix_key(hyper, mix_rng)
        self.mix_key = self._hold_key("mix_key", mix_key, (width, width))
        # Both passes' masks are drawn up front, each in the shapes of the
        # server's opening sends of that pass (seq 1 and 2, then 6 and 7).
        shapes = [tuple(dims[n] for n in names) for row in self._sends for names in row[4]]
        self.masks_ab = draw_mask_set(shapes[:3], mask_rng, mask_range, zero_masks)
        self.masks_ba = draw_mask_set(shapes[3:], mask_rng, mask_range, zero_masks)
        for tag, ms in (("ab", self.masks_ab), ("ba", self.masks_ba)):
            self._hold(f"data_mask_{tag}", ms.data_mask)
            self._hold(f"key_mask_{tag}", ms.key_mask)
            self._hold(f"cross_mask_{tag}", ms.cross_mask)
        # Per client: the masks of the pass in which it holds the data, and
        # the names of its cross and own blocks.
        self._blocks = {
            Role.CLIENT_A: (self.masks_ab, "cross_ab", "own_a"),
            Role.CLIENT_B: (self.masks_ba, "cross_ba", "own_b"),
        }
        self.mapped_features = None

    def _open_pass(self, masks: MaskSet) -> list[ProtocolMessage]:
        """Send one directional pass's masks: the data mask, then the key masks."""
        return [self._msg(masks.data_mask), self._msg(masks.key_mask, masks.cross_mask)]

    def start(self) -> list[ProtocolMessage]:
        return self._open_pass(self.masks_ab)

    def _on_unblinded_cross(self, msg) -> list[ProtocolMessage]:
        (partial,) = msg.payloads
        masks, cross, _ = self._blocks[msg.sender]
        self._hold(cross, recover_cross_product(partial, masks))
        if msg.sender == Role.CLIENT_A:
            return self._open_pass(self.masks_ba)
        return []

    def _on_own_product(self, msg) -> list[ProtocolMessage]:
        (own,) = msg.payloads
        self._hold(self._blocks[msg.sender][2], own)
        return []

    _on_own_product_a = _on_own_product_b = _on_own_product

    def _finish(self, last) -> list[ProtocolMessage]:
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
            self.abort(last.seq, "mapped features contain non-finite entries")
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
        if role not in (Role.CLIENT_A, Role.CLIENT_B):
            raise ValueError(f"{role.name} is not a client role")
        x_aug = augment(x)
        rows, d1 = x_aug.shape
        own = "a" if role == Role.CLIENT_A else "b"
        super().__init__(session_id, role, {own: rows, "d1": d1, "h": hyper.half_width})
        self.x_aug = self._hold("x_aug", x_aug)
        if key is None and key_rng is not None:
            key = generate_map_key_half(d1 - 1, hyper, key_rng)
        self.key = self._hold_key("key", key, (d1, hyper.half_width))

    def _on_data_mask(self, msg) -> list[ProtocolMessage]:
        (data_mask,) = msg.payloads
        self._hold("data_mask", data_mask)
        return [self._msg(self._hold("blinded_data", blind_data(self.x_aug, data_mask)))]

    def _on_key_masks(self, msg) -> list[ProtocolMessage]:
        key_mask, cross_mask = msg.payloads
        self._hold("key_mask", key_mask)
        self._hold("cross_mask", cross_mask)
        return []

    def _on_blinded_data(self, msg) -> list[ProtocolMessage]:
        (peer_blinded_data,) = msg.payloads
        self._hold("peer_blinded_data", peer_blinded_data)
        blinded_key, masked_cross = blind_key_and_cross(
            peer_blinded_data, self.key, self._mats["key_mask"], self._mats["cross_mask"]
        )
        self._hold("own_blinded_key", blinded_key)
        self._hold("own_masked_cross", masked_cross)
        return [self._msg(blinded_key, masked_cross)]

    def _on_blinded_key_and_cross(self, msg) -> list[ProtocolMessage]:
        blinded_key, masked_cross = msg.payloads
        self._hold("peer_blinded_key", blinded_key)
        self._hold("masked_cross", masked_cross)
        partial = self._hold(
            "partial_cross",
            unblind_cross(masked_cross, blinded_key, self._mats["data_mask"]),
        )
        return [self._msg(partial)]

    def _finish(self, last) -> list[ProtocolMessage]:
        return [self._msg(self._hold("own_product", self.x_aug @ self.key))]


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


def _drive_party(party, endpoint, timeout, record, fail):
    """Send and receive on the party's schedule; hand any failure to ``fail``
    with the seq that was being sent or awaited."""
    seq = None
    try:
        outbox = party.start()
        while True:
            for out in outbox:
                seq = out.seq
                record(out)
                endpoint.send(out)
            expected = party.expected_receive()
            if expected is None:
                return
            seq, sender = expected[:2]
            outbox = party.handle(endpoint.recv(sender, timeout))
    except BaseException as exc:
        fail(party, seq, exc)


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
    session_id = new_session_id()
    timeout = transport.DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s

    # The clients validate their own rows; the server takes its dimensions from them.
    client_a = ClientParty(
        session_id, Role.CLIENT_A, x_a, hyper,
        key_rng=rngs.key_a, key=None if keys is None else keys.key_a,
    )
    client_b = ClientParty(
        session_id, Role.CLIENT_B, x_b, hyper,
        key_rng=rngs.key_b, key=None if keys is None else keys.key_b,
    )
    (n_a, d1), (n_b, d1_b) = client_a.x_aug.shape, client_b.x_aug.shape
    if d1 != d1_b:
        raise ValueError(f"clients disagree on feature count: {d1 - 1} vs {d1_b - 1}")
    server = ServerParty(
        session_id,
        n_a=n_a,
        n_b=n_b,
        d=d1 - 1,
        hyper=hyper,
        mask_rng=rngs.mask,
        mix_rng=rngs.mix,
        mix_key=None if keys is None else keys.mix_key,
        mask_range=mask_range,
        zero_masks=zero_masks,
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

    failures: list[tuple[Role, int | None, BaseException]] = []

    def fail(party: Party, seq, exc: BaseException):
        party.zeroize()
        with log_lock:
            failures.append((party.role, seq, exc))
            if len(failures) == 1:
                # The first failure ends the session: closing every endpoint
                # unblocks the peers, whose own failures are only fallout.
                for ep in endpoints.values():
                    ep.close()

    threads = [
        threading.Thread(
            target=_drive_party,
            args=(party, endpoints[role], timeout, record, fail),
            daemon=True,
        )
        for role, party in parties.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if own_endpoints:
        for ep in endpoints.values():
            ep.close()

    if failures:
        for party in parties.values():
            party.zeroize()
        role, seq, first = failures[0]
        if isinstance(first, ProtocolAbort):
            first.parties = parties
            raise first
        abort = ProtocolAbort(role, seq, f"{type(first).__name__}: {first}")
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
