"""Three-party masked feature generation.

Two clients hold private row-blocks of the input; a helper server holds
additive masks and the second-stage mix key. The session computes the joint
mapped features

    Zn = [[Xa_aug @ Ka, Xa_aug @ Kb],
          [Xb_aug @ Ka, Xb_aug @ Kb]] @ mix_key

without either client revealing its rows or key half and without the server
ever receiving data or keys unblinded. The off-diagonal blocks need
interaction; each is produced by one masked pass:

    seq  1  server  -> A       seed row of the data mask Ra
    seq  2  server  -> B       seed rows of the key mask Rb_key and cross mask Rb_cross
    seq  3  A       -> B       Xa_aug + Ra
    seq  4  B       -> A       Kb + Rb_key,  (Xa_aug + Ra) @ Kb + Rb_cross
    seq  5  A       -> server  seq4 product - Ra @ (Kb + Rb_key)
    seq  6..10  the mirrored pass (B holds data, A holds the key, fresh masks)
    seq 11  A       -> server  Xa_aug @ Ka
    seq 12  B       -> server  Xb_aug @ Kb

A mask travels as its seed row, and its receiver expands it into the dense
mask; B takes A's row count from the seq-3 rows, and A takes B's from seq 8.
The server removes its own masks from seq5/seq10, through one correction per
pass computed from the same seeds, to recover the two cross blocks, then
mixes all four blocks with its mix key. Exactly 12
matrix-bearing messages are exchanged for any input size. Any out-of-order,
malformed, or missing message aborts the session: no features are released
and every party zeroizes its held matrices.

The schedule gives one party work at a time, and no endpoint's send waits
for its receiver, so ``run_protocol`` runs all three parties on the calling
thread, row by row (``_drive_in_order``), over the bus and over TCP alike.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import transport
from .bls import (
    BlsHyperParams, assemble_mapped_features, augment, generate_map_key_half, generate_mix_key,
)
from .linalg import RngStream, as_matrix
from .messages import (
    SCHEDULE, SEED_DIMS, SEED_WORDS, MessageKind, ProtocolMessage, Role, new_session_id,
)

DEFAULT_MASK_RANGE = 1e3
# Masks are drawn from a span of 2 * mask_range, which must stay finite.
MAX_MASK_RANGE = float(np.finfo(np.float64).max) / 2


def check_mask_range(mask_range: float) -> None:
    if not 0 < mask_range <= MAX_MASK_RANGE:
        raise ValueError(f"mask_range must be in (0, {MAX_MASK_RANGE!r}], got {mask_range}")


class ProtocolAbort(RuntimeError):
    """Session failed; carries the aborting role and offending step.

    When raised from run_protocol, ``parties`` holds the (already zeroized)
    party states for post-mortem inspection, and ``elapsed_s`` the seconds
    from the start of run_protocol until the failed session was closed.
    """

    def __init__(self, role: Role, seq, reason: str):
        self.role = role
        self.seq = seq
        self.reason = reason
        self.parties: dict | None = None
        self.elapsed_s: float | None = None
        super().__init__(f"{role.name} aborted at seq {seq}: {reason}")


@dataclass
class MaskSet:
    """One directional pass's masks, as its seed rows expand.

    data_mask blinds the data holder's augmented rows, key_mask blinds the
    key holder's key half, cross_mask blinds the masked cross product.
    """

    data_mask: np.ndarray
    key_mask: np.ndarray
    cross_mask: np.ndarray


# The server draws its data masks in blocks of this many rows (1.6 MB at 785
# columns), so that no dense data mask is allocated on its side.
CORRECTION_BLOCK_ROWS = 256


def seed_row(words, mask_range: float) -> np.ndarray:
    """A mask's 1 x (SEED_WORDS + 1) seed row: its seed words, then its range."""
    return np.append(words.astype(np.float64), mask_range)[None, :]


def seed_row_error(row) -> str | None:
    """Why ``row`` is no seed row, or None if it is one."""
    *words, mask_range = row.ravel()
    if not all(0 <= w < 2**32 and w.is_integer() for w in words):
        return "seed words must be integers in [0, 2**32)"
    if not 0 <= mask_range <= MAX_MASK_RANGE:
        return f"mask range must be in [0, {MAX_MASK_RANGE!r}], got {mask_range!r}"
    return None


def mask_blocks(row, shape, block_rows: int):
    """The mask that seed row ``row`` stands for, as (first row, block) pairs
    of up to ``block_rows`` rows each: uniform in (-range, range) from one
    stream seeded by the row's 128-bit seed, drawn in row order, or zeros
    for range 0."""
    *words, mask_range = row.ravel()
    stream = RngStream(sum(int(w) << (32 * i) for i, w in enumerate(words)))
    rows, cols = shape
    for lo in range(0, rows, block_rows):
        n = min(block_rows, rows - lo)
        if mask_range == 0:
            yield lo, np.zeros((n, cols))
        else:
            yield lo, stream.uniform(-mask_range, mask_range, n, cols)


def expand_mask(row, shape) -> np.ndarray:
    """The mask that seed row ``row`` stands for, drawn whole."""
    ((_, mask),) = mask_blocks(row, shape, shape[0])
    return mask


def draw_mask_set(seed_rows, shapes) -> list[np.ndarray]:
    """Expand each seed row into its mask of the matching shape. The server
    and the receiving client expand the same row into the same mask."""
    return [expand_mask(row, shape) for row, shape in zip(seed_rows, shapes)]


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
    blinded_key = key_half + key_mask
    masked_cross = blinded_data @ key_half + cross_mask
    return blinded_key, masked_cross


def unblind_cross(masked_cross, blinded_key, data_mask) -> np.ndarray:
    """Data holder's step: strip its own mask's contribution from the product."""
    return masked_cross - data_mask @ blinded_key


def mask_correction(masks: MaskSet) -> np.ndarray:
    """The server's share of one pass's recovery: data_mask @ key_mask - cross_mask."""
    correction = masks.data_mask @ masks.key_mask
    correction -= masks.cross_mask
    return correction


def seeded_correction(seed_rows, shapes) -> np.ndarray:
    """``mask_correction`` of the masks that one pass's seed rows stand for,
    without the dense data mask: it is drawn CORRECTION_BLOCK_ROWS rows at a
    time, and each block is wiped once folded in, as are the other masks."""
    key_mask, cross_mask = draw_mask_set(seed_rows[1:], shapes[1:])
    correction = np.empty_like(cross_mask)
    for lo, data_block in mask_blocks(seed_rows[0], shapes[0], CORRECTION_BLOCK_ROWS):
        rows = slice(lo, lo + len(data_block))
        correction[rows] = mask_correction(MaskSet(data_block, key_mask, cross_mask[rows]))
        data_block.fill(0.0)
    key_mask.fill(0.0)
    cross_mask.fill(0.0)
    return correction


def recover_cross_product(partial, correction) -> np.ndarray:
    """Server's step: add its mask correction, leaving data @ key."""
    return partial + correction


class Party:
    """Base state machine: its ``SCHEDULE`` rows in order, held-matrix registry.

    ``dims`` holds the session dimensions this party knows; one it does not
    know yet is taken from the first received payload that carries it.
    ``handle`` checks the next due receive against its row, and each payload's
    rank, shape and finiteness, before any handler runs, on either backend;
    every abort names the awaited seq. Each subclass's ``_finish`` does the
    work due after the final receive.
    """

    def __init__(self, session_id: bytes, role: Role, dims: dict[str, int]):
        self.session_id = session_id
        self.role = role
        self.dims = {**SEED_DIMS, **dims}
        self.aborted = False
        # Built eagerly: a generator over SCHEDULE that read self.role would
        # tie the party into a reference cycle and delay freeing its matrices.
        self._receives = [row for row in SCHEDULE if row[2] == role]
        self._sends = [row for row in SCHEDULE if row[1] == role]
        self._mats: dict[str, np.ndarray] = {}

    def _hold(self, name: str, mat: np.ndarray) -> np.ndarray:
        self._mats[name] = mat
        return mat

    def _release(self, *names: str) -> None:
        """Overwrite held matrices in place after their last use and drop them."""
        for name in names:
            self._mats.pop(name).fill(0.0)

    def _resolve(self, row) -> list[tuple[int, int]]:
        """The payload shapes of ``SCHEDULE`` row ``row`` in this party's dimensions."""
        return [tuple(self.dims[name] for name in names) for names in row[4]]

    def _hold_key(self, name: str, key, shape: tuple) -> np.ndarray:
        """Hold a copy of the caller's key, which a zeroize leaves intact. A
        rejected key wipes this party, which is then never built to be wiped."""
        try:
            held = self._hold(name, np.array(key, dtype=np.float64, copy=True))
            as_matrix(held, name)
            if held.shape != shape:
                raise ValueError(f"{self.role.name} {name} must be {shape}, got {held.shape}")
        except BaseException:
            self.zeroize()
            raise
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
        """Check ``msg`` against the awaited row, then run its handler."""
        seq, sender, _, kind, shapes = self.expected_receive()
        if msg.session_id != self.session_id:
            self.abort(seq, "message from a different session")
        if msg.receiver != self.role:
            self.abort(seq, f"misdelivered message for {msg.receiver.name}")
        if (msg.seq, msg.sender, msg.kind) != (seq, sender, kind):
            self.abort(
                seq,
                f"expected seq {seq} {kind.name} from {sender.name}, "
                f"got seq {msg.seq} {msg.kind.name} from {msg.sender.name}",
            )
        if len(msg.payloads) != len(shapes):
            self.abort(seq, f"{kind.name} needs {len(shapes)} payloads, got {len(msg.payloads)}")
        for p, names in zip(msg.payloads, shapes):
            if p.ndim != 2:
                self.abort(seq, f"{kind.name} payload has shape {p.shape}, expected 2-D")
            want = tuple(self.dims.setdefault(name, n) for name, n in zip(names, p.shape))
            if p.shape != want:
                self.abort(seq, f"{kind.name} payload has shape {p.shape}, expected {want}")
            if not np.all(np.isfinite(p)):
                self.abort(seq, f"{kind.name} payload has non-finite entries")
        out = getattr(self, f"_on_{kind.name.lower()}")(msg)
        self._receives.pop(0)
        if not self._receives:
            out += self._finish(msg)
        return out

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
    """Draws the mask seeds, recovers the cross blocks, mixes the assembled features.

    Of each pass's masks it holds only the seed rows (``seeds_ab``,
    ``seeds_ba``) and, until the recovery, the one correction computed from
    them (``seeded_correction``); ``masks_ab`` and ``masks_ba`` expand the
    held seeds again.
    """

    def __init__(
        self,
        session_id: bytes,
        n_a: int,
        n_b: int,
        d: int,
        hyper: BlsHyperParams,
        mask_rng: RngStream,
        mix_key,
        mask_range: float = DEFAULT_MASK_RANGE,
        zero_masks: bool = False,
    ):
        check_mask_range(mask_range)
        super().__init__(
            session_id, Role.SERVER, {"a": n_a, "b": n_b, "d1": d + 1, "h": hyper.half_width}
        )
        width = hyper.mapped_width
        self.mix_key = self._hold_key("mix_key", mix_key, (width, width))
        # Per client: the pass in which it holds the data, and the names of
        # its cross and own blocks.
        self._blocks = {
            Role.CLIENT_A: ("ab", "cross_ab", "own_a"),
            Role.CLIENT_B: ("ba", "cross_ba", "own_b"),
        }
        self._mask_shapes = {}
        key_mask_seqs = [row[0] for row in self._sends if row[3] == MessageKind.KEY_MASKS]
        for tag, seq in zip(("ab", "ba"), key_mask_seqs):
            # Each mask has the shape of the payload it blinds, in the two
            # rows after the pass's KEY_MASKS: data, then key and cross.
            shapes = [shape for row in SCHEDULE[seq : seq + 2] for shape in self._resolve(row)]
            self._mask_shapes[tag] = shapes
            seeds = self._hold(f"seeds_{tag}", np.vstack([
                seed_row(mask_rng.words(SEED_WORDS), 0.0 if zero_masks else mask_range)
                for _ in shapes
            ]))
            self._hold(f"correction_{tag}", seeded_correction(seeds, shapes))
        self.mapped_features = None

    def _masks(self, tag: str) -> MaskSet:
        return MaskSet(*draw_mask_set(self._mats[f"seeds_{tag}"], self._mask_shapes[tag]))

    @property
    def masks_ab(self) -> MaskSet:
        return self._masks("ab")

    @property
    def masks_ba(self) -> MaskSet:
        return self._masks("ba")

    def _open_pass(self, tag: str) -> list[ProtocolMessage]:
        """Send one pass's seed rows: the data mask's, then the key and cross
        masks'. Each is a copy, because its receiver wipes it once expanded."""
        data, key, cross = (row[None].copy() for row in self._mats[f"seeds_{tag}"])
        return [self._msg(data), self._msg(key, cross)]

    def start(self) -> list[ProtocolMessage]:
        return self._open_pass("ab")

    def _on_unblinded_cross(self, msg) -> list[ProtocolMessage]:
        (partial,) = msg.payloads
        tag, cross, _ = self._blocks[msg.sender]
        self._hold(cross, recover_cross_product(partial, self._mats[f"correction_{tag}"]))
        self._release(f"correction_{tag}")
        if msg.sender == Role.CLIENT_A:
            return self._open_pass("ba")
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
    message it received. Each mask blinds the client's next send, whose
    shapes it takes; it is expanded where first used and wiped after its
    last use.
    """

    def __init__(
        self,
        session_id: bytes,
        role: Role,
        x,
        hyper: BlsHyperParams,
        key,
    ):
        x_aug = augment(x)
        rows, d1 = x_aug.shape
        own = "a" if role == Role.CLIENT_A else "b"
        super().__init__(session_id, role, {own: rows, "d1": d1, "h": hyper.half_width})
        self.x_aug = self._hold("x_aug", x_aug)
        self.key = self._hold_key("key", key, (d1, hyper.half_width))

    def _check_seeds(self, msg) -> None:
        for row in msg.payloads:
            error = seed_row_error(row)
            if error:
                self.abort(msg.seq, f"{msg.kind.name} {error}")

    def _on_data_mask(self, msg) -> list[ProtocolMessage]:
        self._check_seeds(msg)
        (seed,) = msg.payloads
        (data_mask,) = draw_mask_set((seed,), self._resolve(self._sends[0]))
        seed.fill(0.0)
        self._hold("data_mask", data_mask)
        return [self._msg(self._hold("blinded_data", blind_data(self.x_aug, data_mask)))]

    def _on_key_masks(self, msg) -> list[ProtocolMessage]:
        # Held as seeds until the blinded rows arrive: the cross mask has their
        # row count, which this party does not know before.
        self._check_seeds(msg)
        key_seed, cross_seed = msg.payloads
        self._hold("key_mask_seed", key_seed)
        self._hold("cross_mask_seed", cross_seed)
        return []

    def _on_blinded_data(self, msg) -> list[ProtocolMessage]:
        (peer_blinded_data,) = msg.payloads
        self._hold("peer_blinded_data", peer_blinded_data)
        key_mask, cross_mask = draw_mask_set(
            (self._mats["key_mask_seed"], self._mats["cross_mask_seed"]),
            self._resolve(self._sends[0]),
        )
        self._release("key_mask_seed", "cross_mask_seed")
        blinded_key, masked_cross = blind_key_and_cross(
            peer_blinded_data, self.key,
            self._hold("key_mask", key_mask), self._hold("cross_mask", cross_mask),
        )
        self._release("key_mask", "cross_mask")
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
        self._release("data_mask")
        return [self._msg(partial)]

    def _finish(self, last) -> list[ProtocolMessage]:
        return [self._msg(self._hold("own_product", self.x_aug @ self.key))]


@dataclass
class PartyRngs:
    """A session's random stream, from which the server draws its mask seeds."""

    mask: RngStream


@dataclass
class FederationKeys:
    """The joint model's keys: each client's first-stage key half and the
    server's mix key. A run draws them once, with ``draw``, for every session
    and for its pooled baseline, so that all of them map rows alike."""

    key_a: np.ndarray
    key_b: np.ndarray
    mix_key: np.ndarray

    @classmethod
    def draw(cls, d: int, hyper: BlsHyperParams, streams) -> FederationKeys:
        """The keys for ``d`` input columns, from ``streams``' ``key_a``, ``key_b`` and ``mix``."""
        return cls(
            key_a=generate_map_key_half(d, hyper, streams["key_a"]),
            key_b=generate_map_key_half(d, hyper, streams["key_b"]),
            mix_key=generate_mix_key(hyper, streams["mix"]),
        )


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


def _drive_in_order(parties, endpoints, timeout, record):
    """Drive every party on the calling thread, one ``SCHEDULE`` row at a
    time: each row's receiver takes its message from its endpoint and handles
    it, and what a party's handling returns is sent before the next row. Each
    ``send`` must return without waiting for its receiver, so a bus ``recv``
    with nothing queued fails at once, while a TCP ``recv`` waits until its
    deadline. Returns None, or the first failure as ``(role, seq, exc)``,
    with the role and seq that were being sent or awaited. A failure
    zeroizes every party and closes every endpoint; an interrupt or exit is
    then raised on unwrapped."""
    role, seq = Role.SERVER, None
    try:
        outbox = [msg for p in parties.values() for msg in p.start()]
        # The last row's receiver, the server, sends nothing after it.
        for row in SCHEDULE:
            for out in outbox:
                role, seq = out.sender, out.seq
                record(out)
                endpoints[role].send(out)
            seq, sender, role = row[:3]
            outbox = parties[role].handle(endpoints[role].recv(sender, timeout))
    except BaseException as exc:
        for party in parties.values():
            party.zeroize()
        for ep in endpoints.values():
            ep.close()
        if not isinstance(exc, Exception):
            raise
        return role, seq, exc
    return None


def run_protocol(
    x_a,
    x_b,
    hyper: BlsHyperParams,
    rngs: PartyRngs,
    keys: FederationKeys,
    endpoints: dict | None = None,
    mask_range: float = DEFAULT_MASK_RANGE,
    zero_masks: bool = False,
    timeout_s: float | None = None,
    message_tap=None,
) -> SessionResult:
    """Run one full 12-message session and return the server-held features.

    The caller draws ``keys`` (``FederationKeys.draw``), and the result
    returns them; each party holds a copy of its own key. The server draws
    fresh masks from ``rngs``. A set-up error raises ValueError, with every
    party built so far zeroized. ``endpoints`` defaults to the in-process
    bus; a TCP endpoint trio gives the identical result bit for bit. Either
    way the parties run on the calling thread and no thread is started, so
    an endpoint's ``send`` must not wait for its receiver. ``message_tap``,
    when set, sees every sent message (diagnostics only; the transcript
    itself records metadata, never payloads). ``timeout_s`` bounds every
    TCP receive; it defaults to MSBLS_TIMEOUT_MS
    (``transport.receive_timeout_s``). A bus receive with nothing queued
    fails at once, since nothing else can send meanwhile. Any failure
    raises ProtocolAbort, built from what ``_drive_in_order`` returns, with
    every party zeroized and every endpoint closed.
    """
    started = time.perf_counter()
    session_id = new_session_id()
    timeout = transport.receive_timeout_s(timeout_s)

    # The clients validate their own rows; the server takes its dimensions
    # from them. A party that fails to build wipes itself (``_hold_key``).
    parties = {}
    try:
        client_a = parties[Role.CLIENT_A] = ClientParty(session_id, Role.CLIENT_A, x_a, hyper, keys.key_a)
        client_b = parties[Role.CLIENT_B] = ClientParty(session_id, Role.CLIENT_B, x_b, hyper, keys.key_b)
        del x_a, x_b  # the clients hold their augmented copies
        (n_a, d1), (n_b, d1_b) = client_a.x_aug.shape, client_b.x_aug.shape
        if d1 != d1_b:
            raise ValueError(f"clients disagree on feature count: {d1 - 1} vs {d1_b - 1}")
        server = parties[Role.SERVER] = ServerParty(
            session_id, n_a, n_b, d1 - 1, hyper, rngs.mask, keys.mix_key,
            mask_range=mask_range, zero_masks=zero_masks,
        )
    except BaseException:
        for party in parties.values():
            party.zeroize()
        raise

    own_endpoints = endpoints is None
    if own_endpoints:
        endpoints = transport.make_bus_endpoints()

    transcript: list[TranscriptEntry] = []

    def record(msg: ProtocolMessage):
        transcript.append(TranscriptEntry(
            session_id=msg.session_id.hex(),
            seq=msg.seq,
            sender=msg.sender.name,
            receiver=msg.receiver.name,
            kind=msg.kind.name,
            payload_shapes=msg.payload_shapes(),
            byte_length=msg.encoded_size,
        ))
        if message_tap is not None:
            message_tap(msg)

    failure = _drive_in_order(parties, endpoints, timeout, record)
    if failure is not None:
        role, seq, first = failure
        abort = first
        if not isinstance(first, ProtocolAbort):
            detail = str(first)
            if isinstance(first, transport.TransportTimeout):
                _, sender, _, kind, _ = SCHEDULE[seq - 1]
                detail = f"seq {seq} {kind.name} from {sender.name} did not arrive within {timeout}s"
            abort = ProtocolAbort(role, seq, f"{type(first).__name__}: {detail}")
            abort.__cause__ = first
        abort.parties, abort.elapsed_s = parties, time.perf_counter() - started
        raise abort
    if own_endpoints:
        for ep in endpoints.values():
            ep.close()

    transcript.sort(key=lambda e: e.seq)
    return SessionResult(
        mapped_features=server.result(),
        keys=keys,
        transcript=transcript,
        parties=parties,
    )
