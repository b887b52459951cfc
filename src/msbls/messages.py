"""Typed matrix-bearing messages exchanged by the three protocol roles, and
the session table (`SCHEDULE`) that fixes their order and payload shapes."""

from __future__ import annotations

import enum
import uuid
from dataclasses import dataclass

import numpy as np

SESSION_ID_BYTES = 16


class Role(enum.IntEnum):
    SERVER = 0
    CLIENT_A = 1
    CLIENT_B = 2


class MessageKind(enum.IntEnum):
    """What a message carries; each kind recurs once per directional pass."""

    DATA_MASK = 1              # server -> data holder: additive mask for its rows
    KEY_MASKS = 2              # server -> key holder: key mask + cross-term mask
    BLINDED_DATA = 3           # data holder -> key holder: masked augmented data
    BLINDED_KEY_AND_CROSS = 4  # key holder -> data holder: masked key + masked product
    UNBLINDED_CROSS = 5        # data holder -> server: product with key mask removed
    OWN_PRODUCT_A = 6          # client A -> server: its own diagonal block
    OWN_PRODUCT_B = 7          # client B -> server: its own diagonal block


# The session, one row per message in seq order:
# (seq, sender, receiver, kind, payload shapes). The shapes are written in the
# session's dimensions: A's rows "a", B's rows "b", the augmented width "d1"
# (features + 1) and the key half width "h". Each party receives and sends its
# own rows in this order, and checks every payload it receives against its row.
SCHEDULE = (
    (1, Role.SERVER, Role.CLIENT_A, MessageKind.DATA_MASK, (("a", "d1"),)),
    (2, Role.SERVER, Role.CLIENT_B, MessageKind.KEY_MASKS, (("d1", "h"), ("a", "h"))),
    (3, Role.CLIENT_A, Role.CLIENT_B, MessageKind.BLINDED_DATA, (("a", "d1"),)),
    (4, Role.CLIENT_B, Role.CLIENT_A, MessageKind.BLINDED_KEY_AND_CROSS, (("d1", "h"), ("a", "h"))),
    (5, Role.CLIENT_A, Role.SERVER, MessageKind.UNBLINDED_CROSS, (("a", "h"),)),
    (6, Role.SERVER, Role.CLIENT_B, MessageKind.DATA_MASK, (("b", "d1"),)),
    (7, Role.SERVER, Role.CLIENT_A, MessageKind.KEY_MASKS, (("d1", "h"), ("b", "h"))),
    (8, Role.CLIENT_B, Role.CLIENT_A, MessageKind.BLINDED_DATA, (("b", "d1"),)),
    (9, Role.CLIENT_A, Role.CLIENT_B, MessageKind.BLINDED_KEY_AND_CROSS, (("d1", "h"), ("b", "h"))),
    (10, Role.CLIENT_B, Role.SERVER, MessageKind.UNBLINDED_CROSS, (("b", "h"),)),
    (11, Role.CLIENT_A, Role.SERVER, MessageKind.OWN_PRODUCT_A, (("a", "h"),)),
    (12, Role.CLIENT_B, Role.SERVER, MessageKind.OWN_PRODUCT_B, (("b", "h"),)),
)
MAX_SEQ = len(SCHEDULE)
MAX_PAYLOADS = max(len(row[4]) for row in SCHEDULE)


def new_session_id() -> bytes:
    return uuid.uuid4().bytes


@dataclass(frozen=True, eq=False)
class ProtocolMessage:
    session_id: bytes
    seq: int
    sender: Role
    receiver: Role
    kind: MessageKind
    payloads: tuple

    def __post_init__(self):
        if len(self.session_id) != SESSION_ID_BYTES:
            raise ValueError(f"session_id must be {SESSION_ID_BYTES} bytes")
        if not 1 <= self.seq <= MAX_SEQ:
            raise ValueError(f"seq must be in 1..{MAX_SEQ}, got {self.seq}")
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")
        if not 1 <= len(self.payloads) <= MAX_PAYLOADS:
            raise ValueError(
                f"payload count must be in 1..{MAX_PAYLOADS}, got {len(self.payloads)}"
            )
        for p in self.payloads:
            if not isinstance(p, np.ndarray) or p.ndim != 2 or p.dtype != np.float64:
                raise ValueError("payloads must be 2-D float64 arrays")
            if p.shape[0] < 1 or p.shape[1] < 1:
                raise ValueError(f"payload dimensions must be positive, got {p.shape}")
            if not np.all(np.isfinite(p)):
                raise ValueError("payloads must be finite")

    @property
    def encoded_size(self) -> int:
        """Exact byte length of this message's wire frame."""
        # header(27) + per payload dims(8) + entries(8 each) + crc32(4)
        return 27 + sum(8 + p.size * 8 for p in self.payloads) + 4

    def payload_shapes(self) -> list[tuple[int, int]]:
        return [tuple(p.shape) for p in self.payloads]
