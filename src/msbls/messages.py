"""Typed matrix-bearing messages of the three protocol roles, the session table
(`SCHEDULE`) that fixes their order and payload shapes, and their wire frame."""

from __future__ import annotations

import enum
import struct
import uuid
from dataclasses import dataclass

import numpy as np

SESSION_ID_BYTES = 16

# The wire frame: FRAME_HEADER (magic, version, session_id, seq, sender,
# receiver, kind, payload count); per payload FRAME_DIMS (rows, cols) and
# rows*cols WIRE_FLOAT entries, row-major; FRAME_CRC, the CRC32 of every
# preceding frame byte. The header, dims and checksum are big-endian; the
# entries are little-endian doubles, so a little-endian host sends and
# receives them without a byte swap. Every payload's entries start at a frame
# offset of 35 (mod 8): the header is 27 bytes, and each payload adds 8 bytes
# of dims before its entries and a whole number of doubles after them.
# Version 3 frames carry seed rows, not dense masks, in seq 1, 2, 6 and 7.
MAGIC = b"MSBL"
VERSION = 3
FRAME_HEADER = struct.Struct(f">4sB{SESSION_ID_BYTES}sHBBBB")
FRAME_DIMS = struct.Struct(">II")
FRAME_CRC = struct.Struct(">I")
WIRE_FLOAT = np.dtype("<f8")
# The largest payload a frame may carry, in entry bytes (rows*cols*8). A
# receiver allocates a payload's buffer from its declared dims, so dims over
# this bound reject the frame before anything is read or allocated. A desk
# payload is 31.4 MB; a 60000-row MNIST client block is 377 MB.
MAX_PAYLOAD_BYTES = 2**30


class Role(enum.IntEnum):
    SERVER = 0
    CLIENT_A = 1
    CLIENT_B = 2


class MessageKind(enum.IntEnum):
    """What a message carries; each kind recurs once per directional pass."""

    DATA_MASK = 1              # server -> data holder: seed of the mask for its rows
    KEY_MASKS = 2              # server -> key holder: seeds of the key and cross-term masks
    BLINDED_DATA = 3           # data holder -> key holder: masked augmented data
    BLINDED_KEY_AND_CROSS = 4  # key holder -> data holder: masked key + masked product
    UNBLINDED_CROSS = 5        # data holder -> server: product with key mask removed
    OWN_PRODUCT_A = 6          # client A -> server: its own diagonal block
    OWN_PRODUCT_B = 7          # client B -> server: its own diagonal block


# A mask travels as its seed row: a 128-bit seed as SEED_WORDS 32-bit words,
# each exact in a float64, then the mask range (0 for zero masks). Every party
# knows these dimensions from the start.
SEED_WORDS = 4
SEED_DIMS = {"one": 1, "seed": SEED_WORDS + 1}

# The session, one row per message in seq order:
# (seq, sender, receiver, kind, payload shapes). The shapes are written in the
# session's dimensions: A's rows "a", B's rows "b", the augmented width "d1"
# (features + 1), the key half width "h" and the seed row's SEED_DIMS. Each
# party receives and sends its own rows in this order, and checks every
# payload it receives against its row. Each mask has the shape of the payload
# it blinds, in the two rows after its pass's KEY_MASKS.
SCHEDULE = (
    (1, Role.SERVER, Role.CLIENT_A, MessageKind.DATA_MASK, (("one", "seed"),)),
    (2, Role.SERVER, Role.CLIENT_B, MessageKind.KEY_MASKS, (("one", "seed"), ("one", "seed"))),
    (3, Role.CLIENT_A, Role.CLIENT_B, MessageKind.BLINDED_DATA, (("a", "d1"),)),
    (4, Role.CLIENT_B, Role.CLIENT_A, MessageKind.BLINDED_KEY_AND_CROSS, (("d1", "h"), ("a", "h"))),
    (5, Role.CLIENT_A, Role.SERVER, MessageKind.UNBLINDED_CROSS, (("a", "h"),)),
    (6, Role.SERVER, Role.CLIENT_B, MessageKind.DATA_MASK, (("one", "seed"),)),
    (7, Role.SERVER, Role.CLIENT_A, MessageKind.KEY_MASKS, (("one", "seed"), ("one", "seed"))),
    (8, Role.CLIENT_B, Role.CLIENT_A, MessageKind.BLINDED_DATA, (("b", "d1"),)),
    (9, Role.CLIENT_A, Role.CLIENT_B, MessageKind.BLINDED_KEY_AND_CROSS, (("d1", "h"), ("b", "h"))),
    (10, Role.CLIENT_B, Role.SERVER, MessageKind.UNBLINDED_CROSS, (("b", "h"),)),
    (11, Role.CLIENT_A, Role.SERVER, MessageKind.OWN_PRODUCT_A, (("a", "h"),)),
    (12, Role.CLIENT_B, Role.SERVER, MessageKind.OWN_PRODUCT_B, (("b", "h"),)),
)
MAX_PAYLOADS = max(len(row[4]) for row in SCHEDULE)


def new_session_id() -> bytes:
    return uuid.uuid4().bytes


@dataclass(frozen=True, eq=False)
class ProtocolMessage:
    """One matrix-bearing message: a plain record that checks nothing. Its
    receiver's ``Party.handle`` checks it against the ``SCHEDULE`` row awaited."""

    session_id: bytes
    seq: int
    sender: Role
    receiver: Role
    kind: MessageKind
    payloads: tuple

    @property
    def encoded_size(self) -> int:
        """Exact byte length of this message's wire frame."""
        entries = sum(FRAME_DIMS.size + p.size * WIRE_FLOAT.itemsize for p in self.payloads)
        return FRAME_HEADER.size + entries + FRAME_CRC.size

    def payload_shapes(self) -> list[tuple[int, int]]:
        return [tuple(p.shape) for p in self.payloads]
