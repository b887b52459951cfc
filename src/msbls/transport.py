"""Message delivery over two interchangeable backends.

Wire frame (all integers big-endian, floats IEEE-754 big-endian doubles):

    magic          4 bytes  b"MSBL"
    version        1 byte   0x01
    session_id    16 bytes
    seq            2 bytes  unsigned
    sender         1 byte
    receiver       1 byte
    kind           1 byte
    payload_count  1 byte   1..MAX_PAYLOADS (the most any SCHEDULE row carries)
    per payload:   rows u32, cols u32, rows*cols f64 (row-major)
    checksum       4 bytes  CRC32 of all preceding frame bytes

Frames round-trip bit-exactly for finite matrices; bad magic, bad version,
truncation or checksum mismatch reject the frame without state change.
Delivery is FIFO per directed (sender, receiver) pair on both backends.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import threading
import zlib
from collections import Counter

import numpy as np

from .messages import MAX_PAYLOADS, MessageKind, ProtocolMessage, Role

MAGIC = b"MSBL"
VERSION = 1
_HEADER = struct.Struct(">4sB16sHBBBB")
_DIMS = struct.Struct(">II")
_CRC = struct.Struct(">I")

# One TCP connection per pair of roles, as (dialer, listener): the server
# listens for both clients, client A for client B, and clients only dial.
DIALS = (
    (Role.CLIENT_A, Role.SERVER),
    (Role.CLIENT_B, Role.SERVER),
    (Role.CLIENT_B, Role.CLIENT_A),
)
# The TCP roles that listen, and how many peers dial each.
LISTENERS = Counter(listener for _, listener in DIALS)

DEFAULT_TIMEOUT_S = float(os.environ.get("MSBLS_TIMEOUT_MS", "30000")) / 1000.0
# Seconds any one TCP set-up step may wait: a dial, a hello or an accept.
CONNECT_TIMEOUT_S = 10.0


class FrameError(ValueError):
    """A wire frame failed to encode or decode."""


class TransportTimeout(TimeoutError):
    """No message arrived within the receive timeout."""


class TransportClosed(ConnectionError):
    """The channel was closed while sending or receiving."""


def encode_message(msg: ProtocolMessage) -> bytes:
    """Serialize a message into one self-delimiting frame."""
    parts = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            msg.session_id,
            msg.seq,
            int(msg.sender),
            int(msg.receiver),
            int(msg.kind),
            len(msg.payloads),
        )
    ]
    for p in msg.payloads:
        if not np.all(np.isfinite(p)):
            raise FrameError("cannot encode non-finite payload")
        parts.append(_DIMS.pack(p.shape[0], p.shape[1]))
        parts.append(np.ascontiguousarray(p, dtype=np.float64).astype(">f8").tobytes())
    body = b"".join(parts)
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _check_header(header: bytes) -> list:
    """Unpack a frame header; raises FrameError on bad magic, version or
    payload count. Returns [session_id, seq, sender, receiver, kind, count]."""
    magic, version, *fields = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    if not 1 <= fields[-1] <= MAX_PAYLOADS:
        raise FrameError(f"payload count must be in 1..{MAX_PAYLOADS}, got {fields[-1]}")
    return fields


def _check_dims(dims: bytes) -> tuple[int, int]:
    """Unpack one payload's (rows, cols); both must be positive."""
    rows, cols = _DIMS.unpack(dims)
    if rows < 1 or cols < 1:
        raise FrameError(f"bad payload dims {rows}x{cols}")
    return rows, cols


def decode_message(data: bytes) -> ProtocolMessage:
    """Inverse of encode_message; raises FrameError on any malformed frame."""
    if len(data) < _HEADER.size + _CRC.size:
        raise FrameError("truncated frame: incomplete header")
    session_id, seq, sender, receiver, kind, count = _check_header(data[: _HEADER.size])
    offset = _HEADER.size
    payloads = []
    for _ in range(count):
        if len(data) < offset + _DIMS.size:
            raise FrameError("truncated frame: incomplete payload dims")
        rows, cols = _check_dims(data[offset : offset + _DIMS.size])
        offset += _DIMS.size
        nbytes = rows * cols * 8
        if len(data) < offset + nbytes:
            raise FrameError("truncated frame: incomplete payload entries")
        entries = np.frombuffer(data[offset : offset + nbytes], dtype=">f8")
        payloads.append(entries.astype(np.float64).reshape(rows, cols))
        offset += nbytes
    if len(data) < offset + _CRC.size:
        raise FrameError("truncated frame: missing checksum")
    if len(data) > offset + _CRC.size:
        raise FrameError("trailing bytes after frame")
    (crc,) = _CRC.unpack(data[offset : offset + _CRC.size])
    if crc != zlib.crc32(data[:offset]) & 0xFFFFFFFF:
        raise FrameError("checksum mismatch")
    try:
        return ProtocolMessage(
            session_id=session_id,
            seq=seq,
            sender=Role(sender),
            receiver=Role(receiver),
            kind=MessageKind(kind),
            payloads=tuple(payloads),
        )
    except ValueError as exc:
        raise FrameError(f"invalid message fields: {exc}") from exc


class Endpoint:
    """One role's handle on a session: send to peers, receive per sender."""

    role: Role

    def send(self, msg: ProtocolMessage) -> None:
        raise NotImplementedError

    def recv(self, sender: Role, timeout: float | None = None) -> ProtocolMessage:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _BusEndpoint(Endpoint):
    def __init__(self, role: Role, queues, closed: threading.Event):
        self.role = role
        self._queues = queues
        self._closed = closed

    def send(self, msg: ProtocolMessage) -> None:
        if self._closed.is_set():
            raise TransportClosed("bus is closed")
        if msg.sender != self.role:
            raise ValueError(f"{self.role.name} endpoint cannot send as {msg.sender.name}")
        self._queues[(msg.sender, msg.receiver)].put(msg)

    def recv(self, sender: Role, timeout: float | None = None) -> ProtocolMessage:
        if timeout is None:
            timeout = DEFAULT_TIMEOUT_S
        if self._closed.is_set():
            raise TransportClosed("bus is closed")
        try:
            msg = self._queues[(sender, self.role)].get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout(
                f"{self.role.name}: no message from {sender.name} within {timeout}s"
            ) from None
        if msg is None:
            raise TransportClosed("bus is closed")
        return msg

    def close(self) -> None:
        self._closed.set()
        # A None in place of a message wakes every receiver still waiting.
        for q in self._queues.values():
            q.put(None)


def make_bus_endpoints() -> dict[Role, Endpoint]:
    """In-process backend: one FIFO queue per directed pair, shared close flag."""
    queues = {
        (s, r): queue.Queue() for s in Role for r in Role if s != r
    }
    closed = threading.Event()
    return {role: _BusEndpoint(role, queues, closed) for role in Role}


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout as exc:
            raise TransportTimeout(str(exc)) from exc
        except OSError as exc:
            raise TransportClosed(f"socket error: {exc}") from exc
        if not chunk:
            raise TransportClosed("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket) -> bytes:
    """Read exactly one frame off a stream socket."""
    header = _recv_exact(sock, _HEADER.size)
    *_, count = _check_header(header)
    body = bytearray(header)
    for _ in range(count):
        dims = _recv_exact(sock, _DIMS.size)
        rows, cols = _check_dims(dims)
        body.extend(dims)
        body.extend(_recv_exact(sock, rows * cols * 8))
    body.extend(_recv_exact(sock, _CRC.size))
    return bytes(body)


class _TcpEndpoint(Endpoint):
    def __init__(self, role: Role, peers: dict[Role, socket.socket]):
        self.role = role
        self._peers = peers
        self._send_locks = {peer: threading.Lock() for peer in peers}
        self._closed = False

    def send(self, msg: ProtocolMessage) -> None:
        if msg.sender != self.role:
            raise ValueError(f"{self.role.name} endpoint cannot send as {msg.sender.name}")
        sock = self._peers[msg.receiver]
        data = encode_message(msg)
        with self._send_locks[msg.receiver]:
            try:
                sock.sendall(data)
            except OSError as exc:
                raise TransportClosed(f"send failed: {exc}") from exc

    def recv(self, sender: Role, timeout: float | None = None) -> ProtocolMessage:
        sock = self._peers[sender]
        sock.settimeout(DEFAULT_TIMEOUT_S if timeout is None else timeout)
        msg = decode_message(read_frame(sock))
        if msg.sender != sender:
            raise FrameError(
                f"frame from {sender.name} connection claims sender {msg.sender.name}"
            )
        return msg

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sock in self._peers.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


_HELLO = struct.Struct(">4sBB")  # magic, version, dialer role


def _hello(sock: socket.socket, role: Role) -> None:
    sock.sendall(_HELLO.pack(MAGIC, VERSION, int(role)))


def _read_hello(sock: socket.socket) -> Role:
    magic, version, role = _HELLO.unpack(_recv_exact(sock, _HELLO.size))
    if magic != MAGIC or version != VERSION:
        raise FrameError("bad connection hello")
    return Role(role)


def make_tcp_endpoints(listen: dict[Role, tuple[str, int]] | None = None) -> dict[Role, Endpoint]:
    """Loopback TCP backend: one connection per ``DIALS`` row.

    The listening roles bind first; every dial then completes into its
    listener's backlog, so the accepts run afterwards on the calling thread.
    Passing ``listen`` pins explicit (host, port) pairs for the listening
    roles; otherwise ephemeral loopback ports are used. A failure closes
    every socket opened so far and raises TransportClosed.
    """
    listen = listen or {}
    listeners: dict[Role, socket.socket] = {}
    conns: list[socket.socket] = []
    peers: dict[Role, dict[Role, socket.socket]] = {role: {} for role in Role}
    try:
        for role, backlog in LISTENERS.items():
            listeners[role] = lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lsock.bind(listen.get(role, ("127.0.0.1", 0)))
            lsock.listen(backlog)
            lsock.settimeout(CONNECT_TIMEOUT_S)
        for dialer, listener in DIALS:
            sock = socket.create_connection(listeners[listener].getsockname(), CONNECT_TIMEOUT_S)
            conns.append(sock)
            _hello(sock, dialer)
            peers[dialer][listener] = sock
        for _, listener in DIALS:
            conn, _ = listeners[listener].accept()
            conns.append(conn)
            conn.settimeout(CONNECT_TIMEOUT_S)
            peers[listener][_read_hello(conn)] = conn
        for sock in conns:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException as exc:
        for sock in conns:
            sock.close()
        if not isinstance(exc, (OSError, ValueError)):
            raise
        raise TransportClosed(f"tcp setup failed: {exc}") from exc
    finally:
        for lsock in listeners.values():
            lsock.close()
    return {role: _TcpEndpoint(role, peers[role]) for role in Role}
