"""Message delivery over two interchangeable backends.

Over TCP a message travels as one wire frame, whose layout the ``FRAME_*``
structs in ``messages.py`` define. ``encode_message`` joins the packed header,
dims and checksum with each payload's own memory in one copy. One walker,
``_walk_frame``, reads a frame for both ``read_frame`` (off a socket) and
``decode_message`` (from bytes): it checks the header before any dims, and
each payload's dims, including the ``MAX_PAYLOAD_BYTES`` bound, before it
reads the entries they announce. ``read_frame`` receives with ``recv_into``
straight into the one buffer it returns, sized from the declared dims and
offset so that every payload's entries are 8-byte aligned; ``decode_message``
then returns the payloads as float64 views of that buffer, so a one-payload
frame is allocated once and none of its payload bytes is copied on the way.
The whole frame must arrive within one deadline, taken when the receive
starts, and every wait for it is one ``poll``. Frames round-trip
any float64 bits exactly, NaN and infinities included: the codec checks a
frame's structure, and the receiving party checks its values. Bad magic, an
unsupported version (v1 and v2 included), oversized dims, truncation or
checksum mismatch reject the frame without state change. Each backend gives
every role an endpoint with ``role``, ``send(msg)``, ``recv(sender,
timeout)`` and ``close()``. Delivery is FIFO per directed (sender, receiver)
pair, and ``recv`` raises TransportClosed once closed. No send ever waits
for its receiver, so one thread runs every party of a session. A bus send
appends to a deque; a bus ``recv`` that finds nothing queued raises
TransportTimeout at once, as nothing else can send meanwhile. A TCP send
writes what its socket takes at once and queues the rest on a write queue
that the trio shares; the trio's sockets are non-blocking from the end of
set-up on. A TCP ``recv``, whose frame may still be in flight, writes that
queue out while it waits, so a frame larger than the socket buffers drains
while its receiver reads it, and raises TransportTimeout only at its
deadline.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
import zlib
from collections import Counter, deque

import numpy as np

from .messages import (
    FRAME_CRC, FRAME_DIMS, FRAME_HEADER, MAGIC, MAX_PAYLOAD_BYTES, MAX_PAYLOADS, VERSION,
    WIRE_FLOAT, MessageKind, ProtocolMessage, Role,
)

# One TCP connection per pair of roles, as (dialer, listener): the server
# listens for both clients, client A for client B, and clients only dial.
DIALS = (
    (Role.CLIENT_A, Role.SERVER),
    (Role.CLIENT_B, Role.SERVER),
    (Role.CLIENT_B, Role.CLIENT_A),
)
# The TCP roles that listen, and how many peers dial each.
LISTENERS = Counter(listener for _, listener in DIALS)

# Seconds any one TCP set-up step may wait: a dial, a hello or an accept.
CONNECT_TIMEOUT_S = 10.0
# The longest receive timeout accepted, the longest a socket's timeout can be
# (whole seconds of signed 64-bit nanoseconds): read_frame(sock) alone takes its
# deadline from a blocking socket's timeout, and a trio socket's 0.0 is none.
MAX_TIMEOUT_S = float((2**63 - 1) // 10**9)


def receive_timeout_s(timeout_s: float | None = None) -> float:
    """Seconds each receive of a whole frame may take: ``timeout_s`` if given,
    else the MSBLS_TIMEOUT_MS environment variable in milliseconds (30000
    when unset). Either must be positive, and no longer than a socket's
    timeout can be (MAX_TIMEOUT_S)."""
    name, value, scale = "timeout_s", timeout_s, 1.0
    if timeout_s is None:
        name, value, scale = "MSBLS_TIMEOUT_MS", os.environ.get("MSBLS_TIMEOUT_MS", "30000"), 1e3
    try:
        seconds = float(value) / scale
    except (TypeError, ValueError):
        seconds = 0.0  # unparsable: rejected below
    if not 0 < seconds <= MAX_TIMEOUT_S:
        limit = MAX_TIMEOUT_S * scale
        raise ValueError(f"{name} must be in (0, {limit:.0f}], got {value!r}")
    return seconds


class FrameError(ValueError):
    """A received wire frame or connection hello is malformed."""


class TransportTimeout(TimeoutError):
    """No message arrived within the receive timeout."""


class TransportClosed(ConnectionError):
    """The channel was closed while sending or receiving."""


def encode_message(msg: ProtocolMessage) -> bytes:
    """Serialize a message into one self-delimiting frame. Each payload's
    entries are taken from its own memory (converted only if it is not
    C-contiguous little-endian) and copied once, when the parts are joined;
    the checksum is folded over the same parts."""
    parts = [FRAME_HEADER.pack(
        MAGIC, VERSION, msg.session_id, msg.seq,
        int(msg.sender), int(msg.receiver), int(msg.kind), len(msg.payloads),
    )]
    for p in msg.payloads:
        parts += (FRAME_DIMS.pack(*p.shape), np.ascontiguousarray(p, WIRE_FLOAT))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(FRAME_CRC.pack(crc))
    return b"".join(parts)


def _walk_frame(read) -> tuple[list, list, int]:
    """Read one frame in wire order through ``read(n, what)``, which returns
    the next n bytes or raises naming ``what`` as missing. The header is
    checked before any dims are read, and each payload's dims, within
    MAX_PAYLOAD_BYTES, before its entries. Returns the header fields
    [session_id, seq, sender, receiver, kind, count], the payloads as
    ``WIRE_FLOAT`` views of what ``read`` returned and the frame's checksum."""
    header = read(FRAME_HEADER.size, "incomplete header")
    magic, version, *fields = FRAME_HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    count = fields[-1]
    if not 1 <= count <= MAX_PAYLOADS:
        raise FrameError(f"payload count must be in 1..{MAX_PAYLOADS}, got {count}")
    payloads = []
    for _ in range(count):
        rows, cols = FRAME_DIMS.unpack(read(FRAME_DIMS.size, "incomplete payload dims"))
        if rows < 1 or cols < 1:
            raise FrameError(f"bad payload dims {rows}x{cols}")
        size = rows * cols * WIRE_FLOAT.itemsize
        if size > MAX_PAYLOAD_BYTES:
            raise FrameError(f"payload dims {rows}x{cols} exceed {MAX_PAYLOAD_BYTES} bytes")
        entries = read(size, "incomplete payload entries")
        payloads.append(np.frombuffer(entries, WIRE_FLOAT).reshape(rows, cols))
    (crc,) = FRAME_CRC.unpack(read(FRAME_CRC.size, "missing checksum"))
    return fields, payloads, crc


def decode_message(data) -> ProtocolMessage:
    """Inverse of encode_message; raises FrameError on any malformed frame.

    A payload whose entries lie aligned in writable memory, as every payload
    of a frame from ``read_frame`` does, is returned as a float64 view of
    ``data``; any other, say from ``bytes``, as an owned copy."""
    view = memoryview(data)
    end = 0

    def read(n: int, what: str) -> memoryview:
        nonlocal end
        if len(view) < end + n:
            raise FrameError(f"truncated frame: {what}")
        end += n
        return view[end - n : end]

    (session_id, seq, sender, receiver, kind, _), payloads, crc = _walk_frame(read)
    if len(view) > end:
        raise FrameError("trailing bytes after frame")
    if crc != zlib.crc32(view[: end - FRAME_CRC.size]):
        raise FrameError("checksum mismatch")
    try:
        sender, receiver, kind = Role(sender), Role(receiver), MessageKind(kind)
    except ValueError as exc:
        raise FrameError(f"invalid message fields: {exc}") from exc
    return ProtocolMessage(
        session_id=session_id,
        seq=seq,
        sender=sender,
        receiver=receiver,
        kind=kind,
        # Writable: a party zeroizes what it holds, and for a view of a
        # received frame that wipes the only copy.
        payloads=tuple(np.require(p, np.float64, ("ALIGNED", "WRITEABLE")) for p in payloads),
    )


class _BusEndpoint:
    def __init__(self, role: Role, queues: dict[tuple[Role, Role], deque]):
        self.role = role
        # Shared by the trio; emptied on close, which is the closed flag.
        self._queues = queues

    def send(self, msg: ProtocolMessage) -> None:
        if not self._queues:
            raise TransportClosed("bus is closed")
        if msg.sender != self.role:
            raise ValueError(f"{self.role.name} endpoint cannot send as {msg.sender.name}")
        self._queues[(msg.sender, msg.receiver)].append(msg)

    def recv(self, sender: Role, timeout: float) -> ProtocolMessage:
        if not self._queues:
            raise TransportClosed("bus is closed")
        try:
            return self._queues[(sender, self.role)].popleft()
        except IndexError:
            raise TransportTimeout(
                f"{self.role.name}: nothing queued from {sender.name}, and nothing can send it"
            ) from None

    def close(self) -> None:
        self._queues.clear()


def make_bus_endpoints() -> dict[Role, _BusEndpoint]:
    """In-process backend: one FIFO deque per directed pair, closed together."""
    queues = {(s, r): deque() for s in Role for r in Role if s != r}
    return {role: _BusEndpoint(role, queues) for role in Role}


# poll() takes a C int of milliseconds; a longer wait is made of several.
_POLL_MAX_MS = 2**31 - 1


class _WriteQueue:
    """The frames that a TCP trio's endpoints have sent and their non-blocking
    sockets have not taken yet, per socket in send order. Only ``pump``
    waits: each write hands a socket only what it takes at once."""

    def __init__(self):
        self._frames: dict[socket.socket, deque[memoryview]] = {}

    def put(self, sock: socket.socket, frame: bytes) -> None:
        """Queue ``frame`` behind what ``sock`` already holds queued, and
        write what the socket takes if nothing was ahead of it."""
        frames = self._frames.setdefault(sock, deque())
        frames.append(memoryview(frame))
        if len(frames) == 1:
            self._write(sock)

    def drop(self, socks) -> None:
        for sock in socks:
            self._frames.pop(sock, None)

    def pump(self, sock: socket.socket, timeout: float | None) -> bool:
        """Wait up to ``timeout`` seconds (None: without end) until ``sock``
        can be read or a socket with queued bytes can be written, and write
        what each writable one takes. Returns whether ``sock`` can be read."""
        poller = select.poll()
        for queued in self._frames:
            poller.register(queued, select.POLLOUT)
        poller.register(sock, select.POLLIN | (select.POLLOUT if sock in self._frames else 0))
        queued = {s.fileno(): s for s in self._frames}
        ms = None if timeout is None else min(timeout * 1e3, _POLL_MAX_MS)
        readable = False
        for fd, events in poller.poll(ms):
            # An error or hang-up shows as ready: the read or write then raises it.
            if fd == sock.fileno() and events & ~select.POLLOUT:
                readable = True
            if fd in queued and events & ~select.POLLIN:
                self._write(queued[fd])
        return readable

    def _write(self, sock: socket.socket) -> None:
        frames = self._frames[sock]
        try:
            while frames:
                frames[0] = frames[0][sock.send(frames[0]):]
                if frames[0]:
                    return
                frames.popleft()
            del self._frames[sock]
        except BlockingIOError:
            pass
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc


def _recv_into(sock: socket.socket, view: memoryview, deadline: float | None,
               writes: _WriteQueue) -> None:
    """Fill ``view`` from ``sock``, waiting only in ``writes.pump``, which
    writes the queue out meanwhile, and never past ``deadline`` (a
    time.monotonic(), or None for no end). A read follows only a poll that
    found ``sock`` readable, so it never waits, whatever the socket's mode."""
    while view:
        left = None
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TransportTimeout("frame not complete within the receive timeout")
        if not writes.pump(sock, left):
            continue
        try:
            got = sock.recv_into(view)
        except OSError as exc:
            raise TransportClosed(f"socket error: {exc}") from exc
        if not got:
            raise TransportClosed("connection closed mid-frame")
        view = view[got:]


# Leading pad bytes in read_frame's buffer: every payload's entries start at
# a frame offset of 35 (mod 8), so this one pad aligns all of them.
_ALIGN_PAD = -(FRAME_HEADER.size + FRAME_DIMS.size) % WIRE_FLOAT.itemsize


def read_frame(sock: socket.socket, writes: _WriteQueue | None = None,
               timeout: float | None = None) -> memoryview:
    """Read exactly one frame off a stream socket and return a writable view
    of exactly its bytes; a bad header or dims raise FrameError before the
    bytes they announce are read. While it waits, ``writes`` is written out.

    The frame lands in one numpy buffer (numpy asks for huge pages for a
    large one and does not zero it), after ``_ALIGN_PAD`` bytes that put
    every payload's entries on an 8-byte boundary. The buffer grows only
    when the walker announces a payload: the bytes so far are copied across
    then, and the payload's entries are received in place with
    ``recv_into``. The whole frame must arrive within ``timeout`` seconds of
    the call; without one, within the socket's own timeout (None: no end), or
    receive_timeout_s() if it is non-blocking. Its mode stays: every wait is a poll."""
    if timeout is None:
        timeout = receive_timeout_s() if sock.gettimeout() == 0.0 else sock.gettimeout()
    deadline = None if timeout is None else time.monotonic() + timeout
    writes = _WriteQueue() if writes is None else writes
    buf = np.empty(_ALIGN_PAD + FRAME_HEADER.size + FRAME_DIMS.size, np.uint8)
    end = _ALIGN_PAD

    def read(n: int, what: str) -> memoryview:
        nonlocal buf, end
        if end + n > buf.size:
            grown = np.empty(end + n + FRAME_DIMS.size, np.uint8)
            grown[:end] = buf[:end]
            buf = grown
        view = memoryview(buf)[end : end + n]
        _recv_into(sock, view, deadline, writes)
        end += n
        return view

    _walk_frame(read)
    return memoryview(buf)[_ALIGN_PAD:end]


class _TcpEndpoint:
    def __init__(self, role: Role, peers: dict[Role, socket.socket], writes: _WriteQueue):
        self.role = role
        self._peers = peers
        self._writes = writes
        self._closed = False

    def send(self, msg: ProtocolMessage) -> None:
        if msg.sender != self.role:
            raise ValueError(f"{self.role.name} endpoint cannot send as {msg.sender.name}")
        if self._closed:
            raise TransportClosed("send failed: endpoint is closed")
        self._writes.put(self._peers[msg.receiver], encode_message(msg))

    def recv(self, sender: Role, timeout: float) -> ProtocolMessage:
        if self._closed:
            raise TransportClosed("recv failed: endpoint is closed")
        msg = decode_message(read_frame(self._peers[sender], self._writes, timeout))
        if msg.sender != sender:
            raise FrameError(
                f"frame from {sender.name} connection claims sender {msg.sender.name}"
            )
        return msg

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writes.drop(self._peers.values())
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
    hello = bytearray(_HELLO.size)
    _recv_into(sock, memoryview(hello), time.monotonic() + CONNECT_TIMEOUT_S, _WriteQueue())
    magic, version, role = _HELLO.unpack(hello)
    if magic != MAGIC or version != VERSION:
        raise FrameError("bad connection hello")
    return Role(role)


def make_tcp_endpoints(listen: dict[Role, tuple[str, int]] | None = None) -> dict[Role, _TcpEndpoint]:
    """Loopback TCP backend: one connection per ``DIALS`` row.

    The listening roles bind first; every dial then completes into its
    listener's backlog, so the accepts run afterwards on the calling thread.
    Passing ``listen`` pins explicit (host, port) pairs for the listening
    roles; otherwise ephemeral loopback ports are used. Each step waits at
    most CONNECT_TIMEOUT_S, and each accepted connection's hello, read
    through the same poll loop as a frame, must name a role that dials that
    listener, once. A failure closes every socket opened so far and raises
    TransportClosed. Once set up, every connection is non-blocking for good:
    no socket holds a receive timeout, and no mode is changed afterwards.
    """
    listen = listen or {}
    listeners: dict[Role, socket.socket] = {}
    conns: list[socket.socket] = []
    peers: dict[Role, dict[Role, socket.socket]] = {role: {} for role in Role}
    try:
        for role, backlog in LISTENERS.items():
            listeners[role] = socket.create_server(listen.get(role, ("127.0.0.1", 0)), backlog=backlog)
            listeners[role].settimeout(CONNECT_TIMEOUT_S)
        for dialer, listener in DIALS:
            sock = socket.create_connection(listeners[listener].getsockname(), CONNECT_TIMEOUT_S)
            conns.append(sock)
            _hello(sock, dialer)
            peers[dialer][listener] = sock
        for _, listener in DIALS:
            conn, _ = listeners[listener].accept()
            conns.append(conn)
            dialer = _read_hello(conn)
            if (dialer, listener) not in DIALS or dialer in peers[listener]:
                raise FrameError(f"unexpected hello from {dialer.name} at {listener.name}")
            peers[listener][dialer] = conn
        for sock in conns:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
    except BaseException as exc:
        for sock in conns:
            sock.close()
        if not isinstance(exc, (OSError, ValueError)):
            raise
        raise TransportClosed(f"tcp setup failed: {exc}") from exc
    finally:
        for lsock in listeners.values():
            lsock.close()
    writes = _WriteQueue()
    return {role: _TcpEndpoint(role, peers[role], writes) for role in Role}
