import gc
import socket
import struct
import threading
import time
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msbls import transport
from msbls.messages import MAX_PAYLOAD_BYTES, MessageKind, ProtocolMessage, Role
from msbls.transport import (
    FrameError,
    TransportClosed,
    TransportTimeout,
    decode_message,
    encode_message,
    make_bus_endpoints,
    make_tcp_endpoints,
    receive_timeout_s,
)

SID = bytes(range(16))


def msg(payloads, seq=3, sender=Role.CLIENT_A, receiver=Role.CLIENT_B,
        kind=MessageKind.BLINDED_DATA):
    return ProtocolMessage(
        session_id=SID, seq=seq, sender=sender, receiver=receiver,
        kind=kind, payloads=tuple(np.asarray(p, dtype=np.float64) for p in payloads),
    )


finite_f64 = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFrameCodec:
    def test_zero_scalar_payload_layout(self):
        raw = encode_message(msg([[[0.0]]]))
        assert raw[:4] == b"MSBL"
        assert raw[4] == 3
        # header(27) | rows(4) cols(4) | one zero double | crc(4)
        assert len(raw) == 27 + 8 + 8 + 4
        rows, cols = struct.unpack(">II", raw[27:35])
        assert (rows, cols) == (1, 1)
        assert raw[35:43] == b"\x00" * 8
        # Entries are little-endian doubles: 1.0 is 0x3FF0000000000000.
        assert encode_message(msg([[[1.0]]]))[35:43] == b"\x00" * 6 + b"\xf0\x3f"

    def test_round_trip_random_payload(self):
        rng = np.random.default_rng(0)
        m = msg([rng.standard_normal((3, 2))])
        m2 = decode_message(encode_message(m))
        assert m2.session_id == SID
        assert (m2.seq, m2.sender, m2.receiver, m2.kind) == (
            m.seq, m.sender, m.receiver, m.kind
        )
        assert np.array_equal(m.payloads[0], m2.payloads[0])

    def test_two_payload_round_trip(self):
        rng = np.random.default_rng(1)
        m = msg(
            [rng.standard_normal((2, 3)), rng.standard_normal((4, 1))],
            seq=2, sender=Role.SERVER, receiver=Role.CLIENT_B,
            kind=MessageKind.KEY_MASKS,
        )
        m2 = decode_message(encode_message(m))
        assert len(m2.payloads) == 2
        for a, b in zip(m.payloads, m2.payloads):
            assert np.array_equal(a, b)

    @given(
        payload=arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=finite_f64,
        )
    )
    def test_round_trip_is_bit_exact(self, payload):
        m = msg([payload])
        decoded = decode_message(encode_message(m)).payloads[0]
        # Bit-level equality, including negative zero and subnormals.
        assert decoded.tobytes() == np.ascontiguousarray(payload).tobytes()

    def test_encoded_size_matches_actual_length(self):
        rng = np.random.default_rng(2)
        m = msg([rng.standard_normal((7, 5)), rng.standard_normal((1, 9))],
                seq=4, sender=Role.CLIENT_B, receiver=Role.CLIENT_A,
                kind=MessageKind.BLINDED_KEY_AND_CROSS)
        assert len(encode_message(m)) == m.encoded_size

    def test_corrupt_payload_byte_fails_checksum(self):
        raw = bytearray(encode_message(msg([np.ones((2, 2))])))
        raw[40] ^= 0x01
        with pytest.raises(FrameError, match="checksum"):
            decode_message(bytes(raw))

    def test_truncated_frame_rejected(self):
        raw = encode_message(msg([np.ones((2, 2))]))
        for cut in (3, 20, 30, len(raw) - 1):
            with pytest.raises(FrameError, match="truncated|checksum"):
                decode_message(raw[:cut])

    def test_bad_magic_rejected(self):
        raw = bytearray(encode_message(msg([[[1.0]]])))
        raw[0] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            decode_message(bytes(raw))

    def test_bad_version_rejected(self):
        raw = bytearray(encode_message(msg([[[1.0]]])))
        raw[4] = 9
        with pytest.raises(FrameError, match="version"):
            decode_message(bytes(raw))

    def test_bad_payload_count_rejected(self):
        raw = bytearray(encode_message(msg([[[1.0]]])))
        raw[26] = 3
        with pytest.raises(FrameError, match="payload count"):
            decode_message(bytes(raw))

    def test_trailing_bytes_rejected(self):
        raw = encode_message(msg([[[1.0]]]))
        with pytest.raises(FrameError, match="trailing"):
            decode_message(raw + b"\x00")

    def test_non_finite_entries_round_trip_bit_for_bit(self):
        # The codec checks structure only; the receiving party rejects
        # non-finite values, so the frame must carry them unchanged.
        bits = np.array(
            [[0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
             [0x7FF0000000000000, 0xFFF0000000000000, 0x7FF80000DEADBEEF]],
            dtype=np.uint64,
        )
        m = msg([bits.view(np.float64)])
        decoded = decode_message(encode_message(m)).payloads[0]
        assert np.array_equal(decoded.view(np.uint64), bits)

    @pytest.mark.parametrize("offset, value", [
        (23, b"\x09"),  # sender: no such role
        (25, b"\x09"),  # kind: no such kind
    ])
    def test_invalid_fields_behind_a_valid_checksum_rejected(self, offset, value):
        raw = bytearray(encode_message(msg([[[1.0]]])))
        raw[offset : offset + len(value)] = value
        struct.pack_into(">I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
        with pytest.raises(FrameError, match="invalid message fields: "):
            decode_message(bytes(raw))


class TestBus:
    def test_send_then_recv_returns_same_message(self):
        endpoints = make_bus_endpoints()
        m = msg([np.ones((2, 2))])
        endpoints[Role.CLIENT_A].send(m)
        got = endpoints[Role.CLIENT_B].recv(Role.CLIENT_A, timeout=1.0)
        assert got is m

    def test_fifo_per_directed_pair(self):
        endpoints = make_bus_endpoints()
        first = msg([np.ones((1, 1))], seq=3)
        second = msg([np.zeros((1, 1))], seq=9)
        endpoints[Role.CLIENT_A].send(first)
        endpoints[Role.CLIENT_A].send(second)
        assert endpoints[Role.CLIENT_B].recv(Role.CLIENT_A, 1.0).seq == 3
        assert endpoints[Role.CLIENT_B].recv(Role.CLIENT_A, 1.0).seq == 9

    def test_recv_timeout(self):
        endpoints = make_bus_endpoints()
        with pytest.raises(TransportTimeout):
            endpoints[Role.SERVER].recv(Role.CLIENT_A, timeout=0.1)

    def test_closed_bus_raises(self):
        endpoints = make_bus_endpoints()
        endpoints[Role.SERVER].close()
        with pytest.raises(TransportClosed):
            endpoints[Role.CLIENT_A].send(msg([np.ones((1, 1))]))
        with pytest.raises(TransportClosed):
            endpoints[Role.CLIENT_B].recv(Role.CLIENT_A, timeout=0.5)

    def test_cannot_spoof_sender(self):
        endpoints = make_bus_endpoints()
        with pytest.raises(ValueError):
            endpoints[Role.SERVER].send(msg([np.ones((1, 1))]))  # sender CLIENT_A


class TestReceiveTimeout:
    def test_default_and_variable_in_milliseconds(self, monkeypatch):
        monkeypatch.delenv("MSBLS_TIMEOUT_MS", raising=False)
        assert receive_timeout_s() == 30.0
        monkeypatch.setenv("MSBLS_TIMEOUT_MS", "250")
        assert receive_timeout_s() == 0.25
        assert receive_timeout_s(2.0) == 2.0  # an explicit value wins

    @pytest.mark.parametrize("value", ["abc", "", "-5", "0", "nan", "inf", "1e20"])
    def test_bad_variable_rejected(self, value, monkeypatch):
        monkeypatch.setenv("MSBLS_TIMEOUT_MS", value)
        with pytest.raises(ValueError, match=f"^MSBLS_TIMEOUT_MS must be in .*got {value!r}$"):
            receive_timeout_s()

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf"), 1e12])
    def test_bad_explicit_value_rejected(self, value, monkeypatch):
        monkeypatch.setenv("MSBLS_TIMEOUT_MS", "250")
        with pytest.raises(ValueError, match=f"^timeout_s must be in .*got {value!r}$"):
            receive_timeout_s(value)


@pytest.fixture
def tcp_trio():
    """A TCP endpoint trio, closed after the test whatever its outcome."""
    endpoints = make_tcp_endpoints()
    yield endpoints
    for ep in endpoints.values():
        ep.close()


def assert_setup_fails_cleanly(error, match=None, listen=None):
    """``make_tcp_endpoints(listen)`` raises ``error`` matching ``match``, and
    leaves no thread and no unclosed socket (which warns once collected)."""
    baseline = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=match):
            make_tcp_endpoints(listen=listen)
        gc.collect()
    assert [str(w.message) for w in caught] == []
    assert threading.active_count() == baseline


class TestTcp:
    def test_all_pairs_deliver_and_roundtrip(self, tcp_trio):
        pairs = [
            (Role.SERVER, Role.CLIENT_A, 1, MessageKind.DATA_MASK),
            (Role.SERVER, Role.CLIENT_B, 2, MessageKind.KEY_MASKS),
            (Role.CLIENT_A, Role.CLIENT_B, 3, MessageKind.BLINDED_DATA),
            (Role.CLIENT_B, Role.CLIENT_A, 4, MessageKind.BLINDED_KEY_AND_CROSS),
            (Role.CLIENT_A, Role.SERVER, 5, MessageKind.UNBLINDED_CROSS),
            (Role.CLIENT_B, Role.SERVER, 12, MessageKind.OWN_PRODUCT_B),
        ]
        rng = np.random.default_rng(3)
        for sender, receiver, seq, kind in pairs:
            payloads = [rng.standard_normal((3, 4))]
            if kind in (MessageKind.KEY_MASKS, MessageKind.BLINDED_KEY_AND_CROSS):
                payloads.append(rng.standard_normal((2, 2)))
            m = msg(payloads, seq=seq, sender=sender, receiver=receiver, kind=kind)
            tcp_trio[sender].send(m)
            got = tcp_trio[receiver].recv(sender, timeout=5.0)
            assert got.seq == seq and got.kind == kind
            for a, b in zip(m.payloads, got.payloads):
                assert a.tobytes() == b.tobytes()

    def test_fifo_order_on_stream(self, tcp_trio):
        for seq in (1, 7):
            tcp_trio[Role.SERVER].send(
                msg([np.full((1, 1), float(seq))], seq=seq,
                    sender=Role.SERVER, receiver=Role.CLIENT_A,
                    kind=MessageKind.DATA_MASK if seq == 1 else MessageKind.KEY_MASKS)
            )
        assert tcp_trio[Role.CLIENT_A].recv(Role.SERVER, 5.0).seq == 1
        assert tcp_trio[Role.CLIENT_A].recv(Role.SERVER, 5.0).seq == 7

    def test_recv_timeout(self, tcp_trio):
        # Every TCP wait ends at the receive's one deadline, not at a socket timeout.
        start = time.monotonic()
        with pytest.raises(TransportTimeout,
                           match="^frame not complete within the receive timeout$"):
            tcp_trio[Role.SERVER].recv(Role.CLIENT_A, timeout=0.2)
        assert 0.2 <= time.monotonic() - start < 1.0

    def test_send_on_a_closed_endpoint_raises_transport_closed(self):
        endpoints = make_tcp_endpoints()
        for ep in endpoints.values():
            ep.close()
        m = msg([[[1.0]]], seq=1, sender=Role.SERVER, receiver=Role.CLIENT_A,
                kind=MessageKind.DATA_MASK)
        with pytest.raises(TransportClosed, match="^send failed: "):
            endpoints[Role.SERVER].send(m)

    @pytest.mark.parametrize("role", [Role.SERVER, Role.CLIENT_A])
    def test_busy_listen_address_fails_setup_and_closes_every_socket(self, role):
        # The server binds first, so a busy client A address also tests that
        # the already bound server listener is closed.
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            assert_setup_fails_cleanly(TransportClosed, "tcp setup failed",
                                       listen={role: busy.getsockname()})

    def test_interrupted_setup_closes_every_socket_and_is_not_wrapped(self, monkeypatch):
        def interrupt(sock, role):
            raise KeyboardInterrupt

        monkeypatch.setattr(transport, "_hello", interrupt)
        assert_setup_fails_cleanly(KeyboardInterrupt)

    def test_hello_naming_a_role_twice_fails_setup_and_closes_every_socket(self, monkeypatch):
        # Client B's dial to the server says it is client A; dials run in DIALS order.
        real_hello, dials = transport._hello, iter(transport.DIALS)

        def spoof(sock, role):
            claim = Role.CLIENT_A if next(dials) == (Role.CLIENT_B, Role.SERVER) else role
            real_hello(sock, claim)

        monkeypatch.setattr(transport, "_hello", spoof)
        assert_setup_fails_cleanly(TransportClosed, "unexpected hello from CLIENT_A at SERVER")

    def test_cannot_spoof_sender(self, tcp_trio):
        with pytest.raises(ValueError, match="^SERVER endpoint cannot send as CLIENT_A$"):
            tcp_trio[Role.SERVER].send(msg([np.ones((1, 1))]))  # sender CLIENT_A

    def test_bad_hello_magic_fails_setup_and_closes_every_socket(self, monkeypatch):
        def foreign_hello(sock, role):
            sock.sendall(transport._HELLO.pack(b"XXXX", transport.VERSION, int(role)))

        monkeypatch.setattr(transport, "_hello", foreign_hello)
        assert_setup_fails_cleanly(TransportClosed, "^tcp setup failed: bad connection hello$")

    def test_frame_claiming_another_sender_rejected(self, tcp_trio):
        forged = msg([[[1.0]]], seq=1, sender=Role.SERVER, receiver=Role.CLIENT_A,
                     kind=MessageKind.DATA_MASK)
        tcp_trio[Role.CLIENT_B]._peers[Role.CLIENT_A].sendall(encode_message(forged))
        with pytest.raises(FrameError, match="CLIENT_B connection claims sender SERVER"):
            tcp_trio[Role.CLIENT_A].recv(Role.CLIENT_B, timeout=5.0)


@pytest.mark.parametrize("make", [make_bus_endpoints, make_tcp_endpoints], ids=["bus", "tcp"])
def test_recv_on_a_closed_endpoint_raises_transport_closed(make):
    endpoints = make()
    for ep in endpoints.values():
        ep.close()
    with pytest.raises(TransportClosed):
        endpoints[Role.CLIENT_B].recv(Role.CLIENT_A, timeout=0.5)


def blinded_data(rows, seq=3, sender=Role.CLIENT_A, receiver=Role.CLIENT_B):
    """A ``rows`` x 785 frame, as large as a desk client's blinded rows."""
    return msg([np.random.default_rng(rows).standard_normal((rows, 785))],
               seq=seq, sender=sender, receiver=receiver)


class TestWriteQueue:
    """A TCP send writes what its socket takes at once and queues the rest on
    the trio's one write queue; a receive on the trio writes it out."""

    @staticmethod
    def queued(trio, sender, receiver):
        """The frames queued on ``sender``'s connection to ``receiver``."""
        return trio[sender]._writes._frames.get(trio[sender]._peers[receiver], ())

    def test_desk_size_frame_goes_through_one_trio_on_one_thread(self, tcp_trio):
        m = blinded_data(5000)
        a, b = tcp_trio[Role.CLIENT_A], tcp_trio[Role.CLIENT_B]
        sock, peer = a._peers[Role.CLIENT_B], b._peers[Role.CLIENT_A]
        buffers = (sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                   + peer.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))
        assert len(encode_message(m)) > buffers
        baseline = threading.active_count()
        a.send(m)
        assert len(self.queued(tcp_trio, Role.CLIENT_A, Role.CLIENT_B)) == 1
        got = b.recv(Role.CLIENT_A, timeout=10.0)
        assert got.payloads[0].tobytes() == m.payloads[0].tobytes()
        assert not a._writes._frames
        assert threading.active_count() == baseline

    def test_frames_queued_on_one_connection_arrive_in_order(self, tcp_trio):
        first, second = blinded_data(2000), blinded_data(1, seq=9)
        for m in (first, second):
            tcp_trio[Role.CLIENT_A].send(m)
        assert len(self.queued(tcp_trio, Role.CLIENT_A, Role.CLIENT_B)) == 2
        for m in (first, second):
            got = tcp_trio[Role.CLIENT_B].recv(Role.CLIENT_A, timeout=10.0)
            assert got.seq == m.seq
            assert got.payloads[0].tobytes() == m.payloads[0].tobytes()

    def test_frames_crossing_on_one_connection_both_arrive(self, tcp_trio):
        # A's receive reads the socket that its own frame is queued on.
        ab = blinded_data(1000)
        ba = blinded_data(1200, seq=4, sender=Role.CLIENT_B, receiver=Role.CLIENT_A)
        tcp_trio[Role.CLIENT_A].send(ab)
        tcp_trio[Role.CLIENT_B].send(ba)
        assert tcp_trio[Role.CLIENT_A].recv(Role.CLIENT_B, 10.0).payloads[0].tobytes() == \
            ba.payloads[0].tobytes()
        assert tcp_trio[Role.CLIENT_B].recv(Role.CLIENT_A, 10.0).payloads[0].tobytes() == \
            ab.payloads[0].tobytes()
        assert not tcp_trio[Role.CLIENT_A]._writes._frames

    def test_longest_accepted_timeout_drains_the_queue(self, tcp_trio):
        # poll() waits at most 2**31 - 1 ms; a receive may wait far longer.
        m = blinded_data(2000)
        tcp_trio[Role.CLIENT_A].send(m)
        timeout = receive_timeout_s(threading.TIMEOUT_MAX)
        got = tcp_trio[Role.CLIENT_B].recv(Role.CLIENT_A, timeout)
        assert got.payloads[0].tobytes() == m.payloads[0].tobytes()

    def test_write_to_a_closed_peer_raises_transport_closed(self, tcp_trio):
        # B closes with A's first frame unread, which resets the connection.
        a = tcp_trio[Role.CLIENT_A]
        a.send(blinded_data(1))
        tcp_trio[Role.CLIENT_B].close()
        with pytest.raises(TransportClosed, match="^send failed: "):
            a.send(blinded_data(1, seq=9))

    def test_failed_write_while_pumping_raises_from_the_receive(self, tcp_trio):
        a = tcp_trio[Role.CLIENT_A]
        a.send(blinded_data(5000))
        tcp_trio[Role.CLIENT_B].close()
        with pytest.raises(TransportClosed, match="^send failed: "):
            a.recv(Role.SERVER, timeout=5.0)

    def test_close_leaves_nothing_queued(self, tcp_trio):
        a = tcp_trio[Role.CLIENT_A]
        a.send(blinded_data(5000))
        a.send(blinded_data(5000, seq=5, receiver=Role.SERVER))
        assert a._writes._frames
        a.close()
        assert not a._writes._frames
        with pytest.raises(TransportClosed, match="^send failed: endpoint is closed$"):
            a.send(blinded_data(1))

    @staticmethod
    def run_session(trio, seed):
        """One masked session of 2000 + 1500 rows over ``trio``."""
        from msbls.bls import BlsHyperParams
        from tests.test_protocol import run_once

        rng = np.random.default_rng(seed)
        xa, xb = rng.uniform(0, 1, (2000, 200)), rng.uniform(0, 1, (1500, 200))
        res = run_once(xa, xb, BlsHyperParams(map_groups=2, map_dim=4), seed, endpoints=trio)
        assert res.message_count == 12

    def test_completed_session_leaves_nothing_queued(self, tcp_trio):
        self.run_session(tcp_trio, 4)
        assert not tcp_trio[Role.SERVER]._writes._frames

    def test_session_waits_in_poll_and_never_changes_a_socket_mode(self, tcp_trio, monkeypatch):
        calls = []
        for name in ("settimeout", "setblocking"):
            def spy(sock, value, name=name, real=getattr(socket.socket, name)):
                calls.append((name, value))
                real(sock, value)
            monkeypatch.setattr(socket.socket, name, spy)
        self.run_session(tcp_trio, 5)
        assert calls == []
        socks = [sock for ep in tcp_trio.values() for sock in ep._peers.values()]
        assert len(socks) == 6
        assert [sock.gettimeout() for sock in socks] == [0.0] * 6


class TestReadFrame:
    """read_frame walks the frame off the socket: a bad header fails before
    any further byte is read, and the bytes it returns are the encoded frame."""

    @pytest.mark.parametrize("offset, value, error", [
        (0, ord("X"), "magic"),
        (26, 3, "payload count"),
    ])
    def test_bad_header_fails_at_once_and_keeps_the_socket(self, offset, value, error):
        header = bytearray(encode_message(msg([np.ones((2, 2))]))[:27])  # the header alone
        header[offset] = value
        a, b = socket.socketpair()
        with a, b:
            # A walker that read past the header would time out here instead.
            a.settimeout(2.0)
            b.sendall(header)
            with pytest.raises(FrameError, match=error):
                transport.read_frame(a)
            assert a.fileno() != -1
            b.sendall(b"ok")
            assert a.recv(2) == b"ok"

    def test_peer_closing_mid_payload_closes_the_channel(self):
        frame = encode_message(msg([np.ones((4, 4))]))
        a, b = socket.socketpair()
        with a:
            a.settimeout(2.0)
            with b:
                b.sendall(frame[: len(frame) // 2])
            with pytest.raises(TransportClosed, match="connection closed mid-frame"):
                transport.read_frame(a)

    def test_two_payload_frame_round_trips_through_a_socket(self):
        rng = np.random.default_rng(5)
        m = msg([rng.standard_normal((3, 4)), rng.standard_normal((2, 4))],
                seq=2, sender=Role.SERVER, receiver=Role.CLIENT_B,
                kind=MessageKind.KEY_MASKS)
        frame = encode_message(m)
        a, b = socket.socketpair()
        with a, b:
            a.settimeout(2.0)
            b.sendall(frame)
            raw = transport.read_frame(a)
        assert raw == frame
        for sent, got in zip(m.payloads, decode_message(raw).payloads):
            assert got.flags.writeable and got.dtype == np.float64 and got.dtype.isnative
            assert got.tobytes() == sent.tobytes()

    @pytest.mark.parametrize("rows, cols", [
        (2**32 - 1, 2**32 - 1),
        (MAX_PAYLOAD_BYTES // 8 + 1, 1),  # one entry over the bound
    ])
    def test_oversized_dims_fail_at_once_with_no_entry_read(self, rows, cols):
        head = bytes(encode_message(msg([np.ones((1, 1))]))[:27]) + struct.pack(">II", rows, cols)
        entry = struct.pack(">d", 1.0)
        a, b = socket.socketpair()
        with a, b:
            # A walker that allocated or read entries would time out here instead.
            a.settimeout(2.0)
            b.sendall(head + entry)
            with pytest.raises(FrameError, match="exceed") as sock_error:
                transport.read_frame(a)
            assert a.recv(len(entry)) == entry
        with pytest.raises(FrameError) as bytes_error:
            decode_message(head)
        assert str(bytes_error.value) == str(sock_error.value)

    def test_dims_at_the_bound_pass_the_check(self):
        head = bytes(encode_message(msg([np.ones((1, 1))]))[:27])
        with pytest.raises(FrameError, match="incomplete payload entries"):
            decode_message(head + struct.pack(">II", MAX_PAYLOAD_BYTES // 8, 1))

    def test_dripping_peer_times_out_within_the_frame_deadline(self):
        frame = encode_message(msg([[[1.0]]]))
        a, b = socket.socketpair()
        stop = threading.Event()

        def drip():
            for i in range(len(frame)):
                if stop.wait(0.2):
                    return
                b.sendall(frame[i : i + 1])

        dripper = threading.Thread(target=drip)
        with a, b:
            a.settimeout(0.3)
            dripper.start()
            try:
                start = time.monotonic()
                with pytest.raises(TransportTimeout):
                    transport.read_frame(a)
                elapsed = time.monotonic() - start
            finally:
                stop.set()
                dripper.join()
            assert a.gettimeout() == 0.3
        assert elapsed < 2 * 0.3

    def test_buffered_frame_on_a_trio_socket_is_read_whole(self, tcp_trio):
        # A trio socket is non-blocking, and its timeout of 0.0 is no deadline:
        # read_frame(sock) alone falls back to receive_timeout_s().
        m = msg([np.arange(4.0).reshape(2, 2)])
        tcp_trio[Role.CLIENT_A].send(m)
        sock = tcp_trio[Role.CLIENT_B]._peers[Role.CLIENT_A]
        assert transport.read_frame(sock) == encode_message(m)
        assert sock.gettimeout() == 0.0

    def test_stalled_read_on_a_trio_socket_times_out_at_the_receive_timeout(self, tcp_trio,
                                                                           monkeypatch):
        monkeypatch.setenv("MSBLS_TIMEOUT_MS", "200")
        frame = encode_message(msg([np.ones((2, 2))]))
        tcp_trio[Role.CLIENT_A]._peers[Role.CLIENT_B].sendall(frame[:30])  # then stall
        start = time.monotonic()
        with pytest.raises(TransportTimeout, match="^frame not complete within the receive timeout$"):
            transport.read_frame(tcp_trio[Role.CLIENT_B]._peers[Role.CLIENT_A])
        assert 0.2 <= time.monotonic() - start < 1.0

    def test_frame_larger_than_the_socket_buffers_arrives_whole(self):
        rng = np.random.default_rng(6)
        m = msg([rng.standard_normal((5000, 785))])
        frame = encode_message(m)
        a, b = socket.socketpair()
        with a, b:
            assert len(frame) > a.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            a.settimeout(10.0)
            sender = threading.Thread(target=b.sendall, args=(frame,))
            sender.start()
            try:
                raw = transport.read_frame(a)
            finally:
                sender.join()
        assert raw == frame
        got = decode_message(raw).payloads[0]
        assert got.tobytes() == m.payloads[0].tobytes()

    def test_zero_row_dims_fail_at_once_and_keep_the_socket(self):
        head = bytes(encode_message(msg([np.ones((1, 1))]))[:27]) + struct.pack(">II", 0, 1)
        a, b = socket.socketpair()
        with a, b:
            # A walker that read past the dims would time out here instead.
            a.settimeout(2.0)
            b.sendall(head)
            with pytest.raises(FrameError, match="bad payload dims 0x1"):
                transport.read_frame(a)
            b.sendall(b"ok")
            assert a.recv(2) == b"ok"

    def test_large_frame_is_allocated_once(self):
        frame = encode_message(msg([np.random.default_rng(7).standard_normal((5000, 785))]))
        a, b = socket.socketpair()
        with a, b:
            a.settimeout(10.0)
            sender = threading.Thread(target=b.sendall, args=(frame,))
            tracemalloc.start()
            try:
                sender.start()
                raw = transport.read_frame(a)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                sender.join()
        assert raw == frame
        assert peak <= 1.01 * len(frame)


def frame_through_a_socket(frame) -> memoryview:
    """``frame`` read back by read_frame off a socketpair."""
    a, b = socket.socketpair()
    with a, b:
        a.settimeout(2.0)
        b.sendall(frame)
        return transport.read_frame(a)


def as_version(frame, version: int) -> bytes:
    """``frame`` with its version byte replaced and its checksum recomputed."""
    raw = bytearray(frame)
    raw[4] = version
    struct.pack_into(">I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
    return bytes(raw)


def same_message(a: ProtocolMessage, b: ProtocolMessage) -> bool:
    fields = ("session_id", "seq", "sender", "receiver", "kind")
    return all(getattr(a, f) == getattr(b, f) for f in fields) and [
        (p.shape, p.tobytes()) for p in a.payloads
    ] == [(p.shape, p.tobytes()) for p in b.payloads]


def mutate(frame: bytes, mutation) -> bytes:
    what, *args = mutation
    if what == "flip":
        index, mask = args
        raw = bytearray(frame)
        raw[index] ^= mask
        return bytes(raw)
    if what == "truncate":
        return frame[: args[0]]
    return frame + args[0]


def mutations(length: int):
    """One flipped byte, a cut to a strictly shorter length, or extra bytes."""
    return st.one_of(
        st.tuples(st.just("flip"), st.integers(0, length - 1), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, length - 1)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=9)),
    )


small_payloads = st.lists(
    arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=finite_f64),
    min_size=1, max_size=2,
)


class TestV2Frame:
    """Little-endian entries, the current version only, and payloads received in place."""

    def test_version_1_frame_is_rejected_by_both_readers(self):
        v1 = as_version(encode_message(msg([np.ones((2, 2))])), 1)
        with pytest.raises(FrameError, match="^unsupported version 1$"):
            decode_message(v1)
        with pytest.raises(FrameError, match="^unsupported version 1$"):
            frame_through_a_socket(v1)

    def test_version_2_frame_is_rejected(self):
        # Version 2 frames carried dense masks where version 3 carries seed rows.
        v2 = as_version(encode_message(msg([np.ones((2, 2))])), 2)
        with pytest.raises(FrameError, match="^unsupported version 2$"):
            decode_message(v2)

    def test_version_1_hello_fails_setup_and_closes_every_socket(self, monkeypatch):
        def v1_hello(sock, role):
            sock.sendall(transport._HELLO.pack(transport.MAGIC, 1, int(role)))

        monkeypatch.setattr(transport, "_hello", v1_hello)
        assert_setup_fails_cleanly(TransportClosed, "^tcp setup failed: bad connection hello$")

    def test_payloads_from_read_frame_are_aligned_writable_views_of_the_frame(self):
        rng = np.random.default_rng(8)
        m = msg([rng.standard_normal((3, 5)), rng.standard_normal((4, 5))],
                seq=2, sender=Role.SERVER, receiver=Role.CLIENT_B, kind=MessageKind.KEY_MASKS)
        raw = frame_through_a_socket(encode_message(m))
        frame = np.frombuffer(raw, np.uint8)
        got = decode_message(raw).payloads
        for sent, p in zip(m.payloads, got):
            assert p.dtype == np.float64 and p.flags.aligned and p.flags.writeable
            assert np.shares_memory(p, frame)
            assert p.tobytes() == sent.tobytes()
        # Zeroizing a held payload, as Party.zeroize does, wipes the frame bytes
        # that carried it and leaves the other payload's bytes alone.
        start = 27 + 8
        stop = start + got[0].nbytes
        got[0].fill(0.0)
        assert not frame[start:stop].any()
        assert frame[stop + 8 : stop + 8 + got[1].nbytes].tobytes() == m.payloads[1].tobytes()

    def test_payloads_decoded_from_bytes_own_their_data(self):
        rng = np.random.default_rng(9)
        m = msg([rng.standard_normal((3, 5)), rng.standard_normal((4, 5))])
        for p in decode_message(encode_message(m)).payloads:
            assert p.flags.owndata and p.flags.writeable and p.dtype == np.float64

    @settings(max_examples=150)
    @given(payloads=small_payloads, data=st.data())
    def test_mutated_frame_decodes_unchanged_or_is_rejected(self, payloads, data):
        m = msg(payloads)
        frame = encode_message(m)
        mutated = mutate(frame, data.draw(mutations(len(frame))))
        try:
            assert same_message(decode_message(mutated), m)
        except FrameError:
            pass
        a, b = socket.socketpair()
        with a:
            a.settimeout(2.0)
            with b:
                b.sendall(mutated)  # the peer then closes
            try:
                assert same_message(decode_message(transport.read_frame(a)), m)
            except (FrameError, TransportClosed):
                pass
