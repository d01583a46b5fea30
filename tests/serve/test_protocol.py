"""Framing and codec unit tests: round trips plus every typed failure."""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from repro.serve import ServeClient
from repro.serve.protocol import (
    _HEADER,
    _PIECE,
    MAGIC,
    MAX_FRAME,
    BadMagic,
    FrameTooLarge,
    FrameTruncated,
    ProtocolError,
    decode_keys,
    encode_keys,
    pack_frame,
    parse_header,
    read_head,
    read_frame_sync,
    unpack_body,
    write_frame,
    write_frame_sync,
)


async def _read_frame(reader: asyncio.StreamReader, max_frame: int = MAX_FRAME):
    """One whole frame, read as the server reads it: head, then body."""
    header, body = await read_head(reader, max_frame)
    return header, await body.read()


def _unpack_frame(frame: bytes):
    body_len = parse_header(frame[: _HEADER.size])
    assert body_len == len(frame) - _HEADER.size
    return unpack_body(frame[_HEADER.size :])


class TestRoundTrip:
    def test_header_and_payload_survive(self):
        header = {"op": "submit", "n_keys": 3, "nested": {"a": [1, 2]}}
        payload = b"\x00\x01\x02payload"
        got_header, got_payload = _unpack_frame(pack_frame(header, payload))
        assert got_header == header
        assert got_payload == payload

    def test_empty_payload(self):
        got_header, got_payload = _unpack_frame(pack_frame({"op": "ping"}))
        assert got_header == {"op": "ping"}
        assert got_payload == b""

    def test_keys_codec_round_trip(self):
        keys = np.array([5, -3, 1 << 40, 0], dtype=np.int64)
        fields, payload = encode_keys(keys)
        assert fields["n_keys"] == 4
        back = decode_keys(fields, payload)
        assert back.dtype == keys.dtype
        assert np.array_equal(back, keys)

    def test_decoded_keys_are_writable(self):
        keys = np.arange(8, dtype=np.int64)
        fields, payload = encode_keys(keys)
        back = decode_keys(fields, payload)
        back.sort()  # frombuffer alone would be read-only

    def test_sync_socket_round_trip(self):
        a, b = socket.socketpair()
        try:
            keys = np.arange(100, dtype=np.int64)
            fields, payload = encode_keys(keys)
            write_frame_sync(a, {"op": "submit", **fields}, payload)
            header, got = read_frame_sync(b)
            assert header["op"] == "submit"
            assert np.array_equal(decode_keys(header, got), keys)
        finally:
            a.close()
            b.close()


class TestOversized:
    def test_pack_refuses_over_cap(self):
        with pytest.raises(FrameTooLarge):
            pack_frame({"op": "submit"}, b"x" * 128, max_frame=64)

    def test_parse_header_refuses_announced_giant(self):
        raw = _HEADER.pack(MAGIC, MAX_FRAME + 1)
        with pytest.raises(FrameTooLarge):
            parse_header(raw)

    def test_cap_is_per_transport(self):
        frame = pack_frame({"op": "x"}, b"y" * 100)
        with pytest.raises(FrameTooLarge):
            parse_header(frame[: _HEADER.size], max_frame=32)


class TestTruncatedAndBadMagic:
    def test_bad_magic(self):
        raw = _HEADER.pack(b"HTTP", 10)
        with pytest.raises(BadMagic):
            parse_header(raw)

    def test_body_shorter_than_jlen(self):
        with pytest.raises(FrameTruncated):
            unpack_body(b"\x00")

    def test_body_shorter_than_declared_json(self):
        frame = pack_frame({"op": "ping"})
        body = frame[_HEADER.size :]
        with pytest.raises(FrameTruncated):
            unpack_body(body[:-3])

    def test_sync_read_of_closed_stream_mid_frame(self):
        a, b = socket.socketpair()
        frame = pack_frame({"op": "ping"})
        a.sendall(frame[: len(frame) - 2])
        a.close()
        try:
            with pytest.raises(FrameTruncated):
                read_frame_sync(b)
        finally:
            b.close()

    def test_non_object_header_rejected(self):
        import json
        import struct

        jbytes = json.dumps([1, 2]).encode()
        body = struct.pack(">I", len(jbytes)) + jbytes
        with pytest.raises(ProtocolError):
            unpack_body(body)

    def test_key_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            decode_keys({"dtype": "<i8", "n_keys": 4}, b"\x00" * 31)


class TestAsyncTransport:
    def _drain(self, coro):
        return asyncio.run(coro)

    def test_async_round_trip(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(pack_frame({"op": "status", "job_id": "j1"}))
            reader.feed_eof()
            return await _read_frame(reader)

        header, payload = self._drain(go())
        assert header == {"op": "status", "job_id": "j1"}
        assert payload == b""

    def test_clean_close_between_frames_is_eof(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            await _read_frame(reader)

        with pytest.raises(EOFError):
            self._drain(go())

    def test_close_mid_frame_is_truncated(self):
        async def go():
            reader = asyncio.StreamReader()
            frame = pack_frame({"op": "ping"})
            reader.feed_data(frame[: len(frame) - 1])
            reader.feed_eof()
            await _read_frame(reader)

        with pytest.raises(FrameTruncated):
            self._drain(go())


# ----------------------------------------------------------------------
# The streamed transports: both must read, and write, exactly what the
# whole-buffer codec (``pack_frame`` / ``parse_header`` / ``unpack_body``)
# describes, however the bytes are cut up on the way.
# ----------------------------------------------------------------------
_HEAD = {"op": "submit", "dtype": "<i8", "n_keys": 5, "note": "x" * 21}
_PAYLOAD = bytes(range(40))
_FRAME = pack_frame(_HEAD, _PAYLOAD)
_JSON_AT = _HEADER.size + 4
_PAYLOAD_AT = len(_FRAME) - len(_PAYLOAD)
#: Inside the 8-byte prefix, the JSON-length field, the JSON and the
#: payload, and exactly at each boundary between them.
_CUTS = sorted({
    1, 5, _HEADER.size, _HEADER.size + 2, _JSON_AT, _JSON_AT + 9,
    _PAYLOAD_AT, _PAYLOAD_AT + 1, len(_FRAME) - 1,
})


def _read_sync(pieces, close=True, max_frame=MAX_FRAME):
    """``read_frame_sync`` of a socket that is sent ``pieces`` one by one
    (each its own segment) and then closed -- or left open and silent."""
    a, b = socket.socketpair()
    b.settimeout(5.0)

    def send():
        for piece in pieces:
            a.sendall(piece)
            threading.Event().wait(0.005)
        if close:
            a.close()

    sender = threading.Thread(target=send)
    sender.start()
    try:
        return read_frame_sync(b, max_frame)
    finally:
        sender.join(timeout=5.0)
        a.close()
        b.close()


def _read_async(pieces, close=True, max_frame=MAX_FRAME):
    """``_read_frame`` of a stream fed ``pieces`` one loop turn apart."""

    async def go():
        reader = asyncio.StreamReader()
        task = asyncio.ensure_future(_read_frame(reader, max_frame))
        for piece in pieces:
            reader.feed_data(piece)
            await asyncio.sleep(0)
        if close:
            reader.feed_eof()
        return await asyncio.wait_for(task, timeout=5.0)

    return asyncio.run(go())


class _Sink:
    """What ``write_frame`` needs of a ``StreamWriter``; keeps each
    ``write`` so a test can see the pieces."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        pass


def _wire_sync(header, payload) -> bytes:
    a, b = socket.socketpair()
    got = bytearray()

    def recv():
        while chunk := b.recv(1 << 20):
            got.extend(chunk)

    receiver = threading.Thread(target=recv)
    receiver.start()
    try:
        write_frame_sync(a, header, payload)
    finally:
        a.close()
        receiver.join(timeout=10.0)
        b.close()
    return bytes(got)


def _wire_async(header, payload) -> bytes:
    sink = _Sink()
    asyncio.run(write_frame(sink, header, payload))
    return b"".join(sink.writes)


#: Frame headers ``json.loads`` refuses: each must be a ProtocolError.
_NOT_JSON = [
    (b'{"op": ping}', "JSONDecodeError"),
    (b'{"op": "\xff"}', "UnicodeDecodeError"),
    (b"[" * 100_000 + b"]" * 100_000, "RecursionError"),
]
_NOT_JSON_IDS = ["invalid", "not-utf-8", "nested"]
_READERS = pytest.mark.parametrize(
    "read", [_read_sync, _read_async], ids=["sync", "async"]
)
_WRITERS = pytest.mark.parametrize(
    "wire", [_wire_sync, _wire_async], ids=["sync", "async"]
)
#: Nothing, one byte, and either side of the size up to which a writer
#: sends head and payload as one buffer.
_SIZES = [0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 7]


class TestStreamedRead:
    @_READERS
    @pytest.mark.parametrize("cut", _CUTS)
    def test_frame_in_two_pieces_decodes_the_same(self, read, cut):
        header, payload = read([_FRAME[:cut], _FRAME[cut:]])
        assert header == _HEAD
        assert bytes(payload) == _PAYLOAD

    @_READERS
    def test_frame_byte_by_byte(self, read):
        header, payload = read([_FRAME[i : i + 1] for i in range(len(_FRAME))])
        assert (header, bytes(payload)) == (_HEAD, _PAYLOAD)

    @_READERS
    def test_two_frames_in_one_segment_do_not_bleed(self, read):
        """The reader takes exactly one frame's bytes off the stream."""
        header, payload = read([_FRAME + pack_frame({"op": "ping"})])
        assert (header, bytes(payload)) == (_HEAD, _PAYLOAD)

    @_READERS
    @pytest.mark.parametrize("cut", _CUTS)
    def test_close_inside_a_frame_is_truncated(self, read, cut):
        with pytest.raises(FrameTruncated):
            read([_FRAME[:cut]])

    def test_close_between_frames(self):
        """Only the asyncio reader tells a clean close from a cut frame
        (the server ends the connection quietly); the client, which is
        always owed a reply, calls both truncated."""
        with pytest.raises(EOFError):
            _read_async([])
        with pytest.raises(FrameTruncated):
            _read_sync([])

    @_READERS
    def test_bad_magic(self, read):
        with pytest.raises(BadMagic):
            read([_HEADER.pack(b"HTTP", 10)], close=False)

    @_READERS
    def test_cap_refused_on_the_prefix_alone(self, read):
        """The peer sends the 8 bytes and then nothing, and does not
        close: the refusal must not wait for, or make room for, a body."""
        tracemalloc.start()
        try:
            with pytest.raises(FrameTooLarge) as info:
                read([_HEADER.pack(MAGIC, 1 << 30)], close=False, max_frame=1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.cap == 1 << 20
        assert peak < 1 << 20

    @_READERS
    def test_body_shorter_than_its_length_field(self, read):
        with pytest.raises(FrameTruncated):
            read([_HEADER.pack(MAGIC, 2) + b"\x00\x00"], close=False)

    @_READERS
    def test_json_length_past_the_body(self, read):
        body = struct.pack(">I", 50) + b"{}"
        with pytest.raises(FrameTruncated):
            read([_HEADER.pack(MAGIC, len(body)) + body], close=False)

    @_READERS
    def test_non_object_header(self, read):
        jbytes = json.dumps([1, 2]).encode()
        body = struct.pack(">I", len(jbytes)) + jbytes
        with pytest.raises(ProtocolError, match="JSON object"):
            read([_HEADER.pack(MAGIC, len(body)) + body])

    @_READERS
    @pytest.mark.parametrize("jbytes, why", _NOT_JSON, ids=_NOT_JSON_IDS)
    def test_header_that_is_not_json(self, read, jbytes, why):
        body = struct.pack(">I", len(jbytes)) + jbytes
        with pytest.raises(ProtocolError, match=f"not JSON \\({why}\\)"):
            read([_HEADER.pack(MAGIC, len(body)) + body])
        with pytest.raises(ProtocolError, match=f"not JSON \\({why}\\)"):
            unpack_body(body)

    @_READERS
    def test_key_length_mismatch_surfaces_at_decode(self, read):
        frame = pack_frame({"dtype": "<i8", "n_keys": 4}, b"\x00" * 31)
        with pytest.raises(ProtocolError, match="31 bytes"):
            decode_keys(*read([frame]))

    @_READERS
    def test_received_keys_are_the_received_buffer(self, read):
        """No copy between the wire and the array: ``decode_keys`` wraps
        the buffer the transport filled, and it is writable."""
        keys = np.arange(1000, dtype=np.int64)[::-1].copy()
        fields, payload = encode_keys(keys)
        header, got = read([pack_frame(fields, payload)])
        back = decode_keys(header, got)
        assert np.shares_memory(back, np.frombuffer(got, dtype=np.uint8))
        back.sort()
        assert np.array_equal(back, keys[::-1])


class TestStreamedWrite:
    @_WRITERS
    @pytest.mark.parametrize("size", _SIZES)
    def test_wire_bytes_are_pack_frame(self, wire, size):
        """Old peer <-> new peer: a streamed writer puts on the wire
        byte for byte what the whole-buffer codec builds."""
        payload = np.random.default_rng(size).bytes(size)
        header = {"op": "result", "n": size}
        assert wire(header, payload) == pack_frame(header, payload)

    @_WRITERS
    def test_payload_goes_out_from_the_array(self, wire):
        keys = np.arange(_PIECE, dtype=np.int64)  # 8 pieces
        fields, payload = encode_keys(keys)
        assert np.shares_memory(np.frombuffer(payload, dtype=np.uint8), keys)
        sent = wire(fields, payload)
        assert sent == pack_frame(fields, keys.tobytes())

    def test_small_frame_is_one_write_large_is_bounded_pieces(self):
        for size, n_writes in ((0, 1), (_PIECE, 1), (_PIECE + 1, 3), (4 * _PIECE, 5)):
            sink = _Sink()
            asyncio.run(write_frame(sink, {"op": "x"}, bytes(size)))
            assert len(sink.writes) == n_writes
            assert max(map(len, sink.writes[1:]), default=0) <= _PIECE

    def test_over_cap_refused_before_a_byte_is_sent(self):
        a, b = socket.socketpair()
        sink = _Sink()
        try:
            with pytest.raises(FrameTooLarge):
                write_frame_sync(a, {"op": "submit"}, b"x" * 128, max_frame=64)
            with pytest.raises(FrameTooLarge):
                asyncio.run(write_frame(sink, {"op": "submit"}, b"x" * 128, 64))
            a.close()
            assert b.recv(16) == b"" and sink.writes == []
        finally:
            a.close()
            b.close()


class TestLargeFrames:
    N = (16 << 20) // 8  # a 16 MiB payload

    @_WRITERS
    @_READERS
    def test_16_mib_round_trip(self, wire, read):
        keys = np.random.default_rng(16).integers(0, 1 << 62, self.N, dtype=np.int64)
        fields, payload = encode_keys(keys)
        sent = wire({"op": "submit", **fields}, payload)
        header, got = read([sent[lo : lo + (1 << 20)] for lo in range(0, len(sent), 1 << 20)])
        assert np.array_equal(decode_keys(header, got), keys)

    def test_async_reader_holds_one_payload(self):
        """Over a real loopback connection (so the transport's flow
        control is in play) the server side of a 16 MiB frame peaks at
        the payload buffer plus bounded pieces -- not at 3x payload."""
        keys = np.arange(self.N, dtype=np.int64)
        fields, payload = encode_keys(keys)
        got = {}

        async def go():
            done = asyncio.Event()

            async def handle(reader, writer):
                tracemalloc.start()
                header, body = await _read_frame(reader)
                got["peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                got["keys"] = decode_keys(header, body)
                writer.close()
                done.set()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            def send():
                with socket.create_connection(("127.0.0.1", port)) as sock:
                    write_frame_sync(sock, fields, payload)

            sender = threading.Thread(target=send)
            sender.start()
            await asyncio.wait_for(done.wait(), timeout=60.0)
            sender.join(timeout=10.0)
            server.close()
            await server.wait_closed()

        asyncio.run(go())
        assert np.array_equal(got["keys"], keys)
        assert got["peak"] <= len(payload) + (2 << 20)

    def test_client_result_holds_one_payload(self):
        """``ServeClient.result`` of a 16 MiB reply: the received buffer
        *is* the returned array, so the peak is one payload."""
        keys = np.arange(self.N, dtype=np.int64)
        fields, payload = encode_keys(keys)
        listener = socket.create_server(("127.0.0.1", 0))

        def stub():
            conn, _ = listener.accept()
            with conn:
                read_frame_sync(conn)
                write_frame_sync(conn, {"ok": True, **fields}, payload)

        server = threading.Thread(target=stub)
        server.start()
        try:
            with ServeClient(port=listener.getsockname()[1]) as client:
                tracemalloc.start()
                out = client.result("j000001")
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert np.array_equal(out, keys)
        assert out.flags.writeable
        assert peak <= len(payload) + (2 << 20)
