"""Wire protocol for the sort job server.

One frame = an 8-byte header (magic ``RPSV`` + big-endian uint32 body
length) followed by the body: a uint32 JSON-header length, the JSON
header, and an optional raw binary payload (key bytes).  Keys travel as
the array's own bytes with ``dtype``/``n_keys`` named in the JSON header:
no base64, no text.

A frame is read header-first and its payload is streamed.  The 8 fixed
bytes are parsed and the cap enforced before anything else is read; then
the JSON length and the JSON header; only then -- its length known, and
on the server only once the request is admitted -- is the payload
received straight into one preallocated buffer (``recv_into`` on a
socket; bounded ``read`` pieces on an asyncio stream, whose own buffer
therefore never outgrows its limit), which :func:`decode_keys` wraps as
the key array without copying.  A frame is written the same way round:
the head, then the payload in bounded pieces from the memory of the
array that owns it (:func:`encode_keys` returns a view, not a copy), so
no transport ever holds a whole pending frame; a payload of up to
``_PIECE`` bytes goes out joined to its head -- a small frame is one
send.  :func:`pack_frame` / :func:`parse_header` / :func:`unpack_body`
are the whole-buffer forms of the same codec.

Every error reply is a :class:`Refused` -- a code, an optional message
and extra fields, rendered by :meth:`Refused.reply`.  Framing errors are
its typed subclasses, each naming its code: :class:`FrameTooLarge` (a
body beyond ``max_frame`` is refused before it is read, so a hostile or
buggy client cannot balloon server memory), :class:`FrameTruncated` (the
stream ended mid-frame) and :class:`BadMagic` (not this protocol).  Both
sync (``socket``) and async (``asyncio`` streams) transports drive the
same head parser, so the client, server and tests cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Generator, Iterator

import numpy as np

MAGIC = b"RPSV"
_HEADER = struct.Struct(">4sI")
_JLEN = struct.Struct(">I")

#: Default per-frame byte ceiling (header + payload).  64 MiB fits an
#: 8M-key int64 submit; servers and clients can lower it independently.
MAX_FRAME = 64 << 20

#: Bytes moved per step of a streamed payload, and the largest payload a
#: writer still sends joined to its head as one buffer.
_PIECE = 128 << 10

#: What a payload may be handed over as.
Buffer = bytes | bytearray | memoryview


class Refused(RuntimeError):
    """A request the server answers with an error reply instead of doing
    it: the ``code``, an optional ``message``, and any extra reply
    ``fields`` (``retry_after_s``, ``cap``, ``stream_id``, a record's
    public fields).  Handlers raise it; :meth:`reply` is the one place
    an error reply header is built."""

    def __init__(self, code: str, message: str | None = None, /, **fields: Any):
        super().__init__(code if message is None else message)
        self.code = code
        self.message = message
        self.fields = fields

    def reply(self) -> dict[str, Any]:
        header = {**self.fields, "ok": False, "error": self.code}
        if self.message is not None:
            header["message"] = self.message
        return header


class ProtocolError(Refused):
    """Base class for framing failures; each class names its code."""

    code = "protocol-error"

    def __init__(self, message: str, **fields: Any):
        super().__init__(self.code, message, **fields)


class BadMagic(ProtocolError):
    """The stream does not speak this protocol."""

    code = "bad-magic"


class FrameTooLarge(ProtocolError):
    """A frame exceeded the transport's ``max_frame`` ceiling.

    ``cap`` carries the configured ceiling so a structured rejection can
    tell the peer *which* limit it hit (a client that knows the cap can
    re-chunk and retry; one that only sees "too large" cannot tell a cap
    from corruption).
    """

    code = "frame-too-large"

    def __init__(self, message: str, cap: int):
        super().__init__(message, cap=cap)
        self.cap = cap


class FrameTruncated(ProtocolError):
    """The stream ended mid-frame (peer died or sent a short write)."""

    code = "frame-truncated"


class BadRequest(ProtocolError):
    """A well-framed request whose header carries an unusable field."""

    code = "bad-request"


def frame_keys(max_frame: int, itemsize: int) -> int:
    """How many keys of ``itemsize`` bytes one frame under ``max_frame``
    carries, leaving 64 KiB for its JSON header: the push and fetch
    block size, and the largest job whose result fits one reply."""
    return max(1, (max_frame - (64 << 10)) // itemsize)


# ----------------------------------------------------------------------
# The codec (transport-independent)
# ----------------------------------------------------------------------
def _pieces(
    header: dict[str, Any], payload: Buffer, max_frame: int
) -> Iterator[Buffer]:
    """What a writer sends, in order: the head, then a payload too large
    to join to it in views of ``_PIECE`` bytes.  Raises
    :class:`FrameTooLarge` over the cap before yielding anything."""
    view = memoryview(payload).cast("B")
    jbytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    body_len = _JLEN.size + len(jbytes) + view.nbytes
    if body_len > max_frame:
        raise FrameTooLarge(
            f"frame body of {body_len} bytes exceeds the {max_frame}-byte cap",
            cap=max_frame,
        )
    head = _HEADER.pack(MAGIC, body_len) + _JLEN.pack(len(jbytes)) + jbytes
    if view.nbytes <= _PIECE:
        yield head + view
    else:
        yield head
        for lo in range(0, view.nbytes, _PIECE):
            yield view[lo : lo + _PIECE]


def pack_frame(
    header: dict[str, Any], payload: Buffer = b"", max_frame: int = MAX_FRAME
) -> bytes:
    """Serialize one frame; raises :class:`FrameTooLarge` over the cap."""
    return b"".join(_pieces(header, payload, max_frame))


def parse_header(raw: Buffer, max_frame: int = MAX_FRAME) -> int:
    """Validate the 8 fixed bytes; returns the body length to read."""
    magic, body_len = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, got {magic!r}")
    if body_len > max_frame:
        raise FrameTooLarge(
            f"peer announced a {body_len}-byte frame, over the "
            f"{max_frame}-byte cap",
            cap=max_frame,
        )
    return body_len


def _json_len(raw: Buffer, body_len: int) -> int:
    """The JSON header's length from the (up to) 4 bytes after the fixed
    header, bounded by the body it must fit in."""
    if len(raw) < _JLEN.size:
        raise FrameTruncated("frame body shorter than its header-length field")
    (jlen,) = _JLEN.unpack(raw)
    if _JLEN.size + jlen > body_len:
        raise FrameTruncated("frame body shorter than its declared JSON header")
    return jlen


def _json_header(raw: Buffer) -> dict[str, Any]:
    try:
        header = json.loads(bytes(raw))
    except (ValueError, RecursionError) as err:  # not JSON, not UTF-8, too deep
        raise ProtocolError(
            f"frame header is not JSON ({type(err).__name__})"
        ) from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


def _head(max_frame: int) -> Generator[int, Buffer, tuple[dict[str, Any], int]]:
    """One frame's head, parsed sans-I/O: the fixed header, the JSON
    length, the JSON header.  Yields how many bytes it needs next, is
    sent exactly those, and returns ``(JSON header, payload length)``.
    :func:`read_frame_sync` and :func:`read_head` both drive it."""
    body_len = parse_header((yield _HEADER.size), max_frame)
    jlen = _json_len((yield min(_JLEN.size, body_len)), body_len)
    return _json_header((yield jlen)), body_len - _JLEN.size - jlen


def unpack_body(body: bytes) -> tuple[dict[str, Any], bytes]:
    """Split a frame body into (JSON header, raw payload)."""
    end = _JLEN.size + _json_len(body[: _JLEN.size], len(body))
    return _json_header(body[_JLEN.size : end]), body[end:]


# ----------------------------------------------------------------------
# Key codecs
# ----------------------------------------------------------------------
def encode_keys(keys: np.ndarray) -> tuple[dict[str, Any], memoryview]:
    """(header fields, payload) describing a 1-D key array; the payload
    is a read-only byte view of the (contiguous) array, not a copy."""
    keys = np.ascontiguousarray(keys)
    fields = {"dtype": keys.dtype.str, "n_keys": int(keys.shape[0])}
    return fields, memoryview(keys.view(np.uint8)).toreadonly()


def key_spec(header: dict[str, Any], payload_len: int) -> tuple[np.dtype, int]:
    """(dtype, n_keys) a header declares, validated against the payload
    length -- all a server needs to admit or refuse the keys unread."""
    try:
        dtype = np.dtype(header["dtype"])
        n = int(header["n_keys"])
    except (KeyError, TypeError, ValueError) as err:
        raise ProtocolError(f"malformed key description: {err}") from None
    if n < 0 or n * dtype.itemsize != payload_len:
        raise ProtocolError(
            f"key payload is {payload_len} bytes but header declares "
            f"{n} x {dtype.str}"
        )
    return dtype, n


def decode_keys(header: dict[str, Any], payload: Buffer) -> np.ndarray:
    """The key array a peer sent, always writable: a received buffer is
    wrapped in place, read-only ``bytes`` are copied."""
    dtype, _ = key_spec(header, memoryview(payload).nbytes)
    keys = np.frombuffer(payload, dtype=dtype)
    return keys if keys.flags.writeable else keys.copy()


def _new_buffer(n: int) -> memoryview:
    """``n`` writable bytes to receive into.  ``np.empty``, not
    ``bytearray``: pages nothing was written to cost no resident memory,
    so a peer that announces a payload and never sends it holds none."""
    return memoryview(np.empty(n, dtype=np.uint8))


# ----------------------------------------------------------------------
# Sync transport (the thin client)
# ----------------------------------------------------------------------
def _recv(sock: socket.socket, n: int) -> memoryview:
    buf = _new_buffer(n)
    at = 0
    while at < n:
        got = sock.recv_into(buf[at:])
        if not got:
            raise FrameTruncated(f"stream closed with {n - at} bytes outstanding")
        at += got
    return buf


def read_frame_sync(
    sock: socket.socket, max_frame: int = MAX_FRAME
) -> tuple[dict[str, Any], memoryview]:
    parse, got = _head(max_frame), None
    try:
        while True:
            got = _recv(sock, parse.send(got))
    except StopIteration as head:
        header, n = head.value
    return header, _recv(sock, n)


def write_frame_sync(
    sock: socket.socket,
    header: dict[str, Any],
    payload: Buffer = b"",
    max_frame: int = MAX_FRAME,
) -> None:
    for piece in _pieces(header, payload, max_frame):
        sock.sendall(piece)


# ----------------------------------------------------------------------
# Async transport (the server)
# ----------------------------------------------------------------------
class Body:
    """A frame's payload, still on the wire after :func:`read_head`.
    Whoever wants it reads it; what nobody read must be drained
    (``read(keep=False)``) before the stream's next frame."""

    def __init__(self, reader: asyncio.StreamReader, n: int):
        self._reader = reader
        #: Payload bytes not yet read.
        self.n = n

    async def read(self, keep: bool = True) -> memoryview | None:
        """Receive the payload into one new buffer -- or, with
        ``keep=False``, drop it piece by piece, allocating nothing."""
        n, self.n = self.n, 0
        buf = _new_buffer(n) if keep else None
        at = 0
        while at < n:
            piece = await self._reader.read(min(n - at, _PIECE))
            if not piece:
                raise FrameTruncated(f"stream closed mid-frame ({at}/{n} bytes)")
            if buf is not None:
                buf[at : at + len(piece)] = piece
            at += len(piece)
        return buf


async def read_head(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME
) -> tuple[dict[str, Any], Body]:
    """Read one frame up to its payload.  ``EOFError`` when the peer
    closed between frames, :class:`FrameTruncated` when inside one."""
    parse, got = _head(max_frame), None
    try:
        while True:
            got = await reader.readexactly(parse.send(got))
    except StopIteration as head:
        header, n = head.value
    except asyncio.IncompleteReadError as err:
        if got is None and not err.partial:
            raise EOFError("peer closed between frames") from None
        raise FrameTruncated(
            f"stream closed mid-frame ({len(err.partial)}/{err.expected} bytes)"
        ) from None
    return header, Body(reader, n)


async def write_frame(
    writer: asyncio.StreamWriter,
    header: dict[str, Any],
    payload: Buffer = b"",
    max_frame: int = MAX_FRAME,
) -> None:
    for piece in _pieces(header, payload, max_frame):
        writer.write(piece)
        await writer.drain()
