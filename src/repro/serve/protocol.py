"""Wire protocol for the sort job server.

One frame = an 8-byte header (magic ``RPSV`` + big-endian uint32 body
length) followed by the body: a uint32 JSON-header length, the JSON
header, and an optional raw binary payload (key bytes).  Keys travel as
``ndarray.tobytes()`` with ``dtype``/``shape`` named in the JSON header,
so a submit or result frame costs one copy and no base64 inflation.

Framing errors are typed: :class:`FrameTooLarge` (a body beyond
``max_frame`` is refused before it is read, so a hostile or buggy client
cannot balloon server memory), :class:`FrameTruncated` (the stream ended
mid-frame) and :class:`BadMagic` (not this protocol).  Both sync
(``socket``) and async (``asyncio`` streams) transports share the same
pack/unpack core, so the client, server and tests cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

import numpy as np

MAGIC = b"RPSV"
_HEADER = struct.Struct(">4sI")
_JLEN = struct.Struct(">I")

#: Default per-frame byte ceiling (header + payload).  64 MiB fits an
#: 8M-key int64 submit; servers and clients can lower it independently.
MAX_FRAME = 64 << 20


class ProtocolError(RuntimeError):
    """Base class for framing failures."""


class BadMagic(ProtocolError):
    """The stream does not speak this protocol."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded the transport's ``max_frame`` ceiling.

    ``cap`` carries the configured ceiling so a structured rejection can
    tell the peer *which* limit it hit (a client that knows the cap can
    re-chunk and retry; one that only sees "too large" cannot tell a cap
    from corruption).
    """

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class FrameTruncated(ProtocolError):
    """The stream ended mid-frame (peer died or sent a short write)."""


class BadRequest(ProtocolError):
    """A well-framed request whose header carries an unusable field."""


# ----------------------------------------------------------------------
# Pack / unpack (transport-independent)
# ----------------------------------------------------------------------
def pack_frame(
    header: dict[str, Any], payload: bytes = b"", max_frame: int = MAX_FRAME
) -> bytes:
    """Serialize one frame; raises :class:`FrameTooLarge` over the cap."""
    jbytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    body_len = _JLEN.size + len(jbytes) + len(payload)
    if body_len > max_frame:
        raise FrameTooLarge(
            f"frame body of {body_len} bytes exceeds the {max_frame}-byte cap",
            cap=max_frame,
        )
    return b"".join(
        (_HEADER.pack(MAGIC, body_len), _JLEN.pack(len(jbytes)), jbytes, payload)
    )


def unpack_body(body: bytes) -> tuple[dict[str, Any], bytes]:
    """Split a frame body into (JSON header, raw payload)."""
    if len(body) < _JLEN.size:
        raise FrameTruncated("frame body shorter than its header-length field")
    (jlen,) = _JLEN.unpack_from(body)
    if _JLEN.size + jlen > len(body):
        raise FrameTruncated("frame body shorter than its declared JSON header")
    header = json.loads(body[_JLEN.size : _JLEN.size + jlen].decode())
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header, body[_JLEN.size + jlen :]


def parse_header(raw: bytes, max_frame: int = MAX_FRAME) -> int:
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


# ----------------------------------------------------------------------
# Key codecs
# ----------------------------------------------------------------------
def encode_keys(keys: np.ndarray) -> tuple[dict[str, Any], bytes]:
    """(header fields, payload bytes) describing a 1-D key array."""
    keys = np.ascontiguousarray(keys)
    return {"dtype": keys.dtype.str, "n_keys": int(keys.shape[0])}, keys.tobytes()


def decode_keys(header: dict[str, Any], payload: bytes) -> np.ndarray:
    """Rebuild the key array a peer sent; validates length consistency."""
    try:
        dtype = np.dtype(header["dtype"])
        n = int(header["n_keys"])
    except (KeyError, TypeError, ValueError) as err:
        raise ProtocolError(f"malformed key description: {err}") from None
    if n < 0 or n * dtype.itemsize != len(payload):
        raise ProtocolError(
            f"key payload is {len(payload)} bytes but header declares "
            f"{n} x {dtype.str}"
        )
    return np.frombuffer(payload, dtype=dtype).copy()


# ----------------------------------------------------------------------
# Sync transport (the thin client)
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise FrameTruncated(f"stream closed with {n} bytes outstanding")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(
    sock: socket.socket, max_frame: int = MAX_FRAME
) -> tuple[dict[str, Any], bytes]:
    body_len = parse_header(_recv_exact(sock, _HEADER.size), max_frame)
    return unpack_body(_recv_exact(sock, body_len))


def write_frame_sync(
    sock: socket.socket,
    header: dict[str, Any],
    payload: bytes = b"",
    max_frame: int = MAX_FRAME,
) -> None:
    sock.sendall(pack_frame(header, payload, max_frame))


# ----------------------------------------------------------------------
# Async transport (the server)
# ----------------------------------------------------------------------
async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME
) -> tuple[dict[str, Any], bytes]:
    """Read one frame; raises ``asyncio.IncompleteReadError`` wrapped as
    :class:`FrameTruncated` when the peer hangs up mid-frame."""
    try:
        raw = await reader.readexactly(_HEADER.size)
        body = await reader.readexactly(parse_header(raw, max_frame))
    except asyncio.IncompleteReadError as err:
        if not err.partial and err.expected == _HEADER.size:
            raise EOFError("peer closed between frames") from None
        raise FrameTruncated(
            f"stream closed mid-frame ({len(err.partial)}/{err.expected} bytes)"
        ) from None
    return unpack_body(body)


async def write_frame(
    writer: asyncio.StreamWriter,
    header: dict[str, Any],
    payload: bytes = b"",
    max_frame: int = MAX_FRAME,
) -> None:
    writer.write(pack_frame(header, payload, max_frame))
    await writer.drain()
