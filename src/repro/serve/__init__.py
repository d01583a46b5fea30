"""Sort-as-a-service: a job server over the resilient native pool.

The package turns the repo's one-shot parallel sorts into a long-lived
service (``python -m repro serve``) with a thin blocking client and a
load/latency harness (``python -m repro loadgen``).  See docs/SERVE.md
for the protocol, admission codes and operational model.

Layering::

    protocol   framing + key codecs (sync and asyncio transports)
    admission  backpressure verdicts (Refused) with retry_after_s hints
    results    bounded job-record store with completion events
    engine     persistent WorkerPool, its arena reserved; one job at a time
    server     asyncio endpoint, queue, deadlines, drain/shutdown
    streamjob  streaming job sessions (external sorts over frames)
    client     blocking request/response client
    loadgen    N-client correctness-checking load generator
"""

from ..native.arena import Arena, ArenaExhausted, JobTooLarge, SlabView
from .admission import AdmissionController
from .client import ServeClient, ServeError, ServeRejected
from .engine import EngineOutcome, SortEngine
from .loadgen import loadgen_ok, run_loadgen
from .protocol import (
    MAX_FRAME,
    BadMagic,
    FrameTooLarge,
    FrameTruncated,
    ProtocolError,
    Refused,
    decode_keys,
    encode_keys,
    pack_frame,
    unpack_body,
)
from .results import JobRecord, ResultStore
from .server import ServeServer, server_in_thread
from .streamjob import StreamSession

__all__ = [
    "AdmissionController",
    "Arena",
    "ArenaExhausted",
    "BadMagic",
    "EngineOutcome",
    "FrameTooLarge",
    "FrameTruncated",
    "JobRecord",
    "JobTooLarge",
    "MAX_FRAME",
    "ProtocolError",
    "Refused",
    "ResultStore",
    "ServeClient",
    "ServeError",
    "ServeRejected",
    "ServeServer",
    "SlabView",
    "SortEngine",
    "StreamSession",
    "decode_keys",
    "encode_keys",
    "loadgen_ok",
    "pack_frame",
    "run_loadgen",
    "server_in_thread",
    "unpack_body",
]
