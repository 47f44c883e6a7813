"""Async frame IO shared by every socket surface of the pipeline.

One reader for both of them — the exactly-once service's server and
the service client — so truncation handling, the declared-length cap,
and the idle-timeout contract can never drift between endpoints.
"""

from __future__ import annotations

import asyncio

from ...exceptions import QuotaExceededError, WireFormatError
from . import wire

__all__ = ["read_frame_bytes", "read_session_frame", "unread_bytes"]


def unread_bytes(reader: asyncio.StreamReader) -> int:
    """Bytes *reader* has received that no read has consumed yet.

    Non-zero while a read waits means part of a frame has arrived: a
    header still incomplete, or a payload still short.
    ``StreamReader`` keeps these bytes in its ``_buffer`` and has no
    public accessor; a reader without one counts as empty.
    """
    return len(getattr(reader, "_buffer", b""))


async def read_frame_bytes(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int | None = None,
    header_timeout: float | None = None,
    payload_timeout: float | None = None,
    on_header=None,
) -> bytes | None:
    """Read one complete raw frame; ``None`` at clean EOF.

    The declared payload length is checked against *max_frame_bytes*
    **before** the payload is read, so an oversized (or hostile) length
    field can never balloon this connection's buffer — the frame is
    refused at header-parse time.

    *header_timeout* bounds the wait for the frame's **first** byte
    window (the header) and raises :class:`asyncio.TimeoutError` when
    it elapses — the caller's idle signal (group-commit flush or
    session reap).  Timing out is safe: ``readexactly`` extracts
    nothing from the stream buffer until the full header has arrived,
    so a timed-out read consumes zero bytes and the next call starts on
    the same frame boundary.

    *payload_timeout* bounds the payload read and raises
    :class:`WireFormatError` — a distinct type on purpose: a peer that
    stalls *mid-frame* can never resume on a frame boundary, so the
    connection is broken, not idle, and the caller must drop it rather
    than wait or flush-and-retry.

    *on_header*, if given, is called with no arguments once the header
    has arrived: from then on the frame is mid-read.
    """
    try:
        head_read = reader.readexactly(wire.HEADER_SIZE)
        if header_timeout is not None:
            head = await asyncio.wait_for(head_read, header_timeout)
        else:
            head = await head_read
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF on a frame boundary
        raise WireFormatError(
            f"truncated frame: header needs {wire.HEADER_SIZE} bytes, "
            f"got {len(exc.partial)}"
        ) from exc
    if on_header is not None:
        on_header()
    _, _, _, _, _, length = wire._parse_header(head)
    if max_frame_bytes is not None and length > max_frame_bytes:
        raise QuotaExceededError(
            f"frame declares a {length}-byte payload; this service caps "
            f"frames at {max_frame_bytes} bytes"
        )
    try:
        rest_read = reader.readexactly(length + 4)
        if payload_timeout is not None:
            try:
                rest = await asyncio.wait_for(rest_read, payload_timeout)
            except asyncio.TimeoutError as exc:
                raise WireFormatError(
                    f"stalled mid-frame: peer sent the header but not the "
                    f"{length + 4}-byte payload within {payload_timeout}s"
                ) from exc
        else:
            rest = await rest_read
    except asyncio.IncompleteReadError as exc:
        raise WireFormatError(
            f"truncated frame: payload needs {length + 4} bytes, "
            f"got {len(exc.partial)}"
        ) from exc
    return head + rest


async def read_session_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int | None = None
):
    """Read and decode one frame; ``None`` at clean EOF."""
    frame = await read_frame_bytes(reader, max_frame_bytes=max_frame_bytes)
    if frame is None:
        return None
    return wire.loads(frame)
