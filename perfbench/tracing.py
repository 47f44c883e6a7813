"""In-memory span tracing for the benchmark, applied from outside ``src/``.

The tracer wraps public functions and methods of the ``repro`` modules
(the layers) by replacing them in every loaded ``repro`` module that
holds a reference, so calls made through ``module.fn`` and through
``from module import fn`` are both seen.  Each call becomes one span:

    (span_id, parent_id, name, start_ns, end_ns, record_id, nbytes)

``start_ns``/``end_ns`` come from ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux), so spans written by the forked
service process line up with the generator's phase boundaries.  The
parent is the innermost span open in the same asyncio task or thread;
work handed to an executor thread starts a new root.  A task inherits
the span open where it was created (the commit scheduler's task starts
inside the first ``submit``), so :func:`self_times` clips children to
their parent's interval.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time

_current = contextvars.ContextVar("perfbench_span", default=None)
_encoding = contextvars.ContextVar("perfbench_encoding", default=False)
record_id = contextvars.ContextVar("perfbench_record", default=None)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget every span and the open span (a forked child's start)."""
        _current.set(None)
        del self.spans[:]

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def event(self, name: str, nbytes: int = 0) -> None:
        """Record a zero-length span (a counted occurrence)."""
        now = time.perf_counter_ns()
        self.spans.append(
            (self._new_id(), _current.get(), name, now, now, record_id.get(), nbytes)
        )

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Restore everything patched, latest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap(
        self, owner, attr: str, name: str, *, nbytes=None, record=None, encode=False
    ):
        """Replace ``owner.attr`` with a span-recording wrapper.

        *nbytes* maps ``(args, kwargs, result)`` to the byte count stored
        on the span.  *record* maps ``(args, kwargs)`` to the record id
        the call handles; spans opened inside it carry that id too.
        *encode* spans nested in another encode span are not recorded,
        so a frame is counted once even when one encoder calls another.
        """
        original = getattr(owner, attr)
        spans = self.spans
        new_id = self._new_id

        def begin(args, kwargs):
            tokens = [_current.set(new_id())]
            if record is not None:
                tokens.append(record_id.set(record(args, kwargs)))
            if encode:
                tokens.append(_encoding.set(True))
            return tokens

        def finish(tokens, parent, t0, size) -> None:
            t1 = time.perf_counter_ns()
            sid, rec = _current.get(), record_id.get()
            for token in reversed(tokens):
                token.var.reset(token)
            spans.append((sid, parent, name, t0, t1, rec, size))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                parent = _current.get()
                tokens = begin(args, kwargs)
                t0 = time.perf_counter_ns()
                try:
                    result = await original(*args, **kwargs)
                except BaseException:
                    finish(tokens, parent, t0, 0)
                    raise
                size = nbytes(args, kwargs, result) if nbytes else 0
                finish(tokens, parent, t0, size)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if encode and _encoding.get():
                    return original(*args, **kwargs)
                parent = _current.get()
                tokens = begin(args, kwargs)
                t0 = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    finish(tokens, parent, t0, 0)
                    raise
                size = nbytes(args, kwargs, result) if nbytes else 0
                finish(tokens, parent, t0, size)
                return result

        if isinstance(owner, type):
            self.patch(owner, attr, wrapper)
            return
        # A module-level function: swap it wherever repro imported it.
        for module in list(sys.modules.values()):
            if not (getattr(module, "__name__", "") or "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, wrapper)

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as JSON, atomically (readers poll for *path*)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(list(self.spans), handle, separators=(",", ":"))
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> list[tuple]:
        with open(path, encoding="utf-8") as handle:
            return [tuple(span) for span in json.load(handle)]


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    (concurrent tasks under one span) are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    bounds = {}
    for sid, parent, _name, t0, t1, _rec, _nb in spans:
        bounds[sid] = (t0, t1)
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    result = {}
    for sid, (t0, t1) in bounds.items():
        covered = 0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        result[sid] = (t1 - t0) - covered
    return result
