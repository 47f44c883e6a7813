"""Same-run machine-speed reference for the end-to-end metrics.

A shared host's CPU speed drifts by up to 2x over minutes, within a run
too, which swamps code changes.  Just before and just after each timed
sample the run times a fixed work unit, written only against the
standard library and numpy so that no change under ``src/`` can move it,
and scales the sample to a nominal machine:

    factor = mean(unit before, unit after) / NOMINAL_S   (> 1: slower)
    rate_at_nominal = rate * factor
    time_at_nominal = time / factor

The reported metric is the median of the scaled samples.

Set-up runs the mechanism solver, whose BLAS calls use both vCPUs, so
its samples use the unit timed in this process and in a helper process
at once: that pair slows down when the host withholds the second vCPU
(up to 2x), as set-up does.  Every other phase uses the unit timed
alone.  Ingest and resend keep generator and service busy together, but
on churn_small they moved by about a tenth, not 2x, when the pair
slowed 2x; scaled by the pair, their ten-run spread grew to 0.4-0.8 of
the median.  Parent and change are scaled by the same
constant, so comparisons between them do not depend on its value; the
unscaled values and every factor are printed alongside.

The service under test is stopped (SIGSTOP) while a unit runs, so CPU
the program spends between samples cannot slow the unit and so read as
a speedup of the program.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
import zlib
from contextlib import contextmanager

import numpy as np

# A typical unit time on the 2-vCPU guest the benchmark was sized on.  It
# only sets the scale of the reported numbers.
NOMINAL_S = 0.042

_BUFFER = bytes(range(256)) * 4096
_ARRAY = np.frombuffer(_BUFFER, dtype=np.uint8)


def unit_seconds() -> float:
    """Time one work unit: interpreter loop, CRC, SHA-256, numpy."""
    start = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value
    for _ in range(8):
        zlib.crc32(_BUFFER)
    for _ in range(2):
        hashlib.sha256(_BUFFER).digest()
        int(np.unpackbits(_ARRAY).sum())
    return time.perf_counter() - start


def _state(pid: int) -> str:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()[0]


@contextmanager
def stopped(pids):
    """Keep the processes *pids* stopped (SIGSTOP) inside the block."""
    paused = []
    try:
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
            paused.append(pid)
        deadline = time.monotonic() + 10.0
        for pid in paused:
            while _state(pid) not in "TtZX":
                if time.monotonic() > deadline:
                    raise RuntimeError(f"process {pid} did not stop")
                time.sleep(0.0005)
        yield
    finally:
        for pid in paused:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass


def _helper_main(conn) -> None:
    while conn.recv():
        conn.send(unit_seconds())


class SpeedProbe:
    """Times the work unit between samples.  With ``dual=True`` a helper
    process runs the unit at the same time.  ``measure(pids)`` keeps the
    processes *pids* stopped meanwhile and returns the unit time."""

    def __init__(self, *, dual: bool = False) -> None:
        self._conn = self._helper = None
        if dual:
            # Fork, not spawn: spawn starts multiprocessing's resource
            # tracker, a process nobody waits for that outlives the run.
            ctx = multiprocessing.get_context("fork")
            self._conn, child = ctx.Pipe()
            self._helper = ctx.Process(target=_helper_main, args=(child,), daemon=True)
            self._helper.start()

    def measure(self, pids=()) -> float:
        with stopped(pids):
            if self._conn is None:
                unit = unit_seconds()
            else:
                self._conn.send(True)
                mine = unit_seconds()
                unit = (mine + self._conn.recv()) / 2
        return unit

    def close(self) -> None:
        if self._helper is not None:
            self._conn.send(False)
            self._helper.join(timeout=10)
            if self._helper.is_alive():
                self._helper.kill()
                self._helper.join()


def at_nominal(metric: str, value: float, factor: float) -> float:
    """*value* of *metric* as it would read at the nominal speed."""
    return value * factor if metric.endswith("_per_s") else value / factor
