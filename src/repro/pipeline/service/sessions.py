"""Connection and session handling for the collection service.

This is the half of the original ``server.py`` that talks to sockets,
split out so round *ownership* (what rounds exist, their lifecycle,
their durable state) and connection *handling* (handshakes, record
streaming, group-commit acks) are separate layers — a shard process
hosts a subset of rounds by composing a :class:`SessionHost` over its
own :class:`~.rounds.RoundRegistry`, and the coordinator can host zero
rounds while still speaking the control plane.

:class:`SessionHost` owns everything connection-scoped:

* the backpressure gate (session slots + bounded wait queue);
* the HMAC handshake, including round routing through the registry and
  the enumeration-safe key lookup;
* **producer routing enforcement**: a host configured with a shard name
  and a :class:`~.routing.RoutingTable` refuses handshakes from
  producers the table assigns elsewhere, with a ``MOVED`` detail naming
  the owning shard (the routing-aware client reconnects there);
* **revocation reaping**: an open session whose producer lands on the
  key registry's (hot-reloaded) revocation list is refused and dropped
  at its next frame — or within :data:`REAP_POLL_SECONDS` while idle —
  after committing what it already staged;
* the record loop with double-buffered group commit, quota charging,
  and in-order acks;
* **control-plane dispatch**: a version-4 control request arriving
  where a HELLO would is handed to the host's ``control_handler`` (the
  service layer, which owns the control key and the rounds), and its
  reply is the connection's only response.
"""

from __future__ import annotations

import asyncio

from ...exceptions import (
    QuotaExceededError,
    ServiceError,
    ValidationError,
    WireFormatError,
)
from ..collect import wire
from ..collect.framing import read_frame_bytes, unread_bytes
from .auth import KeyRegistry, fresh_nonce, verify_session_mac
from .quotas import ConnectionQuota, Deadline, ServiceLimits
from .rounds import RoundRegistry, RoundState
from .routing import RoutingTable, format_moved

__all__ = ["SessionHost", "REAP_POLL_SECONDS"]

#: How often an *idle* session re-checks the revocation list.  Active
#: sessions are checked on every frame; this bound only matters for a
#: producer that goes silent after being revoked.
REAP_POLL_SECONDS = 1.0


class _Progress:
    """What one connection owes its producer: a frame it has started
    reading, or a staged record it has not acked yet.  Only a
    connection that owes something failed when shutdown cuts it."""

    __slots__ = ("owes",)

    def __init__(self) -> None:
        self.owes = False

    def frame_started(self) -> None:
        self.owes = True


class SessionHost:
    """Serves producer connections against a round registry.

    Parameters
    ----------
    keys:
        The :class:`~.auth.KeyRegistry` handshakes authenticate against
        (and whose revocation list reaps open sessions).
    limits:
        Connection-scoped resource policy (session slots, frame caps,
        timeouts).  Per-round limits ride on each
        :class:`~.rounds.RoundState` and govern batching/quotas once a
        session has resolved its round.
    registry:
        The :class:`~.rounds.RoundRegistry` HELLOs route through.
    shard_name / table:
        When both are set, this host is one shard of a scale-out
        deployment: handshakes from producers the table assigns to a
        different shard are refused with a ``MOVED`` redirect.  The
        table is swappable mid-flight (``route-update`` control op);
        established sessions are never redirected — only new
        handshakes consult the table, which is what makes a rebalance
        safe to roll out shard by shard.
    control_handler:
        ``async (ControlRequest) -> ControlReply`` supplied by the
        owning service; ``None`` refuses control frames outright.
    """

    def __init__(
        self,
        *,
        keys: KeyRegistry,
        limits: ServiceLimits,
        registry: RoundRegistry,
        shard_name: str | None = None,
        table: RoutingTable | None = None,
        control_handler=None,
    ) -> None:
        self.keys = keys
        self.limits = limits
        self.registry = registry
        self.shard_name = shard_name
        self.table = table
        self.control_handler = control_handler

        self.sessions_opened = 0
        self.sessions_rejected = 0
        self.sessions_shed = 0
        self.sessions_reaped_revoked = 0
        self.sessions_moved = 0
        self.control_requests = 0
        self.connections_failed = 0
        self.last_connection_error: str | None = None

        self._conn_tasks: set[asyncio.Task] = set()
        self._session_slots = asyncio.Semaphore(limits.max_sessions)
        self._waiting_sessions = 0

    # ------------------------------------------------------------------
    # Shutdown support (the owning service stops the listener itself)
    # ------------------------------------------------------------------
    async def cancel_connections(self) -> None:
        """Cancel and await every in-flight connection handler."""
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _moved_owner(self, producer_id: str):
        """The shard now owning *producer_id* — when it is not this one.

        ``None`` means the producer is (still) ours, or this host is not
        a routed shard at all.  Consulted at handshake time AND inside
        the record loop: a ``route-update`` that lands mid-session (a
        live rebalance) must drain the moved producer's session, not
        let it keep committing records the new owner was just handed.
        """
        if self.table is None or self.shard_name is None:
            return None
        owner = self.table.owner(producer_id)
        return None if owner.name == self.shard_name else owner

    async def _send(self, writer: asyncio.StreamWriter, obj) -> None:
        writer.write(wire.dumps(obj))
        await writer.drain()

    async def _refuse(
        self,
        writer: asyncio.StreamWriter,
        seq: int,
        detail: str,
        *,
        m: int = 1,
        round_id: int = 0,
    ) -> None:
        await self._send(
            writer,
            wire.Ack(
                m=max(1, int(m)),
                round_id=int(round_id),
                seq=seq,
                status=wire.ACK_REFUSED,
                detail=detail,
            ),
        )

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        progress = _Progress()
        try:
            # Backpressure gate: stall while the service is at session
            # capacity, shed outright once the wait queue is full too.
            if self._session_slots.locked():
                if self._waiting_sessions >= self.limits.max_waiting_sessions:
                    self.sessions_shed += 1
                    await self._refuse(writer, 0, "service at capacity")
                    return
                self._waiting_sessions += 1
                try:
                    await self._session_slots.acquire()
                finally:
                    self._waiting_sessions -= 1
            else:
                await self._session_slots.acquire()
            try:
                await self._serve_session(reader, writer, progress)
            finally:
                self._session_slots.release()
        except asyncio.CancelledError:
            # Service shutdown cancelled this handler; committed records
            # are durable.  Cut mid-frame or with staged records unacked,
            # the session failed; idle on a frame boundary with every ack
            # sent (a producer that finished and hung up), it did not.
            if progress.owes or unread_bytes(reader):
                self.connections_failed += 1
                self.last_connection_error = (
                    "service closed during an in-flight session"
                )
            return
        except (WireFormatError, ValidationError, ServiceError) as exc:
            # One broken producer must not take the service down.
            self.connections_failed += 1
            self.last_connection_error = str(exc)
            return
        except (ConnectionError, OSError) as exc:
            self.connections_failed += 1
            self.last_connection_error = str(exc)
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        progress: _Progress,
    ) -> None:
        quota = ConnectionQuota(self.limits)
        try:
            # The anti-slow-loris bound: an unauthenticated connection
            # gets one deadline for the whole handshake, so it cannot
            # hold a session slot by sending nothing (or half a frame).
            resolved = await asyncio.wait_for(
                self._handshake(reader, writer, quota),
                self.limits.handshake_timeout_seconds,
            )
        except asyncio.TimeoutError:
            self.sessions_rejected += 1
            self.last_connection_error = "handshake timed out"
            return
        if resolved is None:
            return
        round_, producer_id = resolved
        producer_quota = round_.producer_quota(producer_id)

        async def refuse_record(seq: int, detail: str) -> None:
            """Count and ack one refusal with this round's geometry.

            Every refusal goes through here so no future site can
            forget the round geometry and fall back to the m=1 default.
            """
            round_.records_refused += 1
            await self._refuse(
                writer, seq, detail, m=round_.m, round_id=round_.round_id
            )
        # The idle reap deadline: monotonic, measured from the last
        # completed frame — a session's age is irrelevant, only its
        # silence.  (Measuring from connection start would reap any
        # legitimately long engagement, e.g. a producer trickling
        # records to several rounds back to back.)
        idle = Deadline(self.limits.session_idle_seconds)
        # Group commit with double buffering: pipelined records stage
        # into `pending` while the previous batch commits through the
        # round's scheduler, so fsyncs overlap the network reads.  A
        # batch closes when it hits max_commit_batch, when the stream
        # goes idle for commit_idle_seconds, or at end of session / any
        # refusal.  This connection's batches commit strictly in order
        # (the next is only scheduled once the previous settled); the
        # round's scheduler interleaves them with other sessions'
        # batches under one fsync pair — acks still always follow the
        # fsyncs covering them.
        pending: list[dict] = []
        pending_bytes = 0
        staged_frames: dict[int, bytes] = {}
        commit_task: asyncio.Task | None = None

        async def settle() -> bool:
            """Await the in-flight batch; True if the session survives.

            ``commit_task`` is cleared only once the task has actually
            finished: if cancellation lands while we are suspended here,
            the still-set reference lets the function's ``finally`` wait
            the task out instead of abandoning it mid-ack.
            """
            nonlocal commit_task
            if commit_task is None:
                return True
            task = commit_task
            try:
                result = await task
            finally:
                if commit_task is task and task.done():
                    commit_task = None
            return result

        async def flush() -> bool:
            """Settle the in-flight batch, then commit `pending` inline."""
            nonlocal pending_bytes
            if not await settle():
                return False
            if not pending:
                return True
            batch, pending[:] = list(pending), []
            pending_bytes = 0
            staged_frames.clear()
            return await self._commit_batch(writer, round_, producer_id, batch)

        try:
            while True:
                # Revocation reap: checked before every read, so an
                # active producer is cut off at its next frame and an
                # idle one within REAP_POLL_SECONDS.  What it already
                # staged still commits (like a drain) — those records
                # were accepted from an authenticated session and the
                # acks for them may already be owed.
                if self.keys.is_revoked(producer_id):
                    self.sessions_reaped_revoked += 1
                    self.last_connection_error = (
                        f"producer {producer_id!r} revoked"
                    )
                    if not await flush():
                        return
                    await refuse_record(0, "authentication failed")
                    return
                # Ownership re-check, same cadence as revocation: a
                # rebalance that moved this producer drains the session
                # at its next frame (or within the idle poll).  What it
                # already staged still commits *here* — those records
                # precede the move and the migration transfer picks
                # them up — then the MOVED refusal redirects the
                # producer to the new owner.
                owner = self._moved_owner(producer_id)
                if owner is not None:
                    self.sessions_moved += 1
                    self.last_connection_error = (
                        f"producer {producer_id!r} moved to {owner.name}"
                    )
                    if not await flush():
                        return
                    await refuse_record(
                        0, format_moved(self.table.epoch, owner)
                    )
                    return
                if not pending and idle.expired():
                    self.connections_failed += 1
                    self.last_connection_error = "session idle timeout"
                    await self._refuse(
                        writer,
                        0,
                        "session idle timeout",
                        m=round_.m,
                        round_id=round_.round_id,
                    )
                    return
                progress.owes = bool(pending) or (
                    commit_task is not None and not commit_task.done()
                )
                try:
                    # Header deadline: the group-commit idle signal when
                    # a batch is staged, the revocation-poll-capped
                    # remaining monotonic reap window when nothing is.
                    # Payload deadline: a peer stalled mid-frame can
                    # never recover to a frame boundary, so that raises
                    # WireFormatError (drop), not the idle TimeoutError
                    # (flush / poll / reap).
                    frame = await read_frame_bytes(
                        reader,
                        max_frame_bytes=self.limits.max_frame_bytes,
                        header_timeout=(
                            self.limits.commit_idle_seconds
                            if pending
                            else min(idle.remaining(), REAP_POLL_SECONDS)
                        ),
                        payload_timeout=self.limits.session_idle_seconds,
                        on_header=progress.frame_started,
                    )
                except asyncio.TimeoutError:
                    if pending:
                        if not await flush():
                            return
                        continue
                    if not idle.expired():
                        continue  # revocation poll tick; loop re-checks
                    # Idle session: free the slot; everything acked is
                    # durable, so the producer just reconnects.
                    self.connections_failed += 1
                    self.last_connection_error = "session idle timeout"
                    await self._refuse(
                        writer,
                        0,
                        "session idle timeout",
                        m=round_.m,
                        round_id=round_.round_id,
                    )
                    return
                except QuotaExceededError as exc:
                    # A failed flush already sent the connection's last
                    # ack (a commit-time refusal); a second refusal here
                    # would desync the client's positional accounting.
                    if not await flush():
                        return
                    await refuse_record(0, str(exc))
                    return
                if frame is None:
                    await flush()
                    return  # clean end of session
                idle.reset()
                # Re-check after the read: a revocation that landed
                # while this frame was in flight still refuses it — the
                # loop-top check ran before the frame existed, and
                # "reaped at its next frame" is the contract.
                if self.keys.is_revoked(producer_id):
                    self.sessions_reaped_revoked += 1
                    self.last_connection_error = (
                        f"producer {producer_id!r} revoked"
                    )
                    if not await flush():
                        return
                    await refuse_record(0, "authentication failed")
                    return
                # Same post-read re-check for ownership: a route-update
                # installed while this frame was in flight refuses it
                # with MOVED instead of committing it on the wrong side
                # of the migration cut.
                owner = self._moved_owner(producer_id)
                if owner is not None:
                    self.sessions_moved += 1
                    self.last_connection_error = (
                        f"producer {producer_id!r} moved to {owner.name}"
                    )
                    if not await flush():
                        return
                    await refuse_record(
                        0, format_moved(self.table.epoch, owner)
                    )
                    return
                try:
                    quota.charge(len(frame))
                except QuotaExceededError as exc:
                    if not await flush():
                        return
                    await refuse_record(0, str(exc))
                    return
                obj = wire.loads(frame)
                if not isinstance(obj, wire.Record):
                    if not await flush():
                        return
                    await refuse_record(
                        0,
                        f"expected a record frame, got {type(obj).__name__}",
                    )
                    return
                staged = round_.stage_record(producer_id, obj, staged_frames)
                if staged["status"] == "refused":
                    if not await flush():
                        return
                    await refuse_record(obj.seq, staged["detail"])
                    return
                if staged["status"] == "fresh":
                    # Producer and round budgets meter records accepted
                    # for commit — never duplicates — so the blind
                    # resend the exactly-once protocol relies on is
                    # quota-free, before and after a restart.  (The
                    # connection quota above still bounds raw ingest.)
                    # Charges are atomic and paired: a refused or
                    # half-failed attempt leaves both meters untouched,
                    # and charges for records that end up NOT
                    # committing are refunded — see
                    # RoundState.refund_uncommitted.
                    try:
                        producer_quota.charge(len(staged["frame"]))
                        try:
                            round_.quota.charge(len(staged["frame"]))
                        except QuotaExceededError:
                            producer_quota.refund(len(staged["frame"]))
                            raise
                        staged["charged"] = len(staged["frame"])
                    except QuotaExceededError as exc:
                        if not await flush():
                            return
                        await refuse_record(obj.seq, str(exc))
                        return
                pending.append(staged)
                pending_bytes += len(frame)
                if staged["status"] == "fresh":
                    staged_frames[obj.seq] = staged["frame"]
                if (
                    len(pending) >= self.limits.max_commit_batch
                    or pending_bytes >= self.limits.max_commit_batch_bytes
                ):
                    # Hand the full batch to a background commit and keep
                    # reading; if the previous batch refused (equivocation
                    # at commit time), the session is over.
                    if not await settle():
                        return
                    batch, pending = pending, []
                    pending_bytes = 0
                    staged_frames = {}
                    commit_task = asyncio.create_task(
                        self._commit_batch(writer, round_, producer_id, batch)
                    )
        finally:
            # Staged-but-never-submitted records will be resent by the
            # producer; give their quota charges back first.  (Items
            # handed to a commit task are the scheduler's to settle.)
            round_.refund_uncommitted(producer_id, pending)
            # Never abandon an in-flight commit's *ack half*: the
            # durable half lives with the round's scheduler (drained at
            # close), but this task still owes the client its acks.
            # Its writes may fail against a closing socket; swallow
            # that rather than masking the original exit.
            if commit_task is not None:
                try:
                    await commit_task
                except Exception:
                    pass

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        quota: ConnectionQuota,
    ) -> tuple[RoundState, str] | None:
        """Run the server side of the HMAC handshake.

        Routes the HELLO through the round registry and authenticates
        against the producer's own key.  Returns ``(round, producer_id)``,
        or ``None`` after a refusal ack (the caller just closes the
        connection).  A control request in HELLO position is dispatched
        to the control handler instead; its reply ends the connection.
        """
        frame = await read_frame_bytes(
            reader, max_frame_bytes=self.limits.max_frame_bytes
        )
        if frame is None:
            return None  # connected and left without a word
        quota.charge(len(frame))
        hello = wire.loads(frame)
        if isinstance(hello, wire.ControlRequest):
            await self._serve_control(writer, hello)
            return None
        if not isinstance(hello, wire.SessionHello):
            self.sessions_rejected += 1
            await self._refuse(
                writer,
                0,
                f"expected a session hello, got {type(hello).__name__}",
            )
            return None
        round_ = self.registry.get(hello.round_id)
        if round_ is None:
            self.sessions_rejected += 1
            await self._refuse(
                writer,
                0,
                f"round mismatch: this service hosts rounds "
                f"{self.registry.round_ids()}, hello claims round "
                f"{hello.round_id}",
                m=hello.m,
                round_id=hello.round_id,
            )
            return None
        if hello.m != round_.m:
            self.sessions_rejected += 1
            await self._refuse(
                writer,
                0,
                f"round mismatch: round {round_.round_id} is "
                f"m={round_.m}, hello claims m={hello.m}",
                m=round_.m,
                round_id=round_.round_id,
            )
            return None
        if not round_.lifecycle.accepts_sessions:
            self.sessions_rejected += 1
            await self._refuse(
                writer,
                0,
                f"round {round_.round_id} is {round_.lifecycle.phase}; "
                "sessions are only accepted while serving",
                m=round_.m,
                round_id=round_.round_id,
            )
            return None
        if self.table is not None and self.shard_name is not None:
            owner = self.table.owner(hello.producer_id)
            if owner.name != self.shard_name:
                # Mis-routed producer (stale table, or a rebalance in
                # flight): refuse with a MOVED redirect *before* the
                # challenge, so the producer loses one round trip, not
                # a handshake.  The redirect leaks only the routing
                # table, which every producer holds anyway.
                self.sessions_moved += 1
                await self._refuse(
                    writer,
                    0,
                    format_moved(self.table.epoch, owner),
                    m=round_.m,
                    round_id=round_.round_id,
                )
                return None
        # Key lookup happens here, but an unknown producer is NOT
        # refused yet: it receives a challenge like anyone else and
        # fails at proof verification with the same message as a
        # wrong key, so an unauthenticated client cannot probe which
        # producer ids are registered (enumeration oracle).  A
        # *revoked* producer takes the same path: lookup returns None,
        # so revocation is indistinguishable from an unknown key.
        producer_key = self.keys.lookup(hello.producer_id)
        server_nonce = fresh_nonce()
        await self._send(
            writer,
            wire.SessionChallenge(
                m=round_.m,
                round_id=round_.round_id,
                nonce=server_nonce,
                round_token=round_.token,
            ),
        )
        frame = await read_frame_bytes(
            reader, max_frame_bytes=self.limits.max_frame_bytes
        )
        if frame is None:
            self.sessions_rejected += 1
            return None
        quota.charge(len(frame))
        proof = wire.loads(frame)
        authenticated = (
            producer_key is not None
            and isinstance(proof, wire.SessionProof)
            and verify_session_mac(
                producer_key,
                proof.mac,
                m=round_.m,
                round_id=round_.round_id,
                producer_id=hello.producer_id,
                client_nonce=hello.nonce,
                server_nonce=server_nonce,
                round_token=round_.token,
                party=round_.party,
            )
        )
        if not authenticated:
            self.sessions_rejected += 1
            await self._refuse(
                writer,
                0,
                "authentication failed",
                m=round_.m,
                round_id=round_.round_id,
            )
            return None
        self.sessions_opened += 1
        round_.producers_seen.add(hello.producer_id)
        await self._send(
            writer,
            wire.Ack(
                m=round_.m,
                round_id=round_.round_id,
                seq=0,
                status=wire.ACK_SESSION,
                detail=hello.producer_id,
            ),
        )
        return round_, hello.producer_id

    async def _serve_control(
        self, writer: asyncio.StreamWriter, request: wire.ControlRequest
    ) -> None:
        """Dispatch one control request; its reply ends the connection.

        The handler (the owning service) verifies the request MAC and
        MACs the reply — this layer only moves frames.  A host without
        a control handler refuses with an ordinary ack, so a shard that
        was never given a control key exposes no control surface at
        all.
        """
        self.control_requests += 1
        if self.control_handler is None:
            await self._refuse(writer, 0, "control plane not enabled")
            return
        reply = await self.control_handler(request)
        await self._send(writer, reply)

    # ------------------------------------------------------------------
    # The exactly-once record commit
    # ------------------------------------------------------------------
    async def _commit_batch(
        self,
        writer: asyncio.StreamWriter,
        round_: RoundState,
        producer_id: str,
        pending: list[dict],
    ) -> bool:
        """Commit a staged batch through the round's scheduler, then ack.

        The scheduler resolves every item's status under the fsync pair
        covering it (group commit, possibly coalesced with other
        sessions' batches); acks go out here, in this connection's
        stage order, only afterwards — each individual ack still
        certifies durability.  Returns False when an equivocation
        surfaced at commit time (connection must drop).
        """
        await round_.scheduler.submit(producer_id, pending)
        return await self._send_batch_acks(writer, round_, producer_id, pending)

    async def _send_batch_acks(
        self,
        writer: asyncio.StreamWriter,
        round_: RoundState,
        producer_id: str,
        pending: list[dict],
    ) -> bool:
        survived = True
        for item in pending:
            if item["status"] == "merged":
                status, detail = wire.ACK_MERGED, ""
            elif item["status"] == "duplicate":
                round_.records_duplicate += 1
                status, detail = wire.ACK_DUPLICATE, "already merged"
            elif item["status"] == "moved":
                # Staged before the producer was migrated off this
                # shard, caught at commit time: refuse with MOVED so
                # the producer resends to the new owner (the transfer
                # carried its committed prefix there already).
                round_.records_refused += 1
                status = wire.ACK_REFUSED
                if self.table is not None:
                    detail = format_moved(
                        self.table.epoch, self.table.owner(producer_id)
                    )
                else:
                    detail = (
                        f"producer {producer_id!r} was migrated off "
                        "this shard"
                    )
                survived = False
            else:  # equivocation discovered at commit time
                round_.records_refused += 1
                status = wire.ACK_REFUSED
                detail = (
                    f"equivocation: seq {item['seq']} is already "
                    "committed with different frame bytes"
                )
                survived = False
            await self._send(
                writer,
                wire.Ack(
                    m=round_.m,
                    round_id=round_.round_id,
                    seq=item["seq"],
                    status=status,
                    detail=detail,
                ),
            )
            if not survived:
                break  # refusal is the connection's last ack
        return survived
