"""The multi-tenant, exactly-once collection endpoint.

:class:`CollectionService` hosts one or many concurrent collection
*rounds* and merges producer records into each round's live
:class:`~repro.pipeline.accumulator.CountAccumulator`, with these
guarantees:

* **authenticated, per producer**: a session must complete the HMAC
  handshake of :mod:`.auth` before any record frame is looked at, and
  the key is the *producer's own* (looked up in the service's
  :class:`~.auth.KeyRegistry` by the HELLO's producer id) — so a
  compromised producer can forge nothing for any other producer;
* **multiplexed**: the HELLO's ``round_id`` routes the session through
  the :class:`~.rounds.RoundRegistry` to one hosted round; every check,
  spill, ledger entry, and merge after that point happens against that
  round's own state, and a scoped round's registration token is bound
  into the session proof (version-3 challenge) so the session cannot
  even in principle be confused with another incarnation of the round;
* **exactly-once**: every merged record is committed to the round's
  :class:`~.ledger.IdempotencyLedger` (spill fsync → ledger fsync →
  merge → ack), so a blind resend after a lost ack is acknowledged as a
  duplicate and not re-merged, and a reused sequence number carrying
  different bytes is refused as equivocation;
* **bounded**: frames over ``limits.max_frame_bytes`` are refused at
  header-parse time; connection, *producer* (cross-connection), and
  *round* quotas shed abusive traffic without rollback; session
  capacity stalls (then sheds) a producer flood instead of OOMing; and
  every reap deadline is monotonic-clock based, measured from the last
  completed frame (:class:`~.quotas.Deadline`) — never from connection
  start;
* **resumable**: ``resume=True`` replays every hosted round's ledger,
  truncates each spill back to its ledger's committed offset, and
  keeps serving the same rounds.

The commit order per record is unchanged from the single-round design
(spill append → spill fsync → ledger append → ledger fsync → merge →
ack), but batching moved from the connection to the round: all active
sessions of a round feed one :class:`~.commit.GroupCommitScheduler`,
and one fsync pair covers everything any of them staged while the
previous commit was in flight — see :mod:`.commit`.

Since the scale-out refactor this class is the *round ownership* layer:
it opens, recovers, drains, closes, and retires rounds, resolves each
round's :class:`~.quotas.ServiceLimits` (service defaults layered with
per-round overrides), and answers the authenticated **control plane**
(version-4 wire frames: drain / close / retire / pull-state /
route-update, MAC'd with a dedicated control key).  Everything
socket-facing — handshakes, the record loop, group-commit acks, MOVED
routing enforcement, revocation reaping — lives in
:class:`~.sessions.SessionHost`, which this service composes over its
round registry.  A shard process is just a ``CollectionService``
configured with a ``shard_name`` + routing table and a store root of
its own; the coordinator and aggregator (:mod:`.coordinator`,
:mod:`.aggregator`) drive fleets of them over the control plane.
"""

from __future__ import annotations

import asyncio
import os

from ...exceptions import ServiceError, ValidationError
from ..collect import wire
from ..collect.store import ShardStore
from .auth import (
    KeyRegistry,
    control_reply_mac,
    derive_round_key,
    verify_control_request_mac,
)
from .quotas import ServiceLimits
from .rounds import (
    LEDGER_FILENAME,
    MODE_COLLECT,
    MODE_KEEPER,
    ROUND_MODES,
    SERVICE_SHARD_ID,
    RoundRegistry,
    RoundState,
    round_namespace,
)
from .routing import RoutingTable
from .sessions import SessionHost
from .shares import encode_member_digest

__all__ = [
    "CollectionService",
    "LEDGER_FILENAME",
    "SERVICE_SHARD_ID",
    "CONTROL_OPS",
]

#: Every control-plane op this service answers (docs and tests pin it).
CONTROL_OPS = (
    "status",
    "drain",
    "close-round",
    "retire-round",
    "open-round",
    "pull-state",
    "route-table",
    "route-update",
    "migrate-out",
    "migrate-in",
)


def _coerce_round_spec(spec) -> tuple[int, int, dict]:
    """``(m, round_id, extras)`` from a dict, mapping-like, or pair.

    *extras* carries the optional per-round keys a dict spec may
    declare: ``limits`` (a ``ServiceLimits`` override mapping),
    ``token`` (a coordinator-minted registration token, hex), and
    ``mode`` (``collect`` | ``blinded`` | ``keeper`` — the round's
    aggregation role, see :mod:`.shares`).
    """
    if isinstance(spec, dict):
        try:
            m, round_id = int(spec["m"]), int(spec["round_id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"round spec {spec!r} must carry integer 'm' and 'round_id'"
            ) from exc
        unknown = sorted(
            set(spec) - {"m", "round_id", "limits", "token", "mode"}
        )
        if unknown:
            raise ValidationError(
                f"round {round_id}: unknown round spec key(s) {unknown}; "
                "known keys: m, round_id, limits, token, mode"
            )
        extras: dict = {}
        if spec.get("limits") is not None:
            extras["limits"] = spec["limits"]
        if spec.get("token") is not None:
            extras["token"] = spec["token"]
        if spec.get("mode") is not None:
            extras["mode"] = spec["mode"]
        return m, round_id, extras
    try:
        m, round_id = spec
        return int(m), int(round_id), {}
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"round specs are dicts with integer 'm'/'round_id' or "
            f"(m, round_id) pairs, got {spec!r}"
        ) from exc


class CollectionService:
    """Durable, authenticated, exactly-once collection — single- or
    multi-round, standalone or as one shard of a scale-out deployment.

    Parameters
    ----------
    m:
        Single-round mode: the round's report width.  The round is
        ``round_id`` (default 0), its files live directly under
        *store_root* (the layout of the original single-round service,
        so existing round directories resume unchanged), and its
        challenges stay version-2 wire frames.
    rounds:
        Multi-round mode (mutually exclusive with *m*): an iterable of
        ``{"m": ..., "round_id": ...}`` dicts or ``(m, round_id)``
        pairs.  Each round lives in its own store namespace
        (``<store_root>/round_<id>/``) with its own spill, ledger, and
        commit pipeline, and its sessions are bound to the round's
        registration token (version-3 challenges).  A dict spec may
        additionally carry ``"limits"`` — per-round
        :class:`~.quotas.ServiceLimits` overrides layered over the
        service defaults — and ``"token"`` (hex), the coordinator's
        registration token for the round.
    key:
        Default producer secret (bytes, hex string, or passphrase —
        see :func:`~.auth.derive_round_key`): any producer without an
        individual entry authenticates against it.  Omit it to require
        an individual key for every producer.
    keys:
        Per-producer keys: a :class:`~.auth.KeyRegistry`, a
        ``{producer_id: secret}`` dict, or a keyfile path (hot-reloaded
        on change — rotation *and revocation* without restart).
    store_root:
        Directory for all durable round state.
    limits:
        Service-default resource policy; defaults to
        :class:`~.quotas.ServiceLimits`.
    resume:
        Recover every configured round from its ledger + spill instead
        of starting fresh.  Starting fresh over existing round files is
        refused — that is how double-counting accidents happen.
    control_key:
        Secret for the authenticated control plane (same formats as
        *key*).  Without it the service answers no control frames at
        all — a shard that was never given a control key exposes no
        remote drain/close/pull surface.
    shard_name / routing:
        Scale-out membership: this service's stable shard name and the
        :class:`~.routing.RoutingTable` (or its payload dict) to
        enforce.  With both set, handshakes from producers the table
        assigns to another shard are refused with a ``MOVED`` redirect.
    """

    def __init__(
        self,
        m: int | None = None,
        *,
        key=None,
        keys=None,
        store_root: str,
        round_id: int = 0,
        rounds=None,
        limits: ServiceLimits | None = None,
        resume: bool = False,
        control_key=None,
        shard_name: str | None = None,
        routing=None,
        mode: str = MODE_COLLECT,
        keeper_id: str | None = None,
    ) -> None:
        if (m is None) == (rounds is None):
            raise ValidationError(
                "pass exactly one of m= (single-round) or rounds= "
                "(multi-round)"
            )
        if key is None and keys is None:
            raise ValidationError(
                "the service needs key= (shared default) and/or keys= "
                "(per-producer registry / dict / keyfile path)"
            )
        if isinstance(keys, KeyRegistry):
            if key is not None:
                raise ValidationError(
                    "pass the default key to the KeyRegistry itself when "
                    "supplying one"
                )
            self.keys = keys
        elif isinstance(keys, dict):
            self.keys = KeyRegistry(keys, default_key=key)
        elif keys is not None:
            self.keys = KeyRegistry.from_file(
                os.fspath(keys), default_key=key
            )
        else:
            self.keys = KeyRegistry(default_key=key)

        self.limits = limits or ServiceLimits()
        self.control_key = (
            derive_round_key(control_key) if control_key is not None else None
        )
        self.shard_name = shard_name
        if routing is not None and not isinstance(routing, RoutingTable):
            routing = RoutingTable.from_payload(routing)
        # Split-trust identity: mode is the service-wide default for
        # rounds opened without an explicit per-round mode, keeper_id
        # the stable identity producers bind their share streams to.
        # A share-keeper process is just CollectionService(mode="keeper",
        # keeper_id="keeper-a", ...) — every other guarantee (sessions,
        # ledger, group commit, recovery) carries over unchanged.
        if mode not in ROUND_MODES:
            raise ValidationError(
                f"mode must be one of {ROUND_MODES}, got {mode!r}"
            )
        self.default_mode = mode
        self.keeper_id = str(keeper_id) if keeper_id is not None else None
        if mode == MODE_KEEPER and not self.keeper_id:
            raise ValidationError(
                "a keeper-mode service needs keeper_id= (the identity "
                "producers derive this keeper's blinding stream from)"
            )
        if mode != MODE_KEEPER and self.keeper_id is not None:
            raise ValidationError(
                f"keeper_id={self.keeper_id!r} only applies to "
                f"mode={MODE_KEEPER!r} services; a {mode!r} service has no "
                "keeper identity (did you mean mode=\"keeper\"?)"
            )
        self.store = ShardStore(store_root)
        self.registry = RoundRegistry()
        self._closed = False
        try:
            if m is not None:
                # Legacy flat layout: the lone round owns store_root.
                self.registry.open_round(
                    int(m),
                    int(round_id),
                    self.store,
                    self.limits,
                    resume=resume,
                    scoped=False,
                    mode=self.default_mode,
                    keeper_id=(
                        self.keeper_id
                        if self.default_mode == MODE_KEEPER
                        else None
                    ),
                )
            else:
                for spec in rounds:
                    m_, rid, extras = _coerce_round_spec(spec)
                    self.add_round(m_, rid, resume=resume, **extras)
            if not len(self.registry) and control_key is None:
                # A control-plane shard may legitimately start bare and
                # have its rounds registered remotely (open-round); a
                # plain service with no rounds is an operator mistake.
                raise ValidationError("rounds= must name at least one round")
        except BaseException:
            # A half-configured service must not leak the rounds it
            # already opened: drop their handles and (for rounds that
            # did not exist before this attempt) the files they
            # created, so a corrected rerun starts clean.
            for state in self.registry.rounds():
                state.release()
            raise

        # Everything socket-facing lives in the session host; the
        # service keeps round ownership and the control plane.
        self.sessions = SessionHost(
            keys=self.keys,
            limits=self.limits,
            registry=self.registry,
            shard_name=shard_name,
            table=routing,
            control_handler=(
                self._handle_control if self.control_key is not None else None
            ),
        )
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Round management
    # ------------------------------------------------------------------
    def add_round(
        self,
        m: int,
        round_id: int,
        *,
        resume: bool = False,
        limits=None,
        token=None,
        mode: str | None = None,
    ) -> RoundState:
        """Host one more round (usable while the service is serving).

        The round's files live under ``<store_root>/round_<id>/``; its
        sessions are scoped to a registration token — the caller's
        *token* (hex or 16 bytes, e.g. coordinator-minted so every
        shard of the round shares it) or a fresh one.  *limits* layers
        per-round overrides (a mapping) over the service defaults, or
        substitutes a full :class:`~.quotas.ServiceLimits`; validation
        failures name the offending round.  *mode* picks the round's
        aggregation role (default: the service's own); a keeper round
        takes the service's ``keeper_id`` identity.
        """
        if self._closed:
            raise ValidationError("service is closed")
        round_id = int(round_id)
        mode = self.default_mode if mode is None else str(mode)
        if isinstance(limits, ServiceLimits):
            round_limits = limits
        elif limits is not None:
            if not isinstance(limits, dict):
                raise ValidationError(
                    f"round {round_id}: limits overrides must be a mapping "
                    f"of ServiceLimits fields, got {type(limits).__name__}"
                )
            try:
                round_limits = self.limits.with_overrides(limits)
            except (ValueError, TypeError) as exc:
                raise ValidationError(
                    f"round {round_id}: invalid limits override: {exc}"
                ) from exc
        else:
            round_limits = self.limits
        if isinstance(token, str):
            try:
                token = bytes.fromhex(token)
            except ValueError as exc:
                raise ValidationError(
                    f"round {round_id}: token must be hex, got {token!r}"
                ) from exc
        return self.registry.open_round(
            m,
            round_id,
            self.store.namespaced(round_namespace(round_id)),
            round_limits,
            resume=resume,
            scoped=True,
            token=token,
            mode=mode,
            keeper_id=self.keeper_id if mode == MODE_KEEPER else None,
        )

    def round(self, round_id: int) -> RoundState:
        """The hosted round *round_id* (loud when absent)."""
        state = self.registry.get(round_id)
        if state is None:
            raise ValidationError(
                f"no hosted round {round_id}; hosted: "
                f"{self.registry.round_ids()}"
            )
        return state

    def _single_round(self) -> RoundState:
        rounds = self.registry.rounds()
        if len(rounds) != 1:
            raise ValidationError(
                f"service hosts {len(rounds)} rounds; use "
                ".round(round_id) to address one"
            )
        return rounds[0]

    # Single-round conveniences (and the original service's public
    # surface): each delegates to the lone hosted round.
    @property
    def m(self) -> int:
        return self._single_round().m

    @property
    def round_id(self) -> int:
        return self._single_round().round_id

    @property
    def accumulator(self):
        return self._single_round().accumulator

    @property
    def ledger(self):
        return self._single_round().ledger

    @property
    def _writer(self):
        return self._single_round().writer

    # Aggregate record counters across every hosted round.
    @property
    def records_merged(self) -> int:
        return sum(r.records_merged for r in self.registry.rounds())

    @property
    def records_duplicate(self) -> int:
        return sum(r.records_duplicate for r in self.registry.rounds())

    @property
    def records_refused(self) -> int:
        return sum(r.records_refused for r in self.registry.rounds())

    @property
    def bytes_ingested(self) -> int:
        return sum(r.bytes_ingested for r in self.registry.rounds())

    @property
    def recovered_records(self) -> int:
        return sum(r.recovered_records for r in self.registry.rounds())

    @property
    def recovered_spill_bytes_discarded(self) -> int:
        return sum(
            r.recovered_spill_bytes_discarded
            for r in self.registry.rounds()
        )

    @property
    def producers_seen(self) -> set[str]:
        seen: set[str] = set()
        for state in self.registry.rounds():
            seen |= state.producers_seen
        return seen

    # Session counters live with the session host; these properties
    # keep the original service surface (tests and benches read them).
    @property
    def sessions_opened(self) -> int:
        return self.sessions.sessions_opened

    @property
    def sessions_rejected(self) -> int:
        return self.sessions.sessions_rejected

    @property
    def sessions_shed(self) -> int:
        return self.sessions.sessions_shed

    @property
    def connections_failed(self) -> int:
        return self.sessions.connections_failed

    @property
    def last_connection_error(self) -> str | None:
        return self.sessions.last_connection_error

    # ------------------------------------------------------------------
    # Routing membership
    # ------------------------------------------------------------------
    @property
    def routing(self) -> RoutingTable | None:
        return self.sessions.table

    def install_routing(self, table) -> RoutingTable:
        """Install a newer routing table (accepts a payload dict too).

        Epochs must strictly increase — a stale or replayed
        ``route-update`` is refused, so out-of-order delivery across a
        shard fleet can never roll a shard's table backwards.
        """
        if not isinstance(table, RoutingTable):
            table = RoutingTable.from_payload(table)
        current = self.sessions.table
        if current is not None:
            if (
                table.epoch == current.epoch
                and table.to_payload() == current.to_payload()
            ):
                # Idempotent re-delivery: a resumed coordinator re-pushes
                # the table it had journaled; same epoch + same content
                # is a no-op, not a rollback.
                return current
            if table.epoch <= current.epoch:
                raise ValidationError(
                    f"routing table epoch {table.epoch} is not newer than "
                    f"the installed epoch {current.epoch}"
                )
        self.sessions.table = table
        return table

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start accepting sessions; returns the bound ``(host, port)``."""
        if self._closed:
            raise ValidationError("service is closed")
        if self._server is not None:
            raise ValidationError("service is already serving")
        self._server = await asyncio.start_server(
            self.sessions.handle_connection, host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Graceful shutdown: stop serving, persist every round.

        In-flight connection handlers are cancelled and awaited (a
        stalled producer cannot hang shutdown); each round's commit
        pipeline is drained, its spill and ledger synced and closed,
        and its checkpoint written atomically.  Live accumulators stay
        readable.
        """
        await self._stop_serving()
        if self._closed:
            return
        self._closed = True
        for state in self.registry.rounds():
            await state.close(snapshot=True)

    async def abort(self) -> None:
        """Shutdown without final checkpoints (crash-adjacent teardown).

        Everything acknowledged is already fsync'd, so an aborted
        service resumes exactly like a killed one; tests use this to
        exercise the recovery path without process-level kills.
        """
        await self._stop_serving()
        if self._closed:
            return
        self._closed = True
        for state in self.registry.rounds():
            await state.close(snapshot=False)

    async def _stop_serving(self) -> None:
        if self._server is not None:
            server, self._server = self._server, None
            server.close()
            await self.sessions.cancel_connections()
            await server.wait_closed()
        # Cancelled handlers may have left submissions queued on round
        # schedulers; those hold durable work, so the rounds' close()
        # (which every shutdown path runs next) drains them before any
        # spill or ledger handle closes.

    def stats(self) -> dict:
        """Operator-facing counters: service-wide plus per round."""
        rounds = self.registry.rounds()
        stats = {
            "records_merged": self.records_merged,
            "records_duplicate": self.records_duplicate,
            "records_refused": self.records_refused,
            "sessions_opened": self.sessions_opened,
            "sessions_rejected": self.sessions_rejected,
            "sessions_shed": self.sessions_shed,
            "sessions_moved": self.sessions.sessions_moved,
            "sessions_reaped_revoked": self.sessions.sessions_reaped_revoked,
            "control_requests": self.sessions.control_requests,
            "connections_failed": self.connections_failed,
            "bytes_ingested": self.bytes_ingested,
            "n": sum(state.accumulator.n for state in rounds),
            "producers": sorted(self.producers_seen),
            "recovered_records": self.recovered_records,
            "recovered_spill_bytes_discarded": (
                self.recovered_spill_bytes_discarded
            ),
            "rounds": {
                state.round_id: state.stats() for state in rounds
            },
        }
        if self.shard_name is not None:
            stats["shard"] = self.shard_name
        if self.sessions.table is not None:
            stats["routing_epoch"] = self.sessions.table.epoch
        if len(rounds) == 1:
            stats["m"] = rounds[0].m
            stats["round_id"] = rounds[0].round_id
        return stats

    # ------------------------------------------------------------------
    # Control plane (round ownership's remote surface)
    # ------------------------------------------------------------------
    def _control_reply(
        self,
        nonce: bytes,
        body: dict,
        *,
        status: int = wire.CONTROL_OK,
        attachment: bytes = b"",
    ) -> wire.ControlReply:
        mac = control_reply_mac(
            self.control_key,
            status=status,
            nonce=nonce,
            body=body,
            attachment=attachment,
        )
        return wire.ControlReply(
            status=status,
            nonce=nonce,
            body=body,
            attachment=attachment,
            mac=mac,
        )

    def _control_error(self, nonce: bytes, detail: str) -> wire.ControlReply:
        return self._control_reply(
            nonce, {"detail": detail}, status=wire.CONTROL_ERROR
        )

    async def _handle_control(
        self, request: wire.ControlRequest
    ) -> wire.ControlReply:
        """Answer one authenticated control request.

        Every reply — success or error — echoes the request nonce under
        the reply MAC, so the coordinator can trust refusals too.  The
        single exception is a bad request MAC: that refusal carries the
        nonce but proves nothing (an unauthenticated peer learns only
        that it is unauthenticated).
        """
        if not verify_control_request_mac(
            self.control_key,
            request.mac,
            op=request.op,
            nonce=request.nonce,
            body=request.body,
        ):
            return self._control_error(
                request.nonce, "control authentication failed"
            )
        try:
            return await self._dispatch_control(request)
        except (ValidationError, ServiceError, ValueError, KeyError) as exc:
            return self._control_error(request.nonce, str(exc))

    async def _dispatch_control(
        self, request: wire.ControlRequest
    ) -> wire.ControlReply:
        op, body, nonce = request.op, request.body, request.nonce
        if op == "status":
            if body.get("round_id") is not None:
                return self._control_reply(
                    nonce, self.round(int(body["round_id"])).stats()
                )
            return self._control_reply(nonce, self.stats())
        if op == "drain":
            state = self.round(int(body["round_id"]))
            state.drain()
            return self._control_reply(
                nonce,
                {"round_id": state.round_id, "phase": state.lifecycle.phase},
            )
        if op == "close-round":
            state = self.round(int(body["round_id"]))
            await state.close(snapshot=bool(body.get("snapshot", True)))
            return self._control_reply(
                nonce,
                {"round_id": state.round_id, "phase": state.lifecycle.phase},
            )
        if op == "retire-round":
            state = self.registry.retire(int(body["round_id"]))
            return self._control_reply(
                nonce,
                {"round_id": state.round_id, "phase": state.lifecycle.phase},
            )
        if op == "open-round":
            round_id = int(body["round_id"])
            existing = self.registry.get(round_id)
            token = body.get("token")
            if (
                existing is not None
                and token is not None
                and bytes.fromhex(token) == existing.token
                and int(body["m"]) == existing.m
                and (body.get("mode") or self.default_mode) == existing.mode
            ):
                # Idempotent re-open: the same coordinator (it proved
                # itself by knowing the token) registering the same
                # round again — a resumed coordinator reconciling, or a
                # retried broadcast.  Acknowledge instead of refusing so
                # recovery never wedges on work already done.
                return self._control_reply(
                    nonce,
                    {
                        "round_id": existing.round_id,
                        "m": existing.m,
                        "mode": existing.mode,
                        "phase": existing.lifecycle.phase,
                        "recovered_records": existing.recovered_records,
                        "already": True,
                    },
                )
            state = self.add_round(
                int(body["m"]),
                round_id,
                resume=bool(body.get("resume", False)),
                limits=body.get("limits"),
                token=token,
                mode=body.get("mode"),
            )
            return self._control_reply(
                nonce,
                {
                    "round_id": state.round_id,
                    "m": state.m,
                    "mode": state.mode,
                    "phase": state.lifecycle.phase,
                    "recovered_records": state.recovered_records,
                },
            )
        if op == "pull-state":
            state = self.round(int(body["round_id"]))
            # The attachment is the round's accumulated state: a core
            # wire snapshot for a collect round (the same frame bytes a
            # single-process round would spill), or the party's v5
            # state-transfer share frame for a blinded/keeper round.
            # The body carries its digest so the aggregator verifies
            # what it decodes before merging — and, for split-trust
            # rounds, the membership digest the combine reconciles
            # across parties before any decode is attempted.
            if state.mode == MODE_COLLECT:
                attachment = wire.dump_snapshot(state.accumulator)
            else:
                attachment = wire.dumps(state.accumulator.state_frame())
            return self._control_reply(
                nonce,
                {
                    "round_id": state.round_id,
                    "m": state.m,
                    "mode": state.mode,
                    "n": state.accumulator.n,
                    "digest": state.accumulator.digest(),
                    "member_digest": encode_member_digest(
                        state.member_digest
                    ),
                    "records_merged": state.records_merged,
                    "phase": state.lifecycle.phase,
                },
                attachment=attachment,
            )
        if op == "route-table":
            table = self.sessions.table
            return self._control_reply(
                nonce,
                {"table": table.to_payload() if table is not None else None},
            )
        if op == "route-update":
            table = self.install_routing(body["table"])
            return self._control_reply(nonce, {"epoch": table.epoch})
        if op == "migrate-out":
            table = self.sessions.table
            if table is None or self.shard_name is None:
                raise ValidationError(
                    "migrate-out requires a routed shard (shard_name + "
                    "installed routing table)"
                )
            state = self.round(int(body["round_id"]))
            if state.mode == MODE_KEEPER:
                raise ValidationError(
                    f"round {state.round_id} is a keeper round; keeper "
                    "shares are producer-addressed and never migrate"
                )
            epoch = int(body["epoch"])
            if epoch != table.epoch:
                raise ValidationError(
                    f"migrate-out names routing epoch {epoch} but this "
                    f"shard has epoch {table.epoch} installed; push the "
                    "table first"
                )
            known = state.producers_seen | {
                entry.producer_id for entry in state.ledger.entries()
            }
            movers = sorted(
                producer
                for producer in known
                if table.owner(producer).name != self.shard_name
            )
            async with state.scheduler.paused():
                moved = state.migrate_out(movers, epoch)
            return self._control_reply(
                nonce,
                {
                    "round_id": state.round_id,
                    "epoch": epoch,
                    "producers": movers,
                    "entries": [
                        {
                            "producer": producer_id,
                            "seq": seq,
                            "digest": digest.hex(),
                            "length": len(frame),
                        }
                        for producer_id, seq, digest, frame in moved
                    ],
                },
                attachment=b"".join(frame for *_rest, frame in moved),
            )
        if op == "migrate-in":
            state = self.round(int(body["round_id"]))
            if state.mode == MODE_KEEPER:
                raise ValidationError(
                    f"round {state.round_id} is a keeper round; keeper "
                    "shares are producer-addressed and never migrate"
                )
            # Control *requests* carry no attachment (only replies do),
            # so inbound frames ride the body hex-encoded.
            records = [
                (
                    str(entry["producer"]),
                    int(entry["seq"]),
                    bytes.fromhex(entry["digest"]),
                    bytes.fromhex(entry["frame"]),
                )
                for entry in body["entries"]
            ]
            async with state.scheduler.paused():
                result = state.absorb_migrated(records)
            return self._control_reply(
                nonce, {"round_id": state.round_id, **result}
            )
        return self._control_error(
            nonce, f"unknown control op {op!r}; ops: {', '.join(CONTROL_OPS)}"
        )
