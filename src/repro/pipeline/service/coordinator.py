"""The coordinator: round lifecycle authority for a shard fleet.

In a scale-out deployment no shard owns a round — each hosts a *slice*
(the producers the routing table assigns to it).  Someone must own the
round itself: decide when it starts serving, when it drains, when it is
closed and safe to aggregate, and what registration token scopes its
sessions.  :class:`RoundCoordinator` is that owner:

* it holds the fleet's :class:`~.routing.RoutingTable` and pushes
  epoch-bumped tables to every shard (``route-update``);
* it **mints one registration token per round** and registers the round
  on every shard with it (``open-round``) — which is why a session
  proof minted against any shard of the round is scoped to the same
  incarnation, and why a retired round id can be re-registered without
  any old proof coming back to life;
* it drives the round's lifecycle state machine
  (:mod:`~.lifecycle`: ``open → serving → draining → closed →
  retired``) and keeps its own authoritative
  :class:`~.lifecycle.RoundLifecycle` per round, transitioning it only
  after every shard acknowledged the matching control op — so the
  coordinator's answer to "what is round 7 doing?" is never *ahead* of
  any shard;
* it is primarily a control-plane *client*: all its verbs ride
  :func:`~.client.control_call` (authenticated, nonce-bound).  It can
  additionally :meth:`~RoundCoordinator.serve` a small control
  endpoint of its own so shards announce themselves
  (``hello-coordinator`` after a restart, ``join-fleet`` to enter the
  ring) instead of an operator re-wiring addresses by hand.

The coordinator deliberately does not proxy record traffic — producers
talk straight to their shard.  And it need not be a single point of
failure: given a ``journal`` path it writes every durable decision
(registrations, tokens, lifecycle transitions, fleet snapshots,
migration markers) to an fsync'd append-only log
(:class:`~.journal.CoordinatorJournal`) *before* acting on the fleet.
:meth:`RoundCoordinator.resume` replays that log after a crash —
``kill -9`` included — rebuilding the round table with its tokens, and
:meth:`~RoundCoordinator.reconcile` re-asserts ownership of every open
round (idempotently, so work the dead coordinator finished is simply
acknowledged) and re-runs any migration that was cut off mid-flight.

It also owns **live rebalancing**: :meth:`~RoundCoordinator.migrate`
pushes an epoch-bumped table and then moves every migrated producer's
*committed records* shard-to-shard (``migrate-out`` / ``migrate-in``,
digest-verified), so a rebalance under traffic loses nothing and
double-counts nothing — blind resends land on the new owner's
transferred ledger entries as duplicates.

A coordinator given *keepers* also owns **split-trust rounds**
(:mod:`.shares`): ``register_round(..., mode="blinded")`` opens the
round as a blinded collector on every shard and as a keeper round on
every share keeper — all under the same registration token — and every
lifecycle verb (drain / close / retire / status) spans both fleets, so
no party can be left serving a round the others closed.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field

from ...exceptions import ValidationError, WireFormatError
from ..collect import wire
from ..collect.framing import read_frame_bytes
from .auth import (
    control_reply_mac,
    derive_round_key,
    fresh_nonce,
    verify_control_request_mac,
)
from .client import control_call
from .journal import CoordinatorJournal
from .lifecycle import (
    CLOSED,
    DRAINING,
    OPEN,
    RETIRED,
    SERVING,
    RoundLifecycle,
)
from .rounds import MODE_BLINDED, MODE_COLLECT, MODE_KEEPER
from .routing import RoutingTable, ShardInfo

__all__ = ["CoordinatedRound", "RoundCoordinator", "COORDINATOR_OPS"]

#: Ops the coordinator's own control endpoint answers (shards dial in).
COORDINATOR_OPS = ("hello-coordinator", "join-fleet")

#: Cap per migrate-in call: frames ride the request body hex-encoded
#: (control requests carry no attachment), so batches stay well under
#: the service frame limit.
_MIGRATE_BATCH_BYTES = 1 << 21


@dataclass
class CoordinatedRound:
    """The coordinator's authoritative record of one round."""

    round_id: int
    m: int
    token: bytes
    mode: str = MODE_COLLECT
    lifecycle: RoundLifecycle = field(init=False)

    def __post_init__(self) -> None:
        self.lifecycle = RoundLifecycle(self.round_id)

    @property
    def phase(self) -> str:
        return self.lifecycle.phase


class RoundCoordinator:
    """Owns rounds across a fleet of shard services.

    Parameters
    ----------
    shards:
        The fleet: :class:`~.routing.ShardInfo` entries (stable names,
        current addresses).
    control_key:
        The fleet's control-plane secret; every verb authenticates
        with it.
    replicas / epoch:
        Routing-table construction knobs (see
        :class:`~.routing.RoutingTable`).
    keepers:
        Share-keeper services (:class:`~.routing.ShardInfo` entries)
        for split-trust rounds.  Keepers are *not* part of the routing
        ring — every producer sends its share stream to every keeper —
        they are a second fleet the coordinator drives through the same
        control plane.
    """

    def __init__(
        self,
        shards,
        *,
        control_key,
        replicas: int | None = None,
        epoch: int = 1,
        keepers=(),
        journal=None,
    ) -> None:
        kwargs = {} if replicas is None else {"replicas": replicas}
        self.table = RoutingTable(shards, epoch=epoch, **kwargs)
        self.control_key = control_key
        self.keepers: tuple[ShardInfo, ...] = tuple(keepers)
        names = [keeper.name for keeper in self.keepers]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"share keeper names must be unique, got {names}"
            )
        self.rounds: dict[int, CoordinatedRound] = {}
        #: The ``migrate pending`` journal event (epoch + union fleet)
        #: of a migration not yet journaled ``done`` — :meth:`reconcile`
        #: re-runs it.
        self.pending_migration: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        self._endpoint_key = None
        self._address: tuple[str, int] | None = None
        self.journal: CoordinatorJournal | None = None
        if journal is not None:
            if not isinstance(journal, CoordinatorJournal):
                journal = CoordinatorJournal(str(journal))
            events = (
                journal.load() if journal._handle is None else len(journal)
            )
            if events:
                raise ValidationError(
                    f"journal {journal.path} already holds {events} "
                    "events; use RoundCoordinator.resume() to recover "
                    "from it"
                )
            self.journal = journal
            self._journal(self._fleet_event())
            if self.keepers:
                self._journal(self._keepers_event())

    # ------------------------------------------------------------------
    # Durability (the journal is written BEFORE the fleet is acted on)
    # ------------------------------------------------------------------
    def _journal(self, event: dict) -> None:
        if self.journal is not None:
            self.journal.append(event)

    def _fleet_event(self) -> dict:
        return {
            "kind": "fleet",
            "epoch": self.table.epoch,
            "replicas": self.table.replicas,
            "shards": {
                shard.name: [shard.host, shard.port]
                for shard in self.table.shards()
            },
        }

    def _keepers_event(self) -> dict:
        return {
            "kind": "keepers",
            "shards": {
                keeper.name: [keeper.host, keeper.port]
                for keeper in self.keepers
            },
        }

    @classmethod
    def resume(cls, journal, *, control_key) -> "RoundCoordinator":
        """Rebuild a coordinator from its journal after a crash.

        Replays the log: the last ``fleet`` / ``keepers`` snapshots fix
        the membership and epoch, ``register`` events restore the round
        table (tokens included), ``phase`` events restore each round's
        lifecycle, and an unmatched ``migrate pending`` is remembered
        for :meth:`reconcile` to re-run.  The journal stays attached —
        the resumed coordinator keeps appending to it.

        Replay is pure bookkeeping; call :meth:`reconcile` afterwards
        to re-assert round ownership on the (still running) fleet.
        """
        if not isinstance(journal, CoordinatorJournal):
            journal = CoordinatorJournal(str(journal))
        if journal._handle is None:
            journal.load()
        events = journal.events()
        fleet_event = keepers_event = None
        for event in events:
            if event["kind"] == "fleet":
                fleet_event = event
            elif event["kind"] == "keepers":
                keepers_event = event
        if fleet_event is None:
            raise ValidationError(
                f"journal {journal.path} holds no fleet snapshot; "
                "nothing to resume"
            )
        shards = [
            ShardInfo(name, host, int(port))
            for name, (host, port) in sorted(fleet_event["shards"].items())
        ]
        keepers = (
            [
                ShardInfo(name, host, int(port))
                for name, (host, port) in sorted(
                    keepers_event["shards"].items()
                )
            ]
            if keepers_event is not None
            else ()
        )
        coordinator = cls(
            shards,
            control_key=control_key,
            replicas=int(fleet_event["replicas"]),
            epoch=int(fleet_event["epoch"]),
            keepers=keepers,
        )
        coordinator.journal = journal
        for event in events:
            kind = event["kind"]
            if kind == "register":
                record = CoordinatedRound(
                    round_id=int(event["round_id"]),
                    m=int(event["m"]),
                    token=bytes.fromhex(event["token"]),
                    mode=event.get("mode", MODE_COLLECT),
                )
                coordinator.rounds[record.round_id] = record
            elif kind == "phase":
                round_id = int(event["round_id"])
                if event["phase"] == RETIRED:
                    coordinator.rounds.pop(round_id, None)
                elif round_id in coordinator.rounds:
                    coordinator.rounds[round_id].lifecycle = RoundLifecycle(
                        round_id, event["phase"]
                    )
            elif kind == "migrate":
                coordinator.pending_migration = (
                    event if event["state"] == "pending" else None
                )
        return coordinator

    async def reconcile(self) -> dict:
        """Re-assert ownership of every live round after :meth:`resume`.

        Re-registers each ``open``/``serving`` round fleet-wide with
        its original token — shards that never died answer with their
        idempotent "already hosting it" acknowledgement, shards that
        restarted resume from their own ledger + spill — and re-runs a
        migration the crash cut off (``migrate-out``/``migrate-in`` are
        idempotent, so a half-applied transfer completes exactly).
        """
        reopened: list[int] = []
        for record in sorted(
            self.rounds.values(), key=lambda r: r.round_id
        ):
            if record.phase not in (OPEN, SERVING):
                continue
            body: dict = {
                "m": record.m,
                "round_id": record.round_id,
                "token": record.token.hex(),
                "resume": True,
            }
            if record.mode == MODE_BLINDED:
                body["mode"] = MODE_BLINDED
            await self._broadcast("open-round", body)
            if record.mode == MODE_BLINDED:
                keeper_body = dict(body)
                keeper_body["mode"] = MODE_KEEPER
                await self._broadcast(
                    "open-round", keeper_body, fleet=list(self.keepers)
                )
            if record.phase == OPEN:
                record.lifecycle.transition(SERVING)
                self._journal(
                    {
                        "kind": "phase",
                        "round_id": record.round_id,
                        "phase": SERVING,
                    }
                )
            reopened.append(record.round_id)
        migration_rerun = False
        if self.pending_migration is not None:
            in_table = {shard.name for shard in self.table.shards()}
            extra = [
                ShardInfo(name, host, int(port))
                for name, (host, port) in sorted(
                    self.pending_migration.get("shards", {}).items()
                )
                if name not in in_table
            ]
            await self.migrate(self.table, extra_sources=extra)
            migration_rerun = True
        return {"rounds": reopened, "migration_rerun": migration_rerun}

    # ------------------------------------------------------------------
    # Fleet plumbing
    # ------------------------------------------------------------------
    async def _call_shard(
        self, shard: ShardInfo, op: str, body: dict
    ) -> tuple[dict, bytes]:
        return await control_call(
            shard.host, shard.port, key=self.control_key, op=op, body=body
        )

    async def _broadcast(
        self, op: str, body: dict, *, fleet=None
    ) -> list[dict]:
        """Run one op against every shard, concurrently, all-or-error.

        Any shard failure raises after all calls settle (the error
        names the shard), so a partially applied broadcast is loud —
        the caller decides whether to retry (every shard op here is
        idempotent-or-loud, never silently divergent).  *fleet*
        overrides the target set (default: the routing table's shards;
        split-trust verbs pass shards + keepers).
        """
        shards = list(self.table.shards()) if fleet is None else list(fleet)
        results = await asyncio.gather(
            *(self._call_shard(shard, op, body) for shard in shards),
            return_exceptions=True,
        )
        failures = [
            f"{shard.name}: {result}"
            for shard, result in zip(shards, results)
            if isinstance(result, BaseException)
        ]
        if failures:
            raise ValidationError(
                f"control op {op!r} failed on {len(failures)} of "
                f"{len(shards)} shards: {'; '.join(failures)}"
            )
        return [body for body, _attachment in results]

    def _round_fleet(self, record: CoordinatedRound) -> list[ShardInfo]:
        """Every service hosting *record*: shards, plus keepers for a
        split-trust round — lifecycle verbs must span both fleets."""
        fleet = list(self.table.shards())
        if record.mode == MODE_BLINDED:
            fleet.extend(self.keepers)
        return fleet

    async def push_routing(self, table: RoutingTable | None = None) -> int:
        """Install *table* (default: the current one) on every shard."""
        if table is not None:
            self.table = table
        self._journal(self._fleet_event())
        await self._broadcast(
            "route-update", {"table": self.table.to_payload()}
        )
        return self.table.epoch

    async def rebalance(self, *, add=None, remove=None) -> RoutingTable:
        """Add and/or remove shards; push the next-epoch table.

        Consistent hashing keeps the move minimal: only producers owned
        by a removed shard, or newly claimed by an added one, change
        shards.  Producers mid-session are untouched (tables gate
        handshakes only); their next reconnect follows a MOVED
        redirect.
        """
        table = self.table
        for shard in add or ():
            table = table.with_shard(shard)
        for name in remove or ():
            table = table.without_shard(name)
        await self.push_routing(table)
        return table

    # ------------------------------------------------------------------
    # Live rebalancing (records follow their producers, under traffic)
    # ------------------------------------------------------------------
    async def migrate(self, table: RoutingTable, *, extra_sources=()) -> dict:
        """Move the fleet to *table* without losing a record.

        :meth:`rebalance` only repoints *future* sessions; records a
        moved producer already committed would stay marooned on the old
        owner — and its blind resends (the MOVED recovery path resends
        whole batches) would double-count on the new one.  ``migrate``
        closes both holes, live:

        1. journal the new fleet and a ``migrate pending`` marker —
           *before* any shard sees the table, so a coordinator crash
           anywhere past this point re-runs the (idempotent) transfer;
        2. push *table* to the union of old and new fleets — old owners
           begin refusing moved producers with MOVED at their next
           frame (their in-flight batch still commits);
        3. per live round, per shard: ``migrate-out`` evicts every
           moved producer's committed records (pausing that round's
           commit pipeline for the copy — the only stop-the-world
           window, measured by ``make bench-rebalance-smoke``), then
           ``migrate-in`` installs them on their new owners,
           digest-verified and ledger-deduped;
        4. journal ``migrate done``.

        Producers keep sending throughout: sessions on unaffected
        shards never notice, moved producers reconnect via MOVED and
        their resends dedup against the transferred ledger entries.

        *extra_sources* names shards to migrate OUT of beyond the two
        tables' union — the resume path passes the journaled union so a
        shard being REMOVED (absent from the post-crash table) is still
        drained on the re-run.
        """
        old = {shard.name: shard for shard in self.table.shards()}
        for shard in extra_sources:
            old.setdefault(shard.name, shard)
        new = {shard.name: shard for shard in table.shards()}
        union = {**old, **new}  # same name → prefer the new address
        self.table = table
        pending = {
            "kind": "migrate",
            "state": "pending",
            "epoch": table.epoch,
            # The union fleet rides the marker: a removed shard is not
            # in any later fleet snapshot, and the re-run must still
            # dial it to finish draining its records.
            "shards": {
                shard.name: [shard.host, shard.port]
                for shard in union.values()
            },
        }
        self.pending_migration = pending
        self._journal(self._fleet_event())
        self._journal(pending)
        await self._broadcast(
            "route-update",
            {"table": table.to_payload()},
            fleet=list(union.values()),
        )
        installed = duplicates = 0
        for record in sorted(
            self.rounds.values(), key=lambda r: r.round_id
        ):
            if record.phase not in (OPEN, SERVING):
                continue
            for shard in union.values():
                body, attachment = await self._call_shard(
                    shard,
                    "migrate-out",
                    {"round_id": record.round_id, "epoch": table.epoch},
                )
                moved = self._slice_migrated(shard, body, attachment)
                by_target: dict[str, list[dict]] = {}
                for entry in moved:
                    target = table.owner(entry["producer"]).name
                    by_target.setdefault(target, []).append(entry)
                for target_name, entries in sorted(by_target.items()):
                    target = new[target_name]
                    for chunk in self._migrate_chunks(entries):
                        reply, _ = await self._call_shard(
                            target,
                            "migrate-in",
                            {
                                "round_id": record.round_id,
                                "entries": chunk,
                            },
                        )
                        installed += int(reply["installed"])
                        duplicates += int(reply["duplicates"])
        self.pending_migration = None
        self._journal(
            {"kind": "migrate", "state": "done", "epoch": table.epoch}
        )
        return {
            "epoch": table.epoch,
            "installed": installed,
            "duplicates": duplicates,
        }

    @staticmethod
    def _slice_migrated(
        shard: ShardInfo, body: dict, attachment: bytes
    ) -> list[dict]:
        """Split a migrate-out reply attachment into per-record entries,
        verifying every frame against its declared digest (the reply MAC
        authenticated the bytes; the digest pins each slice)."""
        moved: list[dict] = []
        offset = 0
        for entry in body["entries"]:
            length = int(entry["length"])
            frame = attachment[offset : offset + length]
            offset += length
            if hashlib.sha256(frame).hexdigest() != entry["digest"]:
                raise ValidationError(
                    f"migrate-out from {shard.name!r}: record "
                    f"{entry['producer']!r}/{entry['seq']} failed its "
                    "digest check"
                )
            moved.append(
                {
                    "producer": entry["producer"],
                    "seq": int(entry["seq"]),
                    "digest": entry["digest"],
                    "frame": frame.hex(),
                }
            )
        if offset != len(attachment):
            raise ValidationError(
                f"migrate-out from {shard.name!r}: attachment holds "
                f"{len(attachment)} bytes but the entries describe "
                f"{offset}"
            )
        return moved

    @staticmethod
    def _migrate_chunks(entries: list[dict]):
        """Yield entry batches whose frames total ≤ the migrate budget
        (always at least one entry per batch)."""
        chunk: list[dict] = []
        chunk_bytes = 0
        for entry in entries:
            frame_bytes = len(entry["frame"]) // 2
            if chunk and chunk_bytes + frame_bytes > _MIGRATE_BATCH_BYTES:
                yield chunk
                chunk, chunk_bytes = [], 0
            chunk.append(entry)
            chunk_bytes += frame_bytes
        if chunk:
            yield chunk

    async def join_shard(self, shard: ShardInfo) -> dict:
        """Admit *shard* to the ring (or re-admit it after a restart).

        A known name is the restart path: re-address it, resume its
        rounds, hand it the current table.  A new name first opens
        every live round on the newcomer (it owns nothing until the
        table lands, so this is invisible), then runs a full
        :meth:`migrate` onto the epoch-bumped table that includes it.
        """
        if any(
            existing.name == shard.name for existing in self.table.shards()
        ):
            recovered = await self.recover_shard(shard)
            await self._call_shard(
                shard, "route-update", {"table": self.table.to_payload()}
            )
            return {
                "joined": False,
                "epoch": self.table.epoch,
                "rounds": recovered,
            }
        for record in sorted(
            self.rounds.values(), key=lambda r: r.round_id
        ):
            if record.phase not in (OPEN, SERVING):
                continue
            body = {
                "m": record.m,
                "round_id": record.round_id,
                "token": record.token.hex(),
                "resume": False,
            }
            if record.mode == MODE_BLINDED:
                body["mode"] = MODE_BLINDED
            await self._call_shard(shard, "open-round", body)
        stats = await self.migrate(self.table.with_shard(shard))
        return {"joined": True, **stats}

    # ------------------------------------------------------------------
    # The coordinator's own control endpoint (shards announce here)
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int] | None:
        """The serving endpoint's ``(host, port)``, if bound."""
        return self._address

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Accept shard announcements; returns the bound address.

        The endpoint speaks the same MAC'd control frames as the
        shards' control plane (same control key), answering
        ``hello-coordinator`` (a restarted shard re-announcing its
        address) and ``join-fleet`` (a new shard asking to enter the
        ring, which triggers a live :meth:`migrate`).
        """
        if self._server is not None:
            raise ValidationError("coordinator endpoint is already serving")
        self._endpoint_key = derive_round_key(self.control_key)
        self._server = await asyncio.start_server(
            self._handle_announcement, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self._address

    async def close(self) -> None:
        """Stop the endpoint (if serving) and close the journal."""
        if self._server is not None:
            server, self._server = self._server, None
            server.close()
            await server.wait_closed()
            self._address = None
        if self.journal is not None:
            self.journal.close()

    def _endpoint_reply(
        self, nonce: bytes, body: dict, *, status=None
    ) -> wire.ControlReply:
        status = wire.CONTROL_OK if status is None else status
        mac = control_reply_mac(
            self._endpoint_key,
            status=status,
            nonce=nonce,
            body=body,
            attachment=b"",
        )
        return wire.ControlReply(
            status=status, nonce=nonce, body=body, attachment=b"", mac=mac
        )

    async def _handle_announcement(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await read_frame_bytes(
                reader, max_frame_bytes=1 << 20
            )
            if frame is None:
                return
            request = wire.loads(frame)
            if not isinstance(request, wire.ControlRequest):
                return
            if not verify_control_request_mac(
                self._endpoint_key,
                request.mac,
                op=request.op,
                nonce=request.nonce,
                body=request.body,
            ):
                reply = self._endpoint_reply(
                    request.nonce,
                    {"detail": "control authentication failed"},
                    status=wire.CONTROL_ERROR,
                )
            else:
                try:
                    body = await self._dispatch_announcement(
                        request.op, request.body
                    )
                    reply = self._endpoint_reply(request.nonce, body)
                except (ValidationError, ValueError, KeyError) as exc:
                    reply = self._endpoint_reply(
                        request.nonce,
                        {"detail": str(exc)},
                        status=wire.CONTROL_ERROR,
                    )
            writer.write(wire.dumps(reply))
            await writer.drain()
        except (ConnectionError, OSError, WireFormatError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_announcement(self, op: str, body: dict) -> dict:
        if op in ("hello-coordinator", "join-fleet"):
            shard = ShardInfo(
                str(body["name"]), str(body["host"]), int(body["port"])
            )
            known = any(
                existing.name == shard.name
                for existing in self.table.shards()
            )
            if op == "hello-coordinator" and not known:
                return {"known": False, "epoch": self.table.epoch}
            result = await self.join_shard(shard)
            if op == "hello-coordinator":
                return {
                    "known": True,
                    "epoch": self.table.epoch,
                    "rounds": result.get("rounds", []),
                }
            return result

        raise ValidationError(
            f"unknown coordinator op {op!r}; ops: "
            f"{', '.join(COORDINATOR_OPS)}"
        )

    # ------------------------------------------------------------------
    # Round lifecycle verbs
    # ------------------------------------------------------------------
    def _round(self, round_id: int) -> CoordinatedRound:
        record = self.rounds.get(int(round_id))
        if record is None:
            raise ValidationError(
                f"round {round_id} is not coordinated here; rounds: "
                f"{sorted(self.rounds)}"
            )
        return record

    def phase(self, round_id: int) -> str:
        """The authoritative lifecycle phase of *round_id*."""
        return self._round(round_id).phase

    async def register_round(
        self,
        m: int,
        round_id: int,
        *,
        limits=None,
        resume: bool = False,
        mode: str = MODE_COLLECT,
    ) -> CoordinatedRound:
        """Register one round on every shard and start it serving.

        Mints the round's registration token and opens the round with
        it fleet-wide, so all shards challenge with the same token.
        The coordinator's lifecycle record passes through ``open``
        (while shards are being registered) and lands on ``serving``
        only after every shard acknowledged.

        ``mode="blinded"`` registers a **split-trust round**: every
        shard opens it as a blinded collector and every configured
        keeper opens it as a keeper round — same token, so a producer's
        proofs across all parties are scoped to one incarnation (and
        distinguished per party by the keeper labels in the transcript).
        """
        round_id = int(round_id)
        if round_id in self.rounds:
            raise ValidationError(
                f"round {round_id} is already coordinated; retire it first"
            )
        if mode not in (MODE_COLLECT, MODE_BLINDED):
            raise ValidationError(
                f"coordinated rounds are {MODE_COLLECT!r} or "
                f"{MODE_BLINDED!r} (keeper rounds are opened implicitly "
                f"on the keeper fleet), got {mode!r}"
            )
        if mode == MODE_BLINDED and not self.keepers:
            raise ValidationError(
                "a blinded round needs share keepers; construct the "
                "coordinator with keepers=[...] or register a plain "
                "collect round"
            )
        record = CoordinatedRound(
            round_id=round_id, m=int(m), token=fresh_nonce(), mode=mode
        )
        # Journal the registration (token included) BEFORE any shard
        # learns of it: a crash mid-broadcast must never leave rounds
        # open on some shards under a token nobody remembers.
        register_event: dict = {
            "kind": "register",
            "round_id": round_id,
            "m": int(m),
            "token": record.token.hex(),
            "mode": mode,
        }
        if limits is not None:
            register_event["limits"] = dict(limits)
        self._journal(register_event)
        body: dict = {
            "m": int(m),
            "round_id": round_id,
            "token": record.token.hex(),
            "resume": bool(resume),
        }
        if limits is not None:
            body["limits"] = dict(limits)
        if mode == MODE_BLINDED:
            body["mode"] = MODE_BLINDED
        await self._broadcast("open-round", body)
        if mode == MODE_BLINDED:
            keeper_body = dict(body)
            keeper_body["mode"] = MODE_KEEPER
            await self._broadcast(
                "open-round", keeper_body, fleet=list(self.keepers)
            )
        record.lifecycle.transition(SERVING)
        self._journal(
            {"kind": "phase", "round_id": round_id, "phase": SERVING}
        )
        self.rounds[round_id] = record
        return record

    async def recover_shard(self, shard: ShardInfo) -> list[int]:
        """Re-register every coordinated round on a restarted shard.

        The shard resumes each round from its own ledger + spill
        (``resume=True``) under the round's *original* token, so the
        recovered slice is the same incarnation — sessions against the
        other shards never noticed anything.  Returns the round ids
        recovered.
        """
        if any(
            existing.name == shard.name for existing in self.table.shards()
        ):
            # A restarted shard keeps its name (the ring is unmoved) but
            # may bind a new port; broadcasts must dial the live address.
            self.table = RoutingTable(
                [
                    shard if existing.name == shard.name else existing
                    for existing in self.table.shards()
                ],
                epoch=self.table.epoch,
                replicas=self.table.replicas,
            )
            self._journal(self._fleet_event())
        recovered = []
        for record in sorted(self.rounds.values(), key=lambda r: r.round_id):
            body = {
                "m": record.m,
                "round_id": record.round_id,
                "token": record.token.hex(),
                "resume": True,
            }
            if record.mode == MODE_BLINDED:
                body["mode"] = MODE_BLINDED
            await self._call_shard(shard, "open-round", body)
            recovered.append(record.round_id)
        return recovered

    async def recover_keeper(self, keeper: ShardInfo) -> list[int]:
        """Re-register split-trust rounds on a restarted share keeper.

        The keeper resumes each blinded round's keeper state from its
        own ledger + spill under the original token; its blinding
        stream replays to exactly the sums it held (derivation is
        transcript-stable, see :mod:`.shares`), so the eventual combine
        is bit-identical to a crash-free run.  Returns the round ids
        recovered.
        """
        if not any(
            existing.name == keeper.name for existing in self.keepers
        ):
            raise ValidationError(
                f"{keeper.name!r} is not a configured share keeper; "
                f"keepers: {[k.name for k in self.keepers]}"
            )
        # A restarted keeper keeps its name but may bind a new port.
        self.keepers = tuple(
            keeper if existing.name == keeper.name else existing
            for existing in self.keepers
        )
        self._journal(self._keepers_event())
        recovered = []
        for record in sorted(self.rounds.values(), key=lambda r: r.round_id):
            if record.mode != MODE_BLINDED:
                continue
            await self._call_shard(
                keeper,
                "open-round",
                {
                    "m": record.m,
                    "round_id": record.round_id,
                    "token": record.token.hex(),
                    "resume": True,
                    "mode": MODE_KEEPER,
                },
            )
            recovered.append(record.round_id)
        return recovered

    async def drain(self, round_id: int) -> str:
        """Fleet-wide drain: no new sessions or records anywhere;
        batches already in flight on any shard still commit."""
        record = self._round(round_id)
        record.lifecycle.require(SERVING)
        await self._broadcast(
            "drain",
            {"round_id": record.round_id},
            fleet=self._round_fleet(record),
        )
        record.lifecycle.transition(DRAINING)
        self._journal(
            {"kind": "phase", "round_id": record.round_id, "phase": DRAINING}
        )
        return record.phase

    async def close_round(
        self, round_id: int, *, snapshot: bool = True
    ) -> str:
        """Durably close the round on every shard (drains each shard's
        commit pipeline; with *snapshot*, writes final checkpoints)."""
        record = self._round(round_id)
        await self._broadcast(
            "close-round",
            {"round_id": record.round_id, "snapshot": bool(snapshot)},
            fleet=self._round_fleet(record),
        )
        if record.lifecycle.phase != CLOSED:
            record.lifecycle.transition(CLOSED)
            self._journal(
                {
                    "kind": "phase",
                    "round_id": record.round_id,
                    "phase": CLOSED,
                }
            )
        return record.phase

    async def retire(self, round_id: int) -> str:
        """Retire the closed round fleet-wide and forget it here; the
        id becomes re-registrable (a fresh token, so old proofs stay
        dead)."""
        record = self._round(round_id)
        record.lifecycle.require(CLOSED)
        await self._broadcast(
            "retire-round",
            {"round_id": record.round_id},
            fleet=self._round_fleet(record),
        )
        record.lifecycle.transition(RETIRED)
        self._journal(
            {"kind": "phase", "round_id": record.round_id, "phase": RETIRED}
        )
        del self.rounds[record.round_id]
        return record.phase

    async def status(self, round_id: int | None = None) -> dict:
        """Fleet status: per-shard stats plus the coordinator's view."""
        body = {} if round_id is None else {"round_id": int(round_id)}
        shards = self.table.shards()
        replies = await self._broadcast("status", body)
        status: dict = {
            "epoch": self.table.epoch,
            "shards": {
                shard.name: reply for shard, reply in zip(shards, replies)
            },
        }
        if self.keepers and (
            round_id is None
            or self._round(round_id).mode == MODE_BLINDED
        ):
            keeper_replies = await self._broadcast(
                "status", body, fleet=list(self.keepers)
            )
            status["keepers"] = {
                keeper.name: reply
                for keeper, reply in zip(self.keepers, keeper_replies)
            }
        if round_id is not None:
            status["round_id"] = int(round_id)
            status["phase"] = self.phase(round_id)
        else:
            status["rounds"] = {
                rid: record.phase for rid, record in sorted(self.rounds.items())
            }
        return status
