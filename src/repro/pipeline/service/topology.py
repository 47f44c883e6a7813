"""Process topology for the scale-out collection tier.

:class:`ShardProcess` runs one :class:`~.server.CollectionService` in a
child OS process — its own event loop, its own store root, its own
spill/ledger fsyncs — and :class:`ShardFleet` runs K of them as one
deployment: start them all, collect their bound ports, build the
:class:`~.routing.RoutingTable`, and push it to every shard over the
control plane.

Crash semantics are the point of the exercise:

* :meth:`ShardProcess.kill` is ``SIGKILL`` — no drain, no checkpoint, no
  goodbye.  Whatever the shard acked is on disk (that is the service's
  per-ack durability contract), and nothing else is;
* :meth:`ShardFleet.restart` brings a shard back **under the same
  name** on its old store root with ``resume=True`` — the ledger
  replays, the spill truncates to the committed offset, and because
  ring points hash the shard *name* (never the address), the re-bound
  port moves zero producers.  The fleet pushes a next-epoch table so
  clients holding the dead address get redirected;
* producers blind-resend on reconnect, the idempotency ledger eats the
  duplicates, and the aggregated round is bit-identical to a run with
  no crash at all — the integration suite pins exactly this.

Children are forked (the start method this platform's tests rely on),
with a module-level entry point so the configuration crossing the
process boundary is an explicit, picklable dict — nothing closes over
live service objects.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

from ...exceptions import ServiceError, ValidationError
from .quotas import ServiceLimits
from .routing import RoutingTable, ShardInfo

__all__ = ["ShardProcess", "ShardFleet", "shard_store_root"]

_START_TIMEOUT_SECONDS = 30.0


def shard_store_root(fleet_root: str, shard_name: str) -> str:
    """Where one shard's durable state lives under the fleet root."""
    return os.path.join(fleet_root, shard_name)


def _shard_child_main(config: dict, ready) -> None:
    """Child-process entry: serve one shard until SIGTERM.

    Runs in a fresh interpreter state (post-fork); builds the service
    from the picklable *config*, reports the bound address through the
    *ready* queue, then serves until a SIGTERM asks for a graceful
    close (drain commit pipelines, write checkpoints).  SIGKILL is the
    crash path — by design nothing here runs for it.
    """
    import asyncio

    from .server import CollectionService

    async def main() -> None:
        try:
            service = CollectionService(
                rounds=config["rounds"],
                key=config.get("key"),
                keys=config.get("keys"),
                store_root=config["store_root"],
                limits=config.get("limits") or ServiceLimits(),
                resume=bool(config.get("resume", False)),
                control_key=config.get("control_key"),
                shard_name=config["shard_name"],
            )
            host, port = await service.serve(
                config.get("host", "127.0.0.1"), int(config.get("port", 0))
            )
            coordinator = config.get("coordinator")
            if coordinator is not None:
                # Auto-discovery: announce this shard to the
                # coordinator's endpoint.  join-fleet covers both the
                # cold join (triggers a live rebalance onto us) and the
                # restart (re-address + round resume); either way the
                # shard serves nothing it should not until the
                # coordinator pushes a table that says otherwise.
                from .client import control_call

                await control_call(
                    coordinator[0],
                    int(coordinator[1]),
                    key=config.get("control_key"),
                    op="join-fleet",
                    body={
                        "name": config["shard_name"],
                        "host": host,
                        "port": port,
                    },
                )
        except BaseException as exc:  # the parent needs the reason
            ready.put({"error": f"{type(exc).__name__}: {exc}"})
            raise
        ready.put({"shard": config["shard_name"], "host": host, "port": port})

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await stop.wait()
        await service.close()

    asyncio.run(main())


class ShardProcess:
    """One shard service in its own OS process."""

    def __init__(
        self,
        name: str,
        *,
        store_root: str,
        rounds,
        key=None,
        keys=None,
        control_key=None,
        limits: ServiceLimits | None = None,
        host: str = "127.0.0.1",
        resume: bool = False,
        coordinator: tuple[str, int] | None = None,
    ) -> None:
        self.name = name
        self.config = {
            "shard_name": name,
            "store_root": store_root,
            "rounds": list(rounds),
            "key": key,
            "keys": keys,
            "control_key": control_key,
            "limits": limits,
            "host": host,
            "resume": resume,
            "coordinator": coordinator,
        }
        self.info: ShardInfo | None = None
        self._process: multiprocessing.Process | None = None
        self._ctx = multiprocessing.get_context("fork")

    def start(self) -> ShardInfo:
        """Fork the shard and block until it reports its bound address."""
        if self._process is not None and self._process.is_alive():
            raise ValidationError(f"shard {self.name} is already running")
        ready = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=_shard_child_main,
            args=(self.config, ready),
            daemon=True,
            name=f"shard-{self.name}",
        )
        self._process.start()
        try:
            report = ready.get(timeout=_START_TIMEOUT_SECONDS)
        except Exception as exc:
            self.kill()
            raise ServiceError(
                f"shard {self.name} did not report a bound address: {exc}"
            ) from exc
        if "error" in report:
            self._process.join(timeout=5.0)
            raise ServiceError(
                f"shard {self.name} failed to start: {report['error']}"
            )
        self.info = ShardInfo(
            name=self.name, host=report["host"], port=int(report["port"])
        )
        return self.info

    @property
    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    def kill(self) -> None:
        """SIGKILL — the crash path.  Nothing is drained or checkpointed."""
        if self._process is not None:
            self._process.kill()
            self._process.join(timeout=10.0)

    def terminate(self, timeout: float = 30.0) -> None:
        """SIGTERM — graceful close (drain, checkpoint) then exit."""
        if self._process is None:
            return
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=timeout)
        if self._process.is_alive():  # wedged child; don't hang the parent
            self._process.kill()
            self._process.join(timeout=10.0)


class ShardFleet:
    """K shard processes plus the routing table that spans them.

    The fleet is the deployment unit the coordinator and aggregator
    drive.  Construction is cheap; :meth:`start` forks the shards,
    learns their ports, builds the table, and (when a control key is
    configured) pushes it fleet-wide so every shard enforces the same
    epoch from its first handshake.
    """

    def __init__(
        self,
        shard_names,
        *,
        fleet_root: str,
        rounds,
        key=None,
        keys=None,
        control_key=None,
        limits: ServiceLimits | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        names = list(shard_names)
        if len(names) < 1:
            raise ValidationError("a fleet needs at least one shard")
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate shard names: {sorted(names)}")
        self.fleet_root = fleet_root
        self.control_key = control_key
        self._spec = {
            "rounds": list(rounds),
            "key": key,
            "keys": keys,
            "control_key": control_key,
            "limits": limits,
            "host": host,
        }
        self.shards: dict[str, ShardProcess] = {
            name: ShardProcess(
                name,
                store_root=shard_store_root(fleet_root, name),
                **self._spec,
            )
            for name in names
        }
        self.table: RoutingTable | None = None
        self._epoch = 0

    # ------------------------------------------------------------------
    async def start(self) -> RoutingTable:
        """Start every shard, build the table, push it fleet-wide."""
        infos = [shard.start() for shard in self.shards.values()]
        self._epoch += 1
        self.table = RoutingTable(infos, epoch=self._epoch)
        await self._push_table()
        return self.table

    async def _push_table(self) -> None:
        if self.control_key is None:
            return
        from .client import control_call

        for info in self.table.shards():
            await control_call(
                info.host,
                info.port,
                key=self.control_key,
                op="route-update",
                body={"table": self.table.to_payload()},
            )

    def kill(self, name: str) -> None:
        """Crash one shard (SIGKILL).  The table is left as-is: clients
        see dead-connection errors or, after :meth:`restart`, MOVED-free
        resumption at the shard's new port."""
        self._shard(name).kill()

    async def restart(self, name: str, *, resume: bool = True) -> ShardInfo:
        """Bring a crashed shard back on its old store root.

        ``resume=True`` replays its ledger and truncates its spill to
        the committed offset — every acked record survives, nothing
        unacked does.  The shard keeps its name (so the ring does not
        move) but may bind a new port; the next-epoch table is pushed
        to the whole fleet.
        """
        old = self._shard(name)
        if old.is_alive:
            raise ValidationError(f"shard {name} is still alive; kill it first")
        fresh = ShardProcess(
            name,
            store_root=shard_store_root(self.fleet_root, name),
            resume=resume,
            **self._spec,
        )
        info = fresh.start()
        self.shards[name] = fresh
        if self.table is not None:
            self._epoch += 1
            self.table = RoutingTable(
                [
                    info if existing.name == name else existing
                    for existing in self.table.shards()
                ],
                epoch=self._epoch,
            )
            await self._push_table()
        return info

    async def add_shard(
        self, name: str, *, coordinator: tuple[str, int] | None = None
    ) -> ShardInfo:
        """Fork one more shard on a fresh store root and return its
        address — WITHOUT touching the routing table.

        Growing the ring is the coordinator's job
        (:meth:`~.coordinator.RoundCoordinator.join_shard` opens the
        live rounds on the newcomer and runs the record migration);
        this just provides the process.  With *coordinator* set the
        child announces itself over ``join-fleet`` and no parent-side
        wiring is needed at all.
        """
        if name in self.shards:
            raise ValidationError(
                f"shard {name!r} already exists; use restart() to "
                "re-fork it"
            )
        fresh = ShardProcess(
            name,
            store_root=shard_store_root(self.fleet_root, name),
            coordinator=coordinator,
            **self._spec,
        )
        # start() blocks on the child's ready report, and with
        # *coordinator* set the child first dials the coordinator
        # endpoint — which may be served by THIS event loop.  Run the
        # wait off-loop so the announcement can be answered.
        import asyncio

        info = await asyncio.to_thread(fresh.start)
        self.shards[name] = fresh
        return info

    def stop(self) -> None:
        """Gracefully terminate every live shard (drain + checkpoint)."""
        for shard in self.shards.values():
            shard.terminate()

    # ------------------------------------------------------------------
    def _shard(self, name: str) -> ShardProcess:
        shard = self.shards.get(name)
        if shard is None:
            raise ValidationError(
                f"no shard {name!r}; shards: {sorted(self.shards)}"
            )
        return shard

    def infos(self) -> list[ShardInfo]:
        """Every shard's current address, name-ordered."""
        infos = []
        for name in sorted(self.shards):
            info = self.shards[name].info
            if info is None:
                raise ValidationError(f"shard {name} was never started")
            infos.append(info)
        return infos

    def __len__(self) -> int:
        return len(self.shards)
