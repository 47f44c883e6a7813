"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.cli table1
    python -m repro.cli table2
    python -m repro.cli fig3 [--distribution power-law|uniform] [--quick]
    python -m repro.cli fig4a [--quick]
    python -m repro.cli fig4b [--quick]
    python -m repro.cli fig5a [--quick]      # Retail
    python -m repro.cli fig5b [--quick]      # MSNBC
    python -m repro.cli pipeline [--n N] [--m M] [--shards K] [--chunk-size C]
                                 [--sampler fast|bitexact] [--topk K]
                                 [--spill-dir DIR] [--collect] [--auth-key KEY]
                                 [--producer-key KEY]
    python -m repro.cli serve --m M --auth-key KEY --spill-dir DIR
                              [--round-id R] [--host H] [--port P]
                              [--resume] [--exit-after N]
    python -m repro.cli serve --rounds-config ROUNDS.json --spill-dir DIR
                              [--keys-file KEYS.txt] [--auth-key KEY]
                              [--resume] [--exit-after N]
    python -m repro.cli serve --shard NAME --control-key KEY --auth-key KEY
                              --spill-dir DIR [--resume]
    python -m repro.cli serve --share-keeper NAME --m M --auth-key KEY
                              --spill-dir DIR [--resume]
    python -m repro.cli serve --blinded --m M --auth-key KEY --spill-dir DIR
    python -m repro.cli coordinator --fleet a=H:P,b=H:P --control-key KEY
                                    (--rounds-config F | --m M [--round-id R])
                                    [--keepers k1=H:P,...]
                                    [--exit-after N] [--resume]
    python -m repro.cli aggregate --fleet a=H:P,b=H:P --control-key KEY
                                  --round-id R [--fan-in F] [--estimate]
                                  [--keepers k1=H:P,k2=H:P]

``--quick`` runs scaled-down workloads (seconds instead of minutes); the
default uses the paper-scale presets.  ``pipeline`` streams the exact
per-user protocol through :mod:`repro.pipeline` and reports throughput
against the binomial-shortcut baseline; ``--sampler fast`` switches the
perturbation onto the packed bit-plane kernel of :mod:`repro.kernels`
(distributional contract, 4-10x faster), and ``--topk K`` runs
heavy-hitter identification on the streamed estimates.  ``--spill-dir``
makes every shard spill its packed report chunks to a durable
:class:`~repro.pipeline.ShardStore` and audits the round (out-of-core
replay vs. snapshot digests); ``--collect`` round-trips the shard
snapshots through the authenticated exactly-once
:class:`~repro.pipeline.CollectionService` on a localhost socket,
including a blind-resend duplicate check, and verifies the merged state
digest-for-digest (under ``--auth-key``, or a fresh random key when
none is given; add ``--producer-key`` to give every synthetic producer
its own derived key through a :class:`~repro.pipeline.KeyRegistry`).
``serve`` runs the exactly-once collection service standalone:
HMAC-authenticated producer sessions, fsync'd idempotency ledger,
durable spill, and ``--resume`` crash recovery; ``--rounds-config``
hosts many concurrent rounds from a JSON spec (each round may carry a
``"limits"`` override object) and ``--keys-file`` loads per-producer
keys from a hot-reloadable keyfile (rotation without restart; a
``[revoked]`` section reaps producers mid-session).  The scale-out tier splits the deployment into three
roles: ``serve --shard`` runs one named shard of a fleet (bare when no
rounds are given — rounds arrive over the authenticated control
plane), ``coordinator`` owns round lifecycle across the fleet
(registers rounds with minted tokens, pushes the consistent-hash
routing table, drains and closes), and ``aggregate`` pulls every
shard's digest-verified accumulator state and tree-merges it into the
round total — see ``docs/service.md``.  The split-trust tier removes
the collector's view of raw reports: ``serve --blinded`` hosts rounds
as a blinded collector, ``serve --share-keeper NAME`` runs one share
keeper, ``coordinator --keepers`` registers rounds as split-trust
across both fleets, and ``aggregate --keepers`` decodes the tally via
``combine_round`` — bit-identical to the unblinded aggregate, and
impossible for any single party to produce alone.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    PAPER,
    QUICK,
    figure3,
    figure4a,
    figure4b,
    figure5,
    format_series,
    table1_leakage_bounds,
    table2_toy_example,
)

__all__ = ["main"]


def _print_figure(result: dict) -> None:
    title = (
        f"{result['figure']}  (metric: {result['metric']}, "
        f"n={result['n']}, m={result['m']})"
    )
    print(format_series(result["x_label"], result["x"], result["series"], title=title))
    if "series_topk" in result:
        print()
        print(
            format_series(
                result["x_label"],
                result["x"],
                result["series_topk"],
                title=f"{result['figure']} — top-k items only",
            )
        )


def _run_compare(args) -> None:
    """Rank every registered mechanism on a synthetic Zipf workload."""
    from .datasets import paper_default_spec, zipf_items, true_counts_from_items
    from .datasets.base import ItemsetDataset
    from .experiments.compare import compare_itemset, compare_single_item

    spec = paper_default_spec(args.epsilon, args.m, rng=0)
    if args.itemset:
        import numpy as np

        rng = np.random.default_rng(0)
        sets = [
            rng.choice(args.m, size=int(rng.integers(1, 6)), replace=False).tolist()
            for _ in range(args.n)
        ]
        dataset = ItemsetDataset.from_sets(sets, m=args.m)
        result = compare_itemset(spec, dataset, args.ell, rng=1)
        print(
            f"item-set comparison (n={args.n}, m={args.m}, eps={args.epsilon}, "
            f"ell={args.ell}):"
        )
    else:
        items = zipf_items(args.n, args.m, rng=0)
        truth = true_counts_from_items(items, args.m)
        result = compare_single_item(spec, truth, args.n, rng=1)
        print(f"single-item comparison (n={args.n}, m={args.m}, eps={args.epsilon}):")
    print(result["text"])
    print(f"\nbest by theory: {result['best']}")


def _audit_spill(spill_dir: str, accumulator) -> None:
    """Replay the spilled round out of core and verify digests."""
    import time

    from .pipeline import ShardStore

    store = ShardStore(spill_dir)
    start = time.perf_counter()
    replayed, audit = store.replay_and_audit()  # one decode pass for both
    replay_elapsed = time.perf_counter() - start
    matched = sum(1 for entry in audit.values() if entry["match"])
    spilled = store.spilled_bytes()
    rate = 8 * spilled / replay_elapsed / 1e6 if replay_elapsed else float("inf")
    print(
        f"spill audit: {matched}/{len(audit)} shard digests match "
        f"({spilled / 2**20:,.1f} MiB spilled, replay {replay_elapsed:.2f}s, "
        f"{rate:,.0f} Mbit/s)"
    )
    if replayed.digest() != accumulator.digest():
        raise SystemExit(
            "spill audit FAILED: replayed round digest does not match the "
            "live accumulator"
        )
    if matched != len(audit):
        bad = [shard for shard, entry in audit.items() if not entry["match"]]
        raise SystemExit(f"spill audit FAILED for shards {bad}")


def _collect_over_service(args, accumulator) -> None:
    """Round-trip shard snapshots through the exactly-once service.

    With a spill dir the per-shard snapshot frames play the producers
    (the real multi-producer shape); otherwise the merged snapshot
    itself makes the trip.  Each frame plays one producer: an HMAC
    session, one record, one durable ack.  Then every producer *blindly
    resends* — the exactly-once check: all resends come back
    ``ACK_DUPLICATE`` and the merged state stays digest-identical to
    the in-memory round.

    Producers share ``--auth-key``, or a fresh random key when none is
    given.  With ``--producer-key`` each synthetic producer
    authenticates with its *own* key (derived from the master via
    :func:`~repro.pipeline.service.derive_producer_key` and registered
    in a :class:`~repro.pipeline.KeyRegistry`) instead — exercising the
    per-producer key path end to end.
    """
    import asyncio
    import secrets
    import shutil
    import tempfile

    from .pipeline import CollectionService, KeyRegistry, ShardStore, send_records
    from .pipeline.collect import wire
    from .pipeline.service import derive_producer_key

    if args.spill_dir is not None:
        store = ShardStore(args.spill_dir)
        frames = [
            wire.dumps(store.load_snapshot(shard_id))
            for shard_id in store.shard_ids()
        ]
    else:
        frames = [wire.dumps(accumulator)]
    store_root = tempfile.mkdtemp(prefix="repro_service_")
    producer_ids = [f"shard-{index}" for index in range(len(frames))]
    if args.producer_key is not None:
        producer_keys = {
            producer: derive_producer_key(args.producer_key, producer)
            for producer in producer_ids
        }
        service_auth = {"keys": KeyRegistry(producer_keys)}
        key_mode = "per-producer keys"
    else:
        shared = args.auth_key
        key_mode = "a shared key"
        if shared is None:
            shared = secrets.token_hex(16)
            key_mode = "a fresh random key"
        producer_keys = {producer: shared for producer in producer_ids}
        service_auth = {"key": shared}

    async def _round_trip() -> tuple[int, int]:
        service = CollectionService(
            accumulator.m,
            round_id=accumulator.round_id,
            store_root=store_root,
            **service_auth,
        )
        host, port = await service.serve()
        try:
            merged = duplicate = 0
            for index, frame in enumerate(frames):
                producer = producer_ids[index]
                for _attempt in range(2):  # second pass = blind resend
                    acks = await send_records(
                        host,
                        port,
                        [frame],
                        key=producer_keys[producer],
                        producer_id=producer,
                        m=accumulator.m,
                        round_id=accumulator.round_id,
                    )
                    merged += sum(
                        ack.status == wire.ACK_MERGED for ack in acks
                    )
                    duplicate += sum(
                        ack.status == wire.ACK_DUPLICATE for ack in acks
                    )
        finally:
            await service.close()
        if service.accumulator.digest() != accumulator.digest():
            raise SystemExit(
                "service collection FAILED: merged state does not match "
                "the in-memory accumulator"
            )
        return merged, duplicate

    try:
        merged, duplicate = asyncio.run(_round_trip())
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    if merged != len(frames) or duplicate != len(frames):
        raise SystemExit(
            f"service collection FAILED: expected {len(frames)} merged + "
            f"{len(frames)} duplicate acks, got {merged} + {duplicate}"
        )
    print(
        f"service collect: {merged} record(s) merged exactly once over "
        f"authenticated sessions ({key_mode}), {duplicate} blind resend(s) "
        "deduplicated, merged state digest-identical to the in-memory round"
    )


def _run_pipeline(args) -> None:
    """Stream the exact per-user path over a synthetic Zipf workload."""
    import time

    import numpy as np

    from .datasets import paper_default_spec, true_counts_from_items, zipf_items
    from .kernels import resolve_sampler
    from .mechanisms import IDUE, OptimizedUnaryEncoding, SymmetricUnaryEncoding
    from .pipeline import ShardedRunner
    from .simulation import simulate_counts_from_true

    items = zipf_items(args.n, args.m, rng=0)
    truth = true_counts_from_items(items, args.m)
    if args.mechanism == "idue":
        spec = paper_default_spec(args.epsilon, args.m, rng=0)
        mechanism = IDUE.optimized(spec, model="opt1")
    elif args.mechanism == "rappor":
        mechanism = SymmetricUnaryEncoding(args.epsilon, args.m)
    else:
        mechanism = OptimizedUnaryEncoding(args.epsilon, args.m)
    runner = ShardedRunner(
        mechanism,
        num_shards=args.shards,
        chunk_size=args.chunk_size,
        packed=args.packed,
        sampler=resolve_sampler(args.sampler),
    )
    print(
        f"pipeline: mechanism={mechanism.name}, n={args.n}, m={args.m}, "
        f"eps={args.epsilon}, shards={runner.num_shards}, "
        f"chunk_size={args.chunk_size}, packed={args.packed}, "
        f"sampler={args.sampler}"
    )
    start = time.perf_counter()
    accumulator = runner.run(items, seed=args.seed, spill_dir=args.spill_dir)
    streamed_elapsed = time.perf_counter() - start
    estimates = accumulator.estimate(mechanism)

    if args.spill_dir is not None:
        _audit_spill(args.spill_dir, accumulator)
    if args.collect:
        _collect_over_service(args, accumulator)

    start = time.perf_counter()
    fast_counts = simulate_counts_from_true(
        truth, args.n, mechanism.a, mechanism.b, np.random.default_rng(args.seed)
    )
    fast_elapsed = time.perf_counter() - start

    mse = float(np.mean((estimates - truth) ** 2))
    if args.sampler == "fast" and args.packed:
        # ~3 packed buffers of chunk x m/8 bytes live at once.
        peak = args.chunk_size * accumulator.m * 3 // 8
    elif args.sampler == "fast":
        # packed kernel buffers plus the unpacked int8 chunk it returns.
        peak = args.chunk_size * accumulator.m * 2
    else:
        peak = args.chunk_size * accumulator.m * 9  # int8 chunk + float64 draw
    print(
        f"streamed-exact: {streamed_elapsed:.2f}s "
        f"({args.n / streamed_elapsed:,.0f} reports/s), "
        f"~{peak / 2**20:,.0f} MiB peak per worker"
    )
    print(
        f"fast baseline:  {fast_elapsed:.2f}s "
        f"(binomial shortcut, counts only)"
    )
    print(f"streamed-exact MSE vs truth: {mse:,.1f}")
    from .estimation import FrequencyEstimator

    fast_estimates = FrequencyEstimator.for_mechanism(mechanism, args.n).estimate(
        fast_counts
    )
    fast_mse = float(np.mean((fast_estimates - truth) ** 2))
    print(f"fast-path      MSE vs truth: {fast_mse:,.1f} (same law, same scale)")

    if args.topk is not None:
        from .estimation.topk import top_k_metrics

        metrics = top_k_metrics(estimates, truth, args.topk)
        ranked = ", ".join(
            f"{item}({estimates[item]:,.0f})" for item in metrics["estimated_top"]
        )
        print(
            f"top-{args.topk} heavy hitters: precision={metrics['precision']:.2f}, "
            f"ncr={metrics['ncr']:.2f}"
        )
        print(f"  estimated: {ranked}")
        print(f"  true:      {', '.join(str(i) for i in metrics['true_top'])}")


def _load_rounds_config(path: str) -> list[dict]:
    """Parse a ``--rounds-config`` JSON file into round specs.

    Accepts either a bare list of ``{"m": ..., "round_id": ...}``
    objects or ``{"rounds": [...]}`` wrapping one.  A round object may
    carry a ``"limits"`` object of per-round
    :class:`~repro.pipeline.ServiceLimits` field overrides; overrides
    are validated here, eagerly, so a typo'd field or out-of-range
    value fails at startup with the offending round named — not
    mid-round when the first session hits the quota path.
    """
    import json

    from .exceptions import ValidationError
    from .pipeline.service.quotas import ServiceLimits

    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if isinstance(spec, dict):
        spec = spec.get("rounds")
    if not isinstance(spec, list) or not spec:
        raise SystemExit(
            f"{path}: rounds config must be a non-empty JSON list of "
            '{"m": ..., "round_id": ...} objects (optionally under a '
            '"rounds" key)'
        )
    for entry in spec:
        if not isinstance(entry, dict) or "limits" not in entry:
            continue
        round_id = entry.get("round_id", "?")
        overrides = entry["limits"]
        if not isinstance(overrides, dict):
            raise SystemExit(
                f"{path}: round {round_id}: \"limits\" must be a JSON "
                f"object of ServiceLimits overrides, got "
                f"{type(overrides).__name__}"
            )
        try:
            ServiceLimits().with_overrides(overrides)
        except (ValidationError, ValueError) as exc:
            raise SystemExit(
                f"{path}: round {round_id}: invalid limits override: {exc}"
            ) from exc
    return spec


def _run_serve(args) -> None:
    """Run the exactly-once collection service until stopped.

    ``--exit-after N`` stops once N records have merged (smoke tests,
    bounded rounds); otherwise the service runs until interrupted.
    Either way shutdown is graceful: handlers cancelled, spill + ledger
    synced, final checkpoints written atomically.  ``--rounds-config``
    hosts many concurrent rounds; ``--keys-file`` authenticates each
    producer with its own key (the file hot-reloads on change, so keys
    rotate without a restart).  ``--shard NAME --control-key KEY`` runs
    the service as one named shard of a scale-out fleet: the control
    plane comes up, and with no rounds given the shard starts *bare* —
    a coordinator registers rounds (and pushes the routing table) over
    authenticated ``open-round`` / ``route-update`` calls.
    """
    import asyncio

    from .pipeline import CollectionService

    if args.auth_key is None and args.keys_file is None:
        raise SystemExit(
            "serve requires --auth-key (shared key) and/or --keys-file "
            "(per-producer keys)"
        )
    if args.spill_dir is None:
        raise SystemExit(
            "serve requires --spill-dir (the round's durable state directory)"
        )
    if args.shard is not None and args.control_key is None:
        raise SystemExit(
            "serve --shard requires --control-key (the fleet's control-plane "
            "secret); a shard without one can never receive rounds or "
            "routing tables"
        )
    if args.coordinator is not None and (
        args.shard is None or args.control_key is None
    ):
        raise SystemExit(
            "serve --coordinator requires --shard and --control-key "
            "(the announcement is a MAC'd join-fleet control call)"
        )
    if args.share_keeper is not None and args.blinded:
        raise SystemExit(
            "--share-keeper and --blinded are different split-trust roles; "
            "pick one per process"
        )
    if args.share_keeper is not None:
        mode = "keeper"
    elif args.blinded:
        mode = "blinded"
    else:
        mode = "collect"

    async def _serve() -> dict:
        kwargs = {
            "key": args.auth_key,
            "keys": args.keys_file,
            "store_root": args.spill_dir,
            "resume": args.resume,
            "control_key": args.control_key,
            "shard_name": args.shard,
            "mode": mode,
            "keeper_id": args.share_keeper,
        }
        if args.rounds_config is not None:
            rounds = _load_rounds_config(args.rounds_config)
            service = CollectionService(rounds=rounds, **kwargs)
            geometry = ", ".join(
                f"round {state.round_id} (m={state.m})"
                for state in service.registry.rounds()
            )
        elif args.control_key is not None:
            service = CollectionService(rounds=[], **kwargs)
            geometry = "bare shard; rounds arrive over the control plane"
        else:
            service = CollectionService(
                args.m, round_id=args.round_id, **kwargs
            )
            geometry = f"m={args.m}, round={args.round_id}"
        host, port = await service.serve(args.host, args.port)
        resumed = (
            f", resumed {service.recovered_records} ledgered record(s)"
            if args.resume
            else ""
        )
        if args.share_keeper is not None:
            role = f"share keeper {args.share_keeper!r} listening"
        elif args.shard is not None:
            role = f"shard {args.shard!r} listening"
        elif args.blinded:
            role = "blinded collector listening"
        else:
            role = "collection service listening"
        print(
            f"{role} on {host}:{port} ({geometry}){resumed}",
            flush=True,
        )
        if args.coordinator is not None:
            from .pipeline.service import control_call

            chost, colon, cport = args.coordinator.rpartition(":")
            if not colon:
                raise SystemExit(
                    f"--coordinator {args.coordinator!r} is not host:port"
                )
            reply, _ = await control_call(
                chost,
                int(cport),
                key=args.control_key,
                op="join-fleet",
                body={"name": args.shard, "host": host, "port": port},
            )
            what = (
                "joined the ring (live rebalance ran)"
                if reply.get("joined")
                else "re-announced (rounds resumed)"
            )
            print(
                f"shard {args.shard!r} {what} via coordinator at "
                f"{args.coordinator}",
                flush=True,
            )
        try:
            while (
                args.exit_after is None
                or service.records_merged
                < service.recovered_records + args.exit_after
            ):
                await asyncio.sleep(0.05)
        finally:
            await service.close()
        return service.stats()

    try:
        stats = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ncollection service interrupted; round state is durable")
        return
    print(
        f"collection service closed: {stats['records_merged']} merged, "
        f"{stats['records_duplicate']} duplicate, "
        f"{stats['records_refused']} refused, "
        f"{stats['sessions_opened']} session(s) from "
        f"{len(stats['producers'])} producer(s), n={stats['n']}"
    )
    if len(stats["rounds"]) > 1:
        for round_id, round_stats in sorted(stats["rounds"].items()):
            print(
                f"  round {round_id} (m={round_stats['m']}): "
                f"{round_stats['records_merged']} merged, "
                f"n={round_stats['n']}, "
                f"{round_stats['commits']} group commit(s) "
                f"({round_stats['cross_connection_batches']} cross-connection)"
            )


def _parse_shard_addresses(spec: str):
    """Parse ``--fleet a=host:port,b=host:port`` into ShardInfo entries."""
    from .exceptions import ValidationError
    from .pipeline.service import ShardInfo

    shards = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, address = entry.partition("=")
        host, colon, port = address.rpartition(":")
        if not sep or not colon or not name:
            raise SystemExit(
                f"--fleet entry {entry!r} is not name=host:port"
            )
        try:
            shards.append(ShardInfo(name=name, host=host, port=int(port)))
        except (ValueError, ValidationError) as exc:  # bad port / bad name
            raise SystemExit(f"--fleet entry {entry!r}: {exc}") from exc
    if not shards:
        raise SystemExit("--fleet must name at least one shard")
    return shards


def _run_coordinator(args) -> None:
    """Own round lifecycle across a shard fleet until the round is done.

    Pushes the consistent-hash routing table to every shard, registers
    each round (minting its registration token) fleet-wide, then waits:
    with ``--exit-after N`` until N records have merged across the
    fleet, otherwise until interrupted.  Either way the exit path runs
    the full lifecycle — ``drain`` (no new sessions anywhere, in-flight
    batches commit) then ``close-round`` (checkpoints, durable) — and
    prints per-shard totals.  Rounds are left closed, not retired, so
    ``aggregate`` can still pull their state.
    """
    import asyncio
    import os

    from .pipeline.service import RoundCoordinator

    resuming = (
        args.journal is not None
        and args.resume
        and os.path.exists(args.journal)
        and os.path.getsize(args.journal) > 0
    )
    if args.control_key is None or (args.fleet is None and not resuming):
        raise SystemExit(
            "coordinator requires --fleet (name=host:port,...) and "
            "--control-key (the fleet's control-plane secret); with "
            "--journal FILE --resume the fleet is replayed from the "
            "journal instead"
        )
    shards = (
        _parse_shard_addresses(args.fleet) if args.fleet is not None else []
    )
    keepers = (
        _parse_shard_addresses(args.keepers)
        if args.keepers is not None
        else []
    )
    if args.rounds_config is not None:
        rounds = _load_rounds_config(args.rounds_config)
    else:
        rounds = [{"m": args.m, "round_id": args.round_id}]

    async def _coordinate() -> None:
        if resuming:
            coordinator = RoundCoordinator.resume(
                args.journal, control_key=args.control_key
            )
            summary = await coordinator.reconcile()
            fleet = coordinator.table.shards()
            print(
                f"coordinator resumed from {args.journal}: epoch "
                f"{coordinator.table.epoch}, {len(fleet)} shard(s), "
                f"re-asserted round(s) {summary['rounds']}"
                + (
                    " and re-ran an interrupted migration"
                    if summary["migration_rerun"]
                    else ""
                ),
                flush=True,
            )
        else:
            coordinator = RoundCoordinator(
                shards,
                control_key=args.control_key,
                keepers=keepers,
                journal=args.journal,
            )
            epoch = await coordinator.push_routing()
            print(
                f"routing table epoch {epoch} pushed to {len(shards)} "
                "shard(s): "
                + ", ".join(f"{s.name}={s.host}:{s.port}" for s in shards),
                flush=True,
            )
            for spec in rounds:
                record = await coordinator.register_round(
                    spec["m"],
                    spec.get("round_id", 0),
                    limits=spec.get("limits"),
                    resume=args.resume,
                    mode="blinded" if keepers else "collect",
                )
                where = f"on {len(shards)} shard(s)"
                if keepers:
                    where += (
                        f" (split-trust, {len(keepers)} share keeper(s): "
                        + ", ".join(k.name for k in keepers)
                        + ")"
                    )
                print(
                    f"round {record.round_id} (m={record.m}) {record.phase} "
                    f"{where}",
                    flush=True,
                )
        if args.listen is not None:
            lhost, colon, lport = args.listen.rpartition(":")
            if not colon:
                raise SystemExit(
                    f"--listen {args.listen!r} is not host:port"
                )
            host, port = await coordinator.serve(lhost, int(lport))
            print(
                f"coordinator endpoint listening on {host}:{port} "
                "(hello-coordinator / join-fleet)",
                flush=True,
            )
        try:
            while True:
                status = await coordinator.status()
                merged = sum(
                    reply.get("records_merged", 0)
                    for reply in status["shards"].values()
                )
                if args.exit_after is not None and merged >= args.exit_after:
                    break
                await asyncio.sleep(0.2)
        finally:
            status = await coordinator.status()
            for record in list(coordinator.rounds.values()):
                await coordinator.drain(record.round_id)
                await coordinator.close_round(record.round_id)
                print(
                    f"round {record.round_id} drained and closed "
                    f"({record.phase})",
                    flush=True,
                )
            for shard in coordinator.table.shards():
                reply = status["shards"][shard.name]
                print(
                    f"  shard {shard.name}: "
                    f"{reply.get('records_merged', 0)} merged, "
                    f"{reply.get('sessions_opened', 0)} session(s), "
                    f"n={reply.get('n', 0)}"
                )
            await coordinator.close()

    try:
        asyncio.run(_coordinate())
    except KeyboardInterrupt:
        print(
            "\ncoordinator interrupted; shards keep serving "
            "(round state is durable)"
        )


def _run_aggregate(args) -> None:
    """Pull every shard's state for one round and tree-merge it.

    Each shard's accumulator arrives as a wire snapshot frame over the
    authenticated control plane and is verified against the digest the
    shard claimed in its MAC'd reply before merging.  ``--estimate``
    additionally calibrates the merged counts through the chosen
    ``--mechanism`` into the round's frequency estimates.  With
    ``--keepers`` the round is split-trust: every share keeper's state
    is pulled alongside the blinded collector shards, membership
    digests are reconciled, and the tally decodes via
    :func:`~repro.pipeline.service.combine_round` — the only point in
    the deployment where plain counts ever exist.
    """
    import asyncio

    from .pipeline.service import aggregate_round, combine_round

    if args.fleet is None or args.control_key is None:
        raise SystemExit(
            "aggregate requires --fleet (name=host:port,...) and "
            "--control-key (the fleet's control-plane secret)"
        )
    shards = _parse_shard_addresses(args.fleet)

    if args.keepers is not None:
        keepers = _parse_shard_addresses(args.keepers)
        result = asyncio.run(
            combine_round(
                shards,
                keepers,
                control_key=args.control_key,
                round_id=args.round_id,
            )
        )
        for pull in result.collector_pulls:
            print(
                f"blinded shard {pull.shard.name}: n={pull.accumulator.n}, "
                f"{pull.records_merged} record(s) merged, phase={pull.phase}"
            )
        for pull in result.keeper_pulls:
            print(
                f"share keeper {pull.shard.name}: n={pull.accumulator.n}, "
                f"{pull.records_merged} record(s) merged, phase={pull.phase}"
            )
        merged = result.accumulator
        print(
            f"combined round {args.round_id}: n={merged.n} decoded from "
            f"{len(result.collector_pulls)} blinded shard(s) + "
            f"{len(result.keeper_pulls)} share keeper(s), "
            f"m={merged.m}, digest {merged.digest()[:16]}…"
        )
    else:
        result = asyncio.run(
            aggregate_round(
                shards,
                control_key=args.control_key,
                round_id=args.round_id,
                fan_in=args.fan_in,
            )
        )
        for pull in result.pulls:
            print(
                f"shard {pull.shard.name}: n={pull.accumulator.n}, "
                f"{pull.records_merged} record(s) merged, phase={pull.phase}"
            )
        merged = result.accumulator
        print(
            f"aggregate round {args.round_id}: n={merged.n} over "
            f"{len(result.pulls)} shard(s) (fan-in {args.fan_in}), "
            f"m={merged.m}, digest {merged.digest()[:16]}…"
        )
    if args.estimate:
        from .mechanisms import OptimizedUnaryEncoding, SymmetricUnaryEncoding

        if args.mechanism == "idue":
            from .datasets import paper_default_spec
            from .mechanisms import IDUE

            mechanism = IDUE.optimized(
                paper_default_spec(args.epsilon, merged.m, rng=0), model="opt1"
            )
        elif args.mechanism == "rappor":
            mechanism = SymmetricUnaryEncoding(args.epsilon, merged.m)
        else:
            mechanism = OptimizedUnaryEncoding(args.epsilon, merged.m)
        estimate = merged.to_round_estimate(mechanism)
        top = sorted(
            range(merged.m),
            key=lambda item: estimate.estimates[item],
            reverse=True,
        )[: min(10, merged.m)]
        ranked = ", ".join(
            f"{item}({estimate.estimates[item]:,.0f})" for item in top
        )
        print(
            f"estimate ({mechanism.name}, eps={args.epsilon}): top items "
            f"{ranked}"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-idldp",
        description="Regenerate tables/figures of Gu et al., ICDE 2020 (ID-LDP).",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "table2",
            "fig3",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "compare",
            "pipeline",
            "serve",
            "coordinator",
            "aggregate",
        ],
        help="which table/figure to regenerate, 'compare' to rank all "
        "mechanisms on a synthetic workload, 'pipeline' to stream the "
        "exact per-user path through the sharded aggregation pipeline, "
        "'serve' to run the authenticated exactly-once collection service "
        "(one shard of a fleet with --shard), 'coordinator' to own round "
        "lifecycle across a shard fleet, or 'aggregate' to pull and "
        "tree-merge every shard's state for a round",
    )
    parser.add_argument(
        "--n", type=int, default=20_000, help="compare/pipeline: user count"
    )
    parser.add_argument(
        "--m", type=int, default=200, help="compare/pipeline: domain size"
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=2.0,
        help="compare/pipeline: system budget eps",
    )
    parser.add_argument(
        "--mechanism",
        choices=["oue", "rappor", "idue"],
        default="oue",
        help="pipeline: which unary mechanism to stream",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        help="pipeline: users per streamed chunk (bounds peak memory)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="pipeline: worker shards (default: CPU count)",
    )
    parser.add_argument(
        "--packed",
        action="store_true",
        help="pipeline: ship chunks in the np.packbits wire format",
    )
    parser.add_argument(
        "--sampler",
        choices=["bitexact", "fast"],
        default="bitexact",
        help="pipeline: perturbation kernel — 'bitexact' keeps the frozen "
        "fixed-seed float64 streams, 'fast' uses the packed bit-plane "
        "kernel (same distribution, 4-10x faster)",
    )
    parser.add_argument(
        "--topk",
        type=int,
        default=None,
        metavar="K",
        help="pipeline: also identify the top-K heavy hitters from the "
        "streamed estimates and score them against the true counts",
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help="pipeline: spill packed report chunks + shard snapshots to DIR "
        "(wire-format ShardStore), then audit the round by out-of-core "
        "replay against the snapshot digests",
    )
    parser.add_argument(
        "--collect",
        action="store_true",
        help="pipeline: round-trip shard snapshots through the "
        "exactly-once CollectionService on a localhost socket (with a "
        "blind-resend duplicate check) and verify the merged state is "
        "digest-identical to the in-memory round",
    )
    parser.add_argument(
        "--auth-key",
        metavar="KEY",
        default=None,
        help="shared round key (hex or passphrase, >= 8 bytes). serve: "
        "required. pipeline --collect: the producers' key (default: a "
        "fresh random key)",
    )
    parser.add_argument(
        "--producer-key",
        metavar="KEY",
        default=None,
        help="pipeline --collect: master secret for per-producer keys — "
        "every synthetic producer authenticates with its own key derived "
        "via derive_producer_key(master, producer_id) through a "
        "KeyRegistry, instead of one shared --auth-key",
    )
    parser.add_argument(
        "--rounds-config",
        metavar="FILE",
        default=None,
        help="serve: host many concurrent rounds from a JSON spec — a "
        'list of {"m": ..., "round_id": ...} objects (optionally under a '
        '"rounds" key); each round gets its own namespace under '
        "--spill-dir and its sessions are bound to the round's "
        "registration token",
    )
    parser.add_argument(
        "--keys-file",
        metavar="FILE",
        default=None,
        help="serve: per-producer keyfile ('producer = secret' lines, "
        "'*' for the default); the file is re-read whenever it changes "
        "on disk, so keys rotate without restarting the service",
    )
    parser.add_argument(
        "--shard",
        metavar="NAME",
        default=None,
        help="serve: run as the named shard of a scale-out fleet "
        "(requires --control-key; with no --rounds-config the shard "
        "starts bare and a coordinator registers rounds over the "
        "control plane)",
    )
    parser.add_argument(
        "--control-key",
        metavar="KEY",
        default=None,
        help="serve/coordinator/aggregate: the fleet's control-plane "
        "secret — authenticates drain / close / open-round / pull-state / "
        "route-update calls between coordinator, shards, and aggregator",
    )
    parser.add_argument(
        "--share-keeper",
        metavar="NAME",
        default=None,
        help="serve: run as the named share keeper of a split-trust "
        "deployment — this service accumulates one blinding stream "
        "(mod-2^64 word sums that decode nothing alone); producers bind "
        "their share sessions to NAME, so keep it stable across restarts",
    )
    parser.add_argument(
        "--blinded",
        action="store_true",
        help="serve: host rounds in blinded-collector mode — the service "
        "accumulates producers' blinded counts and never sees a raw "
        "report; the tally decodes only via 'aggregate --keepers'",
    )
    parser.add_argument(
        "--keepers",
        metavar="LIST",
        default=None,
        help="coordinator/aggregate: the share-keeper fleet as "
        "'name=host:port,...'. coordinator: registers every round as "
        "split-trust across shards and keepers; aggregate: decodes the "
        "round by combining all keeper states with the blinded "
        "collector state (combine_round)",
    )
    parser.add_argument(
        "--fleet",
        metavar="LIST",
        default=None,
        help="coordinator/aggregate: the shard fleet as "
        "'name=host:port,name=host:port,...' (stable names; the "
        "consistent-hash ring keys on names, never addresses)",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="coordinator: append-only durability journal (CRC-framed, "
        "fsync'd before every fleet action) — registrations, tokens, "
        "lifecycle transitions, fleet snapshots, migration markers; "
        "with --resume a non-empty journal is replayed instead of "
        "registering fresh rounds (kill -9 recovery)",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="coordinator: additionally serve a control endpoint where "
        "shards announce themselves (hello-coordinator after a restart, "
        "join-fleet to enter the ring and trigger a live rebalance)",
    )
    parser.add_argument(
        "--coordinator",
        metavar="HOST:PORT",
        default=None,
        help="serve --shard: announce this shard to a coordinator "
        "endpoint via a MAC'd join-fleet call once the socket is bound "
        "(auto-discovery; a new name triggers a live rebalance onto "
        "this shard)",
    )
    parser.add_argument(
        "--fan-in",
        type=int,
        default=2,
        metavar="F",
        help="aggregate: aggregation-tree fan-in (>= 2; every fan-in "
        "produces bit-identical counts — merge is exact)",
    )
    parser.add_argument(
        "--estimate",
        action="store_true",
        help="aggregate: also calibrate the merged counts through "
        "--mechanism/--epsilon into the round's frequency estimates",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve: recover an interrupted round (every hosted round, "
        "with --rounds-config) from the ledger + spill under --spill-dir "
        "instead of starting fresh; coordinator: register rounds with "
        "resume=True so shards replay their ledgers",
    )
    parser.add_argument(
        "--round-id",
        type=int,
        default=0,
        help="serve/coordinator/aggregate: collection-round tag sessions "
        "and records must match",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve: bind port (0 = ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--exit-after",
        type=int,
        default=None,
        metavar="N",
        help="serve: exit cleanly after N newly merged records; "
        "coordinator: drain + close once N records merged fleet-wide "
        "(smoke tests / bounded rounds); default runs until interrupted",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="pipeline: root seed for shard RNGs"
    )
    parser.add_argument(
        "--itemset",
        action="store_true",
        help="compare: use item-set input (PS mechanisms) instead of single-item",
    )
    parser.add_argument(
        "--ell", type=int, default=3, help="compare: padding length for --itemset"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use scaled-down workloads (same shapes, much faster)",
    )
    parser.add_argument(
        "--distribution",
        choices=["power-law", "uniform"],
        default="power-law",
        help="fig3 only: which synthetic dataset",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="additionally write the figure series to a CSV file "
        "(ignored for tables)",
    )
    args = parser.parse_args(argv)
    if args.topk is not None and not 1 <= args.topk <= args.m:
        parser.error(f"--topk must lie in [1, m={args.m}], got {args.topk}")
    presets = QUICK if args.quick else PAPER

    if args.experiment == "table1":
        print(table1_leakage_bounds()["text"])
        return 0
    if args.experiment == "table2":
        print(table2_toy_example()["text"])
        return 0
    if args.experiment == "compare":
        _run_compare(args)
        return 0
    if args.experiment == "pipeline":
        _run_pipeline(args)
        return 0
    if args.experiment == "serve":
        _run_serve(args)
        return 0
    if args.experiment == "coordinator":
        _run_coordinator(args)
        return 0
    if args.experiment == "aggregate":
        _run_aggregate(args)
        return 0

    if args.experiment == "fig3":
        result = figure3(presets.fig3, distribution=args.distribution)
    elif args.experiment == "fig4a":
        result = figure4a(presets.fig4a)
    elif args.experiment == "fig4b":
        result = figure4b(presets.fig4b)
    elif args.experiment == "fig5a":
        result = figure5(presets.fig5_retail)
    else:  # fig5b
        result = figure5(presets.fig5_msnbc)
    _print_figure(result)
    if args.csv:
        from .experiments.export import write_series_csv

        write_series_csv(result, args.csv)
        print(f"\nseries written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
