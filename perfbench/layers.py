"""Which ``repro`` functions make up each layer, and the per-layer metrics.

:func:`install` wraps the layers' public entry points with the tracer;
:func:`derive` turns the recorded spans (generator plus every forked
service process) into the per-layer metrics BENCHMARK.json names.
Spans are assigned to a benchmark phase by their start time, using the
phase windows the generator records on the same monotonic clock.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from tracing import Tracer, self_times

NS = 1e9


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _buffer_len(args, kwargs, result) -> int:
    return memoryview(args[0] if args else kwargs["data"]).nbytes


def _decode_at_len(args, kwargs, result) -> int:
    offset = args[1] if len(args) > 1 else kwargs.get("offset", 0)
    return result[1] - int(offset)


def _client_record(args, kwargs) -> str:
    seq = kwargs["seq"] if "seq" in kwargs else args[-1]
    return f"{args[0].producer_id}/{seq}"


def _staged_record(args, kwargs) -> str:
    return f"{args[1]}/{args[2].seq}"


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (call before forking services)."""
    from repro import optim
    from repro.kernels import bernoulli
    from repro.mechanisms.base import UnaryMechanism
    from repro.mechanisms.idue_ps import IDUEPS
    from repro.pipeline.accumulator import CountAccumulator
    from repro.pipeline.collect import store, wire
    from repro.pipeline.service import (
        aggregator,
        auth,
        client,
        commit,
        ledger,
        rounds,
        server,
    )

    def read_frame_len(args, kwargs, result) -> int:
        if result is None:  # clean end of stream
            return 0
        rows = getattr(result, "rows", None)
        payload = rows.nbytes if rows is not None else 8 * result.m
        return wire.HEADER_SIZE + payload + 4

    wrap = tracer.wrap
    wrap(optim, "solve", "optim.solve")
    wrap(bernoulli, "packed_bernoulli", "kernels.packed_bernoulli")
    wrap(bernoulli, "packed_column_counts", "kernels.packed_column_counts")
    wrap(UnaryMechanism, "perturb_many_packed", "mechanisms.perturb_many_packed")
    wrap(IDUEPS, "perturb_many_packed", "mechanisms.perturb_many_packed")
    wrap(wire, "dump_chunk", "wire.dump_chunk", nbytes=_result_len, encode=True)
    wrap(wire, "dumps", "wire.encode", nbytes=_result_len, encode=True)
    wrap(wire, "loads", "wire.decode", nbytes=_buffer_len)
    wrap(wire, "decode_frame_at", "wire.decode", nbytes=_decode_at_len)
    wrap(wire, "read_frame", "wire.decode", nbytes=read_frame_len)
    wrap(store.ShardChunkWriter, "append_frame", "store.append_frame")
    wrap(store.ShardChunkWriter, "sync", "store.sync")
    wrap(store.ShardStore, "recover_shard", "store.recover_shard")
    wrap(ledger.IdempotencyLedger, "append", "ledger.append")
    wrap(ledger.IdempotencyLedger, "sync", "ledger.sync")
    wrap(ledger.IdempotencyLedger, "load", "ledger.load")
    wrap(
        rounds.RoundState, "stage_record", "rounds.stage_record", record=_staged_record
    )
    wrap(commit.GroupCommitScheduler, "submit", "commit.submit")
    wrap(auth, "session_mac", "auth.session_mac")
    wrap(auth, "verify_session_mac", "auth.verify_session_mac")
    wrap(client.ServiceSession, "connect", "client.connect")
    wrap(client.ServiceSession, "send_nowait", "client.send", record=_client_record)
    wrap(client.ServiceSession, "read_ack", "client.read_ack", record=_client_record)
    wrap(server.CollectionService, "__init__", "server.init")
    wrap(CountAccumulator, "add_packed_reports", "accumulator.add_packed_reports")
    wrap(CountAccumulator, "to_round_estimate", "estimation.to_round_estimate")
    wrap(aggregator, "pull_shard_state", "aggregator.pull_shard_state")
    wrap(aggregator, "merge_tree", "aggregator.merge_tree")
    tracer.patch(
        wire,
        "payload_copy_hook",
        lambda site, nbytes: tracer.event("wire.payload_copy", nbytes),
    )


# Per-layer metric -> the end-to-end metric @ workload a change to that
# layer should move, the prediction the change is judged against.  Names
# and units are in BENCHMARK.json.
PREDICTS = {
    "ack_p99_ms": "end-to-end tail @ churn_small; unbounded, too noisy to gate",
    "optim.solve_s": "setup_s @ every workload",
    "kernels.packed_bernoulli_s": "produce_reports_per_s @ produce_itemset",
    "kernels.packed_bernoulli_calls": "produce_reports_per_s @ produce_itemset",
    "kernels.packed_column_counts_s": "ingest_reports_per_s @ bulk_cycle",
    # Self time of the mechanisms layer: PaddingSampler.sample_many is not
    # split out, because on the single-item workloads it would read 0 on
    # every run; the kernels are.
    "mechanisms.perturb_many_packed_s": (
        "produce_reports_per_s @ produce_itemset"
        " (self time incl. padding-and-sampling)"
    ),
    "wire.dump_chunk_s": "produce_reports_per_s @ produce_itemset",
    "wire.encode_bytes_per_payload_byte":
        "ingest_reports_per_s @ bulk_cycle, not churn_small",
    "wire.decode_bytes_per_payload_byte":
        "ingest_reports_per_s @ bulk_cycle, not churn_small",
    "wire.decode_calls": "ingest_reports_per_s @ bulk_cycle",
    "wire.payload_copy_bytes": "ingest_reports_per_s @ bulk_cycle",
    "store.append_frame_s": "ingest_reports_per_s @ bulk_cycle",
    "store.bytes_written_per_payload_byte": "ingest_reports_per_s @ bulk_cycle",
    "store.sync_s": "ack_p50_ms @ churn_small",
    "store.syncs": "ack_p50_ms @ churn_small",
    "store.recover_shard_s": "recovery_s @ bulk_cycle",
    "ledger.append_s": "ack_p50_ms, ingest_reports_per_s @ churn_small",
    "ledger.sync_s": "ack_p50_ms, ingest_reports_per_s @ churn_small",
    "ledger.syncs": "ack_p50_ms, ingest_reports_per_s @ churn_small",
    "ledger.load_s": "recovery_s @ every service workload",
    "commit.commits": "ack_p50_ms, ack_p99_ms @ churn_small",
    "commit.records_per_commit": "ack_p50_ms, ack_p99_ms @ churn_small",
    "commit.fsyncs_per_commit": "ack_p50_ms, ack_p99_ms @ churn_small",
    "commit.submit_s": "ack_p50_ms, ack_p99_ms @ churn_small",
    "commit.submit_resend_s": "resend_reports_per_s @ bulk_cycle",
    "auth.session_mac_s": "ingest_reports_per_s @ churn_small, not bulk_cycle",
    "auth.handshakes": "ingest_reports_per_s @ churn_small, not bulk_cycle",
    "client.connect_s": "ingest_reports_per_s @ churn_small, not bulk_cycle",
    "server.resume_s": "recovery_s @ every workload",
    "server.cpu_share": "ingest_reports_per_s @ both service-heavy",
    "server.cpu_ms_per_record": "ingest_reports_per_s @ both service-heavy",
    "accumulator.add_packed_reports_s": "ingest_reports_per_s @ bulk_cycle",
    "accumulator.inprocess_reports_per_s":
        "same-run floor for ingest_reports_per_s @ bulk_cycle",
    "aggregator.pull_shard_state_s": "none (round close, ~ms)",
    "aggregator.merge_tree_s": "none (round close, ~ms)",
    "estimation.to_round_estimate_s": "none (round close, ~ms)",
    "generator.cpu_share": "none (shows the generator is not the limit)",
    "trace.overhead_ratio": "none (traced vs untraced timed phases)",
}


def derive(spans, phases: dict, info: dict) -> dict:
    """Per-layer metrics from *spans*.

    *phases* maps phase name -> list of ``(start_ns, end_ns)`` windows,
    one per sample of that phase; each span belongs to the window its
    start falls in.  Times and counts are per sample of their phase
    (per setup, produce pass, recovery, resend) and totals over the
    whole ingest, so each compares with the end-to-end number it feeds.
    *info* carries what is measured outside the spans: service stats,
    CPU shares, on-disk sizes, the untraced ack tail.
    """
    windows = sorted((t0, t1, phase) for phase, ws in phases.items() for t0, t1 in ws)
    starts = [t0 for t0, _t1, _phase in windows]
    # The ingest segments add up to one ingest, and the resend parts of a
    # cycle to one resend; other phases repeat.
    samples = {phase: len(ws) for phase, ws in phases.items()}
    samples["ingest"] = 1
    samples["resend"] = info["cycles"]

    def phase_of(t: int):
        index = bisect.bisect_right(starts, t) - 1
        if index >= 0 and t <= windows[index][1]:
            return windows[index][2]
        return None

    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    nbytes = defaultdict(int)
    for sid, _parent, name, t0, t1, _rec, size in spans:
        key = (phase_of(t0), name)
        total[key] += (t1 - t0) / NS
        self_total[key] += selfs[sid] / NS
        calls[key] += 1
        nbytes[key] += size

    def s(phase, name, table=total):
        return table[phase, name] / max(samples.get(phase, 0), 1)

    def n(phase, name):
        return calls[phase, name] / max(samples.get(phase, 0), 1)

    payload = max(info["payload_bytes"], 1)
    commits = max(info["commits"], 1)
    return {
        "ack_p99_ms": info["ack_p99_ms"],
        "optim.solve_s": s("setup", "optim.solve"),
        "kernels.packed_bernoulli_s": s("produce", "kernels.packed_bernoulli"),
        "kernels.packed_bernoulli_calls": n("produce", "kernels.packed_bernoulli"),
        "kernels.packed_column_counts_s": s("ingest", "kernels.packed_column_counts"),
        "mechanisms.perturb_many_packed_s": s(
            "produce", "mechanisms.perturb_many_packed", self_total
        ),
        "wire.dump_chunk_s": s("produce", "wire.dump_chunk"),
        "wire.encode_bytes_per_payload_byte": (
            nbytes["ingest", "wire.encode"] + nbytes["ingest", "wire.dump_chunk"]
        )
        / payload,
        "wire.decode_bytes_per_payload_byte": nbytes["ingest", "wire.decode"] / payload,
        "wire.decode_calls": n("ingest", "wire.decode"),
        "wire.payload_copy_bytes": nbytes["ingest", "wire.payload_copy"],
        "store.append_frame_s": s("ingest", "store.append_frame"),
        "store.bytes_written_per_payload_byte": info["spill_bytes"] / payload,
        "store.sync_s": s("ingest", "store.sync"),
        "store.syncs": n("ingest", "store.sync"),
        "store.recover_shard_s": s("recovery", "store.recover_shard"),
        "ledger.append_s": s("ingest", "ledger.append"),
        "ledger.sync_s": s("ingest", "ledger.sync"),
        "ledger.syncs": n("ingest", "ledger.sync"),
        "ledger.load_s": s("recovery", "ledger.load"),
        "commit.commits": info["commits"],
        "commit.records_per_commit": info["records_committed"] / commits,
        "commit.fsyncs_per_commit": (
            calls["ingest", "store.sync"] + calls["ingest", "ledger.sync"]
        )
        / commits,
        "commit.submit_s": s("ingest", "commit.submit"),
        "commit.submit_resend_s": s("resend", "commit.submit"),
        "auth.session_mac_s": s("ingest", "auth.session_mac"),
        "auth.handshakes": n("ingest", "auth.verify_session_mac"),
        "client.connect_s": s("ingest", "client.connect"),
        "server.resume_s": s("recovery", "server.init"),
        "server.cpu_share": info["server_cpu_share"],
        "server.cpu_ms_per_record": info["server_cpu_ms_per_record"],
        "accumulator.add_packed_reports_s": s(
            "ingest", "accumulator.add_packed_reports"
        ),
        "accumulator.inprocess_reports_per_s": info["inprocess_reports_per_s"],
        "aggregator.pull_shard_state_s": s("aggregate", "aggregator.pull_shard_state"),
        "aggregator.merge_tree_s": s("aggregate", "aggregator.merge_tree"),
        "estimation.to_round_estimate_s": s(
            "aggregate", "estimation.to_round_estimate"
        ),
        "generator.cpu_share": info["generator_cpu_share"],
        "trace.overhead_ratio": info["trace_overhead_ratio"],
    }
