"""Behavioral tests for the exactly-once CollectionService.

Covers the four pillars one by one: authentication (wrong-key producers
merge nothing), idempotency (resends ack as duplicates, equivocation is
refused), backpressure/quotas (oversized frames, per-connection quotas,
session capacity shedding), and resumability (covered in depth by
``tests/integration/test_service_end_to_end.py``).
"""

from __future__ import annotations

import asyncio
import struct
import zlib

import numpy as np
import pytest

from repro.exceptions import (
    AuthenticationError,
    QuotaExceededError,
    ValidationError,
)
from repro.pipeline import (
    CollectionService,
    CountAccumulator,
    ServiceLimits,
    ServiceSession,
    send_records,
)
from repro.pipeline.collect import wire

M = 16
KEY = "0011223344556677"


def _chunk_frame(k=5, seed=0, m=M, round_id=0) -> bytes:
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return wire.dump_chunk(np.packbits(bits, axis=1), m, round_id=round_id)


def _snapshot_frame(n=4, seed=1, m=M, round_id=0) -> bytes:
    rng = np.random.default_rng(seed)
    acc = CountAccumulator(m, round_id=round_id)
    acc.add_reports((rng.random((n, m)) < 0.5).astype(np.int8))
    return wire.dumps(acc)


def _run(scenario, tmp_path, *, limits=None, **service_kwargs):
    """Start a service, run ``scenario(service, host, port)``, close."""

    async def main():
        service = CollectionService(
            M,
            key=KEY,
            store_root=str(tmp_path / "round"),
            limits=limits,
            **service_kwargs,
        )
        host, port = await service.serve()
        try:
            result = await scenario(service, host, port)
        finally:
            await service.close()
        return service, result

    return asyncio.run(main())


class TestAuthentication:
    def test_wrong_key_merges_nothing(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(AuthenticationError, match="refused"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key="totally-wrong-key",
                    producer_id="evil",
                    m=M,
                )

        service, _ = _run(scenario, tmp_path)
        assert service.accumulator.n == 0
        assert service.records_merged == 0
        assert service.sessions_rejected == 1
        assert "evil" not in service.producers_seen

    def test_round_mismatch_hello_refused(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(AuthenticationError, match="round mismatch"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="p",
                    m=M,
                    round_id=9,
                )

        service, _ = _run(scenario, tmp_path)
        assert service.accumulator.n == 0 and service.sessions_rejected == 1

    def test_right_key_merges(self, tmp_path):
        async def scenario(service, host, port):
            return await send_records(
                host,
                port,
                [_chunk_frame(), _snapshot_frame()],
                key=KEY,
                producer_id="edge-1",
                m=M,
            )

        service, acks = _run(scenario, tmp_path)
        assert [a.status for a in acks] == [wire.ACK_MERGED] * 2
        assert service.accumulator.n == 9  # 5 chunk rows + 4 snapshot users
        assert service.producers_seen == {"edge-1"}

    def test_bad_key_type_fails_at_construction(self, tmp_path):
        with pytest.raises(ValidationError, match="at least"):
            CollectionService(M, key="ab", store_root=str(tmp_path / "r"))


class TestExactlyOnce:
    def test_blind_resend_is_duplicate_not_double_count(self, tmp_path):
        frames = [_chunk_frame(seed=s) for s in range(3)]

        async def scenario(service, host, port):
            first = await send_records(
                host, port, frames, key=KEY, producer_id="p", m=M
            )
            digest = service.accumulator.digest()
            again = await send_records(
                host, port, frames, key=KEY, producer_id="p", m=M
            )
            return first, again, digest

        service, (first, again, digest) = _run(scenario, tmp_path)
        assert [a.status for a in first] == [wire.ACK_MERGED] * 3
        assert [a.status for a in again] == [wire.ACK_DUPLICATE] * 3
        assert service.accumulator.digest() == digest
        assert service.records_merged == 3
        assert service.records_duplicate == 3

    def test_same_seq_different_producers_both_merge(self, tmp_path):
        async def scenario(service, host, port):
            for producer in ("a", "b"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame(seed=ord(producer))],
                    key=KEY,
                    producer_id=producer,
                    m=M,
                )

        service, _ = _run(scenario, tmp_path)
        assert service.records_merged == 2

    def test_equivocation_refused_and_connection_dropped(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_chunk_frame(seed=1)], key=KEY,
                producer_id="p", m=M,
            )
            digest = service.accumulator.digest()
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                ack = await session.send(_chunk_frame(seed=2), 0)
            return digest, ack

        service, (digest, ack) = _run(scenario, tmp_path)
        assert ack.status == wire.ACK_REFUSED
        assert "equivocation" in ack.detail
        assert service.accumulator.digest() == digest
        assert service.records_refused == 1

    def test_concurrent_duplicate_sends_commit_once(self, tmp_path):
        frame = _chunk_frame(seed=5)

        async def scenario(service, host, port):
            return await asyncio.gather(
                *(
                    send_records(
                        host, port, [frame], key=KEY, producer_id="p", m=M
                    )
                    for _ in range(4)
                )
            )

        service, results = _run(scenario, tmp_path)
        statuses = sorted(acks[0].status for acks in results)
        assert statuses.count(wire.ACK_MERGED) == 1
        assert statuses.count(wire.ACK_DUPLICATE) == 3
        assert service.records_merged == 1
        assert service.accumulator.n == 5


class TestValidation:
    def test_record_for_wrong_round_refused(self, tmp_path):
        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                bad = wire.dump_chunk(
                    np.zeros((1, 2), dtype=np.uint8), M, round_id=9
                )
                return await session.send(bad, 0)

        service, ack = _run(scenario, tmp_path)
        assert ack.status == wire.ACK_REFUSED
        assert service.records_merged == 0

    def test_non_record_frame_after_handshake_refused(self, tmp_path):
        async def scenario(service, host, port):
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()
            try:
                # A bare snapshot (not wrapped in a Record) is a protocol
                # error once the session is open.
                session._writer.write(_snapshot_frame())
                await session._writer.drain()
                reply = await session._read("refusal")
                return reply
            finally:
                await session.close()

        service, reply = _run(scenario, tmp_path)
        assert isinstance(reply, wire.Ack)
        assert reply.status == wire.ACK_REFUSED
        assert "expected a record" in reply.detail
        assert service.records_merged == 0

    def test_garbage_record_payload_refused(self, tmp_path):
        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                corrupt = bytearray(_chunk_frame())
                corrupt[-1] ^= 0xFF
                return await session.send(bytes(corrupt), 0)

        service, ack = _run(scenario, tmp_path)
        assert ack.status == wire.ACK_REFUSED
        assert service.records_merged == 0
        assert service.records_refused == 1

    def test_chunk_with_set_pad_bits_refused_before_the_ledger(self, tmp_path):
        """A chunk whose pad bits are set (its producer packed a wider
        domain than the round's) is refused at staging: it is never
        ledgered or spilled, and the round's digest does not move."""
        m = 13  # 2 packed bytes, 3 pad bits
        rows = np.packbits(np.ones((3, m), dtype=np.uint8), axis=1)
        wide = rows.copy()
        wide[1, -1] |= 0b100

        async def main():
            service = CollectionService(
                m, key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            try:
                async with ServiceSession(
                    host, port, key=KEY, producer_id="p", m=m
                ) as session:
                    merged = await session.send(wire.dump_chunk(rows, m), 0)
                    before = (
                        service.accumulator.digest(),
                        len(service.ledger),
                        service.ledger.committed_offset,
                    )
                    refused = await session.send(wire.dump_chunk(wide, m), 1)
                    after = (
                        service.accumulator.digest(),
                        len(service.ledger),
                        service.ledger.committed_offset,
                    )
            finally:
                await service.close()
            return service, merged, refused, before, after

        service, merged, refused, before, after = asyncio.run(main())
        assert merged.status == wire.ACK_MERGED
        assert refused.status == wire.ACK_REFUSED
        assert after == before
        assert service.ledger.seen("p", 1) is None
        assert service.records_refused == 1
        assert service.accumulator.n == 3


class TestQuotasAndBackpressure:
    def test_oversized_frame_refused(self, tmp_path):
        limits = ServiceLimits(max_frame_bytes=256)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                return await session.send(_chunk_frame(k=2000), 0)

        service, ack = _run(scenario, tmp_path, limits=limits)
        assert ack.status == wire.ACK_REFUSED
        assert "caps frames" in ack.detail
        assert service.accumulator.n == 0

    def test_producer_refuses_oversized_reply_header(self):
        """A peer answering HELLO with a header that declares a 4 GiB
        payload is refused at header-parse time, not buffered."""
        head = bytearray(wire.dumps(CountAccumulator(M))[: wire.HEADER_SIZE])
        head[32:36] = struct.pack("<I", 2**32 - 1)
        head[36:40] = struct.pack("<I", zlib.crc32(bytes(head[:36])))

        async def scenario():
            release = asyncio.Event()

            async def handle(reader, writer):
                writer.write(bytes(head))
                await writer.drain()
                await release.wait()  # hold the connection open
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            try:
                with pytest.raises(QuotaExceededError, match="caps frames"):
                    await asyncio.wait_for(session.connect(), timeout=1.0)
            finally:
                release.set()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_connection_frame_quota_sheds_but_keeps_acked(self, tmp_path):
        # Handshake costs 2 producer frames; allow 2 records after that.
        limits = ServiceLimits(max_connection_frames=4)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                acks = [
                    await session.send(_chunk_frame(seed=s), s)
                    for s in range(2)
                ]
                over = await session.send(_chunk_frame(seed=9), 9)
            return acks, over

        service, (acks, over) = _run(scenario, tmp_path, limits=limits)
        assert [a.status for a in acks] == [wire.ACK_MERGED] * 2
        assert over.status == wire.ACK_REFUSED
        assert "frame quota" in over.detail
        # Shedding is not a rollback: the two acked records stay merged.
        assert service.records_merged == 2

    def test_connection_byte_quota_enforced(self, tmp_path):
        limits = ServiceLimits(max_connection_bytes=600)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                acks = []
                for seq in range(10):
                    ack = await session.send(_chunk_frame(seed=seq), seq)
                    acks.append(ack)
                    if ack.status == wire.ACK_REFUSED:
                        break
            return acks

        service, acks = _run(scenario, tmp_path, limits=limits)
        assert acks[-1].status == wire.ACK_REFUSED
        assert "byte quota" in acks[-1].detail
        assert service.records_merged == len(acks) - 1

    def test_session_capacity_sheds_when_wait_queue_full(self, tmp_path):
        limits = ServiceLimits(max_sessions=1, max_waiting_sessions=0)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="first", m=M
            ):
                # The slot is held; a second arrival cannot even wait.
                with pytest.raises(AuthenticationError, match="capacity"):
                    await send_records(
                        host,
                        port,
                        [_chunk_frame()],
                        key=KEY,
                        producer_id="second",
                        m=M,
                    )

        service, _ = _run(scenario, tmp_path, limits=limits)
        assert service.sessions_shed == 1

    def test_stalled_arrivals_proceed_once_a_slot_frees(self, tmp_path):
        limits = ServiceLimits(max_sessions=1, max_waiting_sessions=8)

        async def scenario(service, host, port):
            acks = await asyncio.gather(
                *(
                    send_records(
                        host,
                        port,
                        [_chunk_frame(seed=s)],
                        key=KEY,
                        producer_id=f"p{s}",
                        m=M,
                    )
                    for s in range(5)
                )
            )
            return acks

        service, acks = _run(scenario, tmp_path, limits=limits)
        assert all(batch[0].status == wire.ACK_MERGED for batch in acks)
        assert service.records_merged == 5
        assert service.sessions_shed == 0


class TestLifecycle:
    def test_fresh_start_over_existing_round_refused(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_chunk_frame()], key=KEY, producer_id="p", m=M
            )

        _run(scenario, tmp_path)
        with pytest.raises(ValidationError, match="resume"):
            CollectionService(M, key=KEY, store_root=str(tmp_path / "round"))

    def test_close_cancels_stalled_session(self, tmp_path):
        """An authenticated session that went quiet on a frame boundary
        cannot hang shutdown, and owes nothing, so it did not fail."""

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()  # authenticated, then... nothing
            await asyncio.sleep(0.05)
            await asyncio.wait_for(service.close(), timeout=2.0)
            await session.close()
            return service

        service = asyncio.run(main())
        assert service.connections_failed == 0
        assert service.last_connection_error is None

    @staticmethod
    def _close_during(tmp_path, act, *, limits=None):
        """Serve, authenticate one producer, run ``act(session)``, then
        close the service while that session is still open."""

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round"), limits=limits
            )
            host, port = await service.serve()
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()
            await act(session)
            await asyncio.sleep(0.05)
            await asyncio.wait_for(service.close(), timeout=2.0)
            await session.close()
            return service

        return asyncio.run(main())

    def test_close_after_every_ack_is_not_a_failure(self, tmp_path):
        """A producer that got all its acks and is about to hang up when
        close() cancels its handler finished cleanly."""

        async def act(session):
            for seq in range(3):
                await session.send_nowait(_chunk_frame(seed=seq), seq)
            for seq in range(3):
                ack = await session.read_ack(seq)
                assert ack.status == wire.ACK_MERGED

        service = self._close_during(tmp_path, act)
        assert service.records_merged == 3
        assert service.connections_failed == 0
        assert service.last_connection_error is None

    @pytest.mark.parametrize(
        "cut",
        [wire.HEADER_SIZE - 7, wire.HEADER_SIZE, wire.HEADER_SIZE + 3],
        ids=["inside-header", "after-header", "inside-payload"],
    )
    def test_close_mid_frame_is_a_failure(self, tmp_path, cut):
        """A record cut anywhere inside its frame — header partly
        buffered, header read with no payload yet, payload partly
        buffered — was cut mid-read."""

        async def act(session):
            record = wire.dumps(
                wire.Record(m=M, round_id=0, seq=0, frame=_chunk_frame())
            )
            session._writer.write(record[:cut])
            await session._writer.drain()

        service = self._close_during(tmp_path, act)
        assert service.records_merged == 0
        assert service.connections_failed == 1
        assert "closed during" in service.last_connection_error

    def test_close_with_staged_record_unacked_is_a_failure(self, tmp_path):
        """A staged record still waiting for its commit (the idle flush
        is far away) was never acked."""

        async def act(session):
            await session.send_nowait(_chunk_frame(), 0)

        service = self._close_during(
            tmp_path, act, limits=ServiceLimits(commit_idle_seconds=30.0)
        )
        assert service.records_merged == 0
        assert service.connections_failed == 1
        assert "closed during" in service.last_connection_error

    def test_stats_shape(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_chunk_frame()], key=KEY, producer_id="p", m=M
            )

        service, _ = _run(scenario, tmp_path)
        stats = service.stats()
        assert stats["records_merged"] == 1
        assert stats["producers"] == ["p"]
        assert stats["n"] == service.accumulator.n


class TestServeAndClose:
    def test_serve_twice_rejected(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(ValidationError, match="already serving"):
                await service.serve()

        _run(scenario, tmp_path)

    def test_serve_after_close_rejected(self, tmp_path):
        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            await service.close()
            with pytest.raises(ValidationError, match="closed"):
                await service.serve()

        asyncio.run(main())

    def test_close_without_serve_is_noop(self, tmp_path):
        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            await service.close()
            await service.close()
            return service

        service = asyncio.run(main())
        assert service.accumulator.n == 0
        assert service.connections_failed == 0

    def test_close_after_clean_sessions_keeps_state(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_snapshot_frame(seed=8)], key=KEY,
                producer_id="p", m=M,
            )

        service, _ = _run(scenario, tmp_path)
        expected = CountAccumulator(M)
        expected.absorb_frame(wire.loads(_snapshot_frame(seed=8)))
        assert service.accumulator.digest() == expected.digest()
        assert service.records_merged == 1
        # Close persisted the round: a resumed service rebuilds it.
        resumed = CollectionService(
            M, key=KEY, store_root=str(tmp_path / "round"), resume=True
        )
        try:
            assert resumed.accumulator.digest() == expected.digest()
        finally:
            asyncio.run(resumed.close())

    def test_close_cancels_half_sent_hello(self, tmp_path):
        """A producer stalled mid-HELLO cannot hang shutdown."""

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            _, writer = await asyncio.open_connection(host, port)
            writer.write(_snapshot_frame()[:10])
            await writer.drain()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(service.close(), timeout=2.0)
            writer.close()
            return service

        service = asyncio.run(main())
        assert service.accumulator.n == 0
        assert service.connections_failed == 1


class TestSocketIngest:
    def test_multiple_connections_merge_exactly(self, tmp_path):
        async def scenario(service, host, port):
            return await asyncio.gather(
                *(
                    send_records(
                        host, port, [_snapshot_frame(seed=seed)], key=KEY,
                        producer_id=f"edge-{seed}", m=M,
                    )
                    for seed in range(6)
                )
            )

        service, results = _run(scenario, tmp_path)
        assert [acks[0].status for acks in results] == [wire.ACK_MERGED] * 6
        expected = CountAccumulator.merge_all(
            wire.loads(_snapshot_frame(seed=seed)) for seed in range(6)
        )
        assert service.accumulator.digest() == expected.digest()
        assert service.records_merged == 6

    def test_failed_connection_does_not_kill_server(self, tmp_path):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"garbage-not-a-frame" * 4)
            await writer.drain()
            assert await reader.read() == b""  # the service hangs up
            writer.close()
            assert service.connections_failed == 1
            return await send_records(
                host, port, [_chunk_frame(seed=3)], key=KEY,
                producer_id="p", m=M,
            )

        service, acks = _run(scenario, tmp_path)
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert service.records_merged == 1

    def test_refused_record_resent_repaired_counts_once(self, tmp_path):
        """A corrupt record merges nothing, and resending the repaired
        batch lands every record exactly once."""
        good, fixed = _chunk_frame(seed=5), _chunk_frame(seed=6)
        corrupt = bytearray(fixed)
        corrupt[-1] ^= 0xFF

        async def scenario(service, host, port):
            first = await send_records(
                host, port, [good, bytes(corrupt)], key=KEY,
                producer_id="p", m=M, raise_on_refusal=False,
            )
            again = await send_records(
                host, port, [good, fixed], key=KEY, producer_id="p", m=M,
            )
            return first, again

        service, (first, again) = _run(scenario, tmp_path)
        assert [a.status for a in first] == [wire.ACK_MERGED, wire.ACK_REFUSED]
        assert [a.status for a in again] == [wire.ACK_DUPLICATE, wire.ACK_MERGED]
        expected = CountAccumulator(M)
        for frame in (good, fixed):
            expected.absorb_frame(wire.loads(frame))
        assert service.accumulator.digest() == expected.digest()


class TestTimeouts:
    def test_slow_loris_handshake_is_reaped_and_slot_freed(self, tmp_path):
        """An unauthenticated connection that sends nothing must not hold
        a session slot past the handshake deadline."""
        limits = ServiceLimits(
            max_sessions=1,
            max_waiting_sessions=0,
            handshake_timeout_seconds=0.1,
        )

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round"), limits=limits
            )
            host, port = await service.serve()
            try:
                # The attacker: connects, says nothing, holds the slot.
                _, loris = await asyncio.open_connection(host, port)
                await asyncio.sleep(0.3)  # past the handshake deadline
                # The slot must be free again for a real producer.
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="legit",
                    m=M,
                )
                loris.close()
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert service.sessions_rejected == 1
        assert service.records_merged == 1

    def test_idle_authenticated_session_is_reaped(self, tmp_path):
        limits = ServiceLimits(
            max_sessions=1,
            max_waiting_sessions=0,
            session_idle_seconds=0.1,
        )

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round"), limits=limits
            )
            host, port = await service.serve()
            try:
                idler = ServiceSession(
                    host, port, key=KEY, producer_id="idler", m=M
                )
                await idler.connect()  # authenticated, then silence
                await asyncio.sleep(0.3)  # past the idle deadline
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="legit",
                    m=M,
                )
                await idler.close()
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert "idle" in service.last_connection_error


class TestCommitFailureRepair:
    def test_failed_fsync_rolls_the_spill_back(self, tmp_path):
        """An fsync error mid-commit must not leave spilled frames without
        ledger entries — that state would make the round unrecoverable."""

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            real_sync = service._writer.sync
            service._writer.sync = lambda: (_ for _ in ()).throw(
                OSError("simulated ENOSPC")
            )
            try:
                with pytest.raises(Exception):
                    await send_records(
                        host,
                        port,
                        [_chunk_frame(seed=1)],
                        key=KEY,
                        producer_id="p",
                        m=M,
                    )
                # The failed batch rolled back: spill boundary equals the
                # ledger's committed offset, nothing merged.
                assert service._writer.end_offset == 0
                assert service.ledger.committed_offset == 0
                assert service.accumulator.n == 0
                # Disk "recovers"; the producer's blind resend merges once.
                service._writer.sync = real_sync
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame(seed=1)],
                    key=KEY,
                    producer_id="p",
                    m=M,
                )
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert service.records_merged == 1
        # The closed round restarts cleanly — the invariant the rollback
        # exists to protect.
        resumed = CollectionService(
            M, key=KEY, store_root=str(tmp_path / "round"), resume=True
        )
        assert resumed.recovered_records == 1

    def test_close_during_inline_commit_stays_consistent(self, tmp_path):
        """Cancelling handlers mid-commit (service shutdown) must not
        abandon a batch between its fsyncs: close() drains shielded
        commits, and a resume sees a consistent round."""

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            real_sync = service._writer.sync

            def slow_sync():
                import time

                time.sleep(0.15)  # hold the commit in its fsync window
                real_sync()

            service._writer.sync = slow_sync
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()
            await session.send_nowait(_chunk_frame(seed=2), 0)
            await asyncio.sleep(0.05)  # let the batch enter its commit
            await asyncio.wait_for(service.close(), timeout=5.0)
            await session.close()
            return service

        asyncio.run(main())
        # Whatever the ack's fate, durable state must be self-consistent:
        # the record is either fully committed (drained shielded commit)
        # or fully absent — resume must never see spill/ledger skew.
        resumed = CollectionService(
            M, key=KEY, store_root=str(tmp_path / "round"), resume=True
        )
        assert resumed.recovered_records in (0, 1)
        assert resumed.accumulator.n == 5 * resumed.recovered_records


class TestPipelineFlowControl:
    def test_large_batch_does_not_deadlock(self, tmp_path):
        """Thousands of records in one send_records call must complete:
        the bounded in-flight window keeps unread acks from filling the
        socket buffers and flow-control-deadlocking both sides."""
        frames = [_chunk_frame(k=1, seed=s) for s in range(3000)]

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            try:
                acks = await asyncio.wait_for(
                    send_records(
                        host, port, frames, key=KEY, producer_id="bulk", m=M
                    ),
                    timeout=60.0,
                )
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert len(acks) == 3000
        assert all(a.status == wire.ACK_MERGED for a in acks)
        assert service.records_merged == 3000
        assert service.accumulator.n == 3000

    def test_mid_frame_stall_is_dropped_and_slot_freed(self, tmp_path):
        """A producer that sends a header and then stalls mid-payload is
        broken, not idle: the connection drops (staged records are
        simply resent later) and the session slot frees."""
        limits = ServiceLimits(
            max_sessions=1,
            max_waiting_sessions=0,
            session_idle_seconds=0.1,
        )

        async def main():
            service = CollectionService(
                M, key=KEY, store_root=str(tmp_path / "round"), limits=limits
            )
            host, port = await service.serve()
            try:
                staller = ServiceSession(
                    host, port, key=KEY, producer_id="staller", m=M
                )
                await staller.connect()
                # One complete record (staged), then a torn one.
                await staller.send_nowait(_chunk_frame(seed=1), 0)
                record = wire.dumps(
                    wire.Record(
                        m=M, round_id=0, seq=1, frame=_chunk_frame(seed=2)
                    )
                )
                staller._writer.write(record[: wire.HEADER_SIZE + 3])
                await staller._writer.drain()
                await asyncio.sleep(0.4)  # past the payload deadline
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame(seed=9)],
                    key=KEY,
                    producer_id="legit",
                    m=M,
                )
                await staller.close()
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert "mid-frame" in service.last_connection_error
