"""Behavioral tests for the split-trust share layer.

Four stories, bottom up:

* :class:`BlindedAccumulator` is role-pinned party state — it absorbs
  only its own role's frames, merges only like state, and its snapshot
  frame round-trips exactly;
* the membership digest is an order-independent additive fingerprint of
  the committed ``(producer, seq)`` set, with loud decode errors;
* the transcript helpers (:func:`derive_share_secret`,
  :func:`keeper_party_label`) are deterministic and domain-separated —
  every keeper, producer, round, and geometry gets its own stream;
* a real 1-collector + 2-keeper deployment over sockets: the combined
  decode is **bit-identical to the direct unblinded tally** for chunks
  drawn from *both* samplers, blind resends ack as duplicates on every
  party, and the parties' membership digests agree.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import OptimizedUnaryEncoding
from repro.exceptions import AuthenticationError, ValidationError
from repro.kernels import BITEXACT, FAST
from repro.pipeline import CollectionService, CountAccumulator
from repro.pipeline.collect import wire
from repro.pipeline.engine import iter_report_chunks
from repro.pipeline.service import (
    MODE_KEEPER,
    ROLE_BLINDED,
    ROLE_KEEPER,
    BlindedAccumulator,
    combine_accumulators,
    derive_share_secret,
    keeper_party_label,
    send_records,
    send_split_trust,
)
from repro.pipeline.service.shares import (
    add_member,
    blind_report_chunk,
    decode_member_digest,
    empty_member_digest,
    encode_member_digest,
    member_stamp,
)

M = 16
COLLECTOR_KEY = "collector-key-0011223344556677"
KEEPER_KEYS = {
    "keeper-a": "keeper-a-key-8899aabbccddeeff",
    "keeper-b": "keeper-b-key-ffeeddccbbaa9988",
}


def _packed(k=5, seed=0, m=M):
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return np.packbits(bits, axis=1), bits


class TestBlindedAccumulator:
    def test_rejects_unknown_role(self):
        with pytest.raises(ValidationError, match="role"):
            BlindedAccumulator(M, role="auditor")

    def test_absorbs_only_its_own_roles_frames(self):
        blinded = BlindedAccumulator(M, role=ROLE_BLINDED)
        keeper = BlindedAccumulator(M, role=ROLE_KEEPER)
        words = np.arange(M, dtype=np.uint64)
        counts_frame = wire.BlindedCounts(m=M, round_id=0, n=3, words=words)
        share_frame = wire.BlindingShare(m=M, round_id=0, n=3, words=words)
        blinded.absorb_frame(counts_frame)
        keeper.absorb_frame(share_frame)
        with pytest.raises(ValidationError):
            blinded.absorb_frame(share_frame)
        with pytest.raises(ValidationError):
            keeper.absorb_frame(counts_frame)
        assert blinded.n == keeper.n == 3

    def test_absorb_checks_geometry_and_round(self):
        acc = BlindedAccumulator(M, round_id=2)
        with pytest.raises(ValidationError):
            acc.absorb_frame(
                wire.BlindedCounts(
                    m=M + 1,
                    round_id=2,
                    n=1,
                    words=np.zeros(M + 1, dtype=np.uint64),
                )
            )
        with pytest.raises(ValidationError):
            acc.absorb_frame(
                wire.BlindedCounts(
                    m=M, round_id=3, n=1, words=np.zeros(M, dtype=np.uint64)
                )
            )
        assert acc.n == 0

    def test_accumulates_mod_2_64(self):
        acc = BlindedAccumulator(4)
        big = np.full(4, 2**64 - 1, dtype=np.uint64)
        acc.absorb_frame(wire.BlindedCounts(m=4, round_id=0, n=1, words=big))
        acc.absorb_frame(
            wire.BlindedCounts(
                m=4, round_id=0, n=2, words=np.full(4, 3, dtype=np.uint64)
            )
        )
        assert acc.n == 3
        assert acc.words().tolist() == [2, 2, 2, 2]  # wrapped, loudly exact

    def test_state_frame_round_trips(self):
        for role in (ROLE_BLINDED, ROLE_KEEPER):
            acc = BlindedAccumulator(M, round_id=5, role=role)
            frame_cls = (
                wire.BlindedCounts if role == ROLE_BLINDED else (
                    wire.BlindingShare
                )
            )
            acc.absorb_frame(
                frame_cls(
                    m=M,
                    round_id=5,
                    n=7,
                    words=np.arange(M, dtype=np.uint64) * np.uint64(3),
                )
            )
            resurrected = BlindedAccumulator.from_frame(
                wire.loads(wire.dumps(acc.state_frame()))
            )
            assert resurrected.role == role
            assert resurrected.n == acc.n
            assert resurrected.digest() == acc.digest()
            assert np.array_equal(resurrected.words(), acc.words())

    def test_digest_separates_roles(self):
        # Identical words, n, and geometry — different party: a keeper
        # state can never masquerade as the blinded collector's.
        blinded = BlindedAccumulator(M, role=ROLE_BLINDED)
        keeper = BlindedAccumulator(M, role=ROLE_KEEPER)
        assert blinded.digest() != keeper.digest()

    def test_merge_requires_same_role_and_geometry(self):
        a = BlindedAccumulator(M, role=ROLE_KEEPER)
        with pytest.raises(ValidationError):
            a.merge(BlindedAccumulator(M, role=ROLE_BLINDED))
        with pytest.raises(ValidationError):
            a.merge(BlindedAccumulator(M + 1, role=ROLE_KEEPER))


class TestMembershipDigest:
    def test_order_independent_and_duplicate_sensitive(self):
        records = [("edge-1", 0), ("edge-1", 1), ("edge-2", 0)]
        forward = empty_member_digest()
        backward = empty_member_digest()
        for pid, seq in records:
            add_member(forward, pid, seq)
        for pid, seq in reversed(records):
            add_member(backward, pid, seq)
        assert np.array_equal(forward, backward)
        add_member(backward, "edge-1", 0)  # replaying a commit changes it
        assert not np.array_equal(forward, backward)

    def test_stamp_distinguishes_producer_and_seq(self):
        stamps = {
            bytes(member_stamp(pid, seq).tobytes())
            for pid, seq in (
                ("p", 0), ("p", 1), ("q", 0), ("p1", 0), ("p", 2**40)
            )
        }
        assert len(stamps) == 5

    def test_encode_decode_round_trip(self):
        digest = empty_member_digest()
        add_member(digest, "tally-node-7", 9)
        text = encode_member_digest(digest)
        assert np.array_equal(decode_member_digest(text), digest)

    def test_decode_refuses_malformed_text(self):
        with pytest.raises(ValidationError):
            decode_member_digest("not-hex")
        with pytest.raises(ValidationError):
            decode_member_digest("abcd")  # wrong length


class TestTranscriptHelpers:
    def test_share_secret_is_deterministic_and_domain_separated(self):
        base = dict(m=M, round_id=2, producer_id="p", keeper_id="keeper-a")
        key = b"producer-key-at-keeper-a"
        secret = derive_share_secret(key, **base)
        assert secret == derive_share_secret(key, **base)
        for tweak in (
            {"m": M + 1},
            {"round_id": 3},
            {"producer_id": "q"},
            {"keeper_id": "keeper-b"},
        ):
            assert secret != derive_share_secret(key, **{**base, **tweak})
        assert secret != derive_share_secret(b"another-producer-key", **base)

    def test_keeper_party_label_is_deterministic_per_keeper(self):
        a = keeper_party_label("keeper-a")
        assert a == keeper_party_label("keeper-a")
        assert a != keeper_party_label("keeper-b")
        with pytest.raises(ValidationError):
            keeper_party_label("")

    def test_blind_report_chunk_needs_secrets(self):
        packed, _ = _packed()
        with pytest.raises(ValidationError, match="keeper"):
            blind_report_chunk(packed, m=M, round_id=0, seq=0, secrets={})

    def test_blind_report_chunk_rejects_set_pad_bits(self):
        """A chunk packed for a wider domain never gets blinded: its
        set pad bits are refused before any count leaves the producer."""
        m = 13  # 2 packed bytes, 3 pad bits
        packed, _ = _packed(m=m)
        secrets = {"keeper-a": b"\x01" * 32}
        blind_report_chunk(packed, m=m, round_id=0, seq=0, secrets=secrets)
        packed[0, -1] |= 0b001
        with pytest.raises(ValidationError, match="widths disagree"):
            blind_report_chunk(packed, m=m, round_id=0, seq=0, secrets=secrets)


class TestServiceModeValidation:
    def test_keeper_mode_requires_keeper_id(self, tmp_path):
        with pytest.raises(ValidationError, match="keeper"):
            CollectionService(
                M,
                key=COLLECTOR_KEY,
                store_root=str(tmp_path / "r"),
                mode=MODE_KEEPER,
            )

    def test_unknown_mode_is_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="mode"):
            CollectionService(
                M,
                key=COLLECTOR_KEY,
                store_root=str(tmp_path / "r"),
                mode="plaintext",
            )

    def test_collect_mode_rejects_keeper_id(self, tmp_path):
        with pytest.raises(ValidationError, match="keeper"):
            CollectionService(
                M,
                key=COLLECTOR_KEY,
                store_root=str(tmp_path / "r"),
                keeper_id="keeper-a",
            )


class _Deployment:
    """One blinded collector plus len(KEEPER_KEYS) keepers, in-process."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.collector = None
        self.keepers = {}
        self.addresses = {}

    async def __aenter__(self):
        self.collector = CollectionService(
            M,
            key=COLLECTOR_KEY,
            store_root=str(self.tmp_path / "collector"),
            mode="blinded",
        )
        self.collector_address = await self.collector.serve()
        for keeper_id, key in KEEPER_KEYS.items():
            keeper = CollectionService(
                M,
                key=key,
                store_root=str(self.tmp_path / keeper_id),
                mode=MODE_KEEPER,
                keeper_id=keeper_id,
            )
            self.keepers[keeper_id] = keeper
            self.addresses[keeper_id] = await keeper.serve()
        return self

    async def __aexit__(self, *exc):
        await self.collector.close()
        for keeper in self.keepers.values():
            await keeper.close()

    async def ship(self, chunks, producer_id="edge-1", start_seq=0):
        return await send_split_trust(
            self.collector_address,
            self.addresses,
            chunks,
            collector_key=COLLECTOR_KEY,
            keeper_keys=KEEPER_KEYS,
            producer_id=producer_id,
            m=M,
            start_seq=start_seq,
        )

    def combine(self) -> CountAccumulator:
        return combine_accumulators(
            self.collector.accumulator,
            [keeper.accumulator for keeper in self.keepers.values()],
        )


class TestSplitTrustEndToEnd:
    @pytest.mark.parametrize("sampler", [BITEXACT, FAST], ids=["bitexact", "fast"])
    def test_combined_decode_bit_identical_to_direct_tally(
        self, tmp_path, sampler
    ):
        """The exactness contract, per sampler: blinding costs nothing."""
        mechanism = OptimizedUnaryEncoding(1.1, M)
        items = np.arange(200) % M
        chunks = list(
            iter_report_chunks(
                mechanism,
                items,
                chunk_size=64,
                rng=sampler.make_generator(7),
                packed=True,
                sampler=sampler,
            )
        )
        direct = CountAccumulator(M)
        for chunk in chunks:
            direct.add_packed_reports(chunk)

        async def scenario():
            async with _Deployment(tmp_path) as deployment:
                acks = await deployment.ship(chunks)
                return deployment.combine(), acks

        combined, acks = asyncio.run(scenario())
        assert all(
            ack.status == wire.ACK_MERGED for ack in acks["collector"]
        )
        assert combined.n == direct.n == len(items)
        assert np.array_equal(combined.counts(), direct.counts())
        assert combined.digest() == direct.digest()

    def test_blind_resend_is_duplicate_on_every_party(self, tmp_path):
        packed, bits = _packed(k=9, seed=3)

        async def scenario():
            async with _Deployment(tmp_path) as deployment:
                first = await deployment.ship([packed])
                again = await deployment.ship([packed])
                return deployment.combine(), first, again, {
                    "collector": deployment.collector.records_merged,
                    **{
                        kid: keeper.records_merged
                        for kid, keeper in deployment.keepers.items()
                    },
                }

        combined, first, again, merged = asyncio.run(scenario())
        assert [a.status for a in first["collector"]] == [wire.ACK_MERGED]
        assert [a.status for a in again["collector"]] == [wire.ACK_DUPLICATE]
        for keeper_id in KEEPER_KEYS:
            assert [a.status for a in first["keepers"][keeper_id]] == [
                wire.ACK_MERGED
            ]
            assert [a.status for a in again["keepers"][keeper_id]] == [
                wire.ACK_DUPLICATE
            ]
        assert merged == {"collector": 1, "keeper-a": 1, "keeper-b": 1}
        assert np.array_equal(
            combined.counts(), bits.sum(axis=0).astype(np.int64)
        )

    def test_membership_digests_agree_across_parties(self, tmp_path):
        chunks = [_packed(k=4, seed=s)[0] for s in range(3)]

        async def scenario():
            async with _Deployment(tmp_path) as deployment:
                await deployment.ship(chunks, producer_id="edge-1")
                await deployment.ship(
                    chunks[:1], producer_id="edge-2", start_seq=0
                )
                digests = {
                    "collector": encode_member_digest(
                        deployment.collector._single_round().member_digest
                    ),
                }
                for kid, keeper in deployment.keepers.items():
                    digests[kid] = encode_member_digest(
                        keeper._single_round().member_digest
                    )
                return digests

        digests = asyncio.run(scenario())
        assert len(set(digests.values())) == 1

    def test_collector_key_cannot_authenticate_to_a_keeper(self, tmp_path):
        """Separate key universes: holding the collector's registry key
        gets an attacker nothing at any keeper (and so no secrets)."""
        packed, _ = _packed()
        words = np.zeros(M, dtype=np.uint64)
        share = wire.BlindingShare(m=M, round_id=0, n=1, words=words)

        async def scenario():
            async with _Deployment(tmp_path) as deployment:
                host, port = deployment.addresses["keeper-a"]
                with pytest.raises(AuthenticationError):
                    await send_records(
                        host,
                        port,
                        [share],
                        key=COLLECTOR_KEY,
                        producer_id="edge-1",
                        m=M,
                        party=keeper_party_label("keeper-a"),
                    )
                return deployment.keepers["keeper-a"].accumulator.n

        assert asyncio.run(scenario()) == 0

    def test_keeper_session_requires_the_party_label(self, tmp_path):
        """A producer that omits the keeper party label fails the MAC
        transcript — the keeper role is bound into the handshake."""
        words = np.zeros(M, dtype=np.uint64)
        share = wire.BlindingShare(m=M, round_id=0, n=1, words=words)

        async def scenario():
            async with _Deployment(tmp_path) as deployment:
                host, port = deployment.addresses["keeper-a"]
                with pytest.raises(AuthenticationError):
                    await send_records(
                        host,
                        port,
                        [share],
                        key=KEEPER_KEYS["keeper-a"],
                        producer_id="edge-1",
                        m=M,
                    )
                return deployment.keepers["keeper-a"].accumulator.n

        assert asyncio.run(scenario()) == 0

    def test_plain_chunk_is_refused_by_share_parties(self, tmp_path):
        """A raw packed chunk frame must never merge into a blinded
        round — the collector's ingest accepts only BlindedCounts."""
        packed, _ = _packed(k=2)
        chunk_frame = wire.dump_chunk(packed, M, round_id=0)

        async def scenario():
            async with _Deployment(tmp_path) as deployment:
                host, port = deployment.collector_address
                acks = await send_records(
                    host,
                    port,
                    [chunk_frame],
                    key=COLLECTOR_KEY,
                    producer_id="edge-1",
                    m=M,
                    raise_on_refusal=False,
                )
                return acks, deployment.collector.accumulator.n

        acks, n = asyncio.run(scenario())
        assert [a.status for a in acks] == [wire.ACK_REFUSED]
        assert n == 0
