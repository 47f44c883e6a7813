"""The round lifecycle state machine.

A scale-out deployment needs "what is round 7 doing right now?" to have
one authoritative answer — across the coordinator that owns the round,
the K shard services hosting slices of it, and the aggregator deciding
whether it may pull final state.  :class:`RoundLifecycle` is that
answer, as an explicit state machine rather than a scatter of booleans:

``open → serving → draining → closed → retired``

* **open** — registered (or recovered); durable state exists but no
  sessions are accepted yet.  A coordinator registers a round in this
  phase, mints its token, and only then tells shards to serve it.
* **serving** — sessions and records flow.
* **draining** — no *new* sessions and no *new* records; batches
  already staged or in the commit pipeline still commit and are acked.
  This is the phase an operator holds a round in while waiting for the
  last in-flight group commits before closing.
* **closed** — durably closed: commit pipeline drained, spill and
  ledger synced, final checkpoint written.  State is still on disk and
  pullable by an aggregator; nothing mutates it anymore.
* **retired** — store handles freed and the round forgotten by its
  registry.  The round id may be re-registered later — as a *new
  incarnation* with a fresh registration token, which is exactly why
  session proofs bind the token and not the bare id.

Transitions only move forward.  Skipping intermediate phases *forward*
is legal where it is safe (``open → closed`` aborts a never-served
round; ``serving → closed`` is a hard close that skips the polite
drain), but nothing ever moves backward and nothing leaves ``retired``.
Illegal transitions raise loudly — a caller that tries to serve a
closed round has a real bug that silence would bury.
"""

from __future__ import annotations

from ...exceptions import ValidationError

__all__ = [
    "OPEN",
    "SERVING",
    "DRAINING",
    "CLOSED",
    "RETIRED",
    "PHASES",
    "LEGAL_TRANSITIONS",
    "RoundLifecycle",
]

OPEN = "open"
SERVING = "serving"
DRAINING = "draining"
CLOSED = "closed"
RETIRED = "retired"

#: Phase order; transitions may only move rightward through this tuple.
PHASES = (OPEN, SERVING, DRAINING, CLOSED, RETIRED)

#: The full legal transition relation, spelled out (tests enumerate it).
#: Forward-only, and ``retired`` is terminal; ``retired`` is reachable
#: only from ``closed`` — retiring means freeing handles that only a
#: durable close leaves in a freeable state.
LEGAL_TRANSITIONS = frozenset(
    {
        (OPEN, SERVING),
        (OPEN, DRAINING),
        (OPEN, CLOSED),
        (SERVING, DRAINING),
        (SERVING, CLOSED),
        (DRAINING, CLOSED),
        (CLOSED, RETIRED),
    }
)


class RoundLifecycle:
    """One round's phase, with loud, forward-only transitions."""

    def __init__(self, round_id: int, phase: str = OPEN) -> None:
        if phase not in PHASES:
            raise ValidationError(
                f"unknown lifecycle phase {phase!r}; phases are {PHASES}"
            )
        self.round_id = int(round_id)
        self.phase = phase

    # ------------------------------------------------------------------
    # Queries (the mid-round observability surface)
    # ------------------------------------------------------------------
    @property
    def accepts_sessions(self) -> bool:
        """May a new producer session be opened on this round?"""
        return self.phase == SERVING

    @property
    def accepts_records(self) -> bool:
        """May a new record be staged for commit on this round?"""
        return self.phase == SERVING

    @property
    def is_terminal(self) -> bool:
        return self.phase == RETIRED

    def can_transition(self, to: str) -> bool:
        return (self.phase, to) in LEGAL_TRANSITIONS

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def transition(self, to: str) -> None:
        """Move to phase *to*; raises on any illegal move.

        Self-transitions are illegal too — a double ``drain`` means two
        operators (or a retry loop) are fighting over the round, and
        the second one deserves to find out.  Callers that want
        idempotent operator commands check :attr:`phase` first.
        """
        if to not in PHASES:
            raise ValidationError(
                f"unknown lifecycle phase {to!r}; phases are {PHASES}"
            )
        if (self.phase, to) not in LEGAL_TRANSITIONS:
            raise ValidationError(
                f"round {self.round_id} cannot move {self.phase!r} -> "
                f"{to!r}; legal from {self.phase!r}: "
                f"{sorted(t for f, t in LEGAL_TRANSITIONS if f == self.phase)}"
            )
        self.phase = to

    def require(self, *phases: str) -> None:
        """Assert the round is in one of *phases* (loud otherwise)."""
        if self.phase not in phases:
            raise ValidationError(
                f"round {self.round_id} is {self.phase!r}; this operation "
                f"requires {' or '.join(repr(p) for p in phases)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundLifecycle(round_id={self.round_id}, phase={self.phase!r})"
