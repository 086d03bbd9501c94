"""Admission control: session budget and per-command instruction caps.

The server never queues work it cannot afford: an ``open-session`` that
would exceed the budget gets a structured ``busy`` reply immediately,
and a command asking for more simulated instructions than the
per-command cap gets ``over-budget`` — in both cases the client learns
at once instead of hanging behind an unbounded backlog.

The session budget is a token bucket.  Concurrent sessions hold one
token each (returned on close), and an optional refill rate bounds the
*open rate* on top of the concurrency cap: with ``refill_per_s`` set,
a burst that drains the bucket must wait for tokens to trickle back
even after closing sessions, which smooths thundering-herd reconnects.
With the default ``refill_per_s=None`` the bucket degenerates to a
plain concurrency semaphore.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.debugger.verbs import parse_count, spec_for


class TokenBucket:
    """Token bucket over concurrent sessions (optionally rate-refilled)."""

    def __init__(self, capacity: int,
                 refill_per_s: Optional[float] = None, *,
                 clock=time.monotonic):
        if capacity < 1:
            raise ValueError("session budget capacity must be >= 1")
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock()

    def _refill(self) -> None:
        if self.refill_per_s is None:
            return
        now = self._clock()
        self._tokens = min(self.capacity,
                           self._tokens
                           + (now - self._last) * self.refill_per_s)
        self._last = now

    def try_acquire(self) -> bool:
        """Take one token; False (reject) when the bucket is empty."""
        self._refill()
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True

    def release(self) -> None:
        """Return a closed session's token.

        With a refill rate configured, closes do not short-circuit the
        rate limit: the token only comes back through refill.
        """
        if self.refill_per_s is None:
            self._tokens = min(float(self.capacity), self._tokens + 1.0)

    @property
    def available(self) -> int:
        self._refill()
        return int(self._tokens)


class InstructionBudget:
    """Per-command cap on requested application instructions."""

    def __init__(self, max_instructions: int):
        if max_instructions < 1:
            raise ValueError("per-command instruction budget must be >= 1")
        self.max_instructions = max_instructions

    def requested(self, verb: str, args: list) -> Optional[int]:
        """The instruction count a budgeted verb asks for (None if
        defaulted or unparsable — unparsable args fail later with a
        usage error from the dispatcher).  Which argument carries the
        budget comes from the verb registry (``VerbSpec.budget_arg``)."""
        spec = spec_for(verb)
        index = spec.budget_arg if spec is not None else None
        if index is None or len(args) <= index:
            return None
        return parse_count(str(args[index]))

    def admit(self, verb: str, args: list) -> Optional[str]:
        """None to admit, or a rejection message for ``over-budget``."""
        return self.check(verb, self.requested(verb, args))

    def check(self, verb: str, asked: Optional[int]) -> Optional[str]:
        """:meth:`admit` for an already-parsed instruction count."""
        if asked is not None and asked > self.max_instructions:
            return (f"{verb} requested {asked:,} instructions; the "
                    f"per-command budget is {self.max_instructions:,}")
        return None

    def clamp_default(self, default_step: int) -> int:
        """The default step a bare run/continue should use."""
        return min(default_step, self.max_instructions)
