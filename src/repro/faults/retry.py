"""Bounded, deterministic retry of faulting measurements.

The tolerance half of the fault subsystem: a :class:`RetryPolicy` caps
how many attempts a reading gets, charges a *simulated-time* backoff
between attempts (wall-clock plays no role, so retries are as
deterministic as the faults themselves), and optionally bounds how long
a single reading may take before it is treated as hung and retried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FaultError


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving a reading up.

    Parameters
    ----------
    max_attempts:
        Total attempts a reading gets (first try included).
    backoff_base / backoff_factor:
        Simulated-time delay charged before retry ``k`` (1-based) is
        ``backoff_base * backoff_factor ** (k - 1)`` — exponential,
        and a pure function of the attempt index.
    reading_timeout:
        Optional simulated-time bound on one reading; a reading slower
        than this (e.g. a straggler-inflated run) counts as a failed
        attempt instead of being believed.  ``None`` disables it.
    """

    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    reading_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError("max_attempts must be at least 1")
        if self.backoff_base < 0.0:
            raise FaultError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise FaultError("backoff_factor must be >= 1.0")
        if self.reading_timeout is not None and self.reading_timeout <= 0.0:
            raise FaultError("reading_timeout must be positive")

    def backoff(self, retry_index: int) -> float:
        """Simulated-time delay before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise FaultError("retry_index is 1-based")
        return self.backoff_base * self.backoff_factor ** (retry_index - 1)

    def times_out(self, reading: float) -> bool:
        """Whether a reading exceeds the per-reading timeout."""
        return self.reading_timeout is not None and reading > self.reading_timeout


#: Policy used when a runner has faults but no explicit policy.
DEFAULT_RETRY_POLICY = RetryPolicy()
