"""Reward schedules for rank-order contests.

A contest with n potential entrants pays a fixed prize vector
a_1 >= a_2 >= ... >= a_n by rank of submitted quality; at least one of
the inequalities must be strict, otherwise rank never matters.  Prizes
may be negative (an entry tax), and a schedule whose last prize is
nonnegative is flagged as such because several optimality results only
cover that class.

Besides validation this module builds the named schedules used in the
design experiments: winner-take-all and attention-capped schedules.
The budget-matched taxed variant of winner-take-all needs equilibrium
solves to build, so it lives in :mod:`rankcontest.design`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MechanismError

MAX_AGENTS = 1000


@dataclass(frozen=True)
class RewardVector:
    """A validated monotone prize schedule."""

    prizes: tuple[float, ...]

    def __post_init__(self):
        prizes = tuple(float(v) for v in self.prizes)
        object.__setattr__(self, "prizes", prizes)
        if len(prizes) < 2:
            raise MechanismError("size", "a contest needs at least two ranks")
        if len(prizes) > MAX_AGENTS:
            raise MechanismError("size", f"at most {MAX_AGENTS} ranks supported")
        if not all(np.isfinite(prizes)):
            raise MechanismError("size", "prizes must be finite numbers")
        for i in range(len(prizes) - 1):
            if prizes[i] < prizes[i + 1]:
                raise MechanismError(
                    "monotonicity",
                    f"prizes must be nonincreasing by rank; "
                    f"rank {i + 1} pays {prizes[i]} < rank {i + 2} pays {prizes[i + 1]}",
                )
        if prizes[0] == prizes[-1]:
            raise MechanismError(
                "strictness",
                "all prizes are equal; at least one rank step must be strict",
            )

    @property
    def n(self) -> int:
        return len(self.prizes)

    @property
    def top(self) -> float:
        return self.prizes[0]

    @property
    def last(self) -> float:
        return self.prizes[-1]

    @property
    def nonnegative(self) -> bool:
        return self.prizes[-1] >= 0.0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.prizes, dtype=float)

    def replace(self, rank: int, value: float) -> "RewardVector":
        """New schedule with the prize at 1-based ``rank`` replaced."""
        if not 1 <= rank <= self.n:
            raise DomainError(f"rank must be in 1..{self.n}")
        prizes = list(self.prizes)
        prizes[rank - 1] = float(value)
        return RewardVector(tuple(prizes))


@dataclass(frozen=True)
class AttentionCaps:
    """Per-rank attention ceilings A_1 >= ... >= A_n >= 0.

    Attention cannot be shifted between ranks (viewers of rank two are a
    subset of viewers of rank one), so these act as independent upper
    bounds on the prize of each rank.
    """

    caps: tuple[float, ...]

    def __post_init__(self):
        caps = tuple(float(v) for v in self.caps)
        object.__setattr__(self, "caps", caps)
        if len(caps) < 2:
            raise DomainError("attention caps need at least two ranks")
        if any(not np.isfinite(c) or c < 0.0 for c in caps):
            raise DomainError("attention caps must be finite and nonnegative")
        for i in range(len(caps) - 1):
            if caps[i] < caps[i + 1]:
                raise DomainError("attention caps must be nonincreasing by rank")

    @property
    def n(self) -> int:
        return len(self.caps)


def winner_take_all(n: int, prize: float) -> RewardVector:
    """The schedule (prize, 0, ..., 0)."""
    if n < 2:
        raise MechanismError("size", "a contest needs at least two ranks")
    # checked before the n-tuple is built
    if n > MAX_AGENTS:
        raise MechanismError("size", f"at most {MAX_AGENTS} ranks supported")
    if not prize > 0.0:
        raise MechanismError(
            "strictness", "winner-take-all needs a strictly positive top prize"
        )
    return RewardVector((float(prize),) + (0.0,) * (n - 1))


def attention_schedule(caps, entry_cost: float) -> RewardVector:
    """Cap-saturating schedule: a_i = A_i for i < n, a_n = min(A_n, c(0)).

    Raising any prize but the last always improves the equilibrium
    quality distribution, while the last prize helps only up to the
    entry cost, hence this shape.  The result is re-validated, so caps
    that collapse to an all-equal vector are rejected.
    """
    if not isinstance(caps, AttentionCaps):
        caps = AttentionCaps(tuple(caps))
    if entry_cost < 0.0:
        raise DomainError("entry cost must be nonnegative")
    values = list(caps.caps)
    values[-1] = min(values[-1], float(entry_cost))
    return RewardVector(tuple(values))
