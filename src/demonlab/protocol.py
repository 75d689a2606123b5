"""Tap monitors, feed-forward switching, and the resulting output statistics.

The demon taps a fraction ``r**2`` of each input arm onto a pair of click
detectors (``Dem_A``, ``Dem_B``), reads the click pattern, and either keeps
the arms as they are (bar) or swaps them (cross) before they reach the
output detectors ``D_A`` and ``D_B``.  Loss is modelled upstream of the
taps and can be kept in explicit modes ``l_A`` / ``l_B``.

Two canonical policies cover the four baths.  For thermal and bunched-pair
input the demon swaps only on a lone ``Dem_B`` click:

    (no click, no click) -> bar      (click, click) -> bar
    (click at A only)    -> bar      (click at B only) -> cross

For the cross-mode pair source a lone click means the partner photon sits
in the *other* arm, so the roles invert and the demon swaps on a lone
``Dem_A`` click instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .fock import JointOccupationDistribution, as_amplitude, as_efficiency, loss_channel, beamsplitter_split
from .sources import IN_A, IN_B, SourceKind

DEM_A = "Dem_A"
DEM_B = "Dem_B"
OUT_A = "D_A"
OUT_B = "D_B"
LOSS_A = "l_A"
LOSS_B = "l_B"

#: Mode order of every propagated outcome.
OUTCOME_MODES = (OUT_A, OUT_B, DEM_A, DEM_B, LOSS_A, LOSS_B)


class SwitchState(str, Enum):
    BAR = "bar"
    CROSS = "cross"


@dataclass(frozen=True)
class ClickPattern:
    """Binary click pattern of the two monitor detectors."""

    dem_a: bool
    dem_b: bool

    def swapped(self) -> "ClickPattern":
        return ClickPattern(self.dem_b, self.dem_a)


ALL_PATTERNS = (
    ClickPattern(False, False),
    ClickPattern(True, False),
    ClickPattern(False, True),
    ClickPattern(True, True),
)


@dataclass(frozen=True)
class Policy:
    """Total map from click pattern to switch state."""

    table: Mapping[ClickPattern, SwitchState]

    def __post_init__(self) -> None:
        table = dict(self.table)
        missing = [p for p in ALL_PATTERNS if p not in table]
        if missing or len(table) != len(ALL_PATTERNS):
            raise ValueError(f"policy must cover exactly the 4 click patterns, missing {missing}")
        object.__setattr__(self, "table", table)

    def switch_for(self, clicks: ClickPattern) -> SwitchState:
        return self.table[clicks]

    def transposed(self) -> "Policy":
        """Mirror policy: the (click at A only) and (click at B only) rows trade places."""
        return Policy({p: self.table[p.swapped()] for p in ALL_PATTERNS})

    @classmethod
    def constant(cls, state: SwitchState) -> "Policy":
        return cls({p: state for p in ALL_PATTERNS})

    @classmethod
    def swap_on(cls, pattern: ClickPattern) -> "Policy":
        """Bar everywhere except one cross row."""
        return cls({p: SwitchState.CROSS if p == pattern else SwitchState.BAR
                    for p in ALL_PATTERNS})


#: Swap only on a lone Dem_B click (thermal, split, and bunched-pair baths).
TABLE_THERMAL = Policy.swap_on(ClickPattern(False, True))

#: Swap only on a lone Dem_A click (cross-mode pair bath).
TABLE_PAIR = Policy.swap_on(ClickPattern(True, False))

ALL_BAR = Policy.constant(SwitchState.BAR)
ALL_CROSS = Policy.constant(SwitchState.CROSS)


def canonical_policy(kind: SourceKind) -> Policy:
    """The feed-forward table the demon uses for a given bath."""
    if SourceKind(kind) is SourceKind.CORRELATED:
        return TABLE_PAIR
    return TABLE_THERMAL


@dataclass(frozen=True)
class DemonOutcome:
    """Propagated joint distribution over the six pipeline modes."""

    dist: JointOccupationDistribution

    def __post_init__(self) -> None:
        if self.dist.mode_labels != OUTCOME_MODES:
            raise ValueError(f"outcome modes must be {OUTCOME_MODES}")


def propagate(source_state: JointOccupationDistribution, r, eps2, policy: Policy,
              dem_efficiency: tuple[float, float] = (1.0, 1.0)) -> DemonOutcome:
    """Run a two-mode input state through loss, taps, and the switch.

    Parameters
    ----------
    source_state:
        Distribution over ``(In_A, In_B)``.
    r:
        Tap amplitude; each surviving photon reaches its monitor detector
        with probability ``r**2``.
    eps2:
        Survival probability of the upstream loss, kept in ``l_A``/``l_B``.
    policy:
        Click-pattern to switch-state map applied within the same slot.
    dem_efficiency:
        Optional extra thinning of the monitor modes before clicks are
        formed (lost monitor photons are discarded, not routed to ``l``).

    Returns the joint outcome over ``(D_A, D_B, Dem_A, Dem_B, l_A, l_B)``.
    Clicks are non-number-resolving: any occupation >= 1 counts.
    """
    if tuple(source_state.mode_labels) != (IN_A, IN_B):
        raise ValueError(f"source modes must be ({IN_A}, {IN_B})")
    r = as_amplitude(r)
    eps2 = as_efficiency(eps2)
    eta_a, eta_b = (as_efficiency(e) for e in dem_efficiency)

    state = loss_channel(source_state, IN_A, eps2, loss_mode=LOSS_A)
    state = loss_channel(state, IN_B, eps2, loss_mode=LOSS_B)
    state = beamsplitter_split(state, IN_A, r, DEM_A)
    state = beamsplitter_split(state, IN_B, r, DEM_B)
    if eta_a < 1.0:
        state = loss_channel(state, DEM_A, eta_a)
    if eta_b < 1.0:
        state = loss_channel(state, DEM_B, eta_b)

    # state modes: (In_A, In_B, l_A, l_B, Dem_A, Dem_B); In_* now hold the kept photons
    out: dict[tuple[int, ...], float] = {}
    for (kept_a, kept_b, lost_a, lost_b, dem_a, dem_b), p in state.entries.items():
        clicks = ClickPattern(dem_a >= 1, dem_b >= 1)
        if policy.switch_for(clicks) is SwitchState.CROSS:
            kept_a, kept_b = kept_b, kept_a
        key = (kept_a, kept_b, dem_a, dem_b, lost_a, lost_b)
        out[key] = out.get(key, 0.0) + p
    dist = JointOccupationDistribution(OUTCOME_MODES, out, state.cutoff,
                                       state.lost_mass)
    return DemonOutcome(dist)


def detector_probs(outcome: DemonOutcome) -> tuple[float, float]:
    """Click probabilities ``(P_A, P_B)`` of the two output detectors."""
    pa = math.fsum(p for occ, p in outcome.dist.entries.items() if occ[0] >= 1)
    pb = math.fsum(p for occ, p in outcome.dist.entries.items() if occ[1] >= 1)
    return pa, pb


def delta_n(p_a: float, p_b: float, gamma: float = 1.0) -> float:
    """Expected click imbalance for ``gamma`` slots: ``gamma * (P_A - P_B)``."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return gamma * (p_a - p_b)

