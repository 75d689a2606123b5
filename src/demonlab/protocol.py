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

import numpy as np

from .analytics import Normalization
from .fock import JointOccupationDistribution, as_amplitude, as_efficiency
from .sources import (IN_A, IN_B, PAIR_KINDS, SourceKind, SourceSpec,
                      generating_function_minus_one)

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


def arm_kernel(cutoff: int, r, eps2) -> list[dict[tuple[int, int, int], float]]:
    """``K[n][(kept, tapped, lost)]``: where the ``n <= cutoff`` photons of an arm go.

    Each photon survives the upstream loss with probability ``eps2`` and is
    then tapped to the monitor with probability ``r**2`` or kept for the
    switch.  Both arms pass through ``K`` before the switch.  Cells of zero
    weight are left out.
    """
    r = as_amplitude(r)
    eps2 = as_efficiency(eps2)
    r2 = r * r
    # each power once; the products keep their order, so sums over K repeat bit for bit
    survive, lose, tap, keep = ([x ** j for j in range(cutoff + 1)]
                                for x in (eps2, 1.0 - eps2, r2, 1.0 - r2))
    kernel = []
    for n in range(cutoff + 1):
        row = {}
        for k in range(n + 1):  # survivors of the loss
            p_k = math.comb(n, k) * survive[k] * lose[n - k]
            for m in range(k + 1):  # tapped to the monitor
                p = p_k * math.comb(k, m) * tap[m] * keep[k - m]
                if p > 0.0:
                    row[(k - m, m, n - k)] = p
        kernel.append(row)
    return kernel


def propagate(source_state: JointOccupationDistribution, r, eps2,
              policy: Policy) -> DemonOutcome:
    """Run a distribution over ``(In_A, In_B)`` through ``arm_kernel`` on
    each arm, then the switch ``policy`` picks from the monitor clicks.

    Returns the joint outcome over ``(D_A, D_B, Dem_A, Dem_B, l_A, l_B)``.
    Clicks are non-number-resolving: any occupation >= 1 counts.
    """
    if tuple(source_state.mode_labels) != (IN_A, IN_B):
        raise ValueError(f"source modes must be ({IN_A}, {IN_B})")
    kernel = arm_kernel(source_state.cutoff, r, eps2)
    out: dict[tuple[int, ...], float] = {}
    for (n_a, n_b), w in source_state.entries.items():
        for (kept_a, dem_a, lost_a), p_a in kernel[n_a].items():
            for (kept_b, dem_b, lost_b), p_b in kernel[n_b].items():
                out_a, out_b = kept_a, kept_b
                if policy.switch_for(ClickPattern(dem_a >= 1, dem_b >= 1)) is SwitchState.CROSS:
                    out_a, out_b = kept_b, kept_a
                key = (out_a, out_b, dem_a, dem_b, lost_a, lost_b)
                out[key] = out.get(key, 0.0) + w * p_a * p_b
    dist = JointOccupationDistribution(OUTCOME_MODES, out, source_state.cutoff,
                                       source_state.lost_mass)
    return DemonOutcome(dist)


#: Arm cell ``2 * (output click) + (monitor click)`` from ``E[(1-u)**n]``, the
#: chance that no photon reaches the detectors in question, at ``u = [0,
#: eps2 * r2, eps2 * (1 - r2), eps2]``: none, monitor, output, both.
_CELLS = np.array([[0, 0, 0, 1], [0, 0, 1, -1], [0, 1, 0, -1], [1, -1, -1, 1]])

#: Index grids of a click table ``[out_a, mon_a, out_b, mon_b]``.
_OUT_A, _MON_A, _OUT_B, _MON_B = np.indices((2, 2, 2, 2))


def _click_table(spec: SourceSpec, r, eps2) -> np.ndarray:
    """Pre-switch click probabilities, indexed ``[out_a, mon_a, out_b, mon_b]``.

    Detectors only click, so the bath enters only through its generating
    function at the points of ``_CELLS``: no truncation is needed.
    """
    r = as_amplitude(r)
    eps2 = as_efficiency(eps2)
    r2 = r * r
    u = np.array([0.0, eps2 * r2, eps2 * (1.0 - r2), eps2])
    # G - 1 rather than G keeps the digits that cancel between the cells
    g_minus_one = generating_function_minus_one(spec, u[:, None], u[None, :])
    table = _CELLS @ g_minus_one @ _CELLS.T
    table[0, 0] += 1.0  # rows 1-3 of _CELLS sum to 0, so the 1 lands here alone
    return table.reshape(2, 2, 2, 2)


def expected_power(spec: SourceSpec, r, eps2, normalization) -> float:
    """All-orders expectation of ``measure_power``'s estimator.

    Feed-forward minus ``ALL_CROSS`` click imbalance per slot, over the
    cross run's singles flux ``(P_A + P_B) / 2 / (1 - r**2)`` or, for
    pairs, its output-monitor coincidence rate over ``2 * r**2 * (1 - r**2)``.
    This is the exact reference a simulated power is checked against.
    """
    pairs = Normalization(normalization) is Normalization.PAIRS
    if pairs and spec.kind not in PAIR_KINDS:
        raise ValueError(f"pair normalization is undefined for {spec.kind.value}")
    r = as_amplitude(r)
    r2 = r * r
    joint = _click_table(spec, r, eps2)
    policy = canonical_policy(spec.kind)
    bar = np.array([[policy.switch_for(ClickPattern(a, b)) is SwitchState.BAR
                     for b in (False, True)] for a in (False, True)])[_MON_A, _MON_B]
    # a swapped slot reads as in the cross run; a bar slot reads
    # out_a - out_b against the cross run's out_b - out_a
    imbalance = np.sum(joint * bar * 2.0 * (_OUT_A - _OUT_B))
    # pairs: every output click with every monitor click, as the engine counts
    rate = np.sum(joint * (_OUT_A + _OUT_B) * ((_MON_A + _MON_B) if pairs else 0.5))
    norm = 2.0 * r2 * (1.0 - r2) if pairs else 1.0 - r2
    if rate <= 0.0 or norm <= 0.0:
        raise ValueError("normalization denominator is zero; nothing is detected")
    return float(imbalance / (rate / norm))


def detector_probs(outcome: DemonOutcome) -> tuple[float, float]:
    """Click probabilities ``(P_A, P_B)`` of the two output detectors."""
    pa = math.fsum(p for occ, p in outcome.dist.entries.items() if occ[0] >= 1)
    pb = math.fsum(p for occ, p in outcome.dist.entries.items() if occ[1] >= 1)
    return pa, pb

