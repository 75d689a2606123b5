"""How much the monitor clicks reveal about the photons left in the arms.

The joint distribution ``p(m_A, m_B, n_A, n_B)`` pairs the binary click
pattern ``(m_A, m_B)`` of the monitor detectors with the photon numbers
``(n_A, n_B)`` remaining in the arms after the taps.  Because the arms do
not interact before the taps, the routing factorizes per arm: an incident
photon survives the loss with probability ``eps2`` and is then either
tapped (probability ``r**2``) or kept.  Mutual information is reported in
bits; the clicks are collapsed to binary before any entropy is taken, so
it can never exceed 2 bits.

The pair sources are evaluated on their post-selected (vacuum-dropped)
states, matching how their power curves are normalized: the question is
what the demon learns per emitted pair, not per empty slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import as_amplitude, as_efficiency
from .sources import IN_A, IN_B, PAIR_KINDS, SourceSpec, make_source

DEFAULT_INFO_CUTOFF = 12

ClickKey = tuple[bool, bool]
PhotonKey = tuple[int, int]


@dataclass(frozen=True)
class InfoResult:
    mutual_info_bits: float
    click_entropy_bits: float
    joint: dict[tuple[ClickKey, PhotonKey], float]


def _arm_routing(n: int, r2: float, eps2: float) -> dict[tuple[int, bool], float]:
    """Joint pmf of (kept photons, monitor click) for one arm with n incident."""
    out: dict[tuple[int, bool], float] = {}
    for k in range(n + 1):  # survivors of the loss
        p_k = math.comb(n, k) * eps2 ** k * (1.0 - eps2) ** (n - k)
        for m in range(k + 1):  # tapped to the monitor
            p = p_k * math.comb(k, m) * r2 ** m * (1.0 - r2) ** (k - m)
            key = (k - m, m >= 1)
            out[key] = out.get(key, 0.0) + p
    return out


def mutual_information(spec: SourceSpec, r, eps2,
                       cutoff: int = DEFAULT_INFO_CUTOFF) -> InfoResult:
    """Mutual information between the click pattern and the kept photon numbers."""
    r = as_amplitude(r)
    eps2 = as_efficiency(eps2)
    if spec.kind in PAIR_KINDS:
        spec = spec.with_drop_vacuum()
    source = make_source(spec, cutoff)
    r2 = r * r

    cache: dict[int, dict[tuple[int, bool], float]] = {}

    def routing(n: int) -> dict[tuple[int, bool], float]:
        if n not in cache:
            cache[n] = _arm_routing(n, r2, eps2)
        return cache[n]

    ia = source.mode_index(IN_A)
    ib = source.mode_index(IN_B)
    joint: dict[tuple[ClickKey, PhotonKey], float] = {}
    for occ, w in source.entries.items():
        if w == 0.0:
            continue
        for (kept_a, click_a), pa in routing(occ[ia]).items():
            for (kept_b, click_b), pb in routing(occ[ib]).items():
                key = ((click_a, click_b), (kept_a, kept_b))
                joint[key] = joint.get(key, 0.0) + w * pa * pb
    return InfoResult(*_mutual_information_of(joint), joint)


def _mutual_information_of(joint: dict[tuple[ClickKey, PhotonKey], float]
                           ) -> tuple[float, float]:
    clicks: dict[ClickKey, float] = {}
    photons: dict[PhotonKey, float] = {}
    for (m, n), p in joint.items():
        clicks[m] = clicks.get(m, 0.0) + p
        photons[n] = photons.get(n, 0.0) + p
    info = math.fsum(
        p * (math.log2(p) - math.log2(clicks[m]) - math.log2(photons[n]))
        for (m, n), p in joint.items() if p > 0.0
    )
    entropy = -math.fsum(p * math.log2(p) for p in clicks.values() if p > 0.0)
    # rounding can leave a tiny negative residue on deterministic joints
    return max(info, 0.0), entropy


def mutual_information_of_joint(joint: dict[tuple[ClickKey, PhotonKey], float]) -> float:
    """Mutual information (bits) of an explicit clicks-vs-photons table."""
    return _mutual_information_of(joint)[0]
