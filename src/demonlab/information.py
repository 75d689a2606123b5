"""How much the monitor clicks reveal about the photons left in the arms.

The joint distribution ``p(m_A, m_B, n_A, n_B)`` pairs the binary click
pattern ``(m_A, m_B)`` of the monitor detectors with the photon numbers
``(n_A, n_B)`` remaining in the arms after the taps.  Because the arms do
not interact before the taps, the routing factorizes per arm: each arm
passes through ``protocol.arm_kernel``.  Mutual information is reported in
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
from .protocol import arm_kernel
from .sources import PAIR_KINDS, SourceSpec, make_source

DEFAULT_INFO_CUTOFF = 12

#: Largest truncation ``mutual_information`` picks for itself.
MAX_EXACT_CUTOFF = 64

ClickKey = tuple[bool, bool]
PhotonKey = tuple[int, int]


@dataclass(frozen=True)
class InfoResult:
    mutual_info_bits: float
    click_entropy_bits: float
    joint: dict[tuple[ClickKey, PhotonKey], float]


def mutual_information(spec: SourceSpec, r, eps2,
                       cutoff: int | None = None) -> InfoResult:
    """Mutual information between the click pattern and the kept photon numbers.

    Unless ``cutoff`` is given, the bath is truncated at the smallest cutoff
    from ``DEFAULT_INFO_CUTOFF`` up that leaves out at most 1e-13 of it.
    """
    r = as_amplitude(r)
    eps2 = as_efficiency(eps2)
    if spec.kind in PAIR_KINDS:
        spec = spec.with_drop_vacuum()
    source = make_source(spec, DEFAULT_INFO_CUTOFF if cutoff is None else cutoff)
    while cutoff is None and source.lost_mass > 1e-13:
        if source.cutoff == MAX_EXACT_CUTOFF:
            raise ValueError(f"cutoff: {source.lost_mass:.2g} of the {spec.kind.value} "
                             f"source lies above {MAX_EXACT_CUTOFF} photons")
        source = make_source(spec, source.cutoff + 1)
    # K, up to the fullest arm, collapsed to (kept photons, monitor click) in built order
    routing = []
    for row in arm_kernel(max(map(max, source.entries)), r, eps2):
        collapsed: dict[tuple[int, bool], float] = {}
        for (kept, tapped, _lost), p in row.items():
            key = (kept, tapped >= 1)
            collapsed[key] = collapsed.get(key, 0.0) + p
        routing.append(collapsed)

    joint: dict[tuple[ClickKey, PhotonKey], float] = {}
    for (n_a, n_b), w in source.entries.items():
        if w == 0.0:
            continue
        for (kept_a, click_a), pa in routing[n_a].items():
            for (kept_b, click_b), pb in routing[n_b].items():
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
