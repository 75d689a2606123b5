"""How much the monitor clicks reveal about the photons left in the arms.

The joint ``p(n_A, n_B, m_A, m_B)`` pairs the photon numbers ``(n_A, n_B)``
kept in the arms after the taps with the binary click pattern ``(m_A, m_B)``
of the monitor detectors.  The arms do not interact before the taps, so the
routing factorizes per arm: with ``W`` the bath's matrix from
``sources.bath_table`` and ``R[m][n, kept]`` one arm's loss and tap routing
from ``fock.binomial_rows``, the clicks ``(m_A, m_B)`` have the joint
``R[m_A].T @ W @ R[m_B]``.  Mutual information is reported in bits, at most
2 since the clicks are binary.

A pair bath is scored per emitted pair, as its power curves are normalized: ``W``
drops the vacuum, leaving a table the same at any ``s2 > 0``; ``s2 = 0`` is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import as_amplitude, as_efficiency, binomial_rows
from .sources import PAIR_KINDS, SourceSpec, bath_table

DEFAULT_INFO_CUTOFF = 12

#: Largest truncation ``mutual_information`` picks or accepts: 12 doubled
#: five times.  Run time grows about as the cube of the cutoff.
MAX_EXACT_CUTOFF = 384


@dataclass(frozen=True)
class InfoResult:
    mutual_info_bits: float
    click_entropy_bits: float
    #: ``joint[kept_a, kept_b, click_a, click_b]``; a pair bath's is conditioned on an emission
    joint: np.ndarray


def mutual_information(spec: SourceSpec, r, eps2, cutoff: int | None = None) -> InfoResult:
    """Mutual information between the click pattern and the kept photon numbers.

    Unless ``cutoff`` is given, the bath is truncated at the first of
    ``DEFAULT_INFO_CUTOFF`` and its doublings that leaves out at most 1e-13
    of it.  A cutoff above ``MAX_EXACT_CUTOFF`` is refused.
    """
    r, eps2 = as_amplitude(r), as_efficiency(eps2)
    if cutoff is not None and cutoff > MAX_EXACT_CUTOFF:
        raise ValueError(f"cutoff: {cutoff} exceeds the largest truncation, {MAX_EXACT_CUTOFF}")
    if spec.kind in PAIR_KINDS:  # its emitted table is the same at any s2 > 0
        if spec.s2 == 0.0:
            raise ValueError(f"s2: the {spec.kind.value} bath at s2 = 0 emits no pair to condition on")
        spec = replace(spec, s2=1.0)
    truncation = DEFAULT_INFO_CUTOFF if cutoff is None else cutoff
    bath, lost = bath_table(spec, truncation)
    while cutoff is None and lost > 1e-13:
        if truncation >= MAX_EXACT_CUTOFF:
            raise ValueError(f"cutoff: {lost:.2g} of the {spec.kind.value} "
                             f"source lies above {MAX_EXACT_CUTOFF} photons")
        truncation *= 2
        bath, lost = bath_table(spec, truncation)
    if spec.kind in PAIR_KINDS:  # condition on an emission
        bath[0, 0] = 0.0
        bath /= bath.sum()
    survive, keep = (binomial_rows(len(bath) - 1, p) for p in (eps2, 1.0 - r * r))
    untapped = keep.diagonal()  # (1 - r**2)**k: no survivor reaches the monitor
    # R[click][n, kept]; the diagonal cancels exactly, so r = 0 leaves R[1] = 0
    routing = np.stack([survive * untapped, survive @ (keep - np.diag(untapped))])
    joint = np.moveaxis(routing.transpose(0, 2, 1)[:, None] @ bath @ routing, (0, 1), (2, 3))
    return InfoResult(*_bits(joint), joint)


def _bits(joint: np.ndarray) -> tuple[float, float]:
    """Mutual information and click entropy (bits) of ``joint[kept_a, kept_b,
    click_a, click_b]``, taken on the joint normalized to its own total, so
    the mass a truncation left out does not turn into bits."""
    clicks = joint.sum(axis=(0, 1))
    total = math.fsum(clicks.ravel().tolist())
    # a click pattern the photons fix normalizes to exactly 1, and its
    # photon marginal to exactly p, so its terms vanish exactly
    clicks, kept = clicks / total, joint.sum(axis=(2, 3)) / total
    at = np.nonzero(joint > 0.0)
    p = joint[at] / total
    info = float(np.sum(p * (np.log2(p) - np.log2(clicks[at[2:]]) - np.log2(kept[at[:2]]))))
    entropy = -math.fsum(q * math.log2(q) for q in clicks.ravel().tolist() if q > 0.0)
    # 0.0 first: rounding can leave a tiny negative residue, and max keeps -0.0
    return max(0.0, info), max(0.0, entropy)


def mutual_information_of_joint(joint: np.ndarray) -> float:
    """Mutual information (bits) of an explicit ``[kept_a, kept_b, click_a, click_b]`` table."""
    return _bits(joint)[0]
