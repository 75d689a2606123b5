"""Closed-form demon power for each bath and normalization.

All curves share the tap factor ``r**2 * (1 - r**2)``: no power without a
monitor tap, no power when everything is tapped.  Writing ``R2 = r**2``:

* uncorrelated thermal, per input single:
  ``2 * m * R2 * (1 - R2) / ((1 + m) * (1 + R2 * m))`` at the surviving
  mean ``m = eps2 * nbar``
* split thermal: identically 0 at every reflectivity
* cross-mode pairs, per single: ``2 * eps2 * R2 * (1 - R2)``;
  per pair: ``2 * R2 * (1 - R2)``
* bunched pairs, per single:
  ``4 * eps2 * (2 * v2 - 1) * R2 * (1 - R2) / (2 - v2 * eps2 * (1 - R2))``;
  per pair: ``2 * (2 * v2 - 1) * R2 * (1 - R2)``

The laws count output clicks, as the simulation does, and every one is
exact: each equals ``protocol.expected_power``, the expectation of the
Monte Carlo estimator taken from the bath's generating function, at every
brightness.
"""
from __future__ import annotations

import math
from enum import Enum

from .fock import as_amplitude, as_efficiency
from .sources import PAIR_KINDS, SourceKind, SourceSpec


class Normalization(str, Enum):
    SINGLES = "singles"
    PAIRS = "pairs"


def as_normalization(spec: SourceSpec, normalization) -> Normalization:
    """Validate a power normalization of ``spec``; only pair baths have pairs."""
    try:
        normalization = Normalization(normalization)
    except ValueError:
        raise ValueError(f"expected 'singles' or 'pairs', got {normalization!r}") from None
    if normalization is Normalization.PAIRS and spec.kind not in PAIR_KINDS:
        raise ValueError(f"pair normalization is undefined for {spec.kind.value}")
    return normalization


def closed_form_power(spec: SourceSpec, r, eps2, normalization) -> float:
    """Closed-form normalized power of ``spec`` at tap amplitude ``r``."""
    normalization = as_normalization(spec, normalization)
    r = as_amplitude(r)
    r2 = r * r
    eps2 = as_efficiency(eps2)
    tap = r2 * (1.0 - r2)

    if spec.kind is SourceKind.SPLIT_THERMAL:
        return 0.0
    if spec.kind is SourceKind.UNCORRELATED:
        # the loss thins each thermal arm to another thermal arm
        m = eps2 * spec.nbar
        return 2.0 * m * tap / ((1.0 + m) * (1.0 + r2 * m))

    bunched = spec.v2 if spec.kind is SourceKind.ANTI_CORRELATED else 0.0
    visibility_factor = 1.0 if spec.kind is SourceKind.CORRELATED else 2.0 * bunched - 1.0
    if normalization is Normalization.PAIRS:
        return 2.0 * visibility_factor * tap
    # two kept photons of a bunched pair click once: the singles estimate per
    # pair is eps2 * (2 - v2 * eps2 * (1 - R2)) / 2, not eps2
    return 4.0 * eps2 * visibility_factor * tap / (2.0 - bunched * eps2 * (1.0 - r2))


def peak_enhancement_ratio(nbar: float) -> float:
    """Peak pair-normalized cross-mode power over peak thermal singles power.

    A reported diagnostic: how much stronger the pair-fed demon is at its
    best reflectivity than the thermal-fed demon of mean ``nbar``, both at
    ``r2 = 0.5`` and ``eps2 = 1``.  The pair law does not depend on the
    pair strength.
    """
    r = math.sqrt(0.5)
    pair = closed_form_power(SourceSpec.correlated(s2=0.01), r, 1.0, Normalization.PAIRS)
    thermal = closed_form_power(SourceSpec.uncorrelated(nbar), r, 1.0,
                                Normalization.SINGLES)
    if thermal <= 0.0:
        raise ValueError("thermal peak vanishes; need nbar > 0")
    return pair / thermal
