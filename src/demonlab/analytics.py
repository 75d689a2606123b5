"""Closed-form demon power for each bath and normalization.

All curves share the tap factor ``r**2 * (1 - r**2)``: no power without a
monitor tap, no power when everything is tapped.  Writing ``R2 = r**2``:

* uncorrelated thermal, per input single:
  ``2 * m / (1 - m)**2 * R2 * (1 - R2)`` at the surviving mean
  ``m = eps2 * nbar`` (``eps2`` defaults to 1; valid for ``m < 1``)
* split thermal: identically 0 at every reflectivity
* cross-mode pairs, per single: ``2 * eps2 * R2 * (1 - R2)``;
  per pair: ``2 * R2 * (1 - R2)``
* bunched pairs, per single: ``2 * eps2 * (2 * v2 - 1) * R2 * (1 - R2)``;
  per pair: ``2 * (2 * v2 - 1) * R2 * (1 - R2)``

The thermal law is first order in ``nbar``.  The exact reference for a
simulated power is ``protocol.expected_power``, the expectation of the
Monte Carlo estimator at every order, taken from the bath's generating
function; checks compare the simulation with it, not with these laws.
"""
from __future__ import annotations

import math
from enum import Enum

from .fock import as_amplitude, as_efficiency, as_nbar, as_visibility
from .sources import SourceKind, THERMAL_KINDS


class Normalization(str, Enum):
    SINGLES = "singles"
    PAIRS = "pairs"


def closed_form_power(kind: SourceKind, normalization: Normalization, r, *,
                      nbar: float | None = None, eps2: float | None = None,
                      v2: float | None = None) -> float:
    """Evaluate the closed-form normalized power at tap amplitude ``r``."""
    kind = SourceKind(kind)
    normalization = Normalization(normalization)
    r = as_amplitude(r)
    tap = r * r * (1.0 - r * r)

    if kind in THERMAL_KINDS and normalization is Normalization.PAIRS:
        raise ValueError(f"pair normalization is undefined for {kind.value}")

    if kind is SourceKind.SPLIT_THERMAL:
        return 0.0

    if kind is SourceKind.UNCORRELATED:
        if nbar is None:
            raise ValueError("uncorrelated power requires nbar")
        # the loss thins each thermal arm to another thermal arm
        nbar = as_nbar(nbar) * (1.0 if eps2 is None else as_efficiency(eps2))
        if nbar >= 1.0:
            raise ValueError(f"closed form diverges at eps2 * nbar >= 1, got {nbar}")
        return 2.0 * nbar / (1.0 - nbar) ** 2 * tap

    if kind is SourceKind.CORRELATED:
        visibility_factor = 1.0
    else:
        if v2 is None:
            raise ValueError("anti_correlated power requires v2")
        visibility_factor = 2.0 * as_visibility(v2) - 1.0

    if normalization is Normalization.PAIRS:
        return 2.0 * visibility_factor * tap
    if eps2 is None:
        raise ValueError(f"singles-normalized {kind.value} power requires eps2")
    return 2.0 * as_efficiency(eps2) * visibility_factor * tap


def peak_enhancement_ratio(nbar: float) -> float:
    """Peak pair-normalized cross-mode power over peak thermal singles power.

    A reported diagnostic: how much stronger the pair-fed demon is at its
    best reflectivity than the thermal-fed demon at the same mean photon
    number.  Both laws are ``coefficient * r2 * (1 - r2)``, peaking at ``r2 = 0.5``.
    """
    r = math.sqrt(0.5)
    pair = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS, r)
    thermal = closed_form_power(SourceKind.UNCORRELATED, Normalization.SINGLES, r,
                                nbar=nbar)
    if thermal <= 0.0:
        raise ValueError("thermal peak vanishes; need nbar > 0")
    return pair / thermal
