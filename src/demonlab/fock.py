"""Diagonal photon-number distributions and the channels that act on them.

Everything in this package works with classical mixtures over occupation
tuples: a mapping from ``(n_1, ..., n_k)`` to probability, one slot per
labelled optical mode.  Off-diagonal (coherence) terms never enter, so a
plain probability table truncated at a total photon number is an exact
representation of the states we care about, with the truncated tail
tracked explicitly as ``lost_mass``.

Two channels act on such tables: a tap beamsplitter that routes each
photon independently into a new mode with probability ``r**2``, and a loss
channel (binomial thinning with survival ``eps2``) that either discards the
lost photons or parks them in an explicit loss mode.  The demon pipeline
itself uses the per-arm kernel ``protocol.arm_kernel``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

Occupation = tuple[int, ...]

#: Default truncation: total photons per occupation tuple.
DEFAULT_CUTOFF = 4

#: Allowed slack on total probability mass (entries + lost_mass).
MASS_TOL = 1e-12


class LowPhotonRegimeWarning(UserWarning):
    """Nothing issues it any more: every closed form is exact at any
    brightness.  It stays importable for warning filters that name it."""


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def as_nbar(value) -> float:
    """Validate a mean photon number."""
    nbar = float(value)
    if nbar < 0 or not math.isfinite(nbar):
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar!r}")
    return nbar


def as_amplitude(value) -> float:
    """Validate a tap amplitude ``r``; the routing probability is ``r**2``."""
    return _check_unit_interval("reflection amplitude", value)


def as_efficiency(value) -> float:
    """Validate an intensity survival probability ``eps2``."""
    return _check_unit_interval("coupling efficiency", value)


def as_visibility(value) -> float:
    """Validate a two-photon interference visibility ``v2``."""
    return _check_unit_interval("visibility", value)


@dataclass(frozen=True)
class JointOccupationDistribution:
    """Probability table over occupation tuples for a set of labelled modes.

    Parameters
    ----------
    mode_labels:
        Ordered mode names; tuple position ``i`` holds the occupation of
        ``mode_labels[i]``.
    entries:
        Mapping from occupation tuple to probability.  Tuples whose total
        exceeds ``cutoff`` are not representable; their mass lives in
        ``lost_mass``.
    cutoff:
        Maximum total photon number across all modes.
    lost_mass:
        Probability truncated away.  ``sum(entries) + lost_mass`` must be 1
        within ``MASS_TOL``.

    Instances are immutable by convention; channels return new objects.
    """

    mode_labels: tuple[str, ...]
    entries: Mapping[Occupation, float]
    cutoff: int
    lost_mass: float = 0.0

    def __post_init__(self) -> None:
        labels = tuple(self.mode_labels)
        object.__setattr__(self, "mode_labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels: {labels}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.lost_mass < -MASS_TOL:
            raise ValueError(f"lost_mass must be >= 0, got {self.lost_mass!r}")
        k = len(labels)
        for occ, p in self.entries.items():
            if len(occ) != k:
                raise ValueError(f"occupation {occ} does not match {k} modes")
            if any(n < 0 for n in occ):
                raise ValueError(f"negative occupation in {occ}")
            if sum(occ) > self.cutoff:
                raise ValueError(f"occupation {occ} exceeds cutoff {self.cutoff}")
            if p < -MASS_TOL:
                raise ValueError(f"negative probability {p!r} at {occ}")
        total = math.fsum(self.entries.values()) + self.lost_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probability mass {total!r} is not 1")

    @classmethod
    def vacuum(cls, mode_labels: Iterable[str], cutoff: int = DEFAULT_CUTOFF):
        labels = tuple(mode_labels)
        return cls(labels, {(0,) * len(labels): 1.0}, cutoff)

    @classmethod
    def from_single_mode(cls, label: str, pmf: Mapping[int, float], cutoff: int,
                         lost_mass: float = 0.0):
        entries = {(n,): p for n, p in pmf.items() if n <= cutoff}
        return cls((label,), entries, cutoff, lost_mass)

    def mode_index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode {label!r}; have {self.mode_labels}") from None

    def probability(self, occ: Occupation) -> float:
        return float(self.entries.get(tuple(occ), 0.0))

    @property
    def total_mass(self) -> float:
        return math.fsum(self.entries.values()) + self.lost_mass

    def mean_photons(self, label: str) -> float:
        i = self.mode_index(label)
        return math.fsum(occ[i] * p for occ, p in self.entries.items())


def thermal_pmf(nbar, n: int) -> float:
    """Occupation probability of a thermal mode: ``nbar**n / (1+nbar)**(n+1)``."""
    nbar = as_nbar(nbar)
    if n < 0:
        raise ValueError("photon number must be >= 0")
    return nbar ** n / (1.0 + nbar) ** (n + 1)


def single_mode_thermal(nbar, cutoff: int = DEFAULT_CUTOFF,
                        label: str = "In_A") -> JointOccupationDistribution:
    """Truncated thermal state; the geometric tail is kept as lost_mass."""
    nbar = as_nbar(nbar)
    pmf = {n: thermal_pmf(nbar, n) for n in range(cutoff + 1)}
    tail = (nbar / (1.0 + nbar)) ** (cutoff + 1)
    return JointOccupationDistribution.from_single_mode(label, pmf, cutoff, tail)


def beamsplitter_split(dist: JointOccupationDistribution, mode: str, r,
                       new_mode: str) -> JointOccupationDistribution:
    """Route each photon of ``mode`` into ``new_mode`` with probability ``r**2``.

    n photons split binomially: k stay with weight
    ``C(n, k) * (1 - r**2)**k * (r**2)**(n - k)`` and ``n - k`` land in the
    appended ``new_mode``.  Total photon number is conserved, so the cutoff
    and lost_mass carry over unchanged.  ``r = 0`` is the identity up to the
    extra empty mode.
    """
    r = as_amplitude(r)
    if new_mode in dist.mode_labels:
        raise ValueError(f"mode {new_mode!r} already present")
    i = dist.mode_index(mode)
    r2 = r * r
    out: dict[Occupation, float] = {}
    for occ, p in dist.entries.items():
        n = occ[i]
        for k in range(n + 1):
            w = math.comb(n, k) * (1.0 - r2) ** k * r2 ** (n - k)
            if w == 0.0:
                continue
            key = occ[:i] + (k,) + occ[i + 1:] + (n - k,)
            out[key] = out.get(key, 0.0) + p * w
    return JointOccupationDistribution(dist.mode_labels + (new_mode,), out,
                                       dist.cutoff, dist.lost_mass)


def loss_channel(dist: JointOccupationDistribution, mode: str, eps2,
                 loss_mode: str | None = None) -> JointOccupationDistribution:
    """Binomial thinning of ``mode`` with survival probability ``eps2``.

    With ``loss_mode`` set, the lost photons are retained in that appended
    mode (a split with ``r**2 = 1 - eps2``); otherwise they are traced out.
    """
    eps2 = as_efficiency(eps2)
    if loss_mode is not None:
        return beamsplitter_split(dist, mode, math.sqrt(1.0 - eps2), loss_mode)
    i = dist.mode_index(mode)
    out: dict[Occupation, float] = {}
    for occ, p in dist.entries.items():
        n = occ[i]
        for k in range(n + 1):
            w = math.comb(n, k) * eps2 ** k * (1.0 - eps2) ** (n - k)
            if w == 0.0:
                continue
            key = occ[:i] + (k,) + occ[i + 1:]
            out[key] = out.get(key, 0.0) + p * w
    return JointOccupationDistribution(dist.mode_labels, out, dist.cutoff,
                                       dist.lost_mass)


def joint_detection_pmf(nbar, r, m: int, n: int) -> float:
    """Joint probability of ``m`` kept and ``n`` tapped photons from a thermal mode.

    Closed form for a thermal input of mean ``nbar`` split on a tap of
    amplitude ``r``::

        P(m, n) = (n+m)! / (n! m!) * nbar**(n+m) / (1+nbar)**(n+m+1)
                  * (r**2)**n * (1-r**2)**m

    ``n`` counts photons routed to the monitor port, ``m`` the transmitted
    ones.
    """
    nbar = as_nbar(nbar)
    r = as_amplitude(r)
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be >= 0")
    r2 = r * r
    comb = math.factorial(n + m) // (math.factorial(n) * math.factorial(m))
    return (comb * nbar ** (n + m) / (1.0 + nbar) ** (n + m + 1)
            * r2 ** n * (1.0 - r2) ** m)
