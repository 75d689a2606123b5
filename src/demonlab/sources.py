"""The four two-mode input baths feeding the demon's arms.

Each source emits a diagonal two-mode state over the input modes ``In_A``
and ``In_B``:

* ``UNCORRELATED``: two independent thermal modes of mean ``nbar``.
* ``SPLIT_THERMAL``: one thermal mode of mean ``2 * nbar`` divided on a
  balanced splitter, so each output still shows thermal counting statistics
  with mean ``nbar`` but the two arms share every fluctuation.
* ``CORRELATED``: the two-photon truncation of a down-conversion pair
  source, weights proportional to ``{(0,0): 1, (1,1): s**2}``.
* ``ANTI_CORRELATED``: pairs bunched by two-photon interference, weights
  proportional to ``{(0,0): 1, (2,0): s**2 v2 / 2, (0,2): s**2 v2 / 2,
  (1,1): s**2 (1 - v2)}``.  Perfect visibility ``v2 = 1`` removes the
  ``(1,1)`` leakage entirely.

``drop_vacuum`` post-selects the pair sources on an emission actually
happening, which is how the pair-normalized analytics are defined.  The
Monte Carlo engine always keeps the vacuum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .fock import (
    DEFAULT_CUTOFF,
    JointOccupationDistribution,
    as_nbar,
    as_visibility,
    thermal_pmf,
)

IN_A = "In_A"
IN_B = "In_B"


class SourceKind(str, Enum):
    UNCORRELATED = "uncorrelated"
    SPLIT_THERMAL = "split_thermal"
    CORRELATED = "correlated"
    ANTI_CORRELATED = "anti_correlated"


PAIR_KINDS = frozenset({SourceKind.CORRELATED, SourceKind.ANTI_CORRELATED})
THERMAL_KINDS = frozenset({SourceKind.UNCORRELATED, SourceKind.SPLIT_THERMAL})


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of one bath.

    ``nbar`` is required for the thermal kinds, ``s`` for the pair kinds,
    ``v2`` only for ``ANTI_CORRELATED``.  ``drop_vacuum`` is only valid for
    the pair kinds.  ``include_one_photon_term`` adds an incoherent
    single-photon component to ``ANTI_CORRELATED``; it exists so the oracle
    can confirm that component contributes no demon power.
    """

    kind: SourceKind
    nbar: float | None = None
    s: float | None = None
    v2: float | None = None
    drop_vacuum: bool = False
    include_one_photon_term: bool = False

    def __post_init__(self) -> None:
        kind = SourceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in THERMAL_KINDS:
            if self.nbar is None:
                raise ValueError(f"{kind.value} requires nbar")
            if self.s is not None or self.v2 is not None:
                raise ValueError(f"{kind.value} takes no s or v2")
            if self.drop_vacuum:
                raise ValueError("drop_vacuum applies to pair sources only")
            if self.include_one_photon_term:
                raise ValueError("one-photon term applies to anti_correlated only")
            object.__setattr__(self, "nbar", as_nbar(self.nbar))
        else:
            if self.s is None:
                raise ValueError(f"{kind.value} requires s")
            if self.nbar is not None:
                raise ValueError(f"{kind.value} takes no nbar")
            s = float(self.s)
            if s < 0 or not math.isfinite(s):
                raise ValueError(f"s must be finite and >= 0, got {s!r}")
            object.__setattr__(self, "s", s)
            if kind is SourceKind.CORRELATED:
                if self.v2 is not None:
                    raise ValueError("correlated takes no v2")
                if self.include_one_photon_term:
                    raise ValueError("one-photon term applies to anti_correlated only")
            else:
                if self.v2 is None:
                    raise ValueError("anti_correlated requires v2")
                object.__setattr__(self, "v2", as_visibility(self.v2))

    @classmethod
    def uncorrelated(cls, nbar: float) -> "SourceSpec":
        return cls(SourceKind.UNCORRELATED, nbar=nbar)

    @classmethod
    def split_thermal(cls, nbar: float) -> "SourceSpec":
        """``nbar`` is the mean per output arm; the shared mode carries ``2 * nbar``."""
        return cls(SourceKind.SPLIT_THERMAL, nbar=nbar)

    @classmethod
    def correlated(cls, s: float | None = None, *, s2: float | None = None,
                   drop_vacuum: bool = False) -> "SourceSpec":
        if (s is None) == (s2 is None):
            raise ValueError("give exactly one of s or s2")
        if s is None:
            s = math.sqrt(s2)
        return cls(SourceKind.CORRELATED, s=s, drop_vacuum=drop_vacuum)

    @classmethod
    def anti_correlated(cls, s: float | None = None, *, s2: float | None = None,
                        v2: float, drop_vacuum: bool = False,
                        include_one_photon_term: bool = False) -> "SourceSpec":
        if (s is None) == (s2 is None):
            raise ValueError("give exactly one of s or s2")
        if s is None:
            s = math.sqrt(s2)
        return cls(SourceKind.ANTI_CORRELATED, s=s, v2=v2, drop_vacuum=drop_vacuum,
                   include_one_photon_term=include_one_photon_term)

    def with_drop_vacuum(self, flag: bool = True) -> "SourceSpec":
        if self.kind in THERMAL_KINDS:
            raise ValueError("drop_vacuum applies to pair sources only")
        return replace(self, drop_vacuum=flag)


def _pair_weights(spec: SourceSpec) -> dict[tuple[int, int], float]:
    # Every non-vacuum entry carries one overall factor of s**2, so the
    # post-selected ratios are independent of s.  Strip that factor when the
    # vacuum is dropped; s = 0 then still has a well-defined limit.
    scale = 1.0 if spec.drop_vacuum else spec.s * spec.s
    if spec.kind is SourceKind.CORRELATED:
        raw = {(1, 1): scale}
    else:
        v2 = spec.v2
        raw = {
            (2, 0): scale * v2 / 2.0,
            (0, 2): scale * v2 / 2.0,
            (1, 1): scale * (1.0 - v2),
        }
        if spec.include_one_photon_term:
            # Any weight here leaves the demon power unchanged; the oracle
            # checks exactly that, so the choice is free.  Use total s**2.
            raw[(1, 0)] = scale / 2.0
            raw[(0, 1)] = scale / 2.0
    if not spec.drop_vacuum:
        raw[(0, 0)] = 1.0
    total = math.fsum(raw.values())
    return {occ: w / total for occ, w in raw.items() if w > 0.0}


def make_source(spec: SourceSpec,
                cutoff: int = DEFAULT_CUTOFF) -> JointOccupationDistribution:
    """Build the two-mode input distribution over ``(In_A, In_B)``."""
    if spec.kind is SourceKind.UNCORRELATED:
        pmf = [thermal_pmf(spec.nbar, n) for n in range(cutoff + 1)]
        entries = {(a, b): pmf[a] * pmf[b]
                   for a in range(cutoff + 1) for b in range(cutoff + 1 - a)}
        lost = 1.0 - math.fsum(entries.values())
        return JointOccupationDistribution((IN_A, IN_B), entries, cutoff, max(lost, 0.0))
    if spec.kind is SourceKind.SPLIT_THERMAL:
        total_nbar = 2.0 * spec.nbar
        entries: dict[tuple[int, int], float] = {}
        for tot in range(cutoff + 1):
            p_tot = total_nbar ** tot / (1.0 + total_nbar) ** (tot + 1)
            for k in range(tot + 1):
                entries[(k, tot - k)] = p_tot * math.comb(tot, k) * 0.5 ** tot
        lost = (total_nbar / (1.0 + total_nbar)) ** (cutoff + 1)
        return JointOccupationDistribution((IN_A, IN_B), entries, cutoff, lost)
    if cutoff < 2:
        raise ValueError("pair sources need cutoff >= 2")
    return JointOccupationDistribution((IN_A, IN_B), _pair_weights(spec), cutoff)


def generating_function_minus_one(spec: SourceSpec, u, v):
    """``E[(1-u)**n_A * (1-v)**n_B] - 1`` in closed form; ``u``, ``v`` broadcast.

    Less one, it keeps its digits where the expectation is close to 1.
    """
    if spec.kind is SourceKind.UNCORRELATED:
        a, b = spec.nbar * u, spec.nbar * v
        return -(a + b + a * b) / ((1.0 + a) * (1.0 + b))
    if spec.kind is SourceKind.SPLIT_THERMAL:
        s = spec.nbar * (u + v)
        return -s / (1.0 + s)
    def less_one(x, n):  # (1-x)**n - 1, summed so that nothing cancels
        return -x * sum((1.0 - x) ** k for k in range(n))
    return sum(w * (less_one(u, a) * (1.0 - v) ** b + less_one(v, b))
               for (a, b), w in _pair_weights(spec).items())


def g2_zero(dist: JointOccupationDistribution, mode: str) -> float:
    """Equal-time second-order coherence of one mode of a distribution.

    ``g2(0) = <n (n-1)> / <n>**2`` computed from the occupation marginal.
    Thermal statistics give 2, a one-photon state gives 0, Poissonian light
    gives 1.
    """
    i = dist.mode_index(mode)
    mean = math.fsum(occ[i] * p for occ, p in dist.entries.items())
    if mean <= 0.0:
        raise ValueError(f"mode {mode!r} has zero mean occupation")
    fac2 = math.fsum(occ[i] * (occ[i] - 1) * p for occ, p in dist.entries.items())
    return fac2 / (mean * mean)


def marginal_g2_zero(spec: SourceSpec, cutoff: int = 20) -> float:
    """g2(0) of the ``In_A`` marginal of a source.

    The cutoff must be generous enough that the truncated tail is
    negligible (below 1e-9), otherwise the factorial moment is biased.
    Note the pair sources are two-photon truncations, so their marginals do
    not show the thermal value 2.
    """
    dist = make_source(spec, cutoff)
    if dist.lost_mass > 1e-9:
        raise ValueError(
            f"cutoff {cutoff} leaves lost_mass {dist.lost_mass:.3g} > 1e-9; raise it")
    return g2_zero(dist, IN_A)
