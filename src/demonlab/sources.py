"""The four two-mode input baths feeding the demon's arms.

Each source emits a diagonal two-mode state over the input modes ``In_A``
and ``In_B``:

* ``UNCORRELATED``: two independent thermal modes of mean ``nbar``.
* ``SPLIT_THERMAL``: one thermal mode of mean ``2 * nbar`` divided on a
  balanced splitter, so each output still shows thermal counting statistics
  with mean ``nbar`` but the two arms share every fluctuation.
* ``CORRELATED``: the two-photon truncation of a down-conversion pair
  source, weights proportional to ``{(0,0): 1, (1,1): s2}``.
* ``ANTI_CORRELATED``: pairs bunched by two-photon interference, weights
  proportional to ``{(0,0): 1, (2,0): s2 v2 / 2, (0,2): s2 v2 / 2,
  (1,1): s2 (1 - v2)}``.  Perfect visibility ``v2 = 1`` removes the
  ``(1,1)`` leakage entirely.

Every source keeps its vacuum; a spec holds the bath's parameters only, and
conditioning a pair bath on an emission is left to its reader.  Each law is
written once, as the matrix ``bath_table``; ``make_source`` is its dict view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    DEFAULT_CUTOFF,
    JointOccupationDistribution,
    as_nbar,
    as_nonnegative,
    as_visibility,
    binomial_rows,
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


#: Each kind's parameters, in the spelling users give.
PARAMETERS = {
    SourceKind.UNCORRELATED: ("nbar",),
    SourceKind.SPLIT_THERMAL: ("nbar",),
    SourceKind.CORRELATED: ("s2",),
    SourceKind.ANTI_CORRELATED: ("s2", "v2"),
}


_COERCE = {"nbar": as_nbar, "s2": lambda value: as_nonnegative("s2", value),
           "v2": as_visibility}


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of one bath; ``PARAMETERS`` names those each kind takes."""

    kind: SourceKind
    nbar: float | None = None
    s2: float | None = None
    v2: float | None = None

    def __post_init__(self) -> None:
        kind = SourceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        for name, coerce in _COERCE.items():
            value = getattr(self, name)
            if name not in PARAMETERS[kind]:
                if value is not None:
                    raise ValueError(f"{name} is not a parameter of {kind.value}")
            elif value is None:
                raise ValueError(f"{kind.value} requires {name}")
            else:
                object.__setattr__(self, name, coerce(value))

    @classmethod
    def uncorrelated(cls, nbar: float) -> "SourceSpec":
        return cls(SourceKind.UNCORRELATED, nbar=nbar)

    @classmethod
    def split_thermal(cls, nbar: float) -> "SourceSpec":
        """``nbar`` is the mean per output arm; the shared mode carries ``2 * nbar``."""
        return cls(SourceKind.SPLIT_THERMAL, nbar=nbar)

    @classmethod
    def correlated(cls, s2: float) -> "SourceSpec":
        return cls(SourceKind.CORRELATED, s2=s2)

    @classmethod
    def anti_correlated(cls, s2: float, v2: float) -> "SourceSpec":
        return cls(SourceKind.ANTI_CORRELATED, s2=s2, v2=v2)


def bath_table(spec: SourceSpec, cutoff: int) -> tuple[np.ndarray, float]:
    """``W[n_A, n_B]``, zero above ``n_A + n_B = cutoff``, and the mass left out;
    a pair bath's table stops at its largest pair and leaves nothing out."""
    if spec.kind in PAIR_KINDS:
        if cutoff < 2:
            raise ValueError("pair sources need cutoff >= 2")
        if spec.kind is SourceKind.CORRELATED:
            table = np.array([[1.0, 0.0], [0.0, spec.s2]])
        else:
            bunched = spec.s2 * spec.v2 / 2.0
            table = np.array([[1.0, 0.0, bunched], [0.0, spec.s2 * (1.0 - spec.v2), 0.0],
                              [bunched, 0.0, 0.0]])
        return table / math.fsum(table.ravel().tolist()), 0.0
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    split = spec.kind is SourceKind.SPLIT_THERMAL
    nbar = 2.0 * spec.nbar if split else spec.nbar  # the split bath's shared mode
    # at Python-int k: an int64 exponent can move the power by an ulp
    pmf = np.array([thermal_pmf(nbar, k) for k in range(cutoff + 1)])
    n = np.arange(cutoff + 1)
    tot = np.add.outer(n, n)
    inside = tot <= cutoff
    if not split:
        table = np.where(inside, np.outer(pmf, pmf), 0.0)
        return table, max(1.0 - math.fsum(table.ravel().tolist()), 0.0)
    # the shared mode's photons each go to In_A with chance 1/2
    tot = np.minimum(tot, cutoff)  # cells past the cutoff are zeroed
    table = np.where(inside, pmf[tot] * binomial_rows(cutoff, 0.5)[tot, n[:, None]], 0.0)
    return table, (nbar / (1.0 + nbar)) ** (cutoff + 1)


def make_source(spec: SourceSpec,
                cutoff: int = DEFAULT_CUTOFF) -> JointOccupationDistribution:
    """The non-zero cells of ``bath_table`` as a distribution over ``(In_A, In_B)``."""
    table, lost = bath_table(spec, cutoff)
    n_a, n_b = np.nonzero(table)
    entries = dict(zip(zip(n_a.tolist(), n_b.tolist()), table[n_a, n_b].tolist()))
    return JointOccupationDistribution((IN_A, IN_B), entries, cutoff, lost)


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
    table, _ = bath_table(spec, 2)
    n_a, n_b = np.nonzero(table)
    return sum(w * (less_one(u, a) * (1.0 - v) ** b + less_one(v, b))
               for a, b, w in zip(n_a.tolist(), n_b.tolist(), table[n_a, n_b].tolist()))
