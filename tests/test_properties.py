"""Invariants of the exact layer over random baths, taps, losses and policies.

The pipeline (``propagate``, ``expected_power``) shares the per-arm kernel;
the oracle walks every photon path on its own, so their agreement anywhere
in the parameter space is a check of the kernel and the switch.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from demonlab.oracle import compare, enumerate_outcomes
from demonlab.protocol import (
    ALL_CROSS,
    ALL_PATTERNS,
    Policy,
    SwitchState,
    canonical_policy,
    detector_probs,
    expected_power,
    propagate,
)
from demonlab.sources import PAIR_KINDS, SourceSpec, make_source

# the warning guards the closed forms, which play no part here
pytestmark = pytest.mark.filterwarnings("ignore::demonlab.fock.LowPhotonRegimeWarning")

_unit = st.floats(0.0, 1.0)


def baths(least: float = 0.0, brightest: float = 0.2):
    """The four baths; ``nbar`` in [least, brightest], ``s2`` in [least, 0.1]."""
    nbar = st.floats(least, brightest)
    return st.one_of(
        st.builds(SourceSpec.uncorrelated, nbar),
        st.builds(SourceSpec.split_thermal, nbar),
        st.builds(lambda s2: SourceSpec.correlated(s2=s2), st.floats(least, 0.1)),
        st.builds(lambda s2, v2: SourceSpec.anti_correlated(s2=s2, v2=v2),
                  st.floats(least, 0.1), _unit),
    )


#: Every total map from the four click patterns to a switch state.
policies = st.integers(0, 15).map(lambda bits: Policy({
    pattern: SwitchState.CROSS if bits >> i & 1 else SwitchState.BAR
    for i, pattern in enumerate(ALL_PATTERNS)}))


@settings(max_examples=60, deadline=None)
@given(baths(), _unit, _unit, policies, st.integers(2, 5))
def test_pipeline_matches_oracle_and_keeps_mass(spec, r2, eps2, policy, cutoff):
    r = math.sqrt(r2)
    outcome = propagate(make_source(spec, cutoff), r, eps2, policy)
    assert compare(enumerate_outcomes(spec, r, eps2, policy, cutoff), outcome) <= 1e-12
    mass = math.fsum(outcome.dist.entries.values()) + outcome.dist.lost_mass
    assert abs(mass - 1.0) <= 1e-12


def _power_from_propagate(spec, r2, eps2, normalization) -> float:
    """The estimator's expectation from two propagated outcome tables."""
    cutoff = 2
    while make_source(spec, cutoff).lost_mass > 1e-9:
        cutoff += 1
    state = make_source(spec, cutoff)
    r = math.sqrt(r2)
    ff = propagate(state, r, eps2, canonical_policy(spec.kind))
    cross = propagate(state, r, eps2, ALL_CROSS)
    ff_a, ff_b = detector_probs(ff)
    x_a, x_b = detector_probs(cross)
    imbalance = (ff_a - ff_b) - (x_a - x_b)
    if normalization == "singles":
        return imbalance / ((x_a + x_b) / 2.0 / (1.0 - r2))
    coincidences = math.fsum(
        p * ((occ[0] >= 1) + (occ[1] >= 1)) * ((occ[2] >= 1) + (occ[3] >= 1))
        for occ, p in cross.dist.entries.items())
    return imbalance / (coincidences / (2.0 * r2 * (1.0 - r2)))


# the reference cutoff grows fast with nbar (16 for a split bath at 0.2,
# where one reference costs 0.6 s), so the thermal baths stop at 0.1 here
@settings(max_examples=30, deadline=None)
@given(baths(1e-3, 0.1), st.floats(0.01, 0.99), st.floats(0.01, 1.0), st.booleans())
def test_expected_power_matches_propagated_tables(spec, r2, eps2, pairs):
    normalization = "pairs" if pairs and spec.kind in PAIR_KINDS else "singles"
    got = expected_power(spec, math.sqrt(r2), eps2, normalization)
    want = _power_from_propagate(spec, r2, eps2, normalization)
    assert abs(got - want) <= 1e-12
