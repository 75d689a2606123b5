"""Invariants of the exact layer over random baths, taps, losses and policies.

``propagate`` runs the per-arm kernel; the oracle walks every photon path
on its own, so their agreement anywhere in the parameter space is a check
of the kernel and the switch.  ``expected_power`` takes its click table from
the bath's generating function instead, and is checked against the tables
``propagate`` builds: the oracle vouches for those.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demonlab.oracle import compare, enumerate_outcomes
from demonlab.protocol import (
    ALL_BAR,
    ALL_CROSS,
    ALL_PATTERNS,
    ClickPattern,
    Policy,
    SwitchState,
    canonical_policy,
    detector_probs,
    _click_table,
    expected_power,
    propagate,
)
from demonlab.sources import SourceSpec, make_source

# the warning guards the closed forms, which play no part here
pytestmark = pytest.mark.filterwarnings("ignore::demonlab.fock.LowPhotonRegimeWarning")

_unit = st.floats(0.0, 1.0)


def pair_baths(least: float = 0.0):
    """The two pair baths; ``s2`` in [least, 0.1]."""
    return st.one_of(
        st.builds(lambda s2: SourceSpec.correlated(s2=s2), st.floats(least, 0.1)),
        st.builds(lambda s2, v2: SourceSpec.anti_correlated(s2=s2, v2=v2),
                  st.floats(least, 0.1), _unit),
    )


def baths(least: float = 0.0, brightest: float = 0.2):
    """The four baths; ``nbar`` in [least, brightest], ``s2`` in [least, 0.1]."""
    nbar = st.floats(least, brightest)
    return st.one_of(
        st.builds(SourceSpec.uncorrelated, nbar),
        st.builds(SourceSpec.split_thermal, nbar),
        pair_baths(least),
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


@settings(max_examples=60, deadline=None)
@given(baths(brightest=2.0), _unit, _unit, st.integers(2, 6))
def test_click_table_bounds_propagated_tables(spec, r2, eps2, cutoff):
    """Each of the 16 pre-switch click cells of a truncated table lies at or
    below the exact cell, by no more than the mass the truncation leaves out."""
    r = math.sqrt(r2)
    outcome = propagate(make_source(spec, cutoff), r, eps2, ALL_BAR)
    cells = np.zeros((2, 2, 2, 2))
    for (out_a, out_b, dem_a, dem_b, _, _), p in outcome.dist.entries.items():
        cells[tuple(int(n >= 1) for n in (out_a, dem_a, out_b, dem_b))] += p
    exact = _click_table(spec, r, eps2)
    lost = outcome.dist.lost_mass
    assert np.all(cells <= exact + 1e-12)
    assert np.all(cells >= exact - lost - 1e-12)


def _power_from_propagate(spec, r2, eps2, normalization) -> float:
    """The estimator's expectation from two propagated outcome tables."""
    state = make_source(spec, 2)  # a pair source is whole at two photons an arm
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


# the pair baths have no truncation, so whole powers compare to rounding
@settings(max_examples=30, deadline=None)
@given(pair_baths(1e-3), st.floats(0.01, 0.99), st.floats(0.01, 1.0), st.booleans())
def test_expected_power_matches_propagated_tables(spec, r2, eps2, pairs):
    normalization = "pairs" if pairs else "singles"
    got = expected_power(spec, math.sqrt(r2), eps2, normalization)
    want = _power_from_propagate(spec, r2, eps2, normalization)
    assert abs(got - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0), _unit, _unit, st.sampled_from(ALL_PATTERNS))
def test_split_bath_gives_no_imbalance_under_any_single_swap(nbar, r2, eps2, pattern):
    table = _click_table(SourceSpec.split_thermal(nbar), math.sqrt(r2), eps2)
    policy = Policy.swap_on(pattern)
    out_a, mon_a, out_b, mon_b = np.indices(table.shape)
    cross = np.array([[policy.switch_for(ClickPattern(a, b)) is SwitchState.CROSS
                       for b in (False, True)] for a in (False, True)])[mon_a, mon_b]
    imbalance = np.sum(table * np.where(cross, out_b - out_a, out_a - out_b))
    assert abs(imbalance) <= 1e-15


#: Baths and normalizations whose power is symmetric under r2 <-> 1 - r2.
#: The thermal powers are not, and neither is bunched singles: the clicks
#: a bunched pair gives depend on r2.
symmetric_powers = st.one_of(
    st.tuples(st.builds(lambda s2: SourceSpec.correlated(s2=s2), st.floats(1e-3, 0.1)),
              st.sampled_from(["singles", "pairs"])),
    st.tuples(st.builds(lambda s2, v2: SourceSpec.anti_correlated(s2=s2, v2=v2),
                        st.floats(1e-3, 0.1), _unit), st.just("pairs")),
)


@settings(max_examples=60, deadline=None)
@given(symmetric_powers, st.floats(0.01, 0.99), st.floats(0.01, 1.0))
def test_pair_power_is_symmetric_in_reflectivity(case, r2, eps2):
    spec, normalization = case
    lo = expected_power(spec, math.sqrt(r2), eps2, normalization)
    hi = expected_power(spec, math.sqrt(1.0 - r2), eps2, normalization)
    assert abs(lo - hi) <= 1e-12
