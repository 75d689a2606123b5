"""Closed-form power laws checked against frozen values and the full pipeline.

The pipeline comparisons rebuild each normalized imbalance from the
propagated joint distribution, so any drift between the algebra and the
channel model shows up here.
"""

import math

import pytest

from demonlab.analytics import (
    Normalization,
    closed_form_power,
    peak_enhancement_ratio,
)
from demonlab.protocol import canonical_policy, detector_probs, expected_power, propagate
from demonlab.sources import SourceKind, SourceSpec, make_source

R_HALF = math.sqrt(0.5)
R2_GRID = [k * 0.05 for k in range(11)]


def test_uncorrelated_peak_value_frozen():
    got = closed_form_power(SourceKind.UNCORRELATED, Normalization.SINGLES,
                            R_HALF, nbar=0.05)
    assert abs(got - 0.02770083102493075) < 1e-15


def test_correlated_pair_peak_is_half():
    got = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS, R_HALF)
    assert abs(got - 0.5) < 1e-15


def test_correlated_singles_scales_by_coupling():
    got = closed_form_power(SourceKind.CORRELATED, Normalization.SINGLES,
                            R_HALF, eps2=0.14)
    assert abs(got - 0.07) < 1e-15
    pairs = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS, R_HALF)
    assert abs(got - 0.14 * pairs) < 1e-15


def test_anti_correlated_frozen_values():
    pairs = closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.PAIRS,
                              R_HALF, v2=0.87)
    assert abs(pairs - 0.37) < 1e-12
    # singles count clicks: 4 eps2 (2 v2 - 1) / 4 over 2 - v2 eps2 / 2 at r2 0.5
    singles = closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.SINGLES,
                                R_HALF, v2=0.87, eps2=0.14)
    assert abs(singles - 0.1036 / 1.9391) < 1e-12
    singles = closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.SINGLES,
                                R_HALF, v2=0.87, eps2=1.0)
    assert abs(singles - 0.74 / 1.565) < 1e-12


def test_anti_correlated_half_visibility_cancels():
    for r2 in R2_GRID:
        got = closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.PAIRS,
                                math.sqrt(r2), v2=0.5)
        assert got == 0.0


def test_split_thermal_power_is_identically_zero():
    for r2 in R2_GRID:
        got = closed_form_power(SourceKind.SPLIT_THERMAL, Normalization.SINGLES,
                                math.sqrt(r2), nbar=0.05)
        assert got == 0.0


def test_power_vanishes_at_trivial_taps():
    for kind, kwargs in (
        (SourceKind.UNCORRELATED, {"nbar": 0.05}),
        (SourceKind.CORRELATED, {}),
        (SourceKind.ANTI_CORRELATED, {"v2": 0.87}),
    ):
        for r in (0.0, 1.0):
            got = closed_form_power(kind, Normalization.PAIRS if kind is not
                                    SourceKind.UNCORRELATED else Normalization.SINGLES,
                                    r, **kwargs)
            assert got == 0.0


def test_power_symmetric_in_reflectivity():
    for r2 in (0.1, 0.2, 0.3):
        lo = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS,
                               math.sqrt(r2))
        hi = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS,
                               math.sqrt(1.0 - r2))
        assert abs(lo - hi) < 1e-12


@pytest.mark.parametrize("eps2", [1.0, 0.5, 0.14])
def test_pair_laws_match_expected_power(eps2):
    specs = (SourceSpec.correlated(s2=0.01), SourceSpec.anti_correlated(s2=0.01, v2=0.87))
    for spec in specs:
        for normalization in Normalization:
            for r2 in (k * 0.05 for k in range(1, 20)):
                r = math.sqrt(r2)
                law = closed_form_power(spec.kind, normalization, r, eps2=eps2, v2=spec.v2)
                exact = expected_power(spec, r, eps2, normalization)
                assert abs(law - exact) <= 1e-12, (spec.kind, normalization, r2)


def test_closed_form_argument_errors():
    with pytest.raises(ValueError):
        closed_form_power(SourceKind.UNCORRELATED, Normalization.PAIRS, 0.5, nbar=0.05)
    with pytest.raises(ValueError):
        closed_form_power(SourceKind.SPLIT_THERMAL, Normalization.PAIRS, 0.5, nbar=0.05)
    with pytest.raises(ValueError):
        closed_form_power(SourceKind.UNCORRELATED, Normalization.SINGLES, 0.5)
    with pytest.warns(Warning), pytest.raises(ValueError):
        # nbar = 1 first trips the low-photon warning, then the divergence guard
        closed_form_power(SourceKind.UNCORRELATED, Normalization.SINGLES, 0.5, nbar=1.0)
    with pytest.raises(ValueError):
        closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.PAIRS, 0.5)
    with pytest.raises(ValueError):
        closed_form_power(SourceKind.CORRELATED, Normalization.SINGLES, 0.5)


def _pipeline_singles(spec, r2, eps2):
    """Normalized imbalance rebuilt from the propagated joint table, and the
    most the bath's truncated tail can move it."""
    source = make_source(spec, cutoff=4)
    outcome = propagate(source, math.sqrt(r2), eps2, canonical_policy(spec.kind))
    p_a, p_b = detector_probs(outcome)
    # the switch only relabels the arms, so the clicks give the singles flux
    flux = (p_a + p_b) / 2.0 / (1.0 - r2)
    return (p_a - p_b) / flux, 2.0 * source.lost_mass / flux


def test_pipeline_matches_closed_form_for_pair_kinds():
    comparisons = (
        (SourceSpec.correlated(s2=0.01), {"eps2": 0.14}),
        (SourceSpec.anti_correlated(s2=0.01, v2=0.87), {"eps2": 0.14, "v2": 0.87}),
    )
    for spec, kwargs in comparisons:
        for r2 in R2_GRID:
            want = closed_form_power(spec.kind, Normalization.SINGLES,
                                     math.sqrt(r2), **kwargs)
            got, _ = _pipeline_singles(spec, r2, 0.14)
            assert abs(got - want) < 1e-10, (spec.kind, r2)


def test_pipeline_matches_exact_power_for_thermal_kinds():
    """The closed form is first order in nbar, so the thermal pipeline is held
    to the all-orders reference; ``test_thermal_law_is_taken_at_the_surviving_mean``
    holds the closed form to it."""
    spec = SourceSpec.uncorrelated(0.05)
    for r2 in R2_GRID:
        want = expected_power(spec, math.sqrt(r2), 1.0, Normalization.SINGLES)
        got, truncation = _pipeline_singles(spec, r2, 1.0)
        assert abs(got - want) <= truncation, r2
        split, _ = _pipeline_singles(SourceSpec.split_thermal(0.05), r2, 1.0)
        assert abs(split) < 1e-12


def test_thermal_law_is_taken_at_the_surviving_mean():
    """Loss thins a thermal arm to mean eps2 * nbar; the law must follow."""
    nbar = 0.05
    for eps2 in (1.0, 0.5, 0.14):
        for r2 in (0.1, 0.5):
            r = math.sqrt(r2)
            closed = closed_form_power(SourceKind.UNCORRELATED, Normalization.SINGLES,
                                       r, nbar=nbar, eps2=eps2)
            exact = expected_power(SourceSpec.uncorrelated(nbar), r, eps2,
                                   Normalization.SINGLES)
            # first order in the surviving mean: the residue shrinks with it
            assert abs(closed / exact - 1.0) <= 5.0 * eps2 * nbar, (eps2, r2)


def test_peak_enhancement_ratio_frozen():
    ratio = peak_enhancement_ratio(0.05)
    want = 0.5 / 0.02770083102493075
    assert abs(ratio - want) < 1e-12
    assert ratio > 10.0
    with pytest.raises(ValueError):
        peak_enhancement_ratio(0.0)
