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
from demonlab.sources import PAIR_KINDS, SourceSpec, make_source

R_HALF = math.sqrt(0.5)
R2_GRID = [k * 0.05 for k in range(11)]
UNCORR, SPLIT = SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05)
CORR = SourceSpec.correlated(s2=0.01)
ANTI = SourceSpec.anti_correlated(s2=0.01, v2=0.87)


def test_uncorrelated_peak_value_frozen():
    got = closed_form_power(UNCORR, R_HALF, 1.0, Normalization.SINGLES)
    # 2 m R2 (1 - R2) / ((1 + m) (1 + R2 m)) at m = 0.05, R2 = 0.5
    assert abs(got - 0.025 / 1.07625) < 1e-15


def test_correlated_pair_peak_is_half():
    got = closed_form_power(CORR, R_HALF, 1.0, Normalization.PAIRS)
    assert abs(got - 0.5) < 1e-15


def test_correlated_singles_scales_by_coupling():
    got = closed_form_power(CORR, R_HALF, 0.14, Normalization.SINGLES)
    assert abs(got - 0.07) < 1e-15
    pairs = closed_form_power(CORR, R_HALF, 0.14, Normalization.PAIRS)
    assert abs(got - 0.14 * pairs) < 1e-15


def test_anti_correlated_frozen_values():
    pairs = closed_form_power(ANTI, R_HALF, 1.0, Normalization.PAIRS)
    assert abs(pairs - 0.37) < 1e-12
    # singles count clicks: 4 eps2 (2 v2 - 1) / 4 over 2 - v2 eps2 / 2 at r2 0.5
    singles = closed_form_power(ANTI, R_HALF, 0.14, Normalization.SINGLES)
    assert abs(singles - 0.1036 / 1.9391) < 1e-12
    singles = closed_form_power(ANTI, R_HALF, 1.0, Normalization.SINGLES)
    assert abs(singles - 0.74 / 1.565) < 1e-12


def test_anti_correlated_half_visibility_cancels():
    spec = SourceSpec.anti_correlated(s2=0.01, v2=0.5)
    for r2 in R2_GRID:
        assert closed_form_power(spec, math.sqrt(r2), 1.0, Normalization.PAIRS) == 0.0


def test_split_thermal_power_is_identically_zero():
    for r2 in R2_GRID:
        assert closed_form_power(SPLIT, math.sqrt(r2), 1.0, Normalization.SINGLES) == 0.0


def test_power_vanishes_at_trivial_taps():
    for spec, normalization in ((UNCORR, Normalization.SINGLES),
                                (CORR, Normalization.PAIRS), (ANTI, Normalization.PAIRS)):
        for r in (0.0, 1.0):
            assert closed_form_power(spec, r, 1.0, normalization) == 0.0


def test_power_symmetric_in_reflectivity():
    for r2 in (0.1, 0.2, 0.3):
        lo = closed_form_power(CORR, math.sqrt(r2), 1.0, Normalization.PAIRS)
        hi = closed_form_power(CORR, math.sqrt(1.0 - r2), 1.0, Normalization.PAIRS)
        assert abs(lo - hi) < 1e-12


@pytest.mark.parametrize("eps2", [1.0, 0.5, 0.14])
def test_pair_laws_match_expected_power(eps2):
    """Every law is exact: all four baths, bright thermal ones included, and
    the thermal law at the surviving mean ``eps2 * nbar``."""
    specs = [CORR, ANTI, *(make(nbar) for make in (SourceSpec.uncorrelated,
                                                     SourceSpec.split_thermal)
                           for nbar in (0.05, 0.5, 2.0))]
    for spec in specs:
        for normalization in Normalization:
            if normalization is Normalization.PAIRS and spec.kind not in PAIR_KINDS:
                continue
            for r2 in (k * 0.05 for k in range(1, 20)):
                r = math.sqrt(r2)
                law = closed_form_power(spec, r, eps2, normalization)
                exact = expected_power(spec, r, eps2, normalization)
                assert abs(law - exact) <= 1e-12, (spec, normalization, r2)


def test_closed_form_argument_errors():
    for spec in (UNCORR, SPLIT):
        with pytest.raises(ValueError, match="pair normalization"):
            closed_form_power(spec, 0.5, 1.0, Normalization.PAIRS)
    with pytest.raises(ValueError):
        closed_form_power(CORR, 1.5, 1.0, Normalization.PAIRS)
    with pytest.raises(ValueError):
        closed_form_power(CORR, 0.5, 1.5, Normalization.SINGLES)
    with pytest.raises(ValueError):
        closed_form_power(CORR, 0.5, 1.0, "coincidences")
    # no divergence: the exact law is finite at any brightness
    assert 0.0 < closed_form_power(SourceSpec.uncorrelated(1.0), 0.5, 1.0, "singles") < 0.5


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
    for spec in (CORR, ANTI):
        for r2 in R2_GRID:
            want = closed_form_power(spec, math.sqrt(r2), 0.14, Normalization.SINGLES)
            got, _ = _pipeline_singles(spec, r2, 0.14)
            assert abs(got - want) < 1e-10, (spec.kind, r2)


def test_pipeline_matches_exact_power_for_thermal_kinds():
    """The truncated thermal pipeline reaches the all-orders reference to
    within its tail."""
    for r2 in R2_GRID:
        want = expected_power(UNCORR, math.sqrt(r2), 1.0, Normalization.SINGLES)
        got, truncation = _pipeline_singles(UNCORR, r2, 1.0)
        assert abs(got - want) <= truncation, r2
        split, _ = _pipeline_singles(SPLIT, r2, 1.0)
        assert abs(split) < 1e-12


def test_peak_enhancement_ratio_frozen():
    ratio = peak_enhancement_ratio(0.05)
    assert abs(ratio - 21.525) < 1e-12
    assert ratio > 10.0
    with pytest.raises(ValueError):
        peak_enhancement_ratio(0.0)
