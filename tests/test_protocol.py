"""Tests for the click-driven routing protocol and its policies."""

import math

import numpy as np
import pytest

from demonlab.fock import JointOccupationDistribution
from demonlab.protocol import (
    ALL_BAR,
    ALL_CROSS,
    ALL_PATTERNS,
    DEM_A,
    DEM_B,
    LOSS_A,
    LOSS_B,
    OUT_A,
    OUT_B,
    OUTCOME_MODES,
    ClickPattern,
    Policy,
    SwitchState,
    TABLE_PAIR,
    TABLE_THERMAL,
    arm_kernel,
    binomial_rows,
    canonical_policy,
    detector_probs,
    expected_power,
    propagate,
)
from demonlab.sources import IN_A, IN_B, SourceKind, SourceSpec, make_source

R_HALF = math.sqrt(0.5)


def test_policy_tables():
    # the thermal table swaps only on a lone B-side click
    assert TABLE_THERMAL.switch_for(ClickPattern(False, True)) is SwitchState.CROSS
    assert TABLE_THERMAL.switch_for(ClickPattern(True, False)) is SwitchState.BAR
    assert TABLE_THERMAL.switch_for(ClickPattern(False, False)) is SwitchState.BAR
    assert TABLE_THERMAL.switch_for(ClickPattern(True, True)) is SwitchState.BAR
    # the pair table swaps on the opposite lone click
    assert TABLE_PAIR.switch_for(ClickPattern(True, False)) is SwitchState.CROSS
    assert TABLE_PAIR.switch_for(ClickPattern(False, True)) is SwitchState.BAR
    for pattern in ALL_PATTERNS:
        assert ALL_BAR.switch_for(pattern) is SwitchState.BAR
        assert ALL_CROSS.switch_for(pattern) is SwitchState.CROSS


def test_policy_requires_total_table():
    with pytest.raises(ValueError):
        Policy({ClickPattern(False, False): SwitchState.BAR})


def test_canonical_policy_per_kind():
    assert canonical_policy(SourceKind.UNCORRELATED) is TABLE_THERMAL
    assert canonical_policy(SourceKind.SPLIT_THERMAL) is TABLE_THERMAL
    assert canonical_policy(SourceKind.ANTI_CORRELATED) is TABLE_THERMAL
    assert canonical_policy(SourceKind.CORRELATED) is TABLE_PAIR


def test_propagate_rejects_wrong_modes():
    bad = JointOccupationDistribution.vacuum(("x", "y"))
    with pytest.raises(ValueError):
        propagate(bad, R_HALF, 1.0, ALL_BAR)


def test_vacuum_propagates_to_vacuum():
    vac = JointOccupationDistribution.vacuum((IN_A, IN_B))
    outcome = propagate(vac, R_HALF, 1.0, TABLE_THERMAL)
    assert outcome.dist.mode_labels == OUTCOME_MODES
    assert outcome.dist.probability((0, 0, 0, 0, 0, 0)) == 1.0
    assert detector_probs(outcome) == (0.0, 0.0)


def test_propagate_conserves_photons_across_policies():
    """The switch only permutes output arms, so totals cannot depend on it."""
    source = make_source(SourceSpec.uncorrelated(0.05), cutoff=4)
    means = []
    for policy in (ALL_BAR, ALL_CROSS, TABLE_THERMAL, TABLE_PAIR):
        outcome = propagate(source, 0.5, 0.6, policy)
        total = sum(
            outcome.dist.mean_photons(m)
            for m in (OUT_A, OUT_B, DEM_A, DEM_B, LOSS_A, LOSS_B)
        )
        output = (outcome.dist.mean_photons(OUT_A)
                  + outcome.dist.mean_photons(OUT_B))
        means.append((output, total))
    for pair, ref in zip(means[1:], means):
        assert abs(pair[0] - means[0][0]) < 1e-12
        assert abs(pair[1] - means[0][1]) < 1e-12


def test_transposed_policy_negates_imbalance():
    """On a bath symmetric in its arms, mirroring the monitor clicks of a
    policy mirrors the outputs, so the imbalance changes sign."""
    mirrors = [(TABLE_THERMAL, TABLE_PAIR)] + [
        (Policy.swap_on(ClickPattern(a, b)), Policy.swap_on(ClickPattern(b, a)))
        for a in (False, True) for b in (False, True)]
    for spec in (
        SourceSpec.uncorrelated(0.05),
        SourceSpec.correlated(s2=0.01),
        SourceSpec.anti_correlated(s2=0.01, v2=0.87),
    ):
        source = make_source(spec, cutoff=4)
        for policy, mirror in mirrors:
            p_a, p_b = detector_probs(propagate(source, 0.55, 0.8, policy))
            q_a, q_b = detector_probs(propagate(source, 0.55, 0.8, mirror))
            assert abs((p_a - p_b) + (q_a - q_b)) < 1e-12


def test_split_bath_yields_zero_imbalance_for_any_single_swap_policy():
    source = make_source(SourceSpec.split_thermal(0.05), cutoff=6)
    for pattern in ALL_PATTERNS:
        policy = Policy.swap_on(pattern)
        for r2 in (0.1, 0.3, 0.5):
            p_a, p_b = detector_probs(propagate(source, math.sqrt(r2), 1.0, policy))
            assert abs(p_a - p_b) < 1e-12, (pattern, r2)


#: A heralded pair: the correlated bath given that it emitted.
PURE_PAIR = JointOccupationDistribution((IN_A, IN_B), {(1, 1): 1.0}, cutoff=4)


def test_heralded_pair_routing_table():
    """A heralded pair at r**2 = 1/2 sorts one photon to D_A a quarter of the time."""
    outcome = propagate(PURE_PAIR, R_HALF, 1.0, TABLE_PAIR)
    # lone Dem_A click with the surviving partner routed across to D_A
    assert abs(outcome.dist.probability((1, 0, 1, 0, 0, 0)) - 0.25) < 1e-15
    p_a, p_b = detector_probs(outcome)
    assert abs((p_a - p_b) - 0.5) < 1e-15


def test_correlated_pipeline_matches_quadratic_law():
    for r2 in (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0):
        p_a, p_b = detector_probs(propagate(PURE_PAIR, math.sqrt(r2), 1.0, TABLE_PAIR))
        assert abs((p_a - p_b) - 2.0 * r2 * (1.0 - r2)) < 1e-12


def test_all_bar_keeps_arms_symmetric_for_symmetric_sources():
    for spec in (SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05)):
        p_a, p_b = detector_probs(propagate(make_source(spec, 4), 0.5, 0.3, ALL_BAR))
        assert abs(p_a - p_b) < 1e-12


def test_loss_modes_track_upstream_attenuation():
    source = make_source(SourceSpec.uncorrelated(0.1), cutoff=4)
    outcome = propagate(source, 0.5, 0.6, ALL_BAR)
    lost = outcome.dist.mean_photons(LOSS_A) + outcome.dist.mean_photons(LOSS_B)
    fed = 2 * 0.1  # two arms, truncated tail keeps this approximate
    assert abs(lost - 0.4 * fed) < 1e-3
    perfect = propagate(source, 0.5, 1.0, ALL_BAR)
    assert all(occ[4] == 0 and occ[5] == 0 for occ in perfect.dist.entries)


def test_clicks_count_any_occupation():
    # two photons on one detector still count as a single click
    dist = JointOccupationDistribution(OUTCOME_MODES, {(2, 0, 0, 0, 0, 0): 1.0}, cutoff=2)
    from demonlab.protocol import DemonOutcome

    p_a, p_b = detector_probs(DemonOutcome(dist))
    assert (p_a, p_b) == (1.0, 0.0)


def test_demon_outcome_enforces_mode_order():
    from demonlab.protocol import DemonOutcome

    good = JointOccupationDistribution.vacuum(OUTCOME_MODES)
    DemonOutcome(good)
    bad = JointOccupationDistribution.vacuum(tuple(reversed(OUTCOME_MODES)))
    with pytest.raises(ValueError):
        DemonOutcome(bad)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.86, 1.0])
def test_binomial_rows_match_the_closed_form(p):
    want = np.array([[math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) if k <= n else 0.0
                      for k in range(41)] for n in range(41)])
    np.testing.assert_allclose(binomial_rows(40, p), want, rtol=1e-13, atol=0.0)


def test_arm_kernel_matches_the_closed_form():
    """Each cell is ``C(n, k) eps2**k (1-eps2)**(n-k) * C(k, m) r2**m (1-r2)**(k-m)``."""
    r2, eps2 = 0.3, 0.6
    for n, row in enumerate(arm_kernel(12, math.sqrt(r2), eps2)):
        for (kept, tapped, lost), p in row.items():
            k = kept + tapped
            want = (math.comb(n, k) * eps2 ** k * (1.0 - eps2) ** lost
                    * math.comb(k, tapped) * r2 ** tapped * (1.0 - r2) ** kept)
            assert p == pytest.approx(want, rel=1e-13)
        assert len(row) == (n + 1) * (n + 2) // 2


def test_arm_kernel_rows_are_distributions():
    kernel = arm_kernel(6, math.sqrt(0.3), 0.6)
    assert len(kernel) == 7
    for n, row in enumerate(kernel):
        assert all(sum(cell) == n for cell in row)
        assert abs(math.fsum(row.values()) - 1.0) < 1e-15
    # a lossless arm loses nothing, and an untapped one taps nothing
    assert all(lost == 0 for row in arm_kernel(4, 0.5, 1.0) for _, _, lost in row)
    assert all(tapped == 0 for row in arm_kernel(4, 0.0, 0.6) for _, tapped, _ in row)


def test_expected_power_reference_values():
    thermal = expected_power(SourceSpec.uncorrelated(0.05), R_HALF, 1.0, "singles")
    assert abs(thermal - 0.0232288037166) < 1e-12
    pairs = expected_power(SourceSpec.correlated(s2=0.01), R_HALF, 1.0, "pairs")
    assert abs(pairs - 0.5) < 1e-12
    anti = expected_power(SourceSpec.anti_correlated(s2=0.01, v2=0.87), R_HALF, 1.0,
                          "pairs")
    assert abs(anti - 0.37) < 1e-12
    assert abs(expected_power(SourceSpec.split_thermal(0.05), R_HALF, 0.14,
                              "singles")) < 1e-15


def test_expected_power_refuses_what_it_cannot_compute():
    with pytest.raises(ValueError, match="pair normalization"):
        expected_power(SourceSpec.uncorrelated(0.05), R_HALF, 1.0, "pairs")
    with pytest.raises(ValueError, match="denominator"):
        expected_power(SourceSpec.correlated(s2=0.01), 0.0, 1.0, "pairs")
    with pytest.raises(ValueError, match="denominator"):
        expected_power(SourceSpec.uncorrelated(0.05), R_HALF, 0.0, "singles")
    # a subnormal rate keeps too few digits to place the imbalance
    with pytest.raises(ValueError, match="denominator"):
        expected_power(SourceSpec.uncorrelated(2.2250738585e-313), math.sqrt(0.75), 0.75,
                       "singles")
    # brightness is no limit: the generating function needs no truncation
    bright = SourceSpec.split_thermal(2.0)
    assert abs(expected_power(bright, R_HALF, 1.0, "singles")) <= 1e-15
