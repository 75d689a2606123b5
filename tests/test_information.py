"""Tests for the click-record information analysis."""

import math

import pytest

from demonlab.information import (
    DEFAULT_INFO_CUTOFF,
    mutual_information,
    mutual_information_of_joint,
)
from demonlab.protocol import ALL_BAR, TABLE_PAIR, propagate
from demonlab.sources import SourceSpec, make_source

R_HALF = math.sqrt(0.5)


def test_heralded_pair_at_balanced_tap_reveals_two_bits():
    """Four equally likely click patterns, each pinning the kept photons."""
    res = mutual_information(SourceSpec.correlated(s2=0.01), R_HALF, 1.0)
    assert abs(res.mutual_info_bits - 2.0) < 1e-12
    assert abs(res.click_entropy_bits - 2.0) < 1e-12


def test_information_vanishes_without_taps_or_light():
    specs = (
        SourceSpec.uncorrelated(0.05),
        SourceSpec.split_thermal(0.05),
        SourceSpec.correlated(s2=0.01),
        SourceSpec.anti_correlated(s2=0.01, v2=0.87),
    )
    for spec in specs:
        assert mutual_information(spec, 0.0, 0.14).mutual_info_bits == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(spec, 0.5, 0.0).mutual_info_bits == pytest.approx(0.0, abs=1e-12)


def test_information_vanishes_without_taps_for_bright_thermal_baths():
    """Nothing clicks at r2 = 0; a truncation that drops mass unaccounted
    would show a spurious bit count here (1.76e-4 for the split bath at a
    fixed cutoff of 12)."""
    for spec in (SourceSpec.uncorrelated(0.5), SourceSpec.split_thermal(0.5)):
        assert mutual_information(spec, 0.0, 1.0).mutual_info_bits <= 1e-12, spec


def test_full_tap_leaves_nothing_to_reveal():
    # r = 1 sends every photon to the monitors: both always click on a pair,
    # nothing is kept, and both entropies collapse
    res = mutual_information(SourceSpec.correlated(s2=0.01), 1.0, 1.0)
    assert res.mutual_info_bits == pytest.approx(0.0, abs=1e-12)
    assert res.click_entropy_bits == pytest.approx(0.0, abs=1e-12)
    assert res.joint[((True, True), (0, 0))] == pytest.approx(1.0, abs=1e-12)


def test_information_bounds():
    specs = (
        SourceSpec.uncorrelated(0.05),
        SourceSpec.split_thermal(0.05),
        SourceSpec.correlated(s2=0.01),
        SourceSpec.anti_correlated(s2=0.01, v2=0.87),
    )
    for spec in specs:
        for r2 in (0.1, 0.25, 0.5):
            res = mutual_information(spec, math.sqrt(r2), 0.14)
            assert -1e-12 <= res.mutual_info_bits <= res.click_entropy_bits + 1e-12
            assert res.click_entropy_bits <= 2.0 + 1e-12


def test_pair_specs_analyzed_post_selected():
    plain = mutual_information(SourceSpec.correlated(s2=0.01), 0.5, 0.14)
    flagged = mutual_information(SourceSpec.correlated(s2=0.01, drop_vacuum=True), 0.5, 0.14)
    assert abs(plain.mutual_info_bits - flagged.mutual_info_bits) < 1e-15


def test_correlated_baths_reveal_more_than_uncorrelated():
    for r2 in (0.1, 0.25, 0.5):
        u = mutual_information(SourceSpec.uncorrelated(0.05), math.sqrt(r2), 0.14)
        c = mutual_information(SourceSpec.correlated(s2=0.01), math.sqrt(r2), 0.14)
        a = mutual_information(SourceSpec.anti_correlated(s2=0.01, v2=0.87),
                               math.sqrt(r2), 0.14)
        assert c.mutual_info_bits > u.mutual_info_bits
        assert a.mutual_info_bits > u.mutual_info_bits


def test_shared_mode_bath_comparison():
    """Splitting one parent mode across both arms, with the parent brightness
    matching one uncorrelated arm, reveals slightly less than independent arms.

    At equal per-arm brightness the shared mode instead reveals about twice
    as much, because cross-arm bunching is itself informative; both readings
    are frozen below so a change in either direction is caught.
    """
    u = mutual_information(SourceSpec.uncorrelated(0.05), 0.5, 0.14).mutual_info_bits
    parent_matched = mutual_information(SourceSpec.split_thermal(0.025), 0.5, 0.14).mutual_info_bits
    equal_arm = mutual_information(SourceSpec.split_thermal(0.05), 0.5, 0.14).mutual_info_bits
    assert parent_matched < u
    assert abs(u - 1.0163553265779827e-05) < 1e-11
    assert abs(parent_matched - 5.084267650215332e-06) < 1e-11
    assert abs(equal_arm - 2.0194944122958236e-05) < 1e-11
    assert 1.8 < equal_arm / u < 2.1


def _joint_from_outcome(outcome):
    joint = {}
    for (out_a, out_b, dem_a, dem_b, _la, _lb), p in outcome.dist.entries.items():
        key = ((dem_a >= 1, dem_b >= 1), (out_a, out_b))
        joint[key] = joint.get(key, 0.0) + p
    return joint


def test_information_matches_propagated_joint():
    """The dedicated tally and the full channel pipeline agree on the table."""
    cases = (
        (SourceSpec.correlated(s2=0.01, drop_vacuum=True), 4),
        (SourceSpec.anti_correlated(s2=0.01, v2=0.87, drop_vacuum=True), 4),
        (SourceSpec.uncorrelated(0.05), 6),
    )
    for spec, cutoff in cases:
        outcome = propagate(make_source(spec, cutoff), R_HALF, 0.14, ALL_BAR)
        via_pipeline = mutual_information_of_joint(_joint_from_outcome(outcome))
        direct = mutual_information(spec, R_HALF, 0.14, cutoff=cutoff).mutual_info_bits
        assert abs(via_pipeline - direct) < 1e-10, spec.kind


def test_reported_information_is_the_pre_switch_record():
    """The module scores clicks against the photons before any routing.

    Routing by the clicks concentrates the output record (that is the whole
    point of the sorter), which lowers its marginal entropy and with it the
    mutual information of the post-switch record.  The pre-switch table is
    exactly the record of a switch pinned to bar.
    """
    spec = SourceSpec.correlated(s2=0.01, drop_vacuum=True)
    source = make_source(spec, cutoff=4)
    bar = mutual_information_of_joint(
        _joint_from_outcome(propagate(source, R_HALF, 0.8, ALL_BAR)))
    routed = mutual_information_of_joint(
        _joint_from_outcome(propagate(source, R_HALF, 0.8, TABLE_PAIR)))
    reported = mutual_information(spec, R_HALF, 0.8, cutoff=4).mutual_info_bits
    assert abs(bar - reported) < 1e-12
    assert routed < bar


def test_default_cutoff_is_adequate():
    coarse = mutual_information(SourceSpec.uncorrelated(0.05), 0.5, 0.14, cutoff=8)
    fine = mutual_information(SourceSpec.uncorrelated(0.05), 0.5, 0.14,
                              cutoff=DEFAULT_INFO_CUTOFF)
    assert abs(coarse.mutual_info_bits - fine.mutual_info_bits) < 1e-9
