"""Tests for the click-record information analysis."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demonlab.fock import JointOccupationDistribution
from demonlab.information import (
    DEFAULT_INFO_CUTOFF,
    MAX_EXACT_CUTOFF,
    mutual_information,
    mutual_information_of_joint,
)
from demonlab.protocol import ALL_BAR, TABLE_PAIR, propagate
from demonlab.sources import IN_A, IN_B, PAIR_KINDS, SourceKind, SourceSpec, make_source

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


def test_truncated_joint_reports_no_information_that_is_not_there():
    """The entropies are taken on the joint normalized to its own total, so
    the mass a cutoff drops does not turn into bits, and nothing reads as a
    negative or signed zero."""
    # 2.0e-3 of the split bath lies above 8 photons; this read 2.82e-3 bits
    assert mutual_information(SourceSpec.split_thermal(0.5), 0.0, 1.0,
                              cutoff=8).mutual_info_bits == 0.0
    # fig5b's split-thermal r2 = 0 cell read 4.18e-14 bits
    assert mutual_information(SourceSpec.split_thermal(0.05), 0.0, 1.0).mutual_info_bits == 0.0
    # only vacuum is kept at cutoff 0; both fields read 0.12769
    vacuum = mutual_information(SourceSpec.uncorrelated(0.05), R_HALF, 1.0, cutoff=0)
    assert (vacuum.mutual_info_bits, vacuum.click_entropy_bits) == (0.0, 0.0)
    # no photon survives; the click entropy read -9.6e-16
    dark = mutual_information(SourceSpec.uncorrelated(0.05), R_HALF, 0.0)
    assert (dark.mutual_info_bits, dark.click_entropy_bits) == (0.0, 0.0)
    # nothing is tapped; the click entropy read -0.0
    untapped = mutual_information(SourceSpec.correlated(s2=0.01), 0.0, 1.0)
    assert math.copysign(1.0, untapped.click_entropy_bits) == 1.0
    assert (untapped.mutual_info_bits, untapped.click_entropy_bits) == (0.0, 0.0)


@pytest.mark.parametrize("spec", [
    SourceSpec.uncorrelated(2.0), SourceSpec.uncorrelated(5.0), SourceSpec.uncorrelated(10.0),
    SourceSpec.split_thermal(2.0), SourceSpec.split_thermal(5.0),
], ids=lambda spec: f"{spec.kind.value}-{spec.nbar}")
def test_bright_baths_reveal_nothing_without_taps(spec):
    assert mutual_information(spec, 0.0, 1.0).mutual_info_bits <= 1e-12


def test_bright_bath_automatic_cutoff_is_adequate():
    spec = SourceSpec.uncorrelated(2.0)
    auto = mutual_information(spec, R_HALF, 0.8)
    full = mutual_information(spec, R_HALF, 0.8, cutoff=MAX_EXACT_CUTOFF)
    assert len(auto.joint) < len(full.joint)
    assert abs(auto.mutual_info_bits - full.mutual_info_bits) <= 1e-12
    assert abs(auto.click_entropy_bits - full.click_entropy_bits) <= 1e-12


def test_full_tap_leaves_nothing_to_reveal():
    # r = 1 sends every photon to the monitors: both always click on a pair,
    # nothing is kept, and both entropies collapse
    res = mutual_information(SourceSpec.correlated(s2=0.01), 1.0, 1.0)
    assert res.mutual_info_bits == pytest.approx(0.0, abs=1e-12)
    assert res.click_entropy_bits == pytest.approx(0.0, abs=1e-12)
    assert res.joint[0, 0, 1, 1] == pytest.approx(1.0, abs=1e-12)


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
    """``[kept_a, kept_b, click_a, click_b]`` of an outcome's pre-switch record."""
    cutoff = outcome.dist.cutoff
    joint = np.zeros((cutoff + 1, cutoff + 1, 2, 2))
    for (out_a, out_b, dem_a, dem_b, _la, _lb), p in outcome.dist.entries.items():
        joint[out_a, out_b, int(dem_a >= 1), int(dem_b >= 1)] += p
    return joint


def _scored_source(spec, cutoff):
    """The bath ``mutual_information`` scores: a pair bath's emitted table,
    written out by hand; it does not depend on ``s2``, and a correlated
    pair is an anti-correlated one at ``v2 = 0``."""
    if spec.kind not in PAIR_KINDS:
        return make_source(spec, cutoff)
    v2 = 0.0 if spec.kind is SourceKind.CORRELATED else spec.v2
    pairs = {(2, 0): v2 / 2.0, (0, 2): v2 / 2.0, (1, 1): 1.0 - v2}
    return JointOccupationDistribution((IN_A, IN_B), pairs, cutoff)


def test_information_matches_propagated_joint():
    """The dedicated tally and the full channel pipeline agree on the table."""
    cases = (
        (SourceSpec.correlated(s2=0.01), 4),
        (SourceSpec.anti_correlated(s2=0.01, v2=0.87), 4),
        (SourceSpec.uncorrelated(0.05), 6),
    )
    for spec, cutoff in cases:
        outcome = propagate(_scored_source(spec, cutoff), R_HALF, 0.14, ALL_BAR)
        via_pipeline = mutual_information_of_joint(_joint_from_outcome(outcome))
        direct = mutual_information(spec, R_HALF, 0.14, cutoff=cutoff).mutual_info_bits
        assert abs(via_pipeline - direct) < 1e-10, spec.kind


_unit = st.floats(0.0, 1.0)


# s2 = 0 emits nothing and is refused; subnormal s2 is drawn too
_pair_s2 = st.floats(0.0, 0.1, exclude_min=True)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(SourceSpec.uncorrelated, st.floats(0.0, 2.0)),
    st.builds(SourceSpec.split_thermal, st.floats(0.0, 2.0)),
    st.builds(lambda s2: SourceSpec.correlated(s2=s2), _pair_s2),
    st.builds(lambda s2, v2: SourceSpec.anti_correlated(s2=s2, v2=v2), _pair_s2, _unit),
), _unit, _unit, st.integers(2, 8), st.floats(1e-3, 100.0))
def test_information_matches_propagated_joint_everywhere(spec, r2, eps2, cutoff, s2):
    """The matrix routing and the channel pipeline agree at any truncation,
    and a pair bath, scored per emitted pair, reads the same at any ``s2``."""
    r = math.sqrt(r2)
    via_pipeline = mutual_information_of_joint(
        _joint_from_outcome(propagate(_scored_source(spec, cutoff), r, eps2, ALL_BAR)))
    direct = mutual_information(spec, r, eps2, cutoff=cutoff).mutual_info_bits
    assert abs(via_pipeline - direct) <= 1e-12
    if spec.kind in PAIR_KINDS:
        bits = [mutual_information(replace(spec, s2=x), r, eps2, cutoff=cutoff).mutual_info_bits
                for x in (1e-3, s2)]
        assert abs(bits[0] - bits[1]) <= 1e-13


def test_reported_information_is_the_pre_switch_record():
    """The module scores clicks against the photons before any routing.

    Routing by the clicks concentrates the output record (that is the whole
    point of the sorter), which lowers its marginal entropy and with it the
    mutual information of the post-switch record.  The pre-switch table is
    exactly the record of a switch pinned to bar.
    """
    spec = SourceSpec.correlated(s2=0.01)
    source = _scored_source(spec, cutoff=4)
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
