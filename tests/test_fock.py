"""Tests for the truncated Fock-space layer: validators, distributions, channels."""

import json
import math

import numpy as np
import pytest

from demonlab.fock import (
    DEFAULT_CUTOFF,
    JointOccupationDistribution,
    as_amplitude,
    as_efficiency,
    as_nbar,
    beamsplitter_split,
    joint_detection_pmf,
    loss_channel,
    single_mode_thermal,
    thermal_pmf,
)


def test_mean_photon_number_validation():
    assert as_nbar(0.05) == 0.05
    assert as_nbar(2.0) == 2.0  # bright baths are valid: every closed form is exact
    with pytest.raises(ValueError):
        as_nbar(-0.01)
    with pytest.raises(ValueError):
        as_nbar(float("nan"))
    with pytest.raises(ValueError):
        as_nbar(float("inf"))


def test_reflection_amplitude_roundtrip():
    r = as_amplitude(math.sqrt(0.5))
    assert abs(r * r - 0.5) < 1e-15
    assert abs(r - math.sqrt(0.5)) < 1e-15
    with pytest.raises(ValueError):
        as_amplitude(1.5)
    with pytest.raises(ValueError):
        as_amplitude(-0.1)


def test_coercers_reject_out_of_range():
    assert as_nbar(0.05) == 0.05
    assert as_efficiency(0.14) == 0.14
    with pytest.raises(ValueError):
        as_efficiency(1.01)
    with pytest.raises(ValueError):
        as_amplitude(-0.2)


def test_thermal_pmf_frozen_values():
    # geometric law nbar**n / (1+nbar)**(n+1)
    assert thermal_pmf(0.0, 0) == 1.0
    assert thermal_pmf(0.0, 3) == 0.0
    assert abs(thermal_pmf(0.05, 0) - 0.9523809523809523) < 1e-15
    assert abs(thermal_pmf(0.05, 1) - 0.045351473922902494) < 1e-15
    assert abs(thermal_pmf(0.05, 2) - 0.0021595939963286906) < 1e-15
    with pytest.raises(ValueError):
        thermal_pmf(0.05, -1)


def test_thermal_pmf_sums_to_one():
    total = math.fsum(thermal_pmf(0.05, n) for n in range(200))
    assert abs(total - 1.0) < 1e-15


def test_single_mode_thermal_tail_bookkeeping():
    dist = single_mode_thermal(0.05, cutoff=4)
    assert dist.mode_labels == ("In_A",)
    assert dist.cutoff == 4
    tail = (0.05 / 1.05) ** 5
    assert abs(dist.lost_mass - tail) < 1e-15
    # total_mass already folds the truncated tail back in
    assert abs(dist.total_mass - 1.0) < 1e-12
    assert abs(dist.probability((0,)) - 0.9523809523809523) < 1e-15


def test_distribution_rejects_bad_entries():
    with pytest.raises(ValueError):
        JointOccupationDistribution(("a",), {(5,): 1.0}, cutoff=4)
    with pytest.raises(ValueError):
        JointOccupationDistribution(("a",), {(0, 0): 1.0}, cutoff=4)
    with pytest.raises(ValueError):
        JointOccupationDistribution(("a",), {(-1,): 1.0}, cutoff=4)
    with pytest.raises(ValueError):
        JointOccupationDistribution(("a",), {(0,): 0.5}, cutoff=4)
    with pytest.raises(ValueError):
        JointOccupationDistribution(("a", "a"), {(0, 0): 1.0}, cutoff=4)


def test_vacuum_and_renamed():
    vac = JointOccupationDistribution.vacuum(("x", "y"))
    assert vac.probability((0, 0)) == 1.0
    assert vac.mean_photons("x") == 0.0
    with pytest.raises(ValueError):
        vac.mode_index("z")


def test_beamsplitter_split_frozen_two_photon_case():
    base = JointOccupationDistribution(("in",), {(2,): 1.0}, cutoff=2)
    out = beamsplitter_split(base, "in", math.sqrt(0.5), "tap")
    assert out.mode_labels == ("in", "tap")
    assert abs(out.probability((2, 0)) - 0.25) < 1e-15
    assert abs(out.probability((1, 1)) - 0.5) < 1e-15
    assert abs(out.probability((0, 2)) - 0.25) < 1e-15


def test_beamsplitter_zero_reflectivity_is_identity():
    dist = single_mode_thermal(0.05, cutoff=4)
    out = beamsplitter_split(dist, "In_A", 0.0, "tap")
    for n in range(5):
        assert abs(out.probability((n, 0)) - dist.probability((n,))) < 1e-15
    assert out.lost_mass == dist.lost_mass


def test_beamsplitter_conserves_mean_photons():
    dist = single_mode_thermal(0.1, cutoff=6)
    out = beamsplitter_split(dist, "In_A", math.sqrt(0.3), "tap")
    before = dist.mean_photons("In_A")
    after = out.mean_photons("In_A") + out.mean_photons("tap")
    assert abs(before - after) < 1e-12
    assert abs(out.mean_photons("tap") - 0.3 * before) < 1e-12


def test_beamsplitter_rejects_duplicate_mode():
    dist = single_mode_thermal(0.05)
    with pytest.raises(ValueError):
        beamsplitter_split(dist, "In_A", 0.5, "In_A")


def test_loss_channel_frozen_two_photon_case():
    base = JointOccupationDistribution(("m",), {(2,): 1.0}, cutoff=2)
    out = loss_channel(base, "m", 0.14)
    assert abs(out.probability((2,)) - 0.0196) < 1e-15
    assert abs(out.probability((1,)) - 0.2408) < 1e-15
    assert abs(out.probability((0,)) - 0.7396) < 1e-15


def test_loss_channel_limits():
    dist = single_mode_thermal(0.05, cutoff=4)
    ident = loss_channel(dist, "In_A", 1.0)
    for n in range(5):
        assert abs(ident.probability((n,)) - dist.probability((n,))) < 1e-15
    dark = loss_channel(dist, "In_A", 0.0)
    assert abs(dark.probability((0,)) + dark.lost_mass - 1.0) < 1e-12


def test_loss_channel_scales_mean():
    dist = single_mode_thermal(0.1, cutoff=8)
    out = loss_channel(dist, "In_A", 0.14)
    assert abs(out.mean_photons("In_A") - 0.14 * dist.mean_photons("In_A")) < 1e-12


def test_loss_channel_with_loss_mode_matches_split():
    dist = single_mode_thermal(0.05, cutoff=4)
    kept = loss_channel(dist, "In_A", 0.14, loss_mode="gone")
    split = beamsplitter_split(dist, "In_A", math.sqrt(1.0 - 0.14), "gone")
    for occ, p in split.entries.items():
        assert abs(kept.probability(occ) - p) < 1e-15
    # splitting, then tracing out the tap, is thinning
    tapped = beamsplitter_split(dist, "In_A", 0.5, "tap")
    thinned = loss_channel(dist, "In_A", 0.75)
    for n in range(5):
        traced = math.fsum(p for occ, p in tapped.entries.items() if occ[0] == n)
        assert abs(traced - thinned.probability((n,))) < 1e-12


def test_loss_commutes_with_split_when_applied_to_both_arms():
    """Thinning before the tap equals thinning both arms after it."""
    rng = np.random.default_rng(7)
    weights = rng.random(5)
    weights /= weights.sum()
    pmf = {n: float(w) for n, w in enumerate(weights)}
    base = JointOccupationDistribution.from_single_mode("in", pmf, cutoff=4)
    r = math.sqrt(0.3)

    after = beamsplitter_split(base, "in", r, "tap")
    after = loss_channel(after, "in", 0.14)
    after = loss_channel(after, "tap", 0.14)
    before = beamsplitter_split(loss_channel(base, "in", 0.14), "in", r, "tap")
    keys = set(after.entries) | set(before.entries)
    for occ in keys:
        assert abs(after.probability(occ) - before.probability(occ)) < 1e-12


def test_joint_detection_pmf_frozen_values():
    assert abs(joint_detection_pmf(0.05, math.sqrt(0.5), 0, 0) - 0.9523809523809523) < 1e-15
    assert abs(joint_detection_pmf(0.05, math.sqrt(0.5), 0, 1) - 0.022675736961451247) < 1e-15
    # symmetric tap: swapping kept and tapped counts is a symmetry at r**2 = 1/2
    assert abs(
        joint_detection_pmf(0.05, math.sqrt(0.5), 2, 1)
        - joint_detection_pmf(0.05, math.sqrt(0.5), 1, 2)
    ) < 1e-18


def test_joint_detection_pmf_matches_channel_pipeline():
    r = math.sqrt(0.3)
    dist = beamsplitter_split(single_mode_thermal(0.05, cutoff=4), "In_A", r, "tap")
    for m in range(5):
        for n in range(5 - m):
            want = joint_detection_pmf(0.05, r, m, n)
            assert abs(dist.probability((m, n)) - want) < 1e-15


def test_joint_detection_pmf_normalizes():
    total = math.fsum(
        joint_detection_pmf(0.05, 0.6, m, n) for m in range(60) for n in range(60 - m)
    )
    assert abs(total - 1.0) < 1e-12


def test_joint_detection_pmf_rejects_negative_counts():
    with pytest.raises(ValueError):
        joint_detection_pmf(0.05, 0.5, -1, 0)
    with pytest.raises(ValueError):
        joint_detection_pmf(0.05, 0.5, 0, -1)


def test_distribution_entries_survive_json_roundtrip():
    dist = single_mode_thermal(0.05, cutoff=3)
    payload = {str(k[0]): v for k, v in dist.entries.items()}
    assert json.loads(json.dumps(payload)) == payload
