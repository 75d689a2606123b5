"""Exhaustive per-photon path enumeration checked against the channel pipeline.

The oracle shares no code with the channel model beyond the source tables,
so entrywise agreement here validates both constructions at once.
"""

import json
import math

import numpy as np
import pytest

from demonlab.fock import JointOccupationDistribution
from demonlab.information import mutual_information, mutual_information_of_joint
from demonlab.oracle import (
    MAX_PATHS,
    clicks_vs_kept_joint,
    compare,
    enumerate_outcomes,
    symbolic_delta_pairs,
    symbolic_delta_uncorrelated,
    truncated_uncorrelated_delta,
)
from demonlab.protocol import (
    ALL_BAR,
    OUTCOME_MODES,
    TABLE_PAIR,
    TABLE_THERMAL,
    DemonOutcome,
    canonical_policy,
    detector_probs,
    propagate,
)
from demonlab.sources import IN_A, IN_B, SourceSpec, make_source

ALL_SPECS = (
    SourceSpec.uncorrelated(0.05),
    SourceSpec.split_thermal(0.05),
    SourceSpec.correlated(s2=0.01),
    SourceSpec.anti_correlated(s2=0.01, v2=0.87),
)


def test_oracle_matches_pipeline_on_grid():
    for spec in ALL_SPECS:
        policy = canonical_policy(spec.kind)
        for r2 in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            for eps2 in (1.0, 0.14):
                r = math.sqrt(r2)
                report = enumerate_outcomes(spec, r, eps2, policy)
                outcome = propagate(make_source(spec, 4), r, eps2, policy)
                worst = compare(report, outcome, tol=1e-12)
                assert worst <= 1e-12


def _emitted_share(spec):
    """The share of a pair bath's slots that carry an emission, ``1 - p_vac``."""
    return 1.0 - make_source(spec).entries[(0, 0)]


def test_oracle_matches_pipeline_per_emitted_pair():
    spec = SourceSpec.correlated(s2=0.01)
    report = enumerate_outcomes(spec, math.sqrt(0.5), 1.0, TABLE_PAIR)
    outcome = propagate(make_source(spec, 4), math.sqrt(0.5), 1.0, TABLE_PAIR)
    compare(report, outcome, tol=1e-12)
    assert abs(report.delta / _emitted_share(spec) - 0.5) < 1e-15


def test_compare_detects_small_perturbations():
    spec = SourceSpec.correlated(s2=0.01)
    report = enumerate_outcomes(spec, math.sqrt(0.5), 1.0, TABLE_PAIR)
    outcome = propagate(make_source(spec, 4), math.sqrt(0.5), 1.0, TABLE_PAIR)
    entries = dict(outcome.dist.entries)
    keys = sorted(entries)[:2]
    # move mass between two cells so the table still normalizes
    entries[keys[0]] += 1e-6
    entries[keys[1]] -= 1e-6
    bad = DemonOutcome(JointOccupationDistribution(
        OUTCOME_MODES, entries, outcome.dist.cutoff, outcome.dist.lost_mass))
    with pytest.raises(AssertionError):
        compare(report, bad, tol=1e-12)


def test_compare_rejects_foreign_mode_order():
    report = enumerate_outcomes(SourceSpec.correlated(s2=0.01), 0.5, 1.0, TABLE_PAIR)
    wrong = DemonOutcome.__new__(DemonOutcome)
    object.__setattr__(wrong, "dist",
                       JointOccupationDistribution.vacuum(tuple(reversed(OUTCOME_MODES))))
    with pytest.raises(ValueError):
        compare(report, wrong)


def test_path_budget_guard():
    with pytest.raises(ValueError):
        enumerate_outcomes(SourceSpec.uncorrelated(0.05), 0.5, 1.0,
                           TABLE_THERMAL, cutoff=14)
    # sanity: the guard limit itself is generous enough for the default cutoff
    report = enumerate_outcomes(SourceSpec.uncorrelated(0.05), 0.5, 1.0, TABLE_THERMAL)
    assert report.paths < MAX_PATHS


def test_split_source_has_exactly_zero_imbalance():
    for r2 in (0.1, 0.3, 0.5):
        report = enumerate_outcomes(SourceSpec.split_thermal(0.05), math.sqrt(r2),
                                    1.0, TABLE_THERMAL, cutoff=6)
        assert abs(report.delta) < 1e-12


def test_vacuum_reflectivity_gives_zero_delta():
    for spec in ALL_SPECS:
        report = enumerate_outcomes(spec, 0.0, 1.0, canonical_policy(spec.kind))
        assert report.delta == 0.0


def test_symbolic_uncorrelated_equals_single_photon_truncation():
    for r2 in (0.1, 0.3, 0.5):
        r = math.sqrt(r2)
        truncated = truncated_uncorrelated_delta(0.05, r, TABLE_THERMAL)
        symbolic = symbolic_delta_uncorrelated(0.05, r)
        assert abs(truncated - symbolic) < 1e-15


def test_enumerated_uncorrelated_close_to_symbolic():
    # the full walk keeps multi-photon slots the symbolic row drops, so the
    # two agree only to second order in nbar
    for r2 in (0.1, 0.3, 0.5):
        r = math.sqrt(r2)
        full = enumerate_outcomes(SourceSpec.uncorrelated(0.05), r, 1.0,
                                  TABLE_THERMAL).delta
        symbolic = symbolic_delta_uncorrelated(0.05, r)
        assert abs(full - symbolic) < 5 * 0.05 ** 2


def test_symbolic_pairs_match_enumeration():
    for eps2 in (1.0, 0.6, 0.14):
        for r2 in (0.1, 0.3, 0.5):
            r = math.sqrt(r2)
            spec = SourceSpec.correlated(s2=0.01)
            diluted = enumerate_outcomes(spec, r, eps2, TABLE_PAIR).delta
            pure = diluted / _emitted_share(spec)
            assert abs(pure - symbolic_delta_pairs(1.0, r, eps2)) < 1e-12
            weight = 0.01 / 1.01
            assert abs(diluted - symbolic_delta_pairs(weight, r, eps2)) < 1e-12


def test_symbolic_anti_pairs_and_visibility_null():
    for r2 in (0.1, 0.3, 0.5):
        r = math.sqrt(r2)
        spec = SourceSpec.anti_correlated(s2=0.01, v2=0.87)
        report = enumerate_outcomes(spec, r, 0.8, TABLE_THERMAL)
        want = symbolic_delta_pairs(1.0, r, 0.8, visibility_factor=2 * 0.87 - 1)
        assert abs(report.delta / _emitted_share(spec) - want) < 1e-12
        spec = SourceSpec.anti_correlated(s2=0.01, v2=0.5)
        balanced = enumerate_outcomes(spec, r, 0.8, TABLE_THERMAL)
        assert abs(balanced.delta / _emitted_share(spec)) < 1e-15


def test_lone_photon_component_only_dilutes_the_pairs():
    """Adding an incoherent single-photon part rescales the pair weight and
    contributes nothing else to the imbalance."""
    v2 = 0.87
    # half the slots carry a bunched pair, half one photon in either arm
    mixed = JointOccupationDistribution((IN_A, IN_B), {
        (2, 0): v2 / 4, (0, 2): v2 / 4, (1, 1): (1 - v2) / 2,
        (1, 0): 0.25, (0, 1): 0.25}, cutoff=4)
    for r2 in (0.1, 0.3, 0.5):
        r = math.sqrt(r2)
        p_a, p_b = detector_probs(propagate(mixed, r, 0.8, TABLE_THERMAL))
        want = symbolic_delta_pairs(0.5, r, 0.8, visibility_factor=2 * v2 - 1)
        assert abs((p_a - p_b) - want) < 1e-12


def test_clicks_vs_kept_joint_reproduces_information_module():
    for spec in (SourceSpec.correlated(s2=0.01),
                 SourceSpec.anti_correlated(s2=0.01, v2=0.87)):
        report = enumerate_outcomes(spec, math.sqrt(0.5), 0.14, ALL_BAR)
        cells = clicks_vs_kept_joint(report)
        top = max(max(kept) for _, kept in cells)
        joint = np.zeros((top + 1, top + 1, 2, 2))
        for ((click_a, click_b), (kept_a, kept_b)), p in cells.items():
            joint[kept_a, kept_b, int(click_a), int(click_b)] += p
        # the information module scores emitted pairs only
        joint[0, 0, 0, 0] -= make_source(spec).entries[(0, 0)]
        via_oracle = mutual_information_of_joint(joint)
        direct = mutual_information(spec, math.sqrt(0.5), 0.14, cutoff=4).mutual_info_bits
        assert abs(via_oracle - direct) < 1e-10


def test_report_bookkeeping():
    spec = SourceSpec.uncorrelated(0.05)
    report = enumerate_outcomes(spec, 0.5, 0.6, TABLE_THERMAL)
    source = make_source(spec, 4)
    assert report.truncation_bound == source.lost_mass
    mass = math.fsum(report.table.values())
    assert abs(mass + report.truncation_bound - 1.0) < 1e-12
    payload = report.as_dict()
    assert payload["delta"] == report.delta
    assert payload["modes"] == list(OUTCOME_MODES)
    json.dumps(payload)
