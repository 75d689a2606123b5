"""Tests of the occupied-slot event engine against exact references.

The dead-window walk is checked against a plain per-slot loop, the run
tallies against the exact rates of ``protocol.propagate``, and the reported
power and imbalance error bars against the scatter of many seeds.
"""

import math

import numpy as np
import pytest

from demonlab.analytics import Normalization
from demonlab.montecarlo import (
    STREAM_VERSION,
    RunConfig,
    RunMode,
    _dead_window_states,
    measure_power,
    run,
)
from demonlab.protocol import ALL_BAR, ALL_CROSS, canonical_policy, expected_power, propagate
from demonlab.sources import SourceSpec, make_source


def _per_slot_dead_window(size, base, occupied, clicked, own, window, held):
    """Reference: the switch stepped slot by slot over one block.

    ``held`` is ``(frozen_until, state)`` left by the previous block, so a
    window that crosses the block boundary keeps its state.  Empty slots
    take no click and an arbitrary own state, which must not matter.
    """
    click = np.zeros(size, dtype=bool)
    state = np.ones(size, dtype=bool)
    click[occupied - base] = clicked
    state[occupied - base] = own
    frozen_until, current = held
    out = np.empty(size, dtype=bool)
    suppressed = 0
    for t in range(size):
        slot = base + t
        if slot >= frozen_until:
            current = bool(state[t])
            if click[t]:
                frozen_until = slot + 1 + window
        elif click[t]:
            suppressed += 1
        out[t] = current
    return out[occupied - base], suppressed, (frozen_until, current)


@pytest.mark.parametrize("window", [1, 10, 100])
@pytest.mark.parametrize("occupancy", [0.05, 0.5])
def test_dead_window_walk_matches_per_slot_loop(window, occupancy):
    rng = np.random.default_rng(window * 1000 + int(occupancy * 100))
    size = 700
    carry = (-window - 1, False)
    held = (0, False)
    for block in range(6):
        base = block * size
        k = int(rng.binomial(size, occupancy))
        occupied = base + np.sort(rng.choice(size, k, replace=False))
        clicked = rng.random(k) < 0.6
        own = rng.random(k) < 0.5
        states, suppressed, carry = _dead_window_states(occupied, clicked, own,
                                                        window, carry)
        want, want_suppressed, held = _per_slot_dead_window(
            size, base, occupied, clicked, own, window, held)
        assert np.array_equal(states, want), (block, window)
        assert suppressed == want_suppressed


def test_dead_window_holds_its_state_across_a_block_boundary():
    window = 10
    # block 0 ends with an effective click at slot 95 that crosses the switch
    occupied = np.array([40, 95])
    states, _, carry = _dead_window_states(occupied, np.array([True, True]),
                                           np.array([False, True]), window,
                                           (-window - 1, False))
    assert states.tolist() == [False, True]
    # block 1: slots 100 and 103 lie inside the window, 110 does not
    occupied = np.array([100, 103, 110])
    clicked = np.array([False, True, False])
    own = np.array([False, False, False])
    states, suppressed, _ = _dead_window_states(occupied, clicked, own, window, carry)
    assert states.tolist() == [True, True, False]
    assert suppressed == 1
    want, want_suppressed, _ = _per_slot_dead_window(
        100, 100, occupied, clicked, own, window, (95 + 1 + window, True))
    assert states.tolist() == want.tolist() and suppressed == want_suppressed


# (bath, exact-reference cutoff); the cutoff leaves a truncated mass far
# below one standard error of any rate checked here.  nbar = 0.5 is
# deliberate: dense light occupies most slots
BATHS = [
    (SourceSpec.uncorrelated(0.05), 8),
    (SourceSpec.split_thermal(0.05), 8),
    (SourceSpec.correlated(s2=0.01), 4),
    (SourceSpec.anti_correlated(s2=0.01, v2=0.87), 4),
    (SourceSpec.uncorrelated(0.5), 15),
    (SourceSpec.split_thermal(0.5), 15),
]
R2, EPS2, SLOTS = 0.3, 0.7, 1_000_000


def _exact_rates(outcome):
    """Per-slot means and variances of the output clicks and coincidences."""
    p_a = p_b = c1 = c2 = 0.0
    for occ, p in outcome.dist.entries.items():
        out_a, out_b = occ[0] >= 1, occ[1] >= 1
        coinc = (out_a + out_b) * ((occ[2] >= 1) + (occ[3] >= 1))
        p_a += p * out_a
        p_b += p * out_b
        c1 += p * coinc
        c2 += p * coinc * coinc
    return {"n_a": (p_a, p_a * (1 - p_a)), "n_b": (p_b, p_b * (1 - p_b)),
            "coincidences": (c1, c2 - c1 * c1)}


@pytest.mark.parametrize("index", range(len(BATHS)))
def test_run_tallies_match_exact_rates(index):
    spec, cutoff = BATHS[index]
    state = make_source(spec, cutoff)
    policies = {RunMode.BAR: ALL_BAR, RunMode.CROSS: ALL_CROSS,
                RunMode.FEED_FORWARD: canonical_policy(spec.kind)}
    for mode, policy in policies.items():
        exact = _exact_rates(propagate(state, math.sqrt(R2), EPS2, policy))
        res = run(RunConfig(spec=spec, r=math.sqrt(R2), eps2=EPS2, slots=SLOTS,
                            seed=4000 + index, mode=mode))
        for field, (mean, var) in exact.items():
            sigma = math.sqrt(var / SLOTS)
            assert state.lost_mass < 0.05 * sigma
            z = (getattr(res, field) / SLOTS - mean) / sigma
            assert abs(z) < 5.0, (spec.kind, mode, field, z)


@pytest.mark.parametrize("spec, normalization", [
    (SourceSpec.correlated(s2=0.01), Normalization.PAIRS),
    (SourceSpec.uncorrelated(0.05), Normalization.SINGLES),
])
def test_power_error_bars_have_unit_spread(spec, normalization):
    """z-scores of 600 seeds against the exact value have rms 1."""
    want = expected_power(spec, math.sqrt(0.5), 1.0, normalization)
    z = []
    for seed in range(600):
        m = measure_power(spec, math.sqrt(0.5), 1.0, 100_000, seed, normalization)
        z.append((m.value - want) / m.stderr)
    rms = math.sqrt(float(np.mean(np.square(z))))
    assert 0.9 <= rms <= 1.1, rms


@pytest.mark.parametrize("window", [0, 3, 30])
def test_imbalance_error_bars_match_the_scatter_of_seeds(window):
    """Scatter of ``delta_n`` over 400 seeds against the mean reported stderr.

    The ratio is 1 up to its sampling error, 1/sqrt(2 * 400); the band is 4 of those.
    """
    spec = SourceSpec.uncorrelated(0.5)
    deltas, errs = [], []
    for seed in range(400):
        res = run(RunConfig(spec=spec, r=math.sqrt(0.3), eps2=0.8, slots=20_000,
                            seed=seed, dead_window_slots=window))
        deltas.append(res.delta_n)
        errs.append(res.stderr_delta_n)
    ratio = float(np.std(deltas, ddof=1) / np.mean(errs))
    assert 0.86 <= ratio <= 1.14, ratio


def test_results_record_the_stream_version():
    res = run(RunConfig(spec=SourceSpec.correlated(s2=0.01), r=0.5, eps2=1.0,
                        slots=1000, seed=1))
    assert STREAM_VERSION == 3
    assert res.to_json_dict()["stream_version"] == STREAM_VERSION
