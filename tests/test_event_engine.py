"""Tests of the occupied-slot event engine against exact references.

The dead-window walk is checked against a plain per-slot loop, the
occupied input pairs against the bath's exact law, the run tallies against
the exact rates of ``protocol.propagate``, and the reported power and
imbalance error bars against the scatter of many seeds.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from demonlab.analytics import Normalization
from demonlab import montecarlo
from demonlab.montecarlo import (
    BLOCK,
    STREAM_VERSION,
    _TALLY_WEIGHTS,
    RunConfig,
    RunMode,
    _arm_cells,
    _cell_thresholds,
    _dead_window_states,
    _occupied_sampler,
    _switch_vector,
    measure_power,
    run,
)
from demonlab.protocol import ALL_BAR, ALL_CROSS, canonical_policy, expected_power, propagate
from demonlab.sources import SourceSpec, bath_table, make_source


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
@pytest.mark.parametrize("occupancy", [0.05, 0.5, 0.95])
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


#: One block: (size, occupancy, click chance), each drawn over its whole range.
_blocks = st.lists(st.tuples(st.integers(1, 400), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                   min_size=2, max_size=6)


@settings(max_examples=150, deadline=None)
@given(_blocks, st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
@example([(300, 0.0, 0.5), (300, 1.0, 1.0), (300, 1.0, 1.0)], 1, 0)  # empty, then every slot clicks
@example([(50, 1.0, 1.0), (50, 0.0, 0.0), (50, 1.0, 1.0)], 200, 1)  # a window over whole blocks
# every slot clicks, so the effective clicks fall on slots 0, 4 and 8: the last
# sits on the block's final slot and its window reaches into the next block
@example([(9, 1.0, 1.0), (9, 1.0, 1.0), (9, 0.5, 1.0)], 3, 2)
def test_dead_window_walk_matches_per_slot_loop_on_random_blocks(blocks, window, seed):
    """States, suppressed clicks and carries, block after block, against the loop."""
    rng = np.random.default_rng(seed)
    carry = (-window - 1, False)
    held = (0, False)
    base = 0
    for size, occupancy, click_chance in blocks:
        k = int(rng.binomial(size, occupancy))
        occupied = base + np.sort(rng.choice(size, k, replace=False))
        clicked = rng.random(k) < click_chance
        own = rng.random(k) < 0.5
        states, suppressed, carry = _dead_window_states(occupied, clicked, own,
                                                        window, carry)
        want, want_suppressed, held = _per_slot_dead_window(
            size, base, occupied, clicked, own, window, held)
        assert np.array_equal(states, want)
        assert suppressed == want_suppressed
        # the carried click frees the switch where the loop does; its state
        # matters only while its window reaches into the next block
        frozen_until = carry[0] + 1 + window
        assert frozen_until == held[0]
        base += size
        if frozen_until > base:
            assert carry[1] == held[1]


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 31), max_size=300))
def test_tally_weights_match_per_slot_booleans(codes):
    """The weight vectors over ``[swap, out_a, mon_a, out_b, mon_b]`` against
    the per-slot boolean tallies they replace."""
    code = np.array(codes, dtype=np.intp)
    swap, kept_a, click_a, kept_b, click_b = ((code >> bit) & 1 == 1 for bit in (4, 3, 2, 1, 0))
    # the switch permutes the kept photons: it moves one between the outputs
    # only where exactly one arm kept it
    single = kept_a ^ kept_b
    moved = swap & single
    want = [np.count_nonzero(kept_a ^ moved), np.count_nonzero(kept_b ^ moved),
            np.count_nonzero(single),
            np.count_nonzero(kept_a & click_a) + np.count_nonzero(kept_a & click_b)
            + np.count_nonzero(kept_b & click_a) + np.count_nonzero(kept_b & click_b)]
    assert (_TALLY_WEIGHTS @ np.bincount(code, minlength=32)).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example(1.0, 1e-300, 0)  # the output and monitor chances a hair apart
def test_arm_cells_count_ordered_thresholds(survival, r2, seed):
    """An arm's cell, the number of thresholds its uniform passes, equals
    ``2 * output + monitor`` read off the thresholds one at a time."""
    rng = np.random.default_rng(seed)
    rows = 40
    thresholds = _cell_thresholds(survival, r2, rows)
    assert np.all(np.diff(thresholds, axis=0) >= 0.0)
    n = rng.integers(0, rows, 2000)
    x = rng.random(2000)
    none, no_output, not_both = (x >= level.take(n) for level in thresholds)
    # cells 1 and 3 hold the monitor click: past one or three thresholds
    want = 2 * no_output + (none ^ no_output ^ not_both)
    assert np.array_equal(_arm_cells(thresholds, n, x), want)


# the four weak baths and the bright thermal ones
_SCHEDULED_BATHS = [
    SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05),
    SourceSpec.correlated(s2=0.01), SourceSpec.anti_correlated(s2=0.01, v2=0.87),
    SourceSpec.uncorrelated(0.5), SourceSpec.split_thermal(0.5),
]
_SCHEDULED_MODES = [("bar", 0), ("cross", 0), ("feed_forward", 0),
                    ("feed_forward", 1), ("feed_forward", 5), ("feed_forward", 100)]


@pytest.mark.parametrize("spec", _SCHEDULED_BATHS, ids=[
    "uncorrelated-0.05", "split-0.05", "correlated", "anti-correlated",
    "uncorrelated-0.5", "split-0.5"])
def test_tallies_do_not_depend_on_block_scheduling(spec, monkeypatch):
    """A chunk of one block each, and one chunk for the whole run, give the
    default's results: a run's tallies are the sum of its blocks' histograms,
    with the dead-window walk carried from block to block."""
    slots = 5 * BLOCK + 777
    configs = [RunConfig(spec=spec, r=math.sqrt(0.3), eps2=0.7, slots=slots, seed=seed,
                         mode=mode, arm_efficiency=arms, dead_window_slots=window)
               for seed, ((mode, window), arms) in enumerate(
                   (m, a) for m in _SCHEDULED_MODES for a in ((1.0, 1.0), (0.6, 1.0)))]
    default = [run(cfg) for cfg in configs]
    for cap in (1, slots + 1):
        monkeypatch.setattr(montecarlo, "CHUNK", cap)
        assert [run(cfg) for cfg in configs] == default, cap


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square law with ``df`` degrees of freedom, in closed form."""
    h = x / 2.0
    if df % 2 == 0:  # exp(-h) * sum_{i < df/2} h**i / i!
        total, term = 0.0, 1.0
        for i in range(df // 2):
            total += term
            term *= h / (i + 1)
        return math.exp(-h) * total
    # erfc(sqrt(h)) + exp(-h) * sum_{i < (df-1)/2} h**(i + 1/2) / Gamma(i + 3/2)
    total, term = math.erfc(math.sqrt(h)), math.sqrt(h) / math.gamma(1.5)
    for i in range((df - 1) // 2):
        total += math.exp(-h) * term
        term *= h / (i + 1.5)
    return total


DRAWS = 200_000


@pytest.mark.parametrize("nbar", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("make", [SourceSpec.uncorrelated, SourceSpec.split_thermal])
def test_occupied_draws_follow_the_exact_law(make, nbar):
    """A G-test of the drawn pairs against ``bath_table`` without its vacuum,
    rejecting at p < 1e-6; cells expecting fewer than 5 draws are pooled
    with the mass past the cutoff into one tail bin."""
    spec = make(nbar)
    p_vac, draw = _occupied_sampler(spec)
    n_a, n_b, _, _ = draw(np.random.Generator(np.random.PCG64(2020)), DRAWS)
    cutoff = 80
    table, lost = bath_table(spec, cutoff)
    assert table[0, 0] == p_vac
    table[0, 0] = 0.0
    expected = DRAWS * table / (1.0 - p_vac)
    inside = n_a + n_b <= cutoff
    observed = np.zeros_like(table)
    np.add.at(observed, (n_a[inside], n_b[inside]), 1)
    cells = expected >= 5.0
    obs = np.append(observed[cells], observed[~cells].sum() + np.count_nonzero(~inside))
    exp = np.append(expected[cells], expected[~cells].sum() + DRAWS * lost / (1.0 - p_vac))
    assert abs(exp.sum() - DRAWS) < 1e-6 * DRAWS
    seen = obs > 0
    g = 2.0 * float(np.sum(obs[seen] * np.log(obs[seen] / exp[seen])))
    assert _chi2_sf(g, obs.size - 1) > 1e-6, (g, obs.size - 1)


def test_split_draws_past_64_photons_split_fairly():
    """At nbar 100 most slots hold more than the 64 bits of one word and take
    the binomial: ``(n_a - tot/2) / sqrt(tot/4)`` has mean 0 and variance 1
    within 5 of their standard errors, as it does below 64 photons."""
    _, draw = _occupied_sampler(SourceSpec.split_thermal(100.0))
    n_a, n_b, _, _ = draw(np.random.Generator(np.random.PCG64(2021)), DRAWS)
    tot = n_a + n_b
    z = (n_a - tot / 2.0) / np.sqrt(tot / 4.0)
    for part in (tot > 64, tot <= 64):
        size = np.count_nonzero(part)
        assert size > 0.2 * DRAWS
        assert abs(z[part].mean()) < 5.0 / math.sqrt(size)
        assert abs(z[part].var() - 1.0) < 5.0 * math.sqrt(2.0 / size)


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


@pytest.mark.parametrize("spec", [SourceSpec.correlated(s2=0.0),
                                  SourceSpec.anti_correlated(s2=0.0, v2=0.87)])
def test_a_pair_bath_at_s2_zero_runs_with_empty_tallies(spec):
    # every slot is vacuum, so no block draws an occupied pair
    for mode, window in (("bar", 0), ("cross", 0), ("feed_forward", 0), ("feed_forward", 5)):
        res = run(RunConfig(spec=spec, r=math.sqrt(R2), eps2=EPS2, slots=150_000, seed=1,
                            mode=mode, dead_window_slots=window))
        assert (res.n_a, res.n_b, res.delta_n, res.coincidences,
                res.lost_to_dead_window, res.stderr_delta_n) == (0, 0, 0, 0, 0, 0.0)


def test_results_record_the_stream_version():
    res = run(RunConfig(spec=SourceSpec.correlated(s2=0.01), r=0.5, eps2=1.0,
                        slots=1000, seed=1))
    assert STREAM_VERSION == 5
    assert res.to_json_dict()["stream_version"] == STREAM_VERSION


@pytest.mark.parametrize("window", [0, 5])
def test_cached_set_up_is_read_only(window):
    """Every run of a bath shares its sampler's pair table, and every run of a
    mode and bath kind its switch vector: writing to them raises, and a run
    after the attempts equals one built from empty caches."""
    spec = SourceSpec.anti_correlated(s2=0.01, v2=0.87)
    cfg = RunConfig(spec=spec, r=math.sqrt(R2), eps2=EPS2, slots=BLOCK + 13, seed=5,
                    dead_window_slots=window)
    shared = {**inspect.getclosurevars(_occupied_sampler(spec)[1]).nonlocals,
              "switch": _switch_vector(cfg.mode, spec.kind)}
    assert sorted(shared) == ["arr_a", "arr_b", "cum", "switch"]
    for array in shared.values():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
        with pytest.raises(ValueError, match="read-only"):
            array *= 0
    after = run(cfg)
    _occupied_sampler.cache_clear()
    _switch_vector.cache_clear()
    assert run(cfg) == after
