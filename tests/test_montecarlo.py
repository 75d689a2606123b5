"""Tests for the stochastic slot simulator: determinism, physics, estimators."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from demonlab.montecarlo import (
    BLOCK,
    MIN_G2_SLOTS,
    PowerMeasurement,
    RunConfig,
    RunMode,
    RunResult,
    calibrate_balance,
    _lag_sums,
    estimate_g2,
    fit_gaussian_memory_tau_c,
    measure_power,
    run,
)
from demonlab.analytics import Normalization
from demonlab.protocol import TABLE_PAIR, TABLE_THERMAL
from demonlab.sources import SourceSpec

CORR = SourceSpec.correlated(s2=0.01)
UNCORR = SourceSpec.uncorrelated(0.05)
SPLIT = SourceSpec.split_thermal(0.05)


def _cfg(**kw):
    base = dict(spec=CORR, r=math.sqrt(0.5), eps2=1.0, slots=10_000, seed=7)
    base.update(kw)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(spec=SourceSpec.correlated(s2=0.01, drop_vacuum=True))
    with pytest.raises(ValueError):
        _cfg(slots=0)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(seed=1 << 64)
    with pytest.raises(ValueError):
        _cfg(arm_trim=(1.2, 1.0))
    with pytest.raises(ValueError):
        _cfg(arm_efficiency=(0.5, -0.1))
    with pytest.raises(ValueError):
        _cfg(dead_window_slots=-1)
    # bar and cross runs have no switch to freeze or to program
    with pytest.raises(ValueError, match="feed-forward"):
        _cfg(mode="bar", dead_window_slots=5)
    with pytest.raises(ValueError, match="feed-forward"):
        _cfg(mode="cross", policy=TABLE_PAIR)
    assert _cfg(mode="bar").mode is RunMode.BAR


def test_identical_configs_reproduce_bit_for_bit():
    for spec in (CORR, UNCORR, SPLIT):
        cfg = _cfg(spec=spec, slots=30_000, seed=123)
        a = run(cfg)
        b = run(cfg)
        assert a == b
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_different_seeds_decorrelate():
    a = run(_cfg(slots=50_000, seed=1))
    b = run(_cfg(slots=50_000, seed=2))
    assert (a.n_a, a.n_b) != (b.n_a, b.n_b)


def test_result_counts_are_consistent():
    res = run(_cfg(slots=40_000, seed=5))
    assert res.slots == 40_000
    assert 0 <= res.n_a and 0 <= res.n_b
    assert res.delta_n == res.n_a - res.n_b
    assert res.stderr_delta_n >= 0.0
    assert res.lost_to_dead_window == 0


def test_switch_mode_conserves_totals_slot_by_slot():
    """Same seed means same photon draws; the switch only relabels arms."""
    for spec in (CORR, UNCORR, SPLIT):
        totals = set()
        for mode, window in ((RunMode.BAR, 0), (RunMode.CROSS, 0),
                             (RunMode.FEED_FORWARD, 0), (RunMode.FEED_FORWARD, 5)):
            res = run(_cfg(spec=spec, slots=25_000, seed=77, mode=mode,
                           dead_window_slots=window))
            totals.add((res.n_a + res.n_b, res.coincidences))
        assert len(totals) == 1, spec.kind


def test_bar_and_cross_mirror_each_other():
    bar = run(_cfg(spec=UNCORR, slots=25_000, seed=9, mode=RunMode.BAR))
    cross = run(_cfg(spec=UNCORR, slots=25_000, seed=9, mode=RunMode.CROSS))
    assert bar.n_a == cross.n_b
    assert bar.n_b == cross.n_a
    assert bar.delta_n == -cross.delta_n


def test_block_boundaries_do_not_matter():
    # slot counts straddling the internal block size must just work
    res = run(_cfg(slots=2 * BLOCK + 13, seed=3))
    assert res.slots == 2 * BLOCK + 13


def test_split_bath_feed_forward_is_null():
    res = run(_cfg(spec=SPLIT, slots=1_000_000, seed=21))
    assert abs(res.delta_n) <= 4.0 * res.stderr_delta_n


def test_stderr_tracks_observed_scatter():
    deltas, errs = [], []
    for seed in range(40):
        res = run(_cfg(spec=UNCORR, slots=20_000, seed=1000 + seed))
        deltas.append(res.delta_n)
        errs.append(res.stderr_delta_n)
    scatter = float(np.std(deltas))
    typical = float(np.mean(errs))
    assert typical / 2.0 < scatter < typical * 2.0


def test_policy_override_changes_routing():
    table_a = run(_cfg(spec=CORR, slots=200_000, seed=31, policy=TABLE_PAIR))
    table_b = run(_cfg(spec=CORR, slots=200_000, seed=31, policy=TABLE_THERMAL))
    # the pair table harvests the heralds, the thermal table inverts them
    assert table_a.delta_n > 0 > table_b.delta_n


def test_correlated_power_estimate_matches_quadratic_law():
    m = measure_power(CORR, math.sqrt(0.5), 1.0, slots=400_000, seed=8,
                      normalization=Normalization.PAIRS)
    assert isinstance(m, PowerMeasurement)
    assert abs(m.value - 0.5) <= 4.0 * m.stderr


def test_pairs_normalization_needs_a_pair_source():
    with pytest.raises(ValueError):
        measure_power(UNCORR, 0.5, 1.0, slots=1000, seed=1,
                      normalization=Normalization.PAIRS)


def test_pair_rate_estimator_is_consistent_across_taps():
    # the same physical pair rate must be recovered at any interior tap
    target = 0.01 / 1.01
    for r2 in (0.1, 0.3, 0.5):
        res = run(_cfg(slots=400_000, seed=13, r=math.sqrt(r2)))
        est = res.pairs_est / res.slots
        band = 6.0 * math.sqrt(target / res.slots / (r2 * (1 - r2)))
        assert abs(est - target) < band


def test_input_rate_estimator_tracks_brightness():
    res = run(_cfg(spec=UNCORR, slots=300_000, seed=17, r=0.5, eps2=1.0,
                   mode=RunMode.BAR))
    # click-based per-arm brightness estimate; accurate to first order in nbar
    per_slot = res.n_in_est / res.slots
    assert abs(per_slot - 0.05) < 0.005


def test_dead_window_suppresses_switching():
    base = run(_cfg(spec=CORR, slots=150_000, seed=41))
    frozen = run(_cfg(spec=CORR, slots=150_000, seed=41, dead_window_slots=8))
    assert frozen.lost_to_dead_window > 0
    assert base.lost_to_dead_window == 0
    # same draws, fewer executed swaps: the harvested imbalance shrinks
    assert abs(frozen.delta_n) < abs(base.delta_n)


def test_dead_window_zero_equals_vectorized_path():
    a = run(_cfg(spec=UNCORR, slots=60_000, seed=19))
    b = run(_cfg(spec=UNCORR, slots=60_000, seed=19, dead_window_slots=0))
    assert a == b


def test_calibrate_balance_symmetric_arms_need_no_trim():
    cfg = _cfg(spec=UNCORR, slots=100_000, seed=23, mode=RunMode.BAR)
    assert calibrate_balance(cfg) == (1.0, 1.0)


def test_calibrate_balance_nulls_a_ten_percent_imbalance():
    cfg = _cfg(spec=UNCORR, slots=400_000, seed=29, mode=RunMode.BAR,
               arm_efficiency=(1.0, 1.0 / 1.1))
    trim_a, trim_b = calibrate_balance(cfg)
    assert trim_b == 1.0
    assert 0.8 < trim_a < 1.0
    check = run(RunConfig(spec=UNCORR, r=cfg.r, eps2=1.0, slots=400_000,
                          seed=999, mode=RunMode.BAR, arm_trim=(trim_a, trim_b),
                          arm_efficiency=(1.0, 1.0 / 1.1)))
    assert abs(check.delta_n) <= 4.0 * check.stderr_delta_n


def test_calibrate_balance_rejects_gross_imbalance():
    cfg = _cfg(spec=UNCORR, slots=200_000, seed=37, mode=RunMode.BAR,
               arm_efficiency=(1.0, 0.05))
    with pytest.raises(ValueError):
        calibrate_balance(cfg)


def test_g2_iid_thermal_stream():
    spec = SourceSpec.uncorrelated(0.5)
    samples = dict(estimate_g2(spec, 400_000, seed=51, tau_grid=(0, 3)))
    assert abs(samples[0] - 2.0) < 0.1
    assert abs(samples[3] - 1.0) < 0.05


def test_g2_input_validation():
    spec = SourceSpec.uncorrelated(0.5)
    with pytest.raises(ValueError):
        estimate_g2(spec, MIN_G2_SLOTS - 1, seed=1, tau_grid=(0, 1))
    with pytest.raises(ValueError):
        estimate_g2(CORR, MIN_G2_SLOTS, seed=1, tau_grid=(0, 1))
    with pytest.raises(ValueError):
        estimate_g2(spec, MIN_G2_SLOTS, seed=1, tau_grid=(-1, 0))
    with pytest.raises(ValueError):
        estimate_g2(spec, MIN_G2_SLOTS, seed=1, tau_grid=(0, 1),
                    model="gaussian-memory")  # tau_c missing
    with pytest.raises(ValueError, match="tau_c"):
        estimate_g2(spec, MIN_G2_SLOTS, seed=1, tau_grid=(0, 1), tau_c=3.0)  # iid has none
    with pytest.raises(ValueError):
        estimate_g2(spec, MIN_G2_SLOTS, seed=1, tau_grid=(0, 1), model="bogus")


def test_g2_gaussian_memory_decays_on_the_set_scale():
    spec = SourceSpec.uncorrelated(0.5)
    taus = (0, 2, 4, 6, 9, 12, 18)
    samples = estimate_g2(spec, 400_000, seed=53, tau_grid=taus,
                          model="gaussian-memory", tau_c=6.0)
    values = dict(samples)
    assert abs(values[0] - 2.0) < 0.15
    assert abs(values[18] - 1.0) < 0.1
    assert values[0] > values[4] > values[18]
    fitted = fit_gaussian_memory_tau_c(samples)
    assert abs(fitted - 6.0) / 6.0 < 0.15


def test_lag_sums_over_blocks_match_the_whole_stream():
    """Block-wise lagged products equal one dot product over the joined stream."""
    rng = np.random.default_rng(71)
    sizes = (50, 50, 13, 50, 1, 50, 37)
    taus = (0, 1, 49, 50, 51, 120)  # within a block, at its edge, beyond it
    half_1 = [rng.integers(0, 4, n) for n in sizes]
    half_2 = [rng.integers(0, 4, n) for n in sizes]
    sums = [0] * len(taus)
    carry = np.zeros(0, dtype=np.int64)
    for a, b in zip(half_1, half_2):
        block_sums, carry = _lag_sums(carry, a, b, taus)
        sums = [s + d for s, d in zip(sums, block_sums)]
        assert carry.size <= max(taus)
    a, b = np.concatenate(half_1), np.concatenate(half_2)
    assert sums == [int(np.dot(a[:a.size - tau], b[tau:])) for tau in taus]


@pytest.mark.parametrize("model, tau_c", [("iid", None), ("gaussian-memory", 8.0)])
def test_g2_memory_does_not_grow_with_the_stream(model, tau_c):
    spec = SourceSpec.uncorrelated(0.5)
    tracemalloc.start()
    try:
        estimate_g2(spec, 2_000_000, seed=5, tau_grid=(0, 1, 2, 5, 10, 20, 30),
                    model=model, tau_c=tau_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak  # the whole stream alone is 16 MB


def test_tau_c_fit_matches_curve_fit():
    curve_fit = pytest.importorskip("scipy.optimize").curve_fit
    spec = SourceSpec.uncorrelated(0.5)
    for seed, tau_c in ((61, 4.0), (62, 8.0), (63, 12.0)):
        samples = estimate_g2(spec, MIN_G2_SLOTS, seed, (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
                              model="gaussian-memory", tau_c=tau_c)
        taus, values = np.array(samples).T
        guess = max(taus[values > 1.5].max(initial=1.0), 1.0)
        popt, _ = curve_fit(lambda t, c: 1.0 + np.exp(-math.pi * (t / c) ** 2),
                            taus, values, p0=[guess])
        assert fit_gaussian_memory_tau_c(samples) == pytest.approx(abs(popt[0]), rel=1e-6)


@pytest.mark.parametrize("samples", [
    [(0, 2.0), (4, math.nan), (8, 1.1)],
    [(0, 2.0), (math.inf, 1.0)],
    [],
    [(0, 2.0), (5, 1.0)],  # no positive delay on the slope: the start would come back
])
def test_tau_c_fit_refuses_bad_samples(samples):
    with pytest.raises(ValueError):
        fit_gaussian_memory_tau_c(samples)


def test_measure_power_value_combines_modes():
    m = measure_power(UNCORR, 0.5, 1.0, slots=100_000, seed=61,
                      normalization=Normalization.SINGLES)
    assert m.feed_forward.mode is RunMode.FEED_FORWARD
    assert m.cross.mode is RunMode.CROSS
    denom = m.cross.n_in_est
    want = (m.feed_forward.delta_n - m.cross.delta_n) / denom
    assert abs(m.value - want) < 1e-15
