"""Tests for the stochastic slot simulator: determinism, physics, estimators."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from demonlab import montecarlo
from demonlab.montecarlo import (
    BLOCK,
    MAX_THERMAL_NBAR,
    MIN_G2_SLOTS,
    PowerMeasurement,
    RunConfig,
    RunMode,
    RunResult,
    _balanced_split,
    _thermal_counts,
    calibrate_balance,
    estimate_g2,
    fit_gaussian_memory_tau_c,
    measure_power,
    run,
)
from demonlab.analytics import Normalization
from demonlab.protocol import TABLE_PAIR, TABLE_THERMAL, detector_probs, propagate
from demonlab.sources import SourceSpec, make_source

CORR = SourceSpec.correlated(s2=0.01)
UNCORR = SourceSpec.uncorrelated(0.05)
SPLIT = SourceSpec.split_thermal(0.05)


def _cfg(**kw):
    base = dict(spec=CORR, r=math.sqrt(0.5), eps2=1.0, slots=10_000, seed=7)
    base.update(kw)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(slots=0)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(seed=1 << 64)
    with pytest.raises(ValueError):
        _cfg(arm_efficiency=(0.5, -0.1))
    with pytest.raises(ValueError):
        _cfg(dead_window_slots=-1)
    # counts and the seed are integers; a numpy integer is stored as an int
    with pytest.raises(ValueError, match="slots must be an integer"):
        _cfg(slots=100000.0)
    with pytest.raises(ValueError, match="dead_window_slots must be an integer"):
        _cfg(dead_window_slots=2.5)
    with pytest.raises(ValueError, match="slots must be an integer"):
        _cfg(slots=True)
    with pytest.raises(ValueError, match="seed must be"):
        _cfg(seed=1.5)
    assert type(_cfg(slots=np.int64(5)).slots) is int
    # measure_power takes its seed by the same rule, before either leg runs
    for seed in (1 << 64, True, 1.5):
        with pytest.raises(ValueError, match="seed must be"):
            measure_power(CORR, math.sqrt(0.5), 1.0, 10_000, seed, "pairs")
    # bar and cross runs have no switch to freeze
    with pytest.raises(ValueError, match="feed-forward"):
        _cfg(mode="bar", dead_window_slots=5)
    assert _cfg(mode="bar").mode is RunMode.BAR


def test_config_refuses_thermal_baths_beyond_the_table_bound():
    # constructing the config is enough: it must refuse before any run
    for make in (SourceSpec.uncorrelated, SourceSpec.split_thermal):
        for nbar in (1e9, 1e7, MAX_THERMAL_NBAR * 1.001):
            with pytest.raises(ValueError, match="nbar"):
                _cfg(spec=make(nbar))
        assert _cfg(spec=make(MAX_THERMAL_NBAR)).spec.nbar == MAX_THERMAL_NBAR


def test_bright_run_at_the_bound_stays_small():
    # at the bound every split slot holds more than 64 photons and takes the binomial
    for make in (SourceSpec.uncorrelated, SourceSpec.split_thermal):
        tracemalloc.start()
        try:
            run(_cfg(spec=make(MAX_THERMAL_NBAR), slots=BLOCK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, make  # about 10 MB: the table is about 2 * BLOCK rows


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
    """Same seed means same photon draws; the switch only relabels arms.  Past
    one block too: dead-window runs draw their slot positions, and the others
    do not, so positions must not come from the photons' stream."""
    for spec in (CORR, SourceSpec.anti_correlated(s2=0.01, v2=0.87), UNCORR, SPLIT,
                 SourceSpec.uncorrelated(0.5), SourceSpec.split_thermal(0.5)):
        for slots in (25_000, 2 * BLOCK + 13):
            totals = set()
            for mode, window in ((RunMode.BAR, 0), (RunMode.CROSS, 0),
                                 (RunMode.FEED_FORWARD, 0),
                                 *((RunMode.FEED_FORWARD, w) for w in (1, 10, 100))):
                res = run(_cfg(spec=spec, slots=slots, seed=77, mode=mode,
                               dead_window_slots=window))
                totals.add((res.n_a + res.n_b, res.coincidences))
            assert len(totals) == 1, (spec.kind, slots)


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
    source = make_source(CORR)
    p_a, p_b = detector_probs(propagate(source, math.sqrt(0.5), 1.0, TABLE_PAIR))
    q_a, q_b = detector_probs(propagate(source, math.sqrt(0.5), 1.0, TABLE_THERMAL))
    # the pair table harvests the heralds, the thermal table inverts them
    assert p_a > p_b and q_a < q_b


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


def test_calibrate_balance_nulls_a_ten_percent_imbalance(monkeypatch):
    """The trims leave no imbalance an independent check run can resolve.

    Calibration stops at a run with ``|delta_n| <= 3 sigma_cal``, so the
    trimmed arms' true imbalance is at most ``3 sigma_cal`` plus that run's
    noise.  A check run adds its own noise, so ``|delta_n|`` of the check
    stays within ``3 sigma_cal + z sqrt(sigma_cal**2 + sigma_check**2)``; at
    ``z = 4`` a correct calibration exceeds it with chance below 6.3e-5, the
    two-sided normal tail.  The exact trim is ``1 / 1.1``; a trim that
    ignores ``arm_efficiency`` sees balanced arms and returns 1.
    """
    bar_runs = []

    def recording_run(config):
        bar_runs.append(run(config))
        return bar_runs[-1]

    monkeypatch.setattr(montecarlo, "run", recording_run)
    cfg = _cfg(spec=UNCORR, slots=400_000, seed=29, mode=RunMode.BAR,
               arm_efficiency=(1.0, 1.0 / 1.1))
    trim_a, trim_b = calibrate_balance(cfg)
    assert trim_b == 1.0
    assert 0.8 < trim_a < 1.0
    sigma_cal = bar_runs[-1].stderr_delta_n
    assert abs(bar_runs[-1].delta_n) <= 3.0 * sigma_cal
    check = run(RunConfig(spec=UNCORR, r=cfg.r, eps2=1.0, slots=400_000,
                          seed=999, mode=RunMode.BAR,
                          arm_efficiency=(trim_a * cfg.arm_efficiency[0],
                                          trim_b * cfg.arm_efficiency[1])))
    sigma_check = check.stderr_delta_n
    assert abs(check.delta_n) <= 3.0 * sigma_cal + 4.0 * math.hypot(sigma_cal, sigma_check)


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
    # seeds, slots and delays follow the run's integer rules: no float, no bool
    for seed in (1 << 64, True, 1.5):
        with pytest.raises(ValueError, match="seed must be"):
            estimate_g2(spec, MIN_G2_SLOTS, seed=seed, tau_grid=(0, 1))
    with pytest.raises(ValueError, match="slots must be an integer"):
        estimate_g2(spec, 1e5, seed=1, tau_grid=(0, 1))
    with pytest.raises(ValueError, match="delay must be an integer"):
        estimate_g2(spec, MIN_G2_SLOTS, seed=1, tau_grid=(0, 1.7))
    # no delay means nothing to estimate: refused before the stream is drawn
    for taus in ((), []):
        with pytest.raises(ValueError, match="no delay"):
            estimate_g2(spec, MIN_G2_SLOTS, seed=1, tau_grid=taus)
    # a bath this faint passes every up-front check, and its stream ends empty
    with pytest.raises(ValueError, match="stream is empty"):
        estimate_g2(SourceSpec.uncorrelated(1e-9), MIN_G2_SLOTS, seed=1, tau_grid=(0, 1))


def test_g2_refuses_baths_beyond_the_bound():
    # brighter counts would overflow the int64 lag sums; refused before any draw
    with pytest.raises(ValueError, match="nbar"):
        estimate_g2(SourceSpec.uncorrelated(1e8), 10 ** 15, seed=1, tau_grid=(0, 5))
    samples = dict(estimate_g2(SourceSpec.uncorrelated(MAX_THERMAL_NBAR), MIN_G2_SLOTS,
                               seed=1, tau_grid=(0, 5)))
    assert abs(samples[0] - 2.0) < 0.1
    assert abs(samples[5] - 1.0) < 0.05


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


def test_g2_lag_sums_over_blocks_match_the_whole_stream():
    """Block-wise g2 equals one dot product per delay over the whole stream."""
    nbar, seed, slots = 0.5, 71, 2 * BLOCK + 37
    taus = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, slots - 1)  # within, at and beyond a block
    # replay the documented draw order: per block the counts, then the splitter
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    half_1, half_2 = [], []
    for base in range(0, slots, BLOCK):
        counts = _thermal_counts(rng, nbar, min(BLOCK, slots - base))
        first = np.zeros_like(counts)
        occupied = np.flatnonzero(counts)
        first[occupied] = _balanced_split(rng, counts[occupied])
        half_1.append(first)
        half_2.append(counts - first)
    a, b = np.concatenate(half_1), np.concatenate(half_2)
    means = (int(a.sum()) / slots) * (int(b.sum()) / slots)
    expected = [(tau, int(np.dot(a[:slots - tau], b[tau:])) / (slots - tau) / means)
                for tau in taus]
    assert estimate_g2(SourceSpec.uncorrelated(nbar), slots, seed, taus) == expected


#: Traced peak bounds at 2M slots, in MB.  The peaks measure 2.9 (iid) and
#: 4.2 (gaussian-memory); each bound leaves about 20% headroom.  The whole
#: stream alone is 16 MB.
G2_PEAK_MB = {"iid": 3.5, "gaussian-memory": 5.0}


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
    assert peak <= G2_PEAK_MB[model] * 2 ** 20, peak


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
