"""Acceptance battery: nine headline guarantees, one test and verdict each.

``pytest -v`` prints one PASS/FAIL line per criterion through the test
names; run with ``-s`` (or ``-rA``) to also see each criterion's measured
numbers.  Budgets (slot counts, runtimes, tolerances) are stated inline
next to each check.
"""

import json
import math
import time
import warnings

from demonlab.analytics import (
    Normalization,
    closed_form_power,
    peak_enhancement_ratio,
)
from demonlab.cli import main
from demonlab.fock import LowPhotonRegimeWarning
from demonlab.information import mutual_information
from demonlab.montecarlo import RunConfig, estimate_g2, fit_gaussian_memory_tau_c, measure_power, run
from demonlab.oracle import (
    compare,
    enumerate_outcomes,
    symbolic_delta_pairs,
    symbolic_delta_uncorrelated,
    truncated_uncorrelated_delta,
)
from demonlab.protocol import TABLE_PAIR, TABLE_THERMAL, canonical_policy, expected_power, propagate
from demonlab.sources import SourceKind, SourceSpec, make_source

R_HALF = math.sqrt(0.5)
NBAR = 0.05
UNCORR_PEAK = 0.02770083102493075


def _verdict(ok: bool, n: int, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")


def test_criterion_1_correlated_pair_peak():
    analytic = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS, R_HALF)
    start = time.monotonic()
    m = measure_power(SourceSpec.correlated(s2=0.01), R_HALF, 1.0,
                      slots=10_000_000, seed=101,
                      normalization=Normalization.PAIRS)
    elapsed = time.monotonic() - start
    sigmas = abs(m.value - 0.5) / m.stderr
    ok = analytic == 0.5 and sigmas <= 3.0 and elapsed < 60.0
    _verdict(ok, 1, f"pair-normalized peak analytic={analytic} "
                    f"mc={m.value:.4f}+-{m.stderr:.4f} ({sigmas:.2f} sigma, "
                    f"1e7 slots, {elapsed:.1f} s)")
    assert ok


def test_criterion_2_split_thermal_nullity():
    grid = [k * 0.025 for k in range(21)]
    worst = max(abs(closed_form_power(SourceKind.SPLIT_THERMAL,
                                      Normalization.SINGLES, math.sqrt(r2),
                                      nbar=NBAR))
                for r2 in grid)
    res = run(RunConfig(spec=SourceSpec.split_thermal(NBAR), r=R_HALF, eps2=1.0,
                        slots=1_000_000, seed=102))
    sigmas = abs(res.delta_n) / res.stderr_delta_n
    ok = worst <= 1e-12 and sigmas <= 3.0
    _verdict(ok, 2, f"split bath null: analytic worst {worst:.1e} over 21-point "
                    f"grid, mc delta {res.delta_n} ({sigmas:.2f} sigma, 1e6 slots)")
    assert ok


def test_criterion_3_thermal_peak_value():
    closed = closed_form_power(SourceKind.UNCORRELATED, Normalization.SINGLES,
                               R_HALF, nbar=NBAR)
    closed_ok = abs(closed - 0.0277) <= 1e-4
    m = measure_power(SourceSpec.uncorrelated(NBAR), R_HALF, 1.0,
                      slots=10_000_000, seed=103,
                      normalization=Normalization.SINGLES)
    # the closed form keeps only the leading order in nbar; the simulation
    # is held to the all-orders expectation of its estimator instead
    exact = expected_power(SourceSpec.uncorrelated(NBAR), R_HALF, 1.0,
                           Normalization.SINGLES)
    gap = abs(m.value - exact)
    mc_ok = gap <= 3.0 * m.stderr
    ok = closed_ok and mc_ok
    _verdict(ok, 3, f"thermal peak closed={closed:.6f} (0.0277+-1e-4), "
                    f"mc={m.value:.6f}+-{m.stderr:.6f} vs exact {exact:.6f}, "
                    f"gap {gap:.6f} <= 3 sigma (1e7 slots)")
    assert ok


def test_criterion_4_visibility_scaling():
    corr = closed_form_power(SourceKind.CORRELATED, Normalization.PAIRS, R_HALF)
    anti = closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.PAIRS,
                             R_HALF, v2=0.87)
    exact_ok = abs(anti - 0.74 * corr) < 1e-15
    null = closed_form_power(SourceKind.ANTI_CORRELATED, Normalization.PAIRS,
                             R_HALF, v2=0.5)
    m = measure_power(SourceSpec.anti_correlated(s2=0.01, v2=0.87), R_HALF, 1.0,
                      slots=10_000_000, seed=104,
                      normalization=Normalization.PAIRS)
    sigmas = abs(m.value - 0.37) / m.stderr
    ok = exact_ok and null == 0.0 and sigmas <= 3.0
    _verdict(ok, 4, f"visibility scaling: anti/corr={anti / corr:.3f} (0.74 exact), "
                    f"v2=0.5 null={null}, mc={m.value:.4f}+-{m.stderr:.4f} "
                    f"({sigmas:.2f} sigma)")
    assert ok


def test_criterion_5_enhancement_ratio():
    ratio = peak_enhancement_ratio(NBAR)
    ok = ratio >= 10.0
    _verdict(ok, 5, f"peak pair power over peak thermal power = {ratio:.2f} "
                    f"(>= 10; per-pair vs per-photon normalizations)")
    assert ok


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    specs = (
        SourceSpec.uncorrelated(NBAR),
        SourceSpec.split_thermal(NBAR),
        SourceSpec.correlated(s2=0.01),
        SourceSpec.anti_correlated(s2=0.01, v2=0.87),
    )
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    worst = 0.0
    for spec in specs:
        policy = canonical_policy(spec.kind)
        for r2 in grid:
            for eps2 in (1.0, 0.14):
                r = math.sqrt(r2)
                report = enumerate_outcomes(spec, r, eps2, policy)
                outcome = propagate(make_source(spec, 4), r, eps2, policy)
                worst = max(worst, compare(report, outcome, tol=1e-12))

    symbolic_worst = 0.0
    for r2 in grid[1:]:
        r = math.sqrt(r2)
        symbolic_worst = max(symbolic_worst, abs(
            symbolic_delta_uncorrelated(NBAR, r)
            - truncated_uncorrelated_delta(NBAR, r, TABLE_THERMAL)))
        symbolic_worst = max(symbolic_worst, abs(
            enumerate_outcomes(SourceSpec.split_thermal(NBAR), r, 1.0,
                               TABLE_THERMAL).delta))
        for eps2 in (1.0, 0.14):
            corr = enumerate_outcomes(SourceSpec.correlated(s2=0.01, drop_vacuum=True),
                                      r, eps2, TABLE_PAIR)
            symbolic_worst = max(symbolic_worst, abs(
                corr.delta - symbolic_delta_pairs(1.0, r, eps2)))
            anti = enumerate_outcomes(
                SourceSpec.anti_correlated(s2=0.01, v2=0.87, drop_vacuum=True),
                r, eps2, TABLE_THERMAL)
            symbolic_worst = max(symbolic_worst, abs(
                anti.delta - symbolic_delta_pairs(1.0, r, eps2,
                                                  visibility_factor=0.74)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and symbolic_worst <= 1e-10 and elapsed < 30.0
    _verdict(ok, 6, f"oracle vs pipeline worst {worst:.2e} (<=1e-12, 48 cells), "
                    f"symbolic worst {symbolic_worst:.2e} (<=1e-10), {elapsed:.1f} s")
    assert ok


def test_criterion_7_information_properties():
    eps2 = 0.14
    specs = {
        "uncorr": SourceSpec.uncorrelated(NBAR),
        "split": SourceSpec.split_thermal(NBAR),
        "corr": SourceSpec.correlated(s2=0.01),
        "anti": SourceSpec.anti_correlated(s2=0.01, v2=0.87),
    }
    zero_ok = all(
        mutual_information(spec, 0.0, eps2).mutual_info_bits <= 1e-12
        for spec in specs.values())

    bound_ok, order_ok = True, True
    for k in range(1, 11):
        r = math.sqrt(k * 0.05)
        vals = {name: mutual_information(spec, r, eps2).mutual_info_bits
                for name, spec in specs.items()}
        bound_ok &= all(v <= 2.0 + 1e-12 for v in vals.values())
        order_ok &= vals["corr"] > vals["uncorr"] and vals["anti"] > vals["uncorr"]
    # the saturating case: perfect coupling pins the full 2-bit record
    two_bits = mutual_information(specs["corr"], R_HALF, 1.0).mutual_info_bits
    bound_ok &= abs(two_bits - 2.0) <= 1e-12

    # matched-brightness clause: the shared parent mode carries the same flux
    # as one uncorrelated arm, i.e. each split arm runs at nbar/2
    u = mutual_information(specs["uncorr"], 0.5, eps2).mutual_info_bits
    split_matched = mutual_information(SourceSpec.split_thermal(NBAR / 2),
                                       0.5, eps2).mutual_info_bits
    split_equal_arm = mutual_information(specs["split"], 0.5, eps2).mutual_info_bits
    split_ok = split_matched <= u

    ok = zero_ok and bound_ok and order_ok and split_ok
    _verdict(ok, 7, f"information: I(r=0)=0, I<=2 bits (saturated {two_bits:.3f}), "
                    f"pair baths beat thermal on (0,0.5]; split at matched flux "
                    f"{split_matched:.2e} <= uncorr {u:.2e} bits (equal per-arm "
                    f"brightness reverses it: {split_equal_arm:.2e})")
    assert ok


def test_criterion_8_g2_sanity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowPhotonRegimeWarning)
        spec = SourceSpec.uncorrelated(0.5)
    iid = dict(estimate_g2(spec, 1_000_000, seed=108, tau_grid=(0, 20)))
    iid_ok = abs(iid[0] - 2.0) <= 0.05 and abs(iid[20] - 1.0) <= 0.05

    tau_c = 8.0
    taus = (0, 2, 4, 6, 8, 12, 16, 24, 32)
    samples = estimate_g2(spec, 1_000_000, seed=109, tau_grid=taus,
                          model="gaussian-memory", tau_c=tau_c)
    fitted = fit_gaussian_memory_tau_c(samples)
    fit_ok = abs(fitted - tau_c) / tau_c <= 0.10
    ok = iid_ok and fit_ok
    _verdict(ok, 8, f"g2(0)={iid[0]:.3f} (2.00+-0.05), g2(20)={iid[20]:.3f} "
                    f"(1.00+-0.05), memory fit tau_c={fitted:.3f} vs 8.0 "
                    f"(<=10%, 1e6 slots)")
    assert ok


def test_criterion_9_byte_identical_outputs(tmp_path):
    cfg = {
        "version": 1,
        "engine": "both",
        "slots": 50_000,
        "seed": 9,
        "grid": [0.0, 0.25, 0.5],
        "sources": [
            {"name": "u", "kind": "uncorrelated", "nbar": 0.05},
            {"name": "c", "kind": "correlated", "s2": 0.01,
             "normalization": "pairs"},
        ],
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(cfg))
    digests = []
    for fmt in ("csv", "json"):
        pair = []
        for rep in range(2):
            out = tmp_path / f"{fmt}-{rep}.out"
            code = main(["sweep", "--config", str(config_path),
                         "--format", fmt, "--out", str(out)])
            assert code == 0
            pair.append(out.read_bytes())
        digests.append(pair[0] == pair[1])
    mc_pair = []
    for rep in range(2):
        out = tmp_path / f"mc-{rep}.json"
        code = main(["mc", "--kind", "correlated", "--s2", "0.01",
                     "--slots", "30000", "--seed", "11", "--out", str(out)])
        assert code == 0
        mc_pair.append(out.read_bytes())
    digests.append(mc_pair[0] == mc_pair[1])
    ok = all(digests)
    _verdict(ok, 9, f"repeat invocations byte-identical: sweep csv={digests[0]}, "
                    f"sweep json={digests[1]}, mc json={digests[2]}")
    assert ok
