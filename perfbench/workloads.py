"""The two benchmark workloads.

A workload turns the benchmark seed into inputs when it is constructed
(that is the timed set-up), runs rounds of ops, and verifies every output
after the timed section.  The program is handed only the generated configs
and specs.  Every program call goes through a module attribute, so the
traced run's rebinding sees it.  Verification never runs inside a timed
region and never calls the engine it checks.

This module imports only the standard library; numpy arrives with the
program, inside the timed set-up.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time
import traceback
import warnings
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Size:
    sweep_slots: int
    sweep_grid: tuple[float, ...]
    oracle_cutoff: int
    info_cutoff: int
    acq_slots: int
    calibration_slots: int
    g2_slots: int
    setup_probes: int


#: The paper's 21-point reflectivity grid, 0 to 0.5 in steps of 0.025.
GRID_21 = tuple(i / 40 for i in range(21))

SIZES = {
    "full": Size(sweep_slots=200_000, sweep_grid=GRID_21,
                 oracle_cutoff=6, info_cutoff=20, acq_slots=1_000_000,
                 calibration_slots=100_000, g2_slots=2_000_000, setup_probes=5),
    # For the smoke test: every code path, a few seconds in all.
    "tiny": Size(sweep_slots=20_000, sweep_grid=(0.25, 0.5),
                 oracle_cutoff=4, info_cutoff=8, acq_slots=5_000,
                 calibration_slots=5_000, g2_slots=100_000, setup_probes=1),
}


def derive_seed(seed: int, *tag) -> int:
    """A 63-bit seed that depends only on ``seed`` and ``tag``."""
    text = ":".join(str(part) for part in (seed, *tag)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


class OpLog:
    """Durations of the ops of one phase, in milliseconds.

    ``current`` is the index of the op in progress, or None between ops;
    the tracer copies it into each span as the op id.
    """

    def __init__(self):
        self.times_ms: list[float] = []
        self.current = None

    def timed(self, fn, *args, **kwargs):
        self.current = len(self.times_ms)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times_ms.append((time.perf_counter() - start) * 1e3)
            self.current = None


def attempt(fn, *args, **kwargs):
    """Call ``fn``; an exception becomes the result, so the round goes on."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising op is a failed op, counted later
        traceback.print_exc()
        return exc


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Verdicts:
    """Attempted and failed checks, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message() if callable(message) else message)


# --- sweep-mc ---------------------------------------------------------------

#: fig4a's four baths (singles, eps2 = 0.14) and fig4b's two pair sources
#: (pairs, eps2 = 1).
SWEEP_SOURCES = (
    {"name": "uncorrelated", "kind": "uncorrelated", "nbar": 0.05,
     "eps2": 0.14, "normalization": "singles"},
    {"name": "split-thermal", "kind": "split_thermal", "nbar": 0.05,
     "eps2": 0.14, "normalization": "singles"},
    {"name": "correlated", "kind": "correlated", "s2": 0.01,
     "eps2": 0.14, "normalization": "singles"},
    {"name": "anti-correlated", "kind": "anti_correlated", "s2": 0.01, "v2": 0.87,
     "eps2": 0.14, "normalization": "singles"},
    {"name": "correlated-pairs", "kind": "correlated", "s2": 0.01,
     "eps2": 1.0, "normalization": "pairs"},
    {"name": "anti-correlated-pairs", "kind": "anti_correlated", "s2": 0.01, "v2": 0.87,
     "eps2": 1.0, "normalization": "pairs"},
)
FIG4A = ("uncorrelated", "split-thermal", "correlated", "anti-correlated")

#: A cell fails beyond this many reported standard errors.
Z_GATE = 5.0

#: Cutoff of the exact references; the thermal truncation there is below
#: 1e-9 of the mass, far under any Monte Carlo standard error.
REFERENCE_CUTOFF = 8


def _spec(program, entry: dict):
    SourceSpec = program.sources.SourceSpec
    kind = entry["kind"]
    if kind == "uncorrelated":
        return SourceSpec.uncorrelated(entry["nbar"])
    if kind == "split_thermal":
        return SourceSpec.split_thermal(entry["nbar"])
    if kind == "correlated":
        return SourceSpec.correlated(s2=entry["s2"])
    return SourceSpec.anti_correlated(s2=entry["s2"], v2=entry["v2"])


def expected_power(program, entry: dict, r2: float) -> float:
    """Exact expectation of ``measure_power``'s estimator for one cell.

    Feed-forward minus cross imbalance per slot, over the cross run's
    denominator per slot: singles flux ``(P_A + P_B) / 2 / (1 - r2)``, or
    the coincidence rate over ``2 r2 (1 - r2)`` for pairs.  Both runs of a
    cell have the same length, so the slot count cancels.
    """
    protocol = program.protocol
    spec = _spec(program, entry)
    state = program.sources.make_source(spec, REFERENCE_CUTOFF)
    r = math.sqrt(r2)
    ff = protocol.propagate(state, r, entry["eps2"], protocol.canonical_policy(spec.kind))
    cross = protocol.propagate(state, r, entry["eps2"], protocol.ALL_CROSS)
    ff_a, ff_b = protocol.detector_probs(ff)
    x_a, x_b = protocol.detector_probs(cross)
    imbalance = (ff_a - ff_b) - (x_a - x_b)
    if entry["normalization"] == "singles":
        return imbalance / ((x_a + x_b) / 2.0 / (1.0 - r2))
    coincidence_rate = math.fsum(
        p * ((occ[0] >= 1) + (occ[1] >= 1)) * ((occ[2] >= 1) + (occ[3] >= 1))
        for occ, p in cross.dist.entries.items())
    return imbalance / (coincidence_rate / (2.0 * r2 * (1.0 - r2)))


class SweepMC:
    """The weak-light sweep through ``demonlab sweep``, engine ``both``.

    One round is one CLI invocation over every source and grid point; one
    op is one Monte Carlo cell (a ``measure_power`` call inside the sweep).
    Round ``i`` passes ``--seed`` derived from the benchmark seed and ``i``.
    """

    name = "sweep-mc"

    def __init__(self, program, seed: int, size: Size, workdir):
        self.program = program
        self.seed = seed
        self.config_path = workdir / "sweep.json"
        self.report_path = workdir / "report.json"
        config = {"version": 1, "engine": "both", "slots": size.sweep_slots,
                  "seed": seed, "grid": list(size.sweep_grid),
                  "sources": list(SWEEP_SOURCES)}
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        # pair normalization is undefined without a tap, so r2 = 0 has no
        # Monte Carlo cell for pair sources
        self.cells = [(entry, r2) for entry in SWEEP_SOURCES for r2 in size.sweep_grid
                      if entry["normalization"] == "singles" or r2 > 0.0]
        self.reports: list = []
        self.worst_z = 0.0

    def fig4a_sources(self) -> frozenset:
        return frozenset((_spec(self.program, e), e["eps2"])
                         for e in SWEEP_SOURCES if e["name"] in FIG4A)

    def run_round(self, i: int, ops: OpLog):
        harness = self.program.harness
        inner = harness.measure_power
        harness.measure_power = lambda *a, **k: ops.timed(inner, *a, **k)
        try:
            return self.program.cli.main(
                ["sweep", "--config", str(self.config_path),
                 "--seed", str(derive_seed(self.seed, "sweep", i)),
                 "--format", "json", "--out", str(self.report_path)])
        finally:
            harness.measure_power = inner

    def collect(self, i: int, raw) -> None:
        if raw == 0 and self.report_path.exists():
            raw = json.loads(self.report_path.read_text(encoding="utf-8"))
            self.report_path.unlink()
        self.reports.append(raw)

    def verify(self) -> Verdicts:
        verdicts = Verdicts()
        references = {(e["name"], r2): expected_power(self.program, e, r2)
                      for e, r2 in self.cells}
        for n, report in enumerate(self.reports):
            rows = {}
            if isinstance(report, list):
                rows = {(row["source"], row["r2"]): row for row in report}
            for entry, r2 in self.cells:
                key = (entry["name"], r2)
                row = rows.get(key)
                if row is None:
                    verdicts.check(False, f"round {n} {key}: no cell ({report!r:.80})")
                    continue
                mc, stderr, ref = row["mc"], row["mc_stderr"], references[key]
                ok = _finite(mc, stderr) and stderr >= 0 and abs(mc - ref) <= max(Z_GATE * stderr, 1e-12)
                if ok and stderr > 0:
                    self.worst_z = max(self.worst_z, abs(mc - ref) / stderr)
                verdicts.check(ok, lambda: f"round {n} {key}: mc {mc!r} +- {stderr!r} "
                                           f"vs exact {ref!r}")
        return verdicts

    def notes(self) -> dict:
        return {"worst_z": self.worst_z, "z_gate": Z_GATE}


# --- acquisition ------------------------------------------------------------

#: Largest allowed oracle-vs-pipeline deviation.
ORACLE_TOL = 1e-12

BRIGHT_NBAR = 0.5
DEAD_WINDOWS = (1, 10, 100)
ARM_EFFICIENCY = (1.0, 0.8)
TAU_C = 8.0
IID_TAUS = (0, 1, 2, 5, 10, 20)
MEMORY_TAUS = (0, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 30)

# Statistical gates for the g2 checks.  The spreads were measured over 40
# seeds at 100k slots and scale as 1/sqrt(slots); the fit also showed a
# bias of -0.1 at that size.
G2_SIGMA_100K = 0.03
TAU_FIT_SIGMA_100K = 0.2
TAU_FIT_BIAS = 0.1
G2_GATE = 6.0
# Calibration stops at a measured imbalance within 3 sigma; the true one
# then lies within 3 sigma plus the noise of that last run.
CALIBRATION_GATE = 8.0


def _bar_click_probability(nbar: float, survival: float) -> float:
    """Click probability of a thinned thermal arm of mean ``nbar * survival``."""
    mean = nbar * survival
    return mean / (1.0 + mean)


class Acquisition:
    """A bright-light lab session: acquisition, calibration, g2, model check.

    Per round and per bath (uncorrelated and split, ``nbar = 0.5``): a bar,
    a cross and a feed-forward run, then one op per dead window, all at one
    seed.  Then a balance calibration, the iid and Gaussian-memory g2
    streams with a tau_c fit, and an exact model check at the round's
    operating point of both bright baths and of the weak correlated and
    anti-correlated pair sources: ``enumerate_outcomes`` against
    ``propagate(make_source(...))`` at one raised cutoff, ``compare``, and
    ``mutual_information``.  Only the dead-window runs are ops; everything
    counts toward the round's wall time and the failure count.
    """

    name = "acquisition"

    def __init__(self, program, seed: int, size: Size, workdir):
        self.program = program
        self.seed = seed
        self.size = size
        SourceSpec = program.sources.SourceSpec
        with warnings.catch_warnings():
            # nbar = 0.5 is the point: dense light, most slots occupied
            warnings.simplefilter("ignore", program.fock.LowPhotonRegimeWarning)
            self.baths = (SourceSpec.uncorrelated(BRIGHT_NBAR),
                          SourceSpec.split_thermal(BRIGHT_NBAR))
        # the pair sources keep the dict channels measured on pair states too
        self.model_specs = (*self.baths, SourceSpec.correlated(s2=0.01),
                            SourceSpec.anti_correlated(s2=0.01, v2=0.87))
        self.policies = [program.protocol.canonical_policy(s.kind) for s in self.model_specs]
        self.results: list = []
        self.worst_deviation = 0.0

    def params(self, i: int) -> tuple[float, float]:
        rng = random.Random(derive_seed(self.seed, "acquisition", i))
        return rng.uniform(0.3, 0.5), rng.uniform(0.6, 0.9)

    def _memory_g2(self, seed: int):
        mc = self.program.montecarlo
        samples = mc.estimate_g2(self.baths[0], self.size.g2_slots, seed, MEMORY_TAUS,
                                 model="gaussian-memory", tau_c=TAU_C)
        return samples, mc.fit_gaussian_memory_tau_c(samples)

    def _model_check(self, spec, policy, r: float, eps2: float):
        p, cutoff = self.program, self.size.oracle_cutoff
        with warnings.catch_warnings():
            # the low-photon warning guards the closed forms, unused here
            warnings.simplefilter("ignore", p.fock.LowPhotonRegimeWarning)
            report = p.oracle.enumerate_outcomes(spec, r, eps2, policy, cutoff=cutoff)
            outcome = p.protocol.propagate(p.sources.make_source(spec, cutoff), r, eps2, policy)
            deviation = p.oracle.compare(report, outcome, tol=math.inf)
            info = p.information.mutual_information(spec, r, eps2, cutoff=self.size.info_cutoff)
        return deviation, info.mutual_info_bits

    def run_round(self, i: int, ops: OpLog):
        mc = self.program.montecarlo
        RunMode = mc.RunMode
        r2, eps2 = self.params(i)
        out = {"r2": r2, "eps2": eps2}
        for b, spec in enumerate(self.baths):
            config = mc.RunConfig(spec=spec, r=math.sqrt(r2), eps2=eps2,
                                  slots=self.size.acq_slots,
                                  seed=derive_seed(self.seed, "run", i, b))
            for mode in (RunMode.BAR, RunMode.CROSS, RunMode.FEED_FORWARD):
                out[b, mode.value] = attempt(mc.run, replace(config, mode=mode))
            for window in DEAD_WINDOWS:
                out[b, window] = attempt(ops.timed, mc.run,
                                         replace(config, dead_window_slots=window))
        out["trims"] = attempt(mc.calibrate_balance, mc.RunConfig(
            spec=self.baths[0], r=math.sqrt(r2), eps2=eps2, slots=self.size.calibration_slots,
            seed=derive_seed(self.seed, "calibrate", i), arm_efficiency=ARM_EFFICIENCY))
        out["g2_iid"] = attempt(mc.estimate_g2, self.baths[0], self.size.g2_slots,
                                derive_seed(self.seed, "g2", i), IID_TAUS)
        out["g2_memory"] = attempt(self._memory_g2, derive_seed(self.seed, "g2-memory", i))
        for k, (spec, policy) in enumerate(zip(self.model_specs, self.policies)):
            out["model", k] = attempt(self._model_check, spec, policy, math.sqrt(r2), eps2)
        return out

    def collect(self, i: int, raw) -> None:
        self.results.append(raw)

    def _check_calibration(self, trims, r2: float, eps2: float) -> bool:
        if not (isinstance(trims, tuple) and len(trims) == 2 and trims[1] == 1.0
                and 0.0 < trims[0] <= 1.0):
            return False
        slots = self.size.calibration_slots
        survival = eps2 * (1.0 - r2)
        p_a = _bar_click_probability(BRIGHT_NBAR, survival * trims[0] * ARM_EFFICIENCY[0])
        p_b = _bar_click_probability(BRIGHT_NBAR, survival * trims[1] * ARM_EFFICIENCY[1])
        sigma = math.sqrt(slots * (p_a * (1 - p_a) + p_b * (1 - p_b)))
        return abs(slots * (p_a - p_b)) <= CALIBRATION_GATE * sigma

    def _check_model(self, result) -> bool:
        if not isinstance(result, tuple):
            return False
        deviation, bits = result
        if _finite(deviation):
            self.worst_deviation = max(self.worst_deviation, deviation)
        # clicks carry at most 2 bits
        return _finite(deviation, bits) and deviation <= ORACLE_TOL and -1e-12 <= bits <= 2.0 + 1e-9

    def _g2_tolerance(self, sigma_100k: float) -> float:
        return G2_GATE * sigma_100k * math.sqrt(100_000 / self.size.g2_slots)

    def _check_iid(self, samples) -> bool:
        if not isinstance(samples, list) or [t for t, _ in samples] != list(IID_TAUS):
            return False
        tol = self._g2_tolerance(G2_SIGMA_100K)
        return all(_finite(g) and abs(g - (2.0 if t == 0 else 1.0)) <= tol for t, g in samples)

    def _check_memory(self, result) -> bool:
        if not isinstance(result, tuple):
            return False
        samples, tau_fit = result
        if [t for t, _ in samples] != list(MEMORY_TAUS) or not _finite(tau_fit):
            return False
        tol = self._g2_tolerance(G2_SIGMA_100K)
        curve_ok = all(_finite(g) and abs(g - 1.0 - math.exp(-math.pi * (t / TAU_C) ** 2)) <= tol
                       for t, g in samples)
        fit_tol = TAU_FIT_BIAS + self._g2_tolerance(TAU_FIT_SIGMA_100K)
        return curve_ok and abs(tau_fit - TAU_C) <= fit_tol

    def verify(self) -> Verdicts:
        verdicts = Verdicts()
        for n, out in enumerate(self.results):
            if not isinstance(out, dict):
                verdicts.check(False, f"round {n} raised {out!r}")
                continue
            for b in range(len(self.baths)):
                bar = out[b, "bar"]
                # n_a + n_b and coincidences do not depend on the switch, and
                # every run of a bath shares the bar run's seed
                for key in ("cross", "feed_forward", *DEAD_WINDOWS):
                    res = out[b, key]
                    ok = (not isinstance(bar, Exception) and not isinstance(res, Exception)
                          and res.n_a + res.n_b == bar.n_a + bar.n_b
                          and res.coincidences == bar.coincidences)
                    verdicts.check(ok, lambda: f"round {n} bath {b} {key}: {res!r:.200} "
                                               f"vs bar {bar!r:.200}")
            for k in range(len(self.model_specs)):
                verdicts.check(self._check_model(out["model", k]),
                               lambda: f"round {n} source {k} model check: {out['model', k]!r:.200}")
            verdicts.check(self._check_calibration(out["trims"], out["r2"], out["eps2"]),
                           lambda: f"round {n} calibration: {out['trims']!r}")
            verdicts.check(self._check_iid(out["g2_iid"]),
                           lambda: f"round {n} g2 iid: {out['g2_iid']!r:.300}")
            verdicts.check(self._check_memory(out["g2_memory"]),
                           lambda: f"round {n} g2 memory: {out['g2_memory']!r:.300}")
        return verdicts

    def notes(self) -> dict:
        return {"worst_deviation": self.worst_deviation, "tolerance": ORACLE_TOL}


WORKLOADS = {w.name: w for w in (SweepMC, Acquisition)}
