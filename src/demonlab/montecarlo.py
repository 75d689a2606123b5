"""Event simulation of the demon experiment, drawing only occupied slots.

A detection slot is occupied when the bath puts at least one photon into
either arm.  At the paper's operating points 91-99% of slots are empty, and
an empty slot touches no tally, so the engine never draws one.  Each block
of ``BLOCK`` slots draws its occupied count ``k ~ Binomial(size, 1 - p_vac)``
and then ``k`` input pairs from the bath's law conditioned on not being
vacuum.

Every photon of an occupied arm meets one of three fates, the oracle's own
model: lost (upstream loss, arm efficiency and balancing trim), tapped onto
the arm's monitor detector, or kept for the switch.  With survival ``surv``
the tapped count is ``Binomial(n, surv * r**2)`` and the kept count
``Binomial(n - tapped, surv * (1 - r**2) / (1 - surv * r**2))``.  Monitor
and output detectors click on any occupation, and the switch routes the
kept photons by the monitor click pattern.

Draw order is part of correctness.  In every mode a block draws ``k``, then
the occupations, then the fates of arm A, then those of arm B.  Same-seed
bar, cross, feed-forward and dead-window runs therefore see the same
photons: they give identical ``n_a + n_b`` and ``coincidences``, and the
switch only relabels the arms.

A response dead window freezes the switch for ``dead_window_slots`` slots
after an effective monitor click, in the state that click chose.  Only
dead-window runs need slot positions.  They draw the sorted positions of
the occupied slots after the fates, walk only the clicks to find the
effective ones, and carry the last effective click into the next block, so
a window that crosses a block boundary keeps its held state.

Determinism: a run is a pure function of its config.  Every block consumes
its own child of ``numpy.random.SeedSequence(seed)``.  Runs without a dead
window are independent per block, so they can be sharded by block and the
shards merged by summation; dead-window runs carry switch state from block
to block and cannot.  ``STREAM_VERSION`` names the stream a seed yields; it
goes up whenever a change alters the tallies of any seed.

Counting conventions, chosen to mirror how the hardware is read out:

* ``n_a`` / ``n_b`` are click tallies at the output detectors.
* ``n_in_est`` estimates the per-arm input singles rate by dividing the
  averaged output tallies by the tap transmission ``1 - r**2``.
* ``coincidences`` counts same-slot pairs between an output detector and a
  monitor detector, summed over all four combinations.  For a pair source
  a pair contributes exactly one such coincidence precisely when one
  photon was tapped and the other kept, whatever the switch did, so
  ``coincidences / (2 * r**2 * (1 - r**2))`` estimates the surviving pair
  rate; that is ``pairs_est``, the denominator of pair-normalized power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import as_amplitude, as_efficiency
from .protocol import ClickPattern, Policy, SwitchState, canonical_policy
from .sources import PAIR_KINDS, SourceKind, SourceSpec, _pair_weights

BLOCK = 1 << 16

#: Version of the random stream a seed yields; recorded in every result.
STREAM_VERSION = 2

MIN_G2_SLOTS = 100_000


class RunMode(str, Enum):
    BAR = "bar"
    CROSS = "cross"
    FEED_FORWARD = "feed_forward"


@dataclass(frozen=True)
class RunConfig:
    """One simulated acquisition.

    ``r`` is the tap amplitude.  ``arm_trim`` is the balancing attenuation
    the operator dials in; ``arm_efficiency`` models fixed plant asymmetry
    between the arms (both default to transparent).  ``dead_window_slots``
    freezes the switch for that many slots after a monitor click.
    """

    spec: SourceSpec
    r: float
    eps2: float
    slots: int
    seed: int
    mode: RunMode = RunMode.FEED_FORWARD
    arm_trim: tuple[float, float] = (1.0, 1.0)
    arm_efficiency: tuple[float, float] = (1.0, 1.0)
    dead_window_slots: int = 0
    policy: Policy | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", as_amplitude(self.r))
        object.__setattr__(self, "eps2", as_efficiency(self.eps2))
        object.__setattr__(self, "mode", RunMode(self.mode))
        if self.spec.drop_vacuum:
            raise ValueError("the event stream keeps the vacuum; drop_vacuum is an "
                             "analytics device")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        for name in ("arm_trim", "arm_efficiency"):
            pair = tuple(float(x) for x in getattr(self, name))
            if len(pair) != 2 or not all(0.0 <= x <= 1.0 for x in pair):
                raise ValueError(f"{name} must be two values in [0, 1]")
            object.__setattr__(self, name, pair)
        if self.dead_window_slots < 0:
            raise ValueError("dead_window_slots must be >= 0")


@dataclass(frozen=True)
class RunResult:
    slots: int
    mode: RunMode
    seed: int
    n_a: int
    n_b: int
    delta_n: int
    stderr_delta_n: float
    n_in_est: float | None
    coincidences: int
    pairs_est: float | None
    lost_to_dead_window: int

    def to_json_dict(self) -> dict:
        d = self.__dict__.copy()
        d["mode"] = self.mode.value
        d["stream_version"] = STREAM_VERSION
        return d


def _occupied_sampler(spec: SourceSpec):
    """The bath's vacuum probability, and a draw of occupied input pairs.

    ``draw(rng, k)`` returns ``k`` pairs ``(n_a, n_b)`` from the bath's law
    conditioned on at least one photon.
    """
    if spec.kind is SourceKind.UNCORRELATED:
        p = 1.0 / (1.0 + spec.nbar)  # geometric success probability, 1 - q
        q = 1.0 - p

        def draw(rng, k):
            # P(arm A occupied | not vacuum) = q / (1 - (1 - q)**2)
            a_occupied = rng.random(k) < 1.0 / (2.0 - q)
            lead = rng.geometric(p, k)  # thermal conditioned on >= 1
            other = rng.geometric(p, k) - 1
            return np.where(a_occupied, lead, 0), np.where(a_occupied, other, lead)

        return p * p, draw
    if spec.kind is SourceKind.SPLIT_THERMAL:
        p = 1.0 / (1.0 + 2.0 * spec.nbar)

        def draw(rng, k):
            tot = rng.geometric(p, k)
            n_a = rng.binomial(tot, 0.5)
            return n_a, tot - n_a

        return p, draw
    weights = _pair_weights(spec)
    p_vac = weights.pop((0, 0))
    occs = sorted(weights)
    if not occs:  # s = 0: every slot is vacuum and nothing is drawn
        return p_vac, None
    cum = np.cumsum([weights[o] for o in occs])
    cum /= cum[-1]
    cum[-1] = 1.0
    arr_a = np.array([o[0] for o in occs], dtype=np.int64)
    arr_b = np.array([o[1] for o in occs], dtype=np.int64)

    def draw(rng, k):
        idx = np.searchsorted(cum, rng.random(k), side="right")
        return arr_a[idx], arr_b[idx]

    return p_vac, draw


def _fate_probabilities(survival: float, r2: float) -> tuple[float, float]:
    """Per-photon tap probability, and keep probability given not tapped."""
    tap = survival * r2
    if tap >= 1.0:
        return tap, 0.0
    return tap, min(1.0, survival * (1.0 - r2) / (1.0 - tap))


def _dead_window_states(slots: np.ndarray, clicked: np.ndarray, own: np.ndarray,
                        window: int, carry: tuple[int, bool]):
    """Switch state of each occupied slot of one block under a dead window.

    ``slots`` holds the sorted absolute indices of the block's occupied
    slots, ``clicked`` whether each saw a monitor click, and ``own`` the
    state the policy picks for each slot's own click pattern.  A click is
    effective when it comes at least ``window + 1`` slots after the last
    effective click: the switch takes its state and holds it for the next
    ``window`` slots.  A click inside a held window is suppressed.
    ``carry`` is ``(slot, state)`` of the last effective click before this
    block; ``(-window - 1, False)`` before the first.

    Returns the state of each occupied slot, the number of suppressed
    clicks, and the carry for the next block.
    """
    last, held = carry
    click_slots = slots[clicked]
    effective = []
    free_from = last + 1 + window
    for j, slot in enumerate(click_slots.tolist()):
        if slot >= free_from:
            effective.append(j)
            free_from = slot + 1 + window
    eff_slots = np.concatenate(([last], click_slots[effective]))
    eff_states = np.concatenate(([held], own[clicked][effective]))
    latest = np.searchsorted(eff_slots, slots, side="right") - 1
    frozen = slots <= eff_slots[latest] + window
    states = np.where(frozen, eff_states[latest], own)
    carry = (int(eff_slots[-1]), bool(eff_states[-1]))
    return states, len(click_slots) - len(effective), carry


def _swap_lookup(policy: Policy) -> np.ndarray:
    out = np.zeros((2, 2), dtype=bool)
    for ca in (0, 1):
        for cb in (0, 1):
            state = policy.switch_for(ClickPattern(bool(ca), bool(cb)))
            out[ca, cb] = state is SwitchState.CROSS
    return out


def run(config: RunConfig) -> RunResult:
    """Simulate one acquisition and return its tallies."""
    spec, mode = config.spec, config.mode
    policy = config.policy or canonical_policy(spec.kind)
    r2 = config.r * config.r
    tap_a, keep_a = _fate_probabilities(
        config.eps2 * config.arm_trim[0] * config.arm_efficiency[0], r2)
    tap_b, keep_b = _fate_probabilities(
        config.eps2 * config.arm_trim[1] * config.arm_efficiency[1], r2)
    swap_table = _swap_lookup(policy)
    p_vac, draw_occupied = _occupied_sampler(spec)
    window = config.dead_window_slots if mode is RunMode.FEED_FORWARD else 0

    n_blocks = (config.slots + BLOCK - 1) // BLOCK
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)

    tally_a = tally_b = single_sided = coincidences = suppressed = 0
    carry = (-window - 1, False)  # last effective click, dead-window state
    for i in range(n_blocks):
        base = i * BLOCK
        size = min(BLOCK, config.slots - base)
        rng = np.random.Generator(np.random.PCG64(children[i]))
        k = int(rng.binomial(size, 1.0 - p_vac))
        if k == 0:
            continue
        n_a, n_b = draw_occupied(rng, k)
        dem_a = rng.binomial(n_a, tap_a)
        kept_a = rng.binomial(n_a - dem_a, keep_a) > 0
        dem_b = rng.binomial(n_b, tap_b)
        kept_b = rng.binomial(n_b - dem_b, keep_b) > 0
        click_a = dem_a > 0
        click_b = dem_b > 0

        if mode is RunMode.BAR:
            out_a, out_b = kept_a, kept_b
        elif mode is RunMode.CROSS:
            out_a, out_b = kept_b, kept_a
        else:
            swap = swap_table[click_a.astype(np.intp), click_b.astype(np.intp)]
            if window:
                slots = base + np.sort(rng.choice(size, k, replace=False))
                swap, lost, carry = _dead_window_states(
                    slots, click_a | click_b, swap, window, carry)
                suppressed += lost
            out_a = np.where(swap, kept_b, kept_a)
            out_b = np.where(swap, kept_a, kept_b)

        tally_a += int(np.count_nonzero(out_a))
        tally_b += int(np.count_nonzero(out_b))
        # the switch permutes the kept photons, so these need no routing
        single_sided += int(np.count_nonzero(kept_a ^ kept_b))
        coincidences += int(np.count_nonzero(kept_a & click_a)
                            + np.count_nonzero(kept_a & click_b)
                            + np.count_nonzero(kept_b & click_a)
                            + np.count_nonzero(kept_b & click_b))

    delta = tally_a - tally_b
    stderr = math.sqrt(max(single_sided - delta * delta / config.slots, 0.0))
    transmission = 1.0 - r2
    n_in_est = (tally_a + tally_b) / 2.0 / transmission if transmission > 0 else None
    pair_norm = 2.0 * r2 * (1.0 - r2)
    pairs_est = coincidences / pair_norm if pair_norm > 0 else None
    return RunResult(config.slots, mode, config.seed, tally_a, tally_b, delta,
                     stderr, n_in_est, coincidences, pairs_est, suppressed)


def _derived_seed(seed: int, *tag: int) -> int:
    return int(np.random.SeedSequence((seed,) + tag).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PowerMeasurement:
    value: float
    stderr: float
    feed_forward: RunResult
    cross: RunResult


def measure_power(spec: SourceSpec, r, eps2, slots: int, seed: int,
                  normalization, arm_trim: tuple[float, float] = (1.0, 1.0),
                  arm_efficiency: tuple[float, float] = (1.0, 1.0),
                  ) -> PowerMeasurement:
    """Feed-forward minus cross power, normalized by singles or pairs.

    The two acquisitions use independently derived seeds and their
    imbalance errors combine in quadrature.  The normalization denominator
    is read off the cross run, where the feed-forward is inactive.  It is a
    count too, and for pair normalization its noise is far from negligible,
    so the delta method adds its share, ``value / sqrt(count)``; ``count``
    is the cross run's coincidences for pairs, its output clicks for singles.
    """
    from .analytics import Normalization

    normalization = Normalization(normalization)
    if normalization is Normalization.PAIRS and spec.kind not in PAIR_KINDS:
        raise ValueError(f"pair normalization is undefined for {spec.kind.value}")
    common = dict(spec=spec, r=r, eps2=eps2, slots=slots, arm_trim=arm_trim,
                  arm_efficiency=arm_efficiency)
    cross = run(RunConfig(mode=RunMode.CROSS, seed=_derived_seed(seed, 1), **common))
    ff = run(RunConfig(mode=RunMode.FEED_FORWARD, seed=_derived_seed(seed, 2), **common))
    delta = ff.delta_n - cross.delta_n
    sigma = math.hypot(ff.stderr_delta_n, cross.stderr_delta_n)
    if normalization is Normalization.SINGLES:
        denom, count = cross.n_in_est, cross.n_a + cross.n_b
    else:
        denom, count = cross.pairs_est, cross.coincidences
    if not denom or denom <= 0:
        raise ValueError("normalization denominator is zero; nothing was detected")
    value = delta / denom
    return PowerMeasurement(value, math.hypot(sigma / denom, value / math.sqrt(count)),
                            ff, cross)


def calibrate_balance(config: RunConfig, max_iters: int = 40
                      ) -> tuple[float, float]:
    """Find arm trims that null the bar-mode imbalance.

    Runs bar-mode acquisitions, attenuating the brighter arm by bisection
    until the click imbalance is within three standard errors of zero.
    The trims cannot amplify, so an imbalance beyond 10x is rejected.
    """
    def bar_run(trim_a: float, trim_b: float, i: int) -> RunResult:
        cfg = RunConfig(spec=config.spec, r=config.r, eps2=config.eps2,
                        slots=config.slots, seed=_derived_seed(config.seed, 100, i),
                        mode=RunMode.BAR, arm_trim=(trim_a, trim_b),
                        arm_efficiency=config.arm_efficiency,
                        dead_window_slots=config.dead_window_slots)
        return run(cfg)

    first = bar_run(1.0, 1.0, 0)
    if abs(first.delta_n) <= 3.0 * first.stderr_delta_n:
        return (1.0, 1.0)
    bright_is_a = first.delta_n > 0
    hi_rate = max(first.n_a, first.n_b)
    lo_rate = min(first.n_a, first.n_b)
    if lo_rate == 0 or hi_rate / lo_rate > 10.0:
        raise ValueError(f"arm imbalance {hi_rate}:{lo_rate} exceeds the 10x trim range")

    lo, hi = 0.0, 1.0
    for i in range(1, max_iters + 1):
        mid = 0.5 * (lo + hi)
        trims = (mid, 1.0) if bright_is_a else (1.0, mid)
        res = bar_run(*trims, i)
        if abs(res.delta_n) <= 3.0 * res.stderr_delta_n:
            return trims
        still_bright = (res.delta_n > 0) == bright_is_a
        if still_bright:
            hi = mid
        else:
            lo = mid
    raise RuntimeError(f"balance calibration did not converge in {max_iters} iterations")


def _thermal_stream(rng: np.random.Generator, nbar: float, slots: int) -> np.ndarray:
    return rng.geometric(1.0 / (1.0 + nbar), slots) - 1


def _gaussian_memory_stream(rng: np.random.Generator, nbar: float, slots: int,
                            tau_c: float) -> np.ndarray:
    """Thermal counts whose intensity memory follows a Gaussian of width tau_c.

    A complex Gaussian field is built by smoothing white noise with a
    Gaussian kernel sized so the intensity correlation comes out as
    ``g2(tau) = 1 + exp(-pi * (tau / tau_c)**2)``; per-slot counts are
    Poisson in the instantaneous intensity, which keeps every marginal
    exactly thermal.
    """
    a = tau_c / math.sqrt(2.0 * math.pi)
    half = max(1, int(math.ceil(6.0 * a)))
    if 2 * half + 1 > slots:
        raise ValueError(f"tau_c = {tau_c:g} needs a {2 * half + 1}-tap memory "
                         f"kernel, longer than the {slots} slots")
    kernel = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * a * a))
    pad = kernel.size
    total = slots + 2 * pad
    field = (rng.standard_normal(total) + 1j * rng.standard_normal(total)) / math.sqrt(2.0)
    smooth = np.convolve(field, kernel, mode="same")[pad:-pad]
    del field
    intensity = np.abs(smooth)
    del smooth
    intensity **= 2
    intensity *= nbar / float(np.sum(kernel ** 2))
    return rng.poisson(intensity)


def estimate_g2(spec: SourceSpec, slots: int, seed: int, tau_grid,
                model: str = "iid", tau_c: float | None = None
                ) -> list[tuple[int, float]]:
    """Intensity correlation of one source arm at integer slot delays.

    The sampled stream is split in half on a virtual balanced splitter and
    the cross product of the halves is correlated, which keeps the zero
    delay point honest for click-style counting: an uncorrelated slot model
    gives 2 at zero delay and 1 elsewhere, the ``gaussian-memory`` model
    relaxes from 2 to 1 on the scale ``tau_c``.
    """
    if spec.kind in PAIR_KINDS:
        raise ValueError("g2 characterization applies to the thermal sources")
    if slots < MIN_G2_SLOTS:
        raise ValueError(f"need at least {MIN_G2_SLOTS} slots for a stable estimate")
    taus = [int(t) for t in tau_grid]
    if any(t < 0 or t >= slots for t in taus):
        raise ValueError("delays must satisfy 0 <= tau < slots")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if model == "iid":
        stream = _thermal_stream(rng, spec.nbar, slots)
    elif model == "gaussian-memory":
        if tau_c is None or not 0 < tau_c < math.inf:
            raise ValueError("gaussian-memory model requires a finite tau_c > 0")
        stream = _gaussian_memory_stream(rng, spec.nbar, slots, float(tau_c))
    else:
        raise ValueError(f"unknown model {model!r}")

    half_1 = rng.binomial(stream, 0.5)
    half_2 = stream - half_1
    mean_1 = float(half_1.mean())
    mean_2 = float(half_2.mean())
    if mean_1 <= 0 or mean_2 <= 0:
        raise ValueError("stream is empty; raise nbar or slots")
    out = []
    for tau in taus:
        a, b = (half_1, half_2) if tau == 0 else (half_1[:-tau], half_2[tau:])
        # an exact integer dot product, with no slot-sized temporary
        num = int(np.dot(a, b)) / a.size
        out.append((tau, num / (mean_1 * mean_2)))
    return out


def fit_gaussian_memory_tau_c(samples) -> float:
    """Fit ``g2(tau) = 1 + exp(-pi * (tau / tau_c)**2)`` and return tau_c."""
    from scipy.optimize import curve_fit

    taus = np.array([t for t, _ in samples], dtype=float)
    values = np.array([g for _, g in samples], dtype=float)

    def model(tau, tau_c):
        return 1.0 + np.exp(-math.pi * (tau / tau_c) ** 2)

    above = taus[values > 1.5]
    guess = max(float(above.max()) if above.size else 1.0, 1.0)
    popt, _ = curve_fit(model, taus, values, p0=[guess])
    return float(abs(popt[0]))
