"""Event simulation of the demon experiment, drawing only occupied slots.

A detection slot is occupied when the bath puts at least one photon into
either arm.  At the paper's operating points 91-99% of slots are empty, and
an empty slot touches no tally, so the engine never draws one.  Each block
of ``BLOCK`` slots draws its occupied count ``k ~ Binomial(size, 1 - p_vac)``
and then ``k`` input pairs from the bath's law conditioned on not being
vacuum.

The detectors only click, so an occupied arm is drawn straight into one of
four cells, ``2 * (output click) + (monitor click)``.  Each of its ``n``
photons is lost (upstream loss, arm efficiency and balancing trim), tapped
onto the arm's monitor detector, or kept for the switch.  With survival
``s``, the chance that none reaches the monitor, the output, or either is
``(1 - u)**n`` at ``u = s * r**2``, ``s * (1 - r**2)`` and ``s``
(``protocol._no_click_points``); ``protocol._CELLS`` turns these into the
four cell chances, and one uniform per arm picks the cell.  The switch
routes the output clicks by the monitor click pattern; bar and cross runs
are the constant policies ``ALL_BAR`` and ``ALL_CROSS``.

Draw order is part of correctness.  In every mode a block draws ``k``, then
the occupations, then the cell of arm A, then that of arm B.  Same-seed
bar, cross, feed-forward and dead-window runs therefore see the same
photons: they give identical ``n_a + n_b`` and ``coincidences``, and the
switch only relabels the arms.

A response dead window freezes the switch for ``dead_window_slots`` slots
after an effective monitor click, in the state that click chose.  Only
dead-window runs need slot positions.  They draw the sorted positions of
the occupied slots after the cells, walk only the clicks to find the
effective ones, and carry the last effective click into the next block, so
a window that crosses a block boundary keeps its held state.

Determinism: a run is a pure function of its config.  Block ``i`` consumes
``SeedSequence(seed, spawn_key=(i,))``, the child ``spawn`` would give it,
built alone.  Runs without a dead window are independent per block, so
they can be sharded by block and the shards merged by summation;
dead-window runs carry switch state from block to block and cannot.
``STREAM_VERSION`` names the stream a seed yields; it goes up whenever a
change alters the tallies of any seed.

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
from .analytics import Normalization
from .protocol import _CELLS, ALL_BAR, ALL_CROSS, Policy, _no_click_points, canonical_policy
from .sources import PAIR_KINDS, SourceKind, SourceSpec, _pair_weights

BLOCK = 1 << 16

#: Version of the random stream a seed yields; recorded in every result.
STREAM_VERSION = 3

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
        if self.mode is not RunMode.FEED_FORWARD and (
                self.policy is not None or self.dead_window_slots):
            raise ValueError(f"policy and dead_window_slots apply to feed-forward "
                             f"runs, not to {self.mode.value}")


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


def _arm_clicks(rng: np.random.Generator, n: np.ndarray, survival: float, r2: float):
    """Output and monitor clicks of arms holding ``n`` photons, from one uniform each.

    The uniform is held against the chances of arm cell 0, of cells 0-1 and
    of cells 0-2, the cell being ``2 * (output click) + (monitor click)``.
    """
    no_click = (1.0 - _no_click_points(survival, r2)) ** np.arange(n.max() + 1)[:, None]
    none, no_output, not_both = np.cumsum(no_click @ _CELLS.T, axis=1)[n, :3].T
    x = rng.random(n.size)
    output = x >= no_output
    return output, (x >= none) & ~output | (x >= not_both)


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
    clicks = np.flatnonzero(clicked)
    effective = []
    free_from = last + 1 + window
    for j, slot in zip(clicks.tolist(), slots[clicks].tolist()):
        if slot >= free_from:
            effective.append(j)
            free_from = slot + 1 + window
    effective = np.array(effective, dtype=np.intp)
    eff_slots = np.concatenate(([last], slots[effective]))
    eff_states = np.concatenate(([held], own[effective]))
    is_effective = np.zeros(slots.size, dtype=np.intp)
    is_effective[effective] = 1
    latest = np.cumsum(is_effective)  # index 0 is the carried click
    frozen = slots <= eff_slots[latest] + window
    states = np.where(frozen, eff_states[latest], own)
    carry = (int(eff_slots[-1]), bool(eff_states[-1]))
    return states, clicks.size - effective.size, carry


def run(config: RunConfig) -> RunResult:
    """Simulate one acquisition and return its tallies."""
    spec, mode = config.spec, config.mode
    policy = {RunMode.BAR: ALL_BAR, RunMode.CROSS: ALL_CROSS}.get(
        mode, config.policy or canonical_policy(spec.kind))
    r2 = config.r * config.r
    survival_a, survival_b = (config.eps2 * trim * efficiency for trim, efficiency
                              in zip(config.arm_trim, config.arm_efficiency))
    swap_table = policy.crosses()
    p_vac, draw_occupied = _occupied_sampler(spec)
    window = config.dead_window_slots

    n_blocks = (config.slots + BLOCK - 1) // BLOCK

    tally_a = tally_b = single_sided = coincidences = suppressed = 0
    carry = (-window - 1, False)  # last effective click, dead-window state
    for i in range(n_blocks):
        base = i * BLOCK
        size = min(BLOCK, config.slots - base)
        child = np.random.SeedSequence(config.seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.PCG64(child))
        k = int(rng.binomial(size, 1.0 - p_vac))
        if k == 0:
            continue
        n_a, n_b = draw_occupied(rng, k)
        kept_a, click_a = _arm_clicks(rng, n_a, survival_a, r2)
        kept_b, click_b = _arm_clicks(rng, n_b, survival_b, r2)

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
                  normalization) -> PowerMeasurement:
    """Feed-forward minus cross power, normalized by singles or pairs.

    The two acquisitions use independently derived seeds and their
    imbalance errors combine in quadrature.  The normalization denominator
    is read off the cross run, where the feed-forward is inactive.  It is a
    count too, and for pair normalization its noise is far from negligible,
    so the delta method adds its share, ``value / sqrt(count)``; ``count``
    is the cross run's coincidences for pairs, its output clicks for singles.
    """
    normalization = Normalization(normalization)
    if normalization is Normalization.PAIRS and spec.kind not in PAIR_KINDS:
        raise ValueError(f"pair normalization is undefined for {spec.kind.value}")
    common = dict(spec=spec, r=r, eps2=eps2, slots=slots)
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
                        arm_efficiency=config.arm_efficiency)
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


def _thermal_blocks(rng: np.random.Generator, nbar: float, slots: int):
    """Thermal counts of ``slots`` independent slots, ``BLOCK`` at a time."""
    for base in range(0, slots, BLOCK):
        yield rng.geometric(1.0 / (1.0 + nbar), min(BLOCK, slots - base)) - 1


def _gaussian_memory_blocks(rng: np.random.Generator, nbar: float, slots: int,
                            tau_c: float):
    """Thermal counts whose intensity memory follows a Gaussian of width tau_c.

    A complex Gaussian field is built by smoothing white noise with a
    Gaussian kernel sized so the intensity correlation comes out as
    ``g2(tau) = 1 + exp(-pi * (tau / tau_c)**2)``; per-slot counts are
    Poisson in the instantaneous intensity, which keeps every marginal
    exactly thermal.  The noise is drawn ``BLOCK`` slots at a time, and the
    last ``2 * half`` samples of each block are carried as the halo of the
    next, so the smoothed field runs on across block boundaries.
    """
    a = tau_c / math.sqrt(2.0 * math.pi)
    half = max(1, int(math.ceil(6.0 * a)))
    if 2 * half + 1 > slots:
        raise ValueError(f"tau_c = {tau_c:g} needs a {2 * half + 1}-tap memory "
                         f"kernel, longer than the {slots} slots")
    kernel = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * a * a))
    # the field is (re + i im) / sqrt(2), so its intensity is (re**2 + im**2) / 2
    scale = nbar / (2.0 * float(np.sum(kernel ** 2)))
    noise = rng.standard_normal((2, 2 * half))
    for base in range(0, slots, BLOCK):
        noise = np.concatenate((noise[:, -2 * half:],
                                rng.standard_normal((2, min(BLOCK, slots - base)))), axis=1)
        re, im = (np.convolve(row, kernel, mode="valid") for row in noise)
        yield rng.poisson((re * re + im * im) * scale)


def _lag_sums(carry: np.ndarray, half_1: np.ndarray, half_2: np.ndarray, taus):
    """Lagged products of one block, and the carry for the next.

    ``carry`` holds the ``half_1`` counts of the slots just before the
    block, at most ``max(taus)`` of them.  Returns, for each ``tau``, the
    exact integer sum of ``half_1[i] * half_2[i + tau]`` over the pairs
    whose later slot ``i + tau`` lies in this block, and the new carry.
    """
    ext = np.concatenate((carry, half_1))
    lead = carry.size
    sums = []
    for tau in taus:
        first = max(tau - lead, 0)  # the block's first slot with a partner
        sums.append(int(np.dot(ext[lead + first - tau:ext.size - tau], half_2[first:]))
                    if first < half_2.size else 0)
    return sums, ext[max(ext.size - max(taus, default=0), 0):]


def estimate_g2(spec: SourceSpec, slots: int, seed: int, tau_grid,
                model: str = "iid", tau_c: float | None = None
                ) -> list[tuple[int, float]]:
    """Intensity correlation of one source arm at integer slot delays.

    The sampled stream is split in half on a virtual balanced splitter and
    the cross product of the halves is correlated, which keeps the zero
    delay point honest for click-style counting: an uncorrelated slot model
    gives 2 at zero delay and 1 elsewhere, the ``gaussian-memory`` model
    relaxes from 2 to 1 on the scale ``tau_c``.

    The stream is drawn and reduced ``BLOCK`` slots at a time from one
    generator seeded by ``seed``: each block draws its counts (for
    ``gaussian-memory`` the white noise of its slots, then the Poisson
    counts), then the splitter's binomial on its occupied slots, and adds
    its lagged products to integer sums.  Memory is O(BLOCK + max(tau)),
    whatever ``slots`` is.
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
        if tau_c is not None:
            raise ValueError("tau_c applies to the gaussian-memory model only")
        blocks = _thermal_blocks(rng, spec.nbar, slots)
    elif model == "gaussian-memory":
        if tau_c is None or not 0 < tau_c < math.inf:
            raise ValueError("gaussian-memory model requires a finite tau_c > 0")
        blocks = _gaussian_memory_blocks(rng, spec.nbar, slots, float(tau_c))
    else:
        raise ValueError(f"unknown model {model!r}")

    total_1 = total_2 = 0
    sums = [0] * len(taus)
    carry = np.zeros(0, dtype=np.int64)
    for counts in blocks:
        half_1 = np.zeros_like(counts)
        occupied = np.flatnonzero(counts)
        # Binomial(0, 1/2) is 0, so drawing only the occupied slots is exact
        half_1[occupied] = rng.binomial(counts[occupied], 0.5)
        half_2 = counts - half_1
        total_1 += int(half_1.sum())
        total_2 += int(half_2.sum())
        block_sums, carry = _lag_sums(carry, half_1, half_2, taus)
        sums = [s + b for s, b in zip(sums, block_sums)]
    if total_1 == 0 or total_2 == 0:
        raise ValueError("stream is empty; raise nbar or slots")
    mean_1, mean_2 = total_1 / slots, total_2 / slots
    return [(tau, s / (slots - tau) / (mean_1 * mean_2)) for tau, s in zip(taus, sums)]


def fit_gaussian_memory_tau_c(samples) -> float:
    """Fit ``g2(tau) = 1 + exp(-pi * (tau / tau_c)**2)`` and return tau_c.

    Least squares by Gauss-Newton in ``x = tau_c**-2``, starting from tau_c
    at the largest delay whose sample exceeds 1.5 (at least 1).  A step that
    does not lower the cost is halved; the fit stops when no step does, or
    when the step is below 1e-13 of ``x``.  Refuses a fit that fewer than two
    positive delays constrain: on the slope, ``exp(-pi * (tau / tau_c)**2)``
    lies in [0.01, 0.99] at the returned tau_c.
    """
    taus = np.array([t for t, _ in samples], dtype=float)
    values = np.array([g for _, g in samples], dtype=float)
    if not taus.size or not (np.isfinite(taus).all() and np.isfinite(values).all()):
        raise ValueError("the tau_c fit needs at least one finite (tau, g2) sample")
    scaled = math.pi * taus ** 2

    def residuals(x):
        return values - 1.0 - np.exp(-x * scaled)

    above = taus[values > 1.5]
    x = max(float(above.max()) if above.size else 1.0, 1.0) ** -2
    resid = residuals(x)
    for _ in range(100):
        slope = -scaled * np.exp(-x * scaled)  # d model / dx
        curvature = float(slope @ slope)
        if curvature == 0.0:
            break
        step = float(slope @ resid) / curvature
        for _ in range(60):
            if x + step > 0.0 and (trial := residuals(x + step)) @ trial < resid @ resid:
                break
            step /= 2.0
        else:
            break
        x, resid = x + step, trial
        if abs(step) <= 1e-13 * x:
            break
    memory = np.exp(-x * scaled[taus > 0])
    if np.count_nonzero((memory >= 0.01) & (memory <= 0.99)) < 2:
        raise ValueError(f"taus: fewer than two positive delays lie on the slope "
                         f"(g2 - 1 in [0.01, 0.99]) of the fitted tau_c "
                         f"{x ** -0.5:.4g}; add delays near it")
    return x ** -0.5
