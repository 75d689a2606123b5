"""Event simulation of the demon experiment, drawing only occupied slots.

A detection slot is occupied when the bath puts at least one photon into
either arm.  At the paper's operating points 91-99% of slots are empty, and
an empty slot touches no tally, so the engine never draws one.  Each block
of ``BLOCK`` slots draws its occupied count ``k ~ Binomial(size, 1 - p_vac)``
and then ``k`` input pairs from the bath's law conditioned on not being
vacuum.  A thermal count of mean ``m`` is one standard exponential ``E``
inverted, ``floor(E / log1p(1/m))``.  The split bath's balanced splitter
gives each photon of the shared mode one fair bit, so arm A's count is the
number of set bits among the low ``tot`` bits of one random 64-bit word;
a slot of more than 64 photons takes a binomial instead.  ``estimate_g2``
draws and splits its stream with the same two samplers.

The detectors only click, so an occupied arm is drawn straight into one of
four cells, ``2 * (output click) + (monitor click)``.  Each of its ``n``
photons is lost (upstream loss or the arm's transmission), tapped
onto the arm's monitor detector, or kept for the switch.  With survival
``s``, the chance that none reaches the monitor, the output, or either is
``(1 - u)**n`` at ``u = s * r**2``, ``s * (1 - r**2)`` and ``s``
(``protocol._no_click_points``); ``protocol._CELLS`` turns these into the
four cell chances, whose running sums a run tabulates once per arm.  An
arm's cell is the number of them its one uniform passes, and the two arms'
cells make the click table's cell ``4 * cell_a + cell_b``, indexed
``[out_a, mon_a, out_b, mon_b]`` as in ``protocol._click_table``.  The
switch routes the output clicks by the monitor click pattern; bar and cross
runs are the constant policies ``ALL_BAR`` and ``ALL_CROSS``.

Draw order is part of correctness.  In every mode a block draws ``k``, then
the occupations, then the uniforms of arm A, then those of arm B, all from
the run's one photon generator; slot positions have a generator of their
own.  Same-seed bar, cross, feed-forward and dead-window runs therefore see
the same photons: they give identical ``n_a + n_b`` and ``coincidences``,
and the switch only relabels the arms.  Blocks are held until they would
hold more than ``CHUNK`` occupied slots, and then tallied together, so weak
light pays numpy's per-call cost per chunk, not per block.

A response dead window freezes the switch for ``dead_window_slots`` slots
after an effective monitor click, in the state that click chose.  Only
dead-window runs need slot positions.  A block draws the positions of its
occupied slots and sorts them; the walk then finds a chunk's effective
clicks without a per-click loop.  Each click's successor is the first
click at least ``window + 1`` slots after it, one
``searchsorted`` for all clicks: its cost follows the clicks, where a count
of clicks over the block would cost a whole block's pass even in weak light.
The effective clicks are the chain of successors from the first click free
of the held window.  Pointer doubling (Wyllie, 1979) builds it in about
``log2(effective clicks)`` vectorized steps, each appending the chain's
image under the successor table and then composing the table with itself.
The last effective click is carried into the next chunk, so a window that
crosses a chunk boundary keeps its held state.

Determinism: a run is a pure function of its config.  Its photons come
from ``SeedSequence(seed, spawn_key=(0,))`` and a dead-window run's slot
positions from ``SeedSequence(seed, spawn_key=(1,))``, the children
``spawn`` would give, built alone.  What depends only on the bath or the
mode (the occupied sampler, the switch vector) is built once and cached,
read-only.  ``STREAM_VERSION`` names the stream a seed yields; it goes up
whenever a change alters the tallies of any seed.

Counting conventions, chosen to mirror how the hardware is read out.  A run
counts its occupied slots in a histogram over the click table's cells and
whether the switch crossed, ``[swap, out_a, mon_a, out_b, mon_b]``, and each
tally is one weight vector over it (``_TALLY_WEIGHTS``):

* ``n_a`` / ``n_b`` are click tallies at the output detectors, the arms'
  output clicks swapped where the switch crossed.
* ``n_in_est`` estimates the per-arm input singles rate by dividing the
  averaged output tallies by the tap transmission ``1 - r**2``.
* ``coincidences`` counts same-slot pairs between an output detector and a
  monitor detector, summed over all four combinations, ``(out_a + out_b) *
  (mon_a + mon_b)`` as in ``expected_power``.  For a pair source a pair
  contributes exactly one such coincidence precisely when one photon was
  tapped and the other kept, whatever the switch did, so ``coincidences /
  (2 * r**2 * (1 - r**2))`` estimates the surviving pair rate; that is
  ``pairs_est``, the denominator of pair-normalized power.
* ``stderr_delta_n`` reads the slots where exactly one output clicks.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import as_amplitude, as_efficiency
from .analytics import Normalization, as_normalization
from .protocol import (_CELLS, _MON_A, _MON_B, _OUT_A, _OUT_B, ALL_BAR, ALL_CROSS,
                       _no_click_points, canonical_policy)
from .sources import PAIR_KINDS, SourceKind, SourceSpec, bath_table

BLOCK = 1 << 16

#: Most occupied slots ``run`` holds before it tallies them.  A numpy call
#: costs a few microseconds whatever its size, and a weak-light block holds a
#: few hundred occupied slots; past a few thousand a call's cost is mostly
#: its elements, and a larger chunk would only hold more arrays in memory.
CHUNK = 1 << 13

#: Largest per-arm mean of a thermal bath the engine takes.  ``run``
#: tabulates each arm's cell thresholds for every count up to twice the
#: largest it has drawn.  A thermal count exceeds ``m`` with chance about
#: ``exp(-m / nbar)``, so the largest of a block's ``BLOCK`` counts is about
#: ``nbar * ln(BLOCK)``; this bound keeps that near ``BLOCK``, and the table
#: to about ``2 * BLOCK`` rows, growing only with the log of a run's blocks.
#: ``estimate_g2`` takes the same bound: its counts then stay near ``BLOCK``
#: = 2**16, so a block's sum of ``BLOCK`` lagged products stays far below
#: 2**16 * 2**32 = 2**48, and its int64 dot products cannot overflow.
MAX_THERMAL_NBAR = BLOCK / math.log(BLOCK)

#: Bisection steps ``calibrate_balance`` takes before it gives up.
BALANCE_MAX_ITERS = 40

#: Version of the random stream a seed yields; recorded in every result.
STREAM_VERSION = 5

MIN_G2_SLOTS = 100_000

_ONES = np.uint64(2 ** 64 - 1)

#: The swap bit of the run histogram ``[swap, out_a, mon_a, out_b, mon_b]``,
#: whose cell ``16 * swap + 4 * cell_a + cell_b`` extends the click table's.
_SWAP = np.arange(2).reshape(2, 1, 1, 1, 1)
_SINGLE = _OUT_A ^ _OUT_B  # exactly one arm kept a photon: the switch moves it

#: ``n_a``, ``n_b``, the single-sided count and ``coincidences`` as weights
#: over the run histogram.  Coincidences pair every output click with every
#: monitor click, as ``protocol.expected_power``'s pair rate does.
_TALLY_WEIGHTS = np.array(np.broadcast_arrays(
    _OUT_A ^ (_SWAP & _SINGLE), _OUT_B ^ (_SWAP & _SINGLE), _SINGLE,
    (_OUT_A + _OUT_B) * (_MON_A + _MON_B))).reshape(4, 32)

#: The monitor bits of a click table cell ``8 out_a + 4 mon_a + 2 out_b + mon_b``.
_MONITOR_BITS = np.uint8(0b0101)


def _check_brightness(spec: SourceSpec) -> None:
    if spec.nbar is not None and spec.nbar > MAX_THERMAL_NBAR:
        raise ValueError(f"nbar {spec.nbar!r} exceeds the simulation bound "
                         f"{MAX_THERMAL_NBAR:.0f} (BLOCK / ln(BLOCK))")


def _as_count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; a float or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def _as_seed(value) -> int:
    """``value`` as an int in [0, 2**64); a float or a bool is refused."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 0 <= value < 2 ** 64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    return int(value)


class RunMode(str, Enum):
    BAR = "bar"
    CROSS = "cross"
    FEED_FORWARD = "feed_forward"


@dataclass(frozen=True)
class RunConfig:
    """One simulated acquisition.

    ``r`` is the tap amplitude.  ``arm_efficiency`` is each arm's
    transmission after the tap: fixed plant asymmetry times any balancing
    trim (``calibrate_balance``'s trims multiply into it; default
    transparent).  ``dead_window_slots`` freezes the switch for that many
    slots after a monitor click.
    """

    spec: SourceSpec
    r: float
    eps2: float
    slots: int
    seed: int
    mode: RunMode = RunMode.FEED_FORWARD
    arm_efficiency: tuple[float, float] = (1.0, 1.0)
    dead_window_slots: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", as_amplitude(self.r))
        object.__setattr__(self, "eps2", as_efficiency(self.eps2))
        object.__setattr__(self, "mode", RunMode(self.mode))
        _check_brightness(self.spec)
        object.__setattr__(self, "slots", _as_count("slots", self.slots, 1))
        object.__setattr__(self, "seed", _as_seed(self.seed))
        pair = tuple(float(x) for x in self.arm_efficiency)
        if len(pair) != 2 or not all(0.0 <= x <= 1.0 for x in pair):
            raise ValueError("arm_efficiency must be two values in [0, 1]")
        object.__setattr__(self, "arm_efficiency", pair)
        object.__setattr__(self, "dead_window_slots",
                           _as_count("dead_window_slots", self.dead_window_slots, 0))
        if self.mode is not RunMode.FEED_FORWARD and self.dead_window_slots:
            raise ValueError(f"dead_window_slots applies to feed-forward runs, "
                             f"not to {self.mode.value}")


@dataclass(frozen=True)
class RunResult:
    """One run's tallies.

    ``stderr_delta_n`` assumes independent slots: it is honest at equal arms
    or without a dead window, and too small when unequal ``arm_efficiency``
    meets a dead window, whose held state correlates slots.
    """

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


def _thermal_counts(rng: np.random.Generator, mean: float, k: int) -> np.ndarray:
    """``k`` thermal counts of mean ``mean > 0``, each ``floor(E / log1p(1/mean))``.

    ``E`` is a standard exponential, so a count is at least ``j`` with chance
    ``(mean / (1 + mean))**j``: the geometric law, by inversion.
    """
    e = rng.standard_exponential(k)
    e /= math.log1p(1.0 / mean)
    return e.astype(np.int64)


def _balanced_split(rng: np.random.Generator, tot: np.ndarray) -> np.ndarray:
    """Arm A's share of counts ``tot >= 1`` at a balanced splitter.

    Each photon takes one fair bit: one random 64-bit word per count, masked
    to its low ``tot`` bits, gives the share as its number of set bits.  The
    mask is ``_ONES >> (64 - tot)``, and a shift by 64 is undefined, hence
    ``tot >= 1``.  Counts past 64 photons then take ``Binomial(tot, 1/2)``.
    """
    bits = rng.integers(0, 2 ** 64, tot.size, dtype=np.uint64)
    bits &= _ONES >> (64 - np.minimum(tot, 64)).astype(np.uint64)
    n_a = np.bitwise_count(bits).astype(np.int64)
    big = np.flatnonzero(tot > 64)
    n_a[big] = rng.binomial(tot.take(big), 0.5)
    return n_a


@functools.lru_cache(maxsize=64)  # shared by every run of a bath: read-only
def _occupied_sampler(spec: SourceSpec):
    """The bath's vacuum probability, and a draw of occupied slots.

    ``draw(rng, k)`` returns ``n_a, n_b, x_a, x_b``: ``k`` input pairs from
    the bath's law conditioned on at least one photon, then each arm's cell
    uniforms.  A thermal count so conditioned is 1 plus an unconditioned
    one.  The uncorrelated bath draws which arm is occupied, its count, then
    the other arm's.  The split bath draws the shared mode's count ``tot``,
    then splits it with ``_balanced_split``.  A pair bath draws one cell of
    its table, and takes that uniform and both arms' in one call: each
    double is one 64-bit output, so the stream is that of three calls.
    """
    if spec.kind is SourceKind.UNCORRELATED:
        nbar = spec.nbar
        p = 1.0 / (1.0 + nbar)  # an arm's vacuum probability
        q = 1.0 - p

        def draw(rng, k):
            # P(arm A occupied | not vacuum) = q / (1 - (1 - q)**2)
            a_occupied = rng.random(k) < 1.0 / (2.0 - q)
            lead = _thermal_counts(rng, nbar, k)
            lead += 1
            n_b = _thermal_counts(rng, nbar, k)
            # A holds lead and B the other count where A is occupied, else B
            # holds lead; products with the mask are cheaper than np.where on
            # a random mask
            n_b *= a_occupied
            n_b += lead
            lead *= a_occupied
            n_b -= lead
            return lead, n_b, rng.random(k), rng.random(k)

        return p * p, draw
    if spec.kind is SourceKind.SPLIT_THERMAL:
        mean = 2.0 * spec.nbar
        p = 1.0 / (1.0 + mean)

        def draw(rng, k):
            tot = _thermal_counts(rng, mean, k)
            tot += 1
            n_a = _balanced_split(rng, tot)
            tot -= n_a
            return n_a, tot, rng.random(k), rng.random(k)

        return p, draw
    table, _ = bath_table(spec, 2)
    p_vac = float(table[0, 0])
    table[0, 0] = 0.0
    arr_a, arr_b = np.nonzero(table)  # row-major: the occupied pairs in sorted order
    if not arr_a.size:  # s2 = 0: every slot is vacuum and nothing is drawn
        return p_vac, None
    cum = np.cumsum(table[arr_a, arr_b])
    cum /= cum[-1]
    cum[-1] = 1.0
    for shared in (arr_a, arr_b, cum):
        shared.flags.writeable = False

    def draw(rng, k):
        u = rng.random(3 * k)
        idx = cum.searchsorted(u[:k], side="right")
        return arr_a.take(idx), arr_b.take(idx), u[k:2 * k], u[2 * k:]

    return p_vac, draw


@functools.lru_cache(maxsize=None)  # one per mode and bath kind: read-only
def _switch_vector(mode: RunMode, kind: SourceKind) -> np.ndarray:
    """Whether the switch crosses at each click table cell ``4 * cell_a + cell_b``."""
    crossed = {RunMode.BAR: ALL_BAR, RunMode.CROSS: ALL_CROSS}.get(
        mode, canonical_policy(kind)).crosses()[_MON_A, _MON_B].ravel()
    crossed.flags.writeable = False
    return crossed


def _cell_thresholds(survival: float, r2: float, rows: int) -> np.ndarray:
    """An arm's cell thresholds for each count ``n < rows``, as a ``(3, rows)`` array.

    Row ``j`` holds the chance of cells ``0..j``, the cell being
    ``2 * (output click) + (monitor click)``.  The chances of cells 1 and 2
    are differences of ordered powers, never negative, so the thresholds
    rise with ``j``.
    """
    no_click = (1.0 - _no_click_points(survival, r2)) ** np.arange(rows)[:, None]
    thresholds = _CELLS[:3] @ no_click.T
    return np.cumsum(thresholds, axis=0, out=thresholds)


def _arm_cells(thresholds: np.ndarray, n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cells of arms holding ``n`` photons: how many thresholds each uniform passes."""
    cell = np.add(x >= thresholds[0].take(n), x >= thresholds[1].take(n), dtype=np.uint8)
    cell += x >= thresholds[2].take(n)
    return cell


def _dead_window_states(slots: np.ndarray, clicked: np.ndarray, own: np.ndarray,
                        window: int, carry: tuple[int, bool]):
    """Switch state of each occupied slot of one chunk under a dead window.

    ``slots`` holds the sorted absolute indices of the chunk's occupied
    slots, ``clicked`` whether each saw a monitor click, and ``own`` the
    state the policy picks for each slot's own click pattern.  A click is
    effective when it comes at least ``window + 1`` slots after the last
    effective click: the switch takes its state and holds it for the next
    ``window`` slots.  A click inside a held window is suppressed.
    ``carry`` is ``(slot, state)`` of the last effective click before this
    chunk; ``(-window - 1, False)`` before the first.

    Returns the state of each occupied slot, the number of suppressed
    clicks, and the carry for the next chunk.
    """
    last, held = carry
    clicks = np.flatnonzero(clicked)
    click_slots = slots.take(clicks)
    # each click's successor is the first click free of its window, or the
    # sentinel clicks.size
    jump = np.append(np.searchsorted(click_slots, click_slots + window + 1), clicks.size)
    first = np.searchsorted(click_slots, last + window + 1)
    # the effective clicks are the chain of successors from the first free
    # click; pointer doubling extends it by its image under the doubled jump
    chain = np.array([first])
    while jump[first] != clicks.size:
        chain = np.concatenate((chain, jump.take(chain)))
        jump = jump.take(jump)
    effective = clicks.take(chain[chain < clicks.size])
    eff_slots = np.concatenate(([last], slots.take(effective)))
    eff_states = np.concatenate(([held], own.take(effective)))
    latest = np.zeros(slots.size, dtype=np.intp)  # index 0 is the carried click
    latest[effective] = 1
    np.cumsum(latest, out=latest)
    frozen = slots <= (eff_slots + window).take(latest)
    states = own ^ (frozen & (eff_states.take(latest) ^ own))  # frozen: held state
    carry = (int(eff_slots[-1]), bool(eff_states[-1]))
    return states, clicks.size - effective.size, carry


def _joined(blocks: list) -> tuple:
    """One chunk's ``(n_a, n_b, x_a, x_b, slots)`` from its blocks' draws."""
    if len(blocks) == 1:
        return blocks[0]
    n_a, n_b, x_a, x_b, slots = zip(*blocks)
    return (*map(np.concatenate, (n_a, n_b, x_a, x_b)),
            None if slots[0] is None else np.concatenate(slots))


def _draw_blocks(config: RunConfig, p_vac: float, draw_occupied, tally) -> None:
    """Draw each occupied block, and pass them to ``tally`` in chunks of whole blocks.

    A block draws ``k``, then ``draw_occupied``'s occupations and cell
    uniforms, then in dead-window runs the sorted absolute positions of its
    occupied slots, from a second generator.  Blocks are held until the next
    would take the held occupied count past ``CHUNK``; a block at or past it
    is tallied alone, straight after its draws.
    """
    window, seed = config.dead_window_slots, config.seed
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if window:
        positions = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    held, held_k, tallied = [], 0, None
    for base in range(0, config.slots, BLOCK):
        size = min(BLOCK, config.slots - base)
        k = int(rng.binomial(size, 1.0 - p_vac))
        if k == 0:
            continue
        drawn = draw_occupied(rng, k)
        # a tallied chunk is let go only now: freed straight after its tally,
        # or kept past this block's positions, it doubled the page faults of
        # bright dead-window runs
        tallied = None
        slots = None
        if window:
            # a block's offsets fit int32, which sorts about twice as fast;
            # adding the base as an int64 widens them back
            offsets = positions.choice(size, k, replace=False).astype(np.int32)
            offsets.sort()
            slots = offsets + np.int64(base)
        if held and held_k + k > CHUNK:
            tally(held)
            tallied, held, held_k = held, [], 0
        held.append((*drawn, slots))
        held_k += k
        if held_k >= CHUNK:
            tally(held)
            tallied, held, held_k = held, [], 0
    if held:
        tally(held)


def run(config: RunConfig) -> RunResult:
    """Simulate one acquisition and return its tallies."""
    spec, mode = config.spec, config.mode
    r2 = config.r * config.r
    survival_a, survival_b = (config.eps2 * e for e in config.arm_efficiency)
    crossed = _switch_vector(mode, spec.kind)
    p_vac, draw_occupied = _occupied_sampler(spec)
    window = config.dead_window_slots

    hist = np.zeros(32, dtype=np.int64)  # [swap, out_a, mon_a, out_b, mon_b]
    rows = suppressed = 0
    table_a = table_b = None
    carry = (-window - 1, False)  # last effective click, dead-window state

    def tally(blocks: list) -> None:
        nonlocal rows, table_a, table_b, suppressed, carry
        n_a, n_b, x_a, x_b, slots = _joined(blocks)
        top = max(int(n_a.max()), int(n_b.max()))
        if top >= rows:  # tabulate the thresholds up to twice the largest count
            rows = 2 * top + 1
            table_a = table_b = _cell_thresholds(survival_a, r2, rows)
            if survival_b != survival_a:
                table_b = _cell_thresholds(survival_b, r2, rows)
        code = _arm_cells(table_a, n_a, x_a)
        code <<= 2
        code += _arm_cells(table_b, n_b, x_b)
        if window:
            swap, lost, carry = _dead_window_states(
                slots, (code & _MONITOR_BITS) != 0, crossed.take(code), window, carry)
            suppressed += lost
            code += swap.view(np.uint8) << 4
        np.add(hist, np.bincount(code, minlength=32), out=hist)

    _draw_blocks(config, p_vac, draw_occupied, tally)
    if not window:  # the switch follows each slot's own monitor clicks
        hist[16:] = hist[:16] * crossed
        hist[:16] -= hist[16:]
    tally_a, tally_b, single_sided, coincidences = (int(t) for t in _TALLY_WEIGHTS @ hist)

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
    normalization = as_normalization(spec, normalization)
    seed = _as_seed(seed)
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


def calibrate_balance(config: RunConfig) -> tuple[float, float]:
    """Find arm trims that null the bar-mode imbalance.

    Runs bar-mode acquisitions, attenuating the brighter arm by bisection
    until the click imbalance is within three standard errors of zero.
    The trims cannot amplify, so an imbalance beyond 10x is rejected.
    Apply them by multiplying them into ``arm_efficiency``.
    """
    eff_a, eff_b = config.arm_efficiency

    def bar_run(trim_a: float, trim_b: float, i: int) -> RunResult:
        cfg = RunConfig(spec=config.spec, r=config.r, eps2=config.eps2,
                        slots=config.slots, seed=_derived_seed(config.seed, 100, i),
                        mode=RunMode.BAR, arm_efficiency=(trim_a * eff_a, trim_b * eff_b))
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
    for i in range(1, BALANCE_MAX_ITERS + 1):
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
    raise RuntimeError(f"balance calibration did not converge in {BALANCE_MAX_ITERS} "
                       "iterations")


def _gaussian_memory_blocks(rng: np.random.Generator, nbar: float, slots: int,
                            tau_c: float):
    """Thermal counts whose intensity memory follows a Gaussian of width tau_c.

    A complex Gaussian field is built by smoothing white noise with a
    Gaussian kernel sized so the intensity correlation comes out as
    ``g2(tau) = 1 + exp(-pi * (tau / tau_c)**2)``; per-slot counts are
    Poisson in the instantaneous intensity, which keeps every marginal
    exactly thermal.  The noise is drawn ``BLOCK`` slots at a time, and the
    last ``2 * half`` samples of each block are carried as the halo of the
    next, so the smoothed field runs on across block boundaries.  The
    noise is drawn into one buffer that every block reuses, one row at a
    time, and the intensity is formed in place on the smoothed rows.
    """
    a = tau_c / math.sqrt(2.0 * math.pi)
    half = max(1, int(math.ceil(6.0 * a)))
    if 2 * half + 1 > slots:
        raise ValueError(f"tau_c = {tau_c:g} needs a {2 * half + 1}-tap memory "
                         f"kernel, longer than the {slots} slots")
    kernel = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * a * a))
    # the field is (re + i im) / sqrt(2), so its intensity is (re**2 + im**2) / 2
    scale = nbar / (2.0 * float(np.sum(kernel ** 2)))
    halo = 2 * half
    noise = np.empty((2, halo + BLOCK))
    for row in noise:
        rng.standard_normal(out=row[:halo])
    for base in range(0, slots, BLOCK):
        if base:  # the halo: the last 2 * half samples of the full block before
            noise[:, :halo] = noise[:, BLOCK:]
        size = min(BLOCK, slots - base)
        for row in noise:
            rng.standard_normal(out=row[halo:halo + size])
        re, im = (np.convolve(row[:halo + size], kernel, mode="valid") for row in noise)
        re *= re
        im *= im
        re += im
        re *= scale
        yield rng.poisson(re)


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
    generator seeded by ``seed``, with the event engine's samplers: each
    block draws its counts (``_thermal_counts``; for ``gaussian-memory`` the
    white noise of its slots, then the Poisson counts), then splits its
    occupied slots with the split bath's ``_balanced_split``, and adds its
    lagged products to integer sums, one dot product per delay.  Memory is
    O(BLOCK + max(tau)), whatever ``slots`` is.
    """
    if spec.kind in PAIR_KINDS:
        raise ValueError("g2 characterization applies to the thermal sources")
    _check_brightness(spec)
    slots = _as_count("slots", slots, MIN_G2_SLOTS)
    seed = _as_seed(seed)
    taus = [_as_count("each delay", t, 0) for t in tau_grid]
    if not taus:
        raise ValueError("tau_grid holds no delay; give at least one")
    if any(t >= slots for t in taus):
        raise ValueError("delays must satisfy 0 <= tau < slots")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if model == "iid":
        if tau_c is not None:
            raise ValueError("tau_c applies to the gaussian-memory model only")
        blocks = (_thermal_counts(rng, spec.nbar, min(BLOCK, slots - base))
                  for base in range(0, slots, BLOCK))
    elif model == "gaussian-memory":
        if tau_c is None or not 0 < tau_c < math.inf:
            raise ValueError("gaussian-memory model requires a finite tau_c > 0")
        blocks = _gaussian_memory_blocks(rng, spec.nbar, slots, float(tau_c))
    else:
        raise ValueError(f"unknown model {model!r}")

    if not spec.nbar:  # all vacuum; _thermal_counts needs a positive mean
        raise ValueError("stream is empty; raise nbar or slots")

    total_1 = total_2 = 0
    sums = [0] * len(taus)
    # half_1 of the block, after the last ``keep`` slots before it; the head
    # starts as zeros, so slots before the stream count as empty
    keep = max(taus)
    lagged = np.zeros(keep + BLOCK, dtype=np.int64)
    for counts in blocks:
        size = counts.size
        half_1 = lagged[keep:keep + size]
        half_1[:] = 0
        occupied = np.flatnonzero(counts)  # the splitter needs counts >= 1
        half_1[occupied] = _balanced_split(rng, counts.take(occupied))
        half_2 = np.subtract(counts, half_1, out=counts)
        total_1 += int(half_1.sum())
        total_2 += int(half_2.sum())
        for j, tau in enumerate(taus):
            sums[j] += int(np.dot(lagged[keep - tau:keep - tau + size], half_2))
        lagged[:keep] = lagged[size:size + keep]
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
