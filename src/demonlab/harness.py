"""Config-driven sweeps over tap reflectivity, with report emission.

A sweep config is a JSON object:

    {
      "version": 1,
      "seed": 1,
      "engine": "analytic" | "montecarlo" | "both",
      "slots": 1000000,
      "include_info": false,
      "grid": [0.0, 0.1, ...] or {"start": 0.0, "stop": 0.5, "step": 0.025},
      "sources": [
        {"name": "...", "kind": "uncorrelated", "nbar": 0.05,
         "eps2": 1.0, "normalization": "singles"},
        {"name": "...", "kind": "correlated", "s2": 0.01,
         "normalization": "pairs"}
      ]
    }

Grid values are tap reflectivities r**2.  Every malformed field raises
``ConfigError`` naming the offending path.  Reports carry one row per
source per grid point and can be emitted as CSV, JSON, or a standalone
SVG chart; identical configs produce byte-identical reports.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .analytics import Normalization, closed_form_power, peak_enhancement_ratio
from .information import mutual_information
from .montecarlo import measure_power
from .oracle import (compare, enumerate_outcomes, symbolic_delta_pairs,
                     symbolic_delta_uncorrelated, truncated_uncorrelated_delta)
from .protocol import (TABLE_PAIR, TABLE_THERMAL, canonical_policy, expected_power,
                       propagate)
from .sources import PAIR_KINDS, SourceKind, SourceSpec, make_source

DEFAULT_GRID = {"start": 0.0, "stop": 0.5, "step": 0.025}
MAX_GRID_POINTS = 10_001

ENGINES = ("analytic", "montecarlo", "both")


class ConfigError(ValueError):
    """Invalid sweep config; the message names the field at fault."""


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _get_number(data: dict, path: str, key: str, default=None, required=False):
    if key not in data:
        if required:
            raise _fail(f"{path}.{key}", "required field is missing")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SourceSeries:
    name: str
    spec: SourceSpec
    eps2: float
    normalization: Normalization


@dataclass(frozen=True)
class SweepConfig:
    seed: int
    engine: str
    slots: int
    include_info: bool
    grid: tuple[float, ...]
    sources: tuple[SourceSeries, ...]


def _parse_source(data, path: str) -> SourceSeries:
    if not isinstance(data, dict):
        raise _fail(path, "each source must be an object")
    known = {"name", "kind", "nbar", "s2", "v2", "eps2", "normalization"}
    for key in data:
        if key not in known:
            raise _fail(f"{path}.{key}", "unknown field")
    kind_raw = data.get("kind")
    if not isinstance(kind_raw, str):
        raise _fail(f"{path}.kind", "required field is missing or not a string")
    try:
        kind = SourceKind(kind_raw.replace("-", "_").lower())
    except ValueError:
        raise _fail(f"{path}.kind",
                    f"unknown kind {kind_raw!r}; expected one of "
                    f"{sorted(k.value for k in SourceKind)}") from None
    eps2 = _get_number(data, path, "eps2", default=1.0)
    if not 0.0 <= eps2 <= 1.0:
        raise _fail(f"{path}.eps2", "must lie in [0, 1]")
    try:
        if kind in PAIR_KINDS:
            if "nbar" in data:
                raise _fail(f"{path}.nbar", f"not a parameter of {kind_raw!r}")
            s2 = _get_number(data, path, "s2", required=True)
            if kind is SourceKind.ANTI_CORRELATED:
                v2 = _get_number(data, path, "v2", required=True)
                spec = SourceSpec.anti_correlated(s2=s2, v2=v2)
            else:
                if "v2" in data:
                    raise _fail(f"{path}.v2", f"not a parameter of {kind_raw!r}")
                spec = SourceSpec.correlated(s2=s2)
        else:
            for key in ("s2", "v2"):
                if key in data:
                    raise _fail(f"{path}.{key}", f"not a parameter of {kind_raw!r}")
            nbar = _get_number(data, path, "nbar", required=True)
            if kind is SourceKind.UNCORRELATED:
                spec = SourceSpec.uncorrelated(nbar)
            else:
                spec = SourceSpec.split_thermal(nbar)
    except ConfigError:
        raise
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    norm_raw = data.get("normalization", "singles")
    try:
        norm = Normalization(norm_raw)
    except ValueError:
        raise _fail(f"{path}.normalization",
                    f"expected 'singles' or 'pairs', got {norm_raw!r}") from None
    if norm is Normalization.PAIRS and kind not in PAIR_KINDS:
        raise _fail(f"{path}.normalization",
                    f"pair normalization is undefined for {kind_raw!r}")
    name = data.get("name", kind_raw)
    if not isinstance(name, str) or not name:
        raise _fail(f"{path}.name", "must be a non-empty string")
    return SourceSeries(name, spec, eps2, norm)


def _parse_grid(data, path: str) -> tuple[float, ...]:
    if isinstance(data, list):
        values = []
        for i, value in enumerate(data):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _fail(f"{path}[{i}]", f"expected a number, got {value!r}")
            values.append(float(value))
    elif isinstance(data, dict):
        for key in data:
            if key not in ("start", "stop", "step"):
                raise _fail(f"{path}.{key}", "unknown field")
        start = _get_number(data, path, "start", required=True)
        stop = _get_number(data, path, "stop", required=True)
        step = _get_number(data, path, "step", required=True)
        if step <= 0:
            raise _fail(f"{path}.step", "must be > 0")
        if stop < start:
            raise _fail(f"{path}.stop", "must be >= start")
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:  # also catches inf and nan
            raise _fail(f"{path}.step", f"more than {MAX_GRID_POINTS} grid points")
        count = int(math.floor(span)) + 1
        values = [start + i * step for i in range(count)]
    else:
        raise _fail(path, "expected a list of reflectivities or "
                          "{start, stop, step}")
    if not values:
        raise _fail(path, "grid is empty")
    for i, r2 in enumerate(values):
        if not 0.0 <= r2 < 1.0:
            raise _fail(f"{path}[{i}]", f"reflectivity {r2!r} outside [0, 1)")
    return tuple(values)


def parse_sweep_config(data) -> SweepConfig:
    """Validate a decoded JSON object into a ``SweepConfig``."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    known = {"version", "seed", "engine", "slots", "include_info", "grid",
             "sources"}
    for key in data:
        if key not in known:
            raise _fail(f"config.{key}", "unknown field")
    version = data.get("version", 1)
    if version != 1:
        raise _fail("config.version", f"unsupported version {version!r}")
    engine = data.get("engine", "analytic")
    if engine not in ENGINES:
        raise _fail("config.engine", f"expected one of {ENGINES}, got {engine!r}")
    seed = data.get("seed", 1)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise _fail("config.seed", "must be a 64-bit unsigned integer")
    slots = data.get("slots", 1_000_000)
    if isinstance(slots, bool) or not isinstance(slots, int) or slots < 1:
        raise _fail("config.slots", "must be a positive integer")
    include_info = data.get("include_info", False)
    if not isinstance(include_info, bool):
        raise _fail("config.include_info", "expected true or false")
    grid = _parse_grid(data.get("grid", DEFAULT_GRID), "config.grid")
    raw_sources = data.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise _fail("config.sources", "expected a non-empty list")
    sources = tuple(_parse_source(entry, f"config.sources[{i}]")
                    for i, entry in enumerate(raw_sources))
    names = [s.name for s in sources]
    if len(set(names)) != len(names):
        raise _fail("config.sources", f"duplicate source names in {names}")
    return SweepConfig(seed, engine, slots, include_info, grid, sources)


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    return parse_sweep_config(data)


PRESETS: dict[str, dict] = {
    # Singles-normalized power of all four baths at matched brightness.
    "fig4a": {
        "version": 1,
        "engine": "analytic",
        "sources": [
            {"name": "uncorrelated", "kind": "uncorrelated", "nbar": 0.05,
             "eps2": 0.14, "normalization": "singles"},
            {"name": "split-thermal", "kind": "split_thermal", "nbar": 0.05,
             "eps2": 0.14, "normalization": "singles"},
            {"name": "correlated", "kind": "correlated", "s2": 0.01,
             "eps2": 0.14, "normalization": "singles"},
            {"name": "anti-correlated", "kind": "anti_correlated", "s2": 0.01,
             "v2": 0.87, "eps2": 0.14, "normalization": "singles"},
        ],
    },
    # Pair-normalized pair sources against the thermal singles baseline.
    "fig4b": {
        "version": 1,
        "engine": "analytic",
        "sources": [
            {"name": "uncorrelated", "kind": "uncorrelated", "nbar": 0.05,
             "eps2": 1.0, "normalization": "singles"},
            {"name": "correlated-pairs", "kind": "correlated", "s2": 0.01,
             "eps2": 1.0, "normalization": "pairs"},
            {"name": "anti-correlated-pairs", "kind": "anti_correlated",
             "s2": 0.01, "v2": 0.87, "eps2": 1.0, "normalization": "pairs"},
        ],
    },
    # Mutual information sweeps at the fitted and the ideal coupling.
    "fig5a": {
        "version": 1,
        "engine": "analytic",
        "include_info": True,
        "sources": [
            {"name": "uncorrelated", "kind": "uncorrelated", "nbar": 0.05,
             "eps2": 0.14, "normalization": "singles"},
            {"name": "split-thermal", "kind": "split_thermal", "nbar": 0.05,
             "eps2": 0.14, "normalization": "singles"},
            {"name": "correlated", "kind": "correlated", "s2": 0.01,
             "eps2": 0.14, "normalization": "singles"},
            {"name": "anti-correlated", "kind": "anti_correlated", "s2": 0.01,
             "v2": 0.87, "eps2": 0.14, "normalization": "singles"},
        ],
    },
    "fig5b": {
        "version": 1,
        "engine": "analytic",
        "include_info": True,
        "sources": [
            {"name": "uncorrelated", "kind": "uncorrelated", "nbar": 0.05,
             "eps2": 1.0, "normalization": "singles"},
            {"name": "split-thermal", "kind": "split_thermal", "nbar": 0.05,
             "eps2": 1.0, "normalization": "singles"},
            {"name": "correlated", "kind": "correlated", "s2": 0.01,
             "eps2": 1.0, "normalization": "singles"},
            {"name": "anti-correlated", "kind": "anti_correlated", "s2": 0.01,
             "v2": 0.87, "eps2": 1.0, "normalization": "singles"},
        ],
    },
}


def preset_config(name: str) -> SweepConfig:
    if name not in PRESETS:
        raise ConfigError(f"config: unknown preset {name!r}; "
                          f"expected one of {sorted(PRESETS)}")
    return parse_sweep_config(json.loads(json.dumps(PRESETS[name])))


REPORT_FIELDS = ("source", "normalization", "r2", "analytic", "mc",
                 "mc_stderr", "mutual_info_bits")


@dataclass(frozen=True)
class ReportRow:
    source: str
    normalization: str
    r2: float
    analytic: float | None
    mc: float | None
    mc_stderr: float | None
    mutual_info_bits: float | None

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in REPORT_FIELDS}


def _cell_seed(seed: int, source_index: int, grid_index: int) -> int:
    ss = np.random.SeedSequence((seed, source_index, grid_index))
    return int(ss.generate_state(1, np.uint64)[0])


def run_sweep(config: SweepConfig) -> list[ReportRow]:
    """Produce one report row per source per grid point.

    The ``analytic`` cell is the exact expectation of the Monte Carlo
    estimator, so when both engines run, a Monte Carlo point far from the
    ``analytic`` cell of its row issues a ``UserWarning``.  The threshold is
    the Sidak one that gives the ``N`` compared points together the two-sided
    3-sigma false-alarm rate: 3.00 standard errors at N = 1, 4.25 at 124.
    """
    want_analytic = config.engine in ("analytic", "both")
    want_mc = config.engine in ("montecarlo", "both")
    rows = []
    compared = []  # (name, r2, simulated, exact, stderr)
    for si, series in enumerate(config.sources):
        spec = series.spec
        for gi, r2 in enumerate(config.grid):
            r = math.sqrt(r2)
            analytic = (closed_form_power(spec, r, series.eps2, series.normalization)
                        if want_analytic else None)
            mc = mc_stderr = None
            pair_norm_defined = 0.0 < r2 < 1.0
            if want_mc and (series.normalization is Normalization.SINGLES
                            or pair_norm_defined):
                measured = measure_power(spec, r, series.eps2,
                                         config.slots,
                                         _cell_seed(config.seed, si, gi),
                                         series.normalization)
                mc, mc_stderr = measured.value, measured.stderr
            if analytic is not None and mc is not None:
                compared.append((series.name, r2, mc, analytic, mc_stderr))
            info = None
            if config.include_info:
                info = mutual_information(spec, r, series.eps2).mutual_info_bits
            rows.append(ReportRow(series.name, series.normalization.value, r2,
                                  analytic, mc, mc_stderr, info))
    if compared:
        from statistics import NormalDist  # its imports cost start-up time
        per_point = 1.0 - (1.0 - 2.0 * NormalDist().cdf(-3.0)) ** (1.0 / len(compared))
        k = NormalDist().inv_cdf(1.0 - per_point / 2.0)
        for name, r2, mc, exact, stderr in compared:
            if abs(mc - exact) > k * stderr:
                warnings.warn(f"{name} at r2={r2:.6g}: simulated {mc:.6g} vs exact "
                              f"{exact:.6g} exceeds {k * stderr:.3g} ({k:.2f} sigma "
                              f"for {len(compared)} points)", stacklevel=2)
    return rows


def emit_csv(rows, stream) -> None:
    stream.write(",".join(REPORT_FIELDS) + "\n")
    for row in rows:
        cells = []
        for field in REPORT_FIELDS:
            value = getattr(row, field)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        stream.write(",".join(cells) + "\n")


def emit_json(rows, stream) -> None:
    json.dump([row.as_dict() for row in rows], stream, indent=2)
    stream.write("\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 150, 20, 40


def _svg_series(rows):
    order = []
    series = {}
    for row in rows:
        key = (row.source, row.normalization)
        if key not in series:
            series[key] = []
            order.append(key)
        y = row.mc if row.analytic is None else row.analytic
        if y is not None:
            series[key].append((row.r2, y))
    return [(key, series[key]) for key in order]


def emit_svg(rows, stream) -> None:
    """Write a self-contained line chart of the report."""
    series = _svg_series(rows)
    points = [pt for _, pts in series for pt in pts]
    xs = [x for x, _ in points] or [0.0, 1.0]
    ys = [y for _, y in points] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
           f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
           f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
           f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
           f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" '
           f'stroke="black"/>',
           f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
           f'y2="{_MARGIN_T + plot_h}" stroke="black"/>']
    for value, anchor in ((x_lo, "start"), (x_hi, "end")):
        out.append(f'<text x="{sx(value):.2f}" y="{_SVG_H - 12}" '
                   f'font-size="12" text-anchor="{anchor}">{value:.3g}</text>')
    for value in (y_lo, y_hi):
        out.append(f'<text x="{_MARGIN_L - 6}" y="{sy(value):.2f}" '
                   f'font-size="12" text-anchor="end">{value:.3g}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 4}" '
               f'font-size="12" text-anchor="middle">tap reflectivity</text>')
    for i, ((source, norm), pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.5" points="{path}"/>')
        ly = _MARGIN_T + 16 + 18 * i
        lx = _MARGIN_L + plot_w + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}" font-size="12">'
                   f'{source}/{norm}</text>')
    out.append("</svg>")
    stream.write("\n".join(out) + "\n")


def emit_report(rows, stream, format: str) -> None:
    if format == "csv":
        emit_csv(rows, stream)
    elif format == "json":
        emit_json(rows, stream)
    elif format == "svg":
        emit_svg(rows, stream)
    else:
        raise ConfigError(f"config: unknown report format {format!r}")


def _power_check(spec: SourceSpec, normalization: Normalization, seed: int):
    """Simulated power at r2 0.5, eps2 1 and 1e7 slots, within 3 sigma of exact."""
    def check():
        r = math.sqrt(0.5)
        exact = expected_power(spec, r, 1.0, normalization)
        m = measure_power(spec, r, 1.0, 10_000_000, seed, normalization)
        return abs(m.value - exact) <= 3.0 * m.stderr, (
            f"{normalization.value} power {m.value:.5f} vs exact {exact:.5f} "
            f"+- {3.0 * m.stderr:.5f} (seed {seed}, 1e7 slots)")
    return check


def _check_closed_forms():
    r, pairs, singles = math.sqrt(0.5), Normalization.PAIRS, Normalization.SINGLES
    corr = closed_form_power(SourceSpec.correlated(s2=0.01), r, 1.0, pairs)
    anti, null = (closed_form_power(SourceSpec.anti_correlated(s2=0.01, v2=v2), r, 1.0, pairs)
                  for v2 in (0.87, 0.5))
    thermal = closed_form_power(SourceSpec.uncorrelated(0.05), r, 1.0, singles)
    split = max(abs(closed_form_power(SourceSpec.split_thermal(0.05), math.sqrt(k * 0.025),
                                      1.0, singles)) for k in range(21))
    ratio = peak_enhancement_ratio(0.05)
    ok = (corr == 0.5 and abs(anti / corr - 0.74) <= 1e-15 and null == 0.0
          and abs(thermal - 0.0232288037166) <= 1e-12 and split <= 1e-12
          and abs(ratio - 21.525) <= 1e-12 and ratio >= 10.0)
    return ok, (f"corr pairs {corr} (0.5), anti/corr {anti / corr:.15f} (0.74), "
                f"v2=0.5 law {null} (0), thermal peak {thermal:.13f} "
                f"(0.0232288037166+-1e-12), split worst {split:.1e} (<=1e-12), "
                f"peak ratio {ratio:.3f} (21.525+-1e-12, >=10)")


def _check_oracle_match():
    grid, effs = (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5), (1.0, 0.8, 0.14)
    specs = (SourceSpec.uncorrelated(0.05), SourceSpec.split_thermal(0.05),
             SourceSpec.correlated(s2=0.01), SourceSpec.anti_correlated(s2=0.01, v2=0.87))
    worst = 0.0
    for spec in specs:
        policy = canonical_policy(spec.kind)
        for r, eps2 in ((math.sqrt(r2), eps2) for r2 in grid for eps2 in effs):
            outcome = propagate(make_source(spec), r, eps2, policy)
            worst = max(worst, compare(enumerate_outcomes(spec, r, eps2, policy), outcome))
    corr, anti = (spec.with_drop_vacuum() for spec in specs[2:])
    gaps = []
    for r in (math.sqrt(r2) for r2 in grid[1:]):
        gaps += [symbolic_delta_uncorrelated(0.05, r)
                 - truncated_uncorrelated_delta(0.05, r, TABLE_THERMAL),
                 enumerate_outcomes(specs[1], r, 1.0, TABLE_THERMAL).delta]
        for eps2 in effs:
            gaps += [enumerate_outcomes(corr, r, eps2, TABLE_PAIR).delta
                     - symbolic_delta_pairs(1.0, r, eps2),
                     enumerate_outcomes(anti, r, eps2, TABLE_THERMAL).delta
                     - symbolic_delta_pairs(1.0, r, eps2, visibility_factor=0.74)]
    symbolic = max(abs(g) for g in gaps)
    return worst <= 1e-12 and symbolic <= 1e-10, (
        f"path sum vs transfer worst {worst:.2e} (<=1e-12, 84 cells), "
        f"symbolic worst {symbolic:.2e} (<=1e-10)")


def _check_info():
    eps2 = 0.14
    specs = {"uncorr": SourceSpec.uncorrelated(0.05),
             "split": SourceSpec.split_thermal(0.05),
             "corr": SourceSpec.correlated(s2=0.01),
             "anti": SourceSpec.anti_correlated(s2=0.01, v2=0.87)}
    zero = max(mutual_information(s, 0.0, eps2).mutual_info_bits for s in specs.values())
    ok = zero <= 1e-12
    for k in range(1, 11):
        bits = {name: mutual_information(spec, math.sqrt(k * 0.05), eps2).mutual_info_bits
                for name, spec in specs.items()}
        ok &= all(v <= 2.0 + 1e-12 for v in bits.values())
        ok &= bits["corr"] > bits["uncorr"] and bits["anti"] > bits["uncorr"]
    # perfect coupling pins the full 2-bit record
    saturated = mutual_information(specs["corr"], math.sqrt(0.5), 1.0).mutual_info_bits
    # at matched flux the split bath's parent mode carries what one
    # uncorrelated arm does, so each split arm runs at nbar / 2
    uncorr = mutual_information(specs["uncorr"], 0.5, eps2).mutual_info_bits
    split = mutual_information(SourceSpec.split_thermal(0.025), 0.5, eps2).mutual_info_bits
    ok &= abs(saturated - 2.0) <= 1e-12 and split <= uncorr
    return ok, (f"I(r=0) {zero:.1e} (<=1e-12), I<=2 bits (saturated {saturated:.3f}), "
                f"pair baths beat thermal over r2 0.05-0.5, split at matched flux "
                f"{split:.2e} <= uncorr {uncorr:.2e} bits")


def _check_g2():
    from .montecarlo import estimate_g2, fit_gaussian_memory_tau_c

    spec = SourceSpec.uncorrelated(0.5)  # bunching is easiest to resolve bright
    iid = dict(estimate_g2(spec, 1_000_000, 108, (0, 5, 20)))
    ok = all(abs(iid[tau] - want) <= 0.05 for tau, want in ((0, 2.0), (5, 1.0), (20, 1.0)))
    samples = estimate_g2(spec, 1_000_000, 109, (0, 2, 4, 6, 8, 12, 16, 24, 32),
                          model="gaussian-memory", tau_c=8.0)
    fitted = fit_gaussian_memory_tau_c(samples)
    ok &= abs(fitted - 8.0) / 8.0 <= 0.10
    return ok, (f"g2(0) {iid[0]:.3f}, g2(5) {iid[5]:.3f}, g2(20) {iid[20]:.3f} "
                f"(2, 1, 1 +- 0.05), memory fit tau_c {fitted:.3f} vs 8 (<=10%)")


#: The self-test table: ``(name, check)``, each ``check()`` giving ``(ok, detail)``.
#: The power rows come from ``(name, bath, normalization, seed)``.
CHECKS = (
    *((name, _power_check(spec, norm, seed)) for name, spec, norm, seed in (
        ("correlated_pair_power", SourceSpec.correlated(s2=0.01), Normalization.PAIRS, 101),
        ("split_null", SourceSpec.split_thermal(0.05), Normalization.SINGLES, 12),
        ("uncorrelated_thermal_power", SourceSpec.uncorrelated(0.05),
         Normalization.SINGLES, 103),
        ("anti_correlated_power", SourceSpec.anti_correlated(s2=0.01, v2=0.87),
         Normalization.PAIRS, 104))),
    ("closed_forms", _check_closed_forms),
    ("oracle_match", _check_oracle_match),
    ("info", _check_info),
    ("g2", _check_g2),
)


def run_checks(stream=None) -> bool:
    """Run every row of ``CHECKS``; one PASS/FAIL line per row."""
    if stream is None:
        stream = sys.stdout
    all_ok = True
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        stream.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    return all_ok
