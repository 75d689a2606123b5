"""Tests for config parsing, sweep execution, emitters, and the check table."""

import io
import json
import math
import warnings

import pytest

import demonlab.harness as harness
from demonlab.harness import (
    CHECKS,
    ConfigError,
    PRESETS,
    REPORT_FIELDS,
    ReportRow,
    SweepConfig,
    emit_csv,
    emit_json,
    emit_report,
    emit_svg,
    load_config,
    parse_sweep_config,
    preset_config,
    run_checks,
    run_sweep,
)
from demonlab.analytics import Normalization, closed_form_power
from demonlab.sources import SourceKind, SourceSpec


def _minimal(**overrides):
    data = {
        "version": 1,
        "sources": [{"name": "u", "kind": "uncorrelated", "nbar": 0.05}],
    }
    data.update(overrides)
    return data


def test_defaults_fill_in():
    cfg = parse_sweep_config(_minimal())
    assert cfg.engine == "analytic"
    assert cfg.seed == 1
    assert cfg.slots == 1_000_000
    assert not cfg.include_info
    assert len(cfg.grid) == 21
    assert cfg.grid[0] == 0.0
    assert abs(cfg.grid[-1] - 0.5) < 1e-12


def test_grid_forms():
    cfg = parse_sweep_config(_minimal(grid=[0.0, 0.25, 0.5]))
    assert cfg.grid == (0.0, 0.25, 0.5)
    cfg = parse_sweep_config(_minimal(grid={"start": 0.1, "stop": 0.3, "step": 0.1}))
    assert len(cfg.grid) == 3
    with pytest.raises(ConfigError):
        parse_sweep_config(_minimal(grid={"start": 0.4, "stop": 0.1, "step": 0.1}))
    with pytest.raises(ConfigError):
        parse_sweep_config(_minimal(grid=[0.5, 1.0]))  # r2 = 1 is out of range


def test_range_grid_is_bounded_before_it_is_built():
    cfg = parse_sweep_config(_minimal(grid={"start": 0.0, "stop": 0.5, "step": 5e-5}))
    assert len(cfg.grid) == harness.MAX_GRID_POINTS
    for step in (1e-12, 4.9e-5, 5e-324):
        with pytest.raises(ConfigError, match=r"config\.grid\.step"):
            parse_sweep_config(_minimal(grid={"start": 0.0, "stop": 0.5, "step": step}))
    with pytest.raises(ConfigError, match=r"config\.grid\.step"):
        parse_sweep_config(_minimal(grid={"start": 0.0, "stop": 0.5, "step": math.nan}))


def test_parse_errors_carry_field_paths():
    cases = [
        (_minimal(version=2), "version"),
        (_minimal(engine="warp"), "engine"),
        (_minimal(sources=[]), "sources"),
        (_minimal(sources=[{"name": "", "kind": "uncorrelated", "nbar": 0.05}]), "name"),
        (_minimal(sources=[{"name": "u", "kind": "mystery"}]), "kind"),
        (_minimal(sources=[{"name": "u", "kind": "uncorrelated"}]), "nbar"),
        (_minimal(sources=[{"name": "u", "kind": "correlated", "s2": 0.01,
                            "v2": 0.9}]), "v2"),
        (_minimal(sources=[{"name": "u", "kind": "uncorrelated", "nbar": 0.05,
                            "flavor": "x"}]), "flavor"),
        # post-selection belongs to the information analysis, not to a bath
        (_minimal(sources=[{"name": "c", "kind": "correlated", "s2": 0.01,
                            "drop_vacuum": True}]), "drop_vacuum"),
        (_minimal(sources=[{"name": "c", "kind": "correlated", "s2": -0.01}]),
         "config.sources[0]: s2"),
        (_minimal(sources=[{"name": "u", "kind": "uncorrelated", "nbar": 0.05,
                            "eps2": 1.5}]), "config.sources[0].eps2"),
        (_minimal(sources=[{"name": "u", "kind": "uncorrelated", "nbar": "0.05"}]),
         "config.sources[0].nbar: expected a number"),
        (_minimal(sources=[3]), "config.sources[0]: each source must be an object"),
        (_minimal(sources=[{"name": "u", "nbar": 0.05}]), "config.sources[0].kind: required"),
        (_minimal(sources=[{"name": "u", "kind": 3, "nbar": 0.05}]),
         "config.sources[0].kind: required"),
        (_minimal(grid=[0.1, "0.2"]), "config.grid[1]: expected a number"),
        (_minimal(grid={"start": 0.0, "stop": 0.5, "step": 0.1, "count": 6}),
         "config.grid.count: unknown field"),
        (_minimal(grid={"start": 0.0, "stop": 0.5, "step": 0.0}), "config.grid.step: must be > 0"),
        (_minimal(grid="0.1"), "config.grid: expected a list"),
        (_minimal(grid=[]), "config.grid: grid is empty"),
        ([_minimal()], "config: expected a JSON object"),
        (_minimal(flavor="x"), "config.flavor: unknown field"),
        (_minimal(seed=-1), "config.seed: seed must be a 64-bit unsigned integer"),
        (_minimal(slots=1e6), "config.slots: slots must be an integer >= 1"),
        (_minimal(include_info=1), "config.include_info: expected true or false"),
    ]
    for data, needle in cases:
        with pytest.raises(ConfigError) as err:
            parse_sweep_config(data)
        assert needle in str(err.value), data


def test_missing_name_defaults_to_the_kind():
    cfg = parse_sweep_config(_minimal(sources=[{"kind": "uncorrelated", "nbar": 0.05}]))
    assert cfg.sources[0].name == "uncorrelated"


def test_duplicate_series_names_rejected():
    data = _minimal(sources=[
        {"name": "u", "kind": "uncorrelated", "nbar": 0.05},
        {"name": "u", "kind": "correlated", "s2": 0.01},
    ])
    with pytest.raises(ConfigError):
        parse_sweep_config(data)


def test_pairs_normalization_restricted_to_pair_kinds():
    data = _minimal(sources=[{"name": "u", "kind": "uncorrelated", "nbar": 0.05,
                              "normalization": "pairs"}])
    with pytest.raises(ConfigError):
        parse_sweep_config(data)


def test_underscore_kind_aliases():
    data = _minimal(sources=[{"name": "s", "kind": "split_thermal", "nbar": 0.05}])
    cfg = parse_sweep_config(data)
    assert cfg.sources[0].spec.kind is SourceKind.SPLIT_THERMAL


def test_presets_parse_and_cover_the_figures():
    for name in PRESETS:
        cfg = preset_config(name)
        assert isinstance(cfg, SweepConfig)
    assert len(preset_config("fig4a").sources) == 4
    fig4b = preset_config("fig4b")
    assert [s.normalization for s in fig4b.sources].count(Normalization.PAIRS) == 2
    assert preset_config("fig5a").include_info
    with pytest.raises(ConfigError):
        preset_config("fig9z")


def test_preset_config_returns_fresh_copies():
    a = preset_config("fig4a")
    b = preset_config("fig4a")
    assert a is not b
    assert a.sources[0].spec == b.sources[0].spec


def test_load_config_reports_file_problems(tmp_path):
    missing = tmp_path / "none.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert "line" in str(err.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_minimal()))
    assert isinstance(load_config(str(good)), SweepConfig)


def test_run_sweep_analytic_matches_closed_form():
    cfg = parse_sweep_config(_minimal(grid=[0.0, 0.25, 0.5]))
    rows = run_sweep(cfg)
    assert len(rows) == 3
    for row in rows:
        want = closed_form_power(SourceSpec.uncorrelated(0.05), math.sqrt(row.r2), 1.0,
                                 Normalization.SINGLES)
        assert abs(row.analytic - want) < 1e-15
        assert row.mc is None and row.mc_stderr is None
        assert row.mutual_info_bits is None


def test_run_sweep_with_info_column():
    data = _minimal(include_info=True, grid=[0.25],
                    sources=[{"name": "c", "kind": "correlated", "s2": 0.01,
                              "eps2": 1.0}])
    rows = run_sweep(parse_sweep_config(data))
    assert rows[0].mutual_info_bits > 0.0


def test_run_sweep_info_names_a_bath_that_emits_nothing():
    # a pair bath is scored per emitted pair; at s2 = 0 there is none
    data = _minimal(include_info=True, grid=[0.25],
                    sources=[{"name": "c", "kind": "correlated", "s2": 0.0}])
    with pytest.raises(ConfigError, match=r"config\.sources\[0\]: s2: .* emits no pair"):
        run_sweep(parse_sweep_config(data))


def test_run_sweep_montecarlo_engine():
    data = _minimal(engine="both", slots=20_000, grid=[0.0, 0.5],
                    sources=[{"name": "c", "kind": "correlated", "s2": 0.01,
                              "normalization": "pairs"}])
    rows = run_sweep(parse_sweep_config(data))
    by_r2 = {row.r2: row for row in rows}
    # no pair flux crosses the tap at r2 = 0, so the estimate is undefined there
    assert by_r2[0.0].mc is None
    assert by_r2[0.5].mc is not None
    assert by_r2[0.5].mc_stderr > 0.0


def test_run_sweep_is_deterministic():
    data = _minimal(engine="both", slots=20_000, grid=[0.5])
    a = run_sweep(parse_sweep_config(data))
    b = run_sweep(parse_sweep_config(data))
    assert a == b


def test_run_sweep_warn_hook(monkeypatch):
    data = _minimal(engine="both", slots=50_000, grid=[0.5])
    monkeypatch.setattr(harness, "closed_form_power", lambda *args: 99.0)
    # a wildly wrong analytic cell, the row's reference, must trip the cross-check
    with pytest.warns(UserWarning, match="vs exact 99 exceeds"):
        run_sweep(parse_sweep_config(data))


def _sweep_at_three_and_a_half_sigma(monkeypatch, grid):
    """Every simulated point sits 3.5 standard errors from its exact value."""
    measured = type("Measured", (), {"value": 1.35, "stderr": 0.1})
    monkeypatch.setattr(harness, "measure_power", lambda *args: measured)
    monkeypatch.setattr(harness, "closed_form_power", lambda *args: 1.0)
    return run_sweep(parse_sweep_config(_minimal(engine="both", grid=grid)))


def test_run_sweep_warning_threshold_is_family_wise(monkeypatch):
    with pytest.warns(UserWarning, match="3.00 sigma for 1 points"):
        _sweep_at_three_and_a_half_sigma(monkeypatch, [0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _sweep_at_three_and_a_half_sigma(
            monkeypatch, [0.01 * k for k in range(1, 43)])
    assert len(rows) == 42


def test_run_sweep_compares_bright_baths():
    data = _minimal(engine="both", slots=20_000, grid=[0.5],
                    sources=[{"name": "s", "kind": "split_thermal", "nbar": 2.0}])
    [row] = run_sweep(parse_sweep_config(data))
    assert row.mc is not None and row.mc_stderr > 0.0


def _sample_rows():
    return [
        ReportRow("u", "singles", 0.25, 0.0207756232686981, 0.0201, 0.0007, None),
        ReportRow("c", "pairs", 0.25, 0.375, None, None, 1.2345),
    ]


def test_emit_csv_layout():
    buf = io.StringIO()
    emit_csv(_sample_rows(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "u"
    assert float(cells[3]) == 0.0207756232686981
    # None renders as an empty cell, not the string "None"
    assert lines[2].split(",")[4] == ""


def test_emit_json_round_trips():
    buf = io.StringIO()
    rows = _sample_rows()
    emit_json(rows, buf)
    payload = json.loads(buf.getvalue())
    assert [ReportRow(**entry) for entry in payload] == rows


def test_emit_svg_draws_each_series():
    buf = io.StringIO()
    emit_svg(_sample_rows(), buf)
    text = buf.getvalue()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "u/singles" in text and "c/pairs" in text


def test_emitters_are_byte_stable():
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        emit_svg(_sample_rows(), buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


def test_emit_report_dispatch():
    buf = io.StringIO()
    emit_report(_sample_rows(), buf, "csv")
    assert buf.getvalue().startswith("source,")
    with pytest.raises(ConfigError):
        emit_report(_sample_rows(), io.StringIO(), "pdf")


def _stub_checks(monkeypatch, **rows):
    """Swap every row of ``CHECKS`` for a passing stub, or for ``rows[name]``."""
    table = tuple((name, rows.get(name, lambda: (True, "stub"))) for name, _ in CHECKS)
    monkeypatch.setattr(harness, "CHECKS", table)


def test_run_checks_writes_one_line_per_row_in_order(monkeypatch):
    _stub_checks(monkeypatch)
    buf = io.StringIO()
    assert run_checks(stream=buf)
    assert buf.getvalue().splitlines() == [f"PASS {name}: stub" for name, _ in CHECKS]


def test_run_checks_reports_injected_failure(monkeypatch):
    _stub_checks(monkeypatch, split_null=lambda: (False, "injected fault"))
    buf = io.StringIO()
    assert not run_checks(stream=buf)
    assert "FAIL split_null: injected fault" in buf.getvalue()
    assert buf.getvalue().count("PASS") == len(CHECKS) - 1


def test_run_checks_contains_crashes(monkeypatch):
    def boom():
        raise RuntimeError("synthetic crash")

    _stub_checks(monkeypatch, g2=boom)
    buf = io.StringIO()
    assert not run_checks(stream=buf)
    assert "FAIL g2" in buf.getvalue()
    assert "synthetic crash" in buf.getvalue()
