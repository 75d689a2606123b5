"""End-to-end command line tests driven through main()."""

import json

import pytest

import demonlab.harness as harness
from demonlab.cli import main


def test_sweep_preset_to_stdout(capsys):
    assert main(["sweep", "--preset", "fig4b"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("source,normalization,r2,")
    assert len(lines) == 1 + 3 * 21


def test_sweep_requires_exactly_one_input(capsys):
    # argparse enforces the exclusive group and exits with the usage status
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig4a", "--config", "x.json"])
    assert exc.value.code == 2


def test_sweep_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig1z"])
    assert exc.value.code == 2
    assert "fig1z" in capsys.readouterr().err


def test_sweep_config_file_and_formats(tmp_path, capsys):
    cfg = {
        "version": 1,
        "grid": [0.0, 0.25, 0.5],
        "sources": [
            {"name": "c", "kind": "correlated", "s2": 0.01, "eps2": 0.14},
        ],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert rows[2]["analytic"] == pytest.approx(2 * 0.14 * 0.25)

    svg_out = tmp_path / "sweep.svg"
    assert main(["sweep", "--config", str(path), "--format", "svg",
                 "--out", str(svg_out)]) == 0
    assert svg_out.read_text().startswith("<svg")


def test_sweep_rejects_bad_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1, "sources": [{"kind": "nope"}]}')
    assert main(["sweep", "--config", str(path)]) == 2
    assert "kind" in capsys.readouterr().err


def test_mc_single_run_payload(tmp_path):
    out = tmp_path / "run.json"
    code = main(["mc", "--kind", "correlated", "--s2", "0.01", "--slots", "20000",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["slots"] == 20000
    assert payload["mode"] == "feed_forward"
    assert payload["delta_n"] == payload["n_a"] - payload["n_b"]


def test_mc_power_measurement_payload(capsys):
    code = main(["mc", "--kind", "correlated", "--s2", "0.01", "--slots", "40000",
                 "--seed", "5", "--normalization", "pairs"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"power", "power_stderr", "feed_forward", "cross"}
    assert payload["cross"]["mode"] == "cross"


def test_mc_seed_repeatability(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(["mc", "--kind", "uncorrelated", "--nbar", "0.05", "--slots",
              "30000", "--seed", "42", "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# One input per branch of the source checks, each naming the field at fault.
_ARGUMENT_ERRORS = [
    (["mc", "--kind", "correlated"], "s2"),
    (["mc", "--kind", "correlated", "--s2", "0.01", "--nbar", "0.05"], "nbar"),
    (["mc", "--kind", "anti-correlated", "--s2", "0.01"], "v2"),
    (["mc", "--kind", "correlated", "--s2", "0.01", "--v2", "0.87"], "v2"),
    (["mc", "--kind", "split-thermal"], "nbar"),
    (["mc", "--kind", "uncorrelated", "--nbar", "0.05", "--s2", "0.01"], "s2"),
    (["info", "--kind", "anti-correlated", "--s2", "0.01", "--v2", "0.87",
      "--nbar", "0.05"], "nbar"),
    # a power measurement runs its own legs; these flags would be ignored
    (["mc", "--kind", "correlated", "--s2", "0.01", "--normalization", "pairs",
      "--dead-window", "50"], "--dead-window"),
    (["mc", "--kind", "correlated", "--s2", "0.01", "--normalization", "pairs",
      "--mode", "bar"], "--mode"),
    # only the feed-forward switch has a window to hold
    (["mc", "--kind", "correlated", "--s2", "0.01", "--mode", "bar",
      "--dead-window", "5"], "--dead-window"),
    # reflectivities outside [0, 1] and malformed delays name their flag
    (["mc", "--kind", "correlated", "--s2", "0.01", "--r2", "-0.5"], "--r2"),
    (["mc", "--kind", "correlated", "--s2", "0.01", "--r2", "1.5"], "--r2"),
    (["info", "--kind", "correlated", "--s2", "0.01", "--r2", "-0.5"], "--r2"),
    # a bath too bright for the largest truncation info picks for itself
    (["info", "--kind", "split-thermal", "--nbar", "2"], "cutoff"),
    # an explicit truncation beyond it would run for hours
    (["info", "--kind", "uncorrelated", "--nbar", "0.05", "--cutoff", "65"], "cutoff"),
    (["g2", "--nbar", "0.5", "--taus", "1,x"], "--taus"),
    # a memory kernel longer than the stream is refused before it is built
    (["g2", "--nbar", "0.5", "--model", "gaussian-memory", "--tau-c", "1e9",
      "--slots", "100000"], "tau_c"),
    # the iid model has no memory scale to take
    (["g2", "--nbar", "0.5", "--tau-c", "3"], "tau_c"),
    # a fit that no delay on the slope constrains would return its start
    (["g2", "--nbar", "0.5", "--slots", "100000", "--seed", "1", "--model",
      "gaussian-memory", "--tau-c", "3", "--taus", "0,5", "--fit"], "taus"),
]


def test_mc_argument_errors(capsys):
    assert main(["mc", "--kind", "correlated", "--nbar", "0.05"]) == 2
    assert main(["mc", "--kind", "uncorrelated", "--nbar", "0.05",
                 "--normalization", "pairs"]) == 2
    capsys.readouterr()
    for argv, field in _ARGUMENT_ERRORS:
        assert main(argv) == 2, argv
        assert field in capsys.readouterr().err, argv


def test_seed_env_fallback_and_flag_priority(tmp_path, monkeypatch):
    flag = tmp_path / "flag.json"
    env = tmp_path / "env.json"
    other = tmp_path / "other.json"
    main(["mc", "--kind", "uncorrelated", "--nbar", "0.05", "--slots", "20000",
          "--seed", "42", "--out", str(flag)])
    monkeypatch.setenv("DEMONLAB_SEED", "42")
    main(["mc", "--kind", "uncorrelated", "--nbar", "0.05", "--slots", "20000",
          "--out", str(env)])
    # the explicit flag must beat the environment
    main(["mc", "--kind", "uncorrelated", "--nbar", "0.05", "--slots", "20000",
          "--seed", "7", "--out", str(other)])
    assert flag.read_bytes() == env.read_bytes()
    assert flag.read_bytes() != other.read_bytes()


def test_seed_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("DEMONLAB_SEED", "not-a-number")
    assert main(["mc", "--kind", "uncorrelated", "--nbar", "0.05",
                 "--slots", "20000"]) == 2
    assert "DEMONLAB_SEED" in capsys.readouterr().err


def test_info_command(capsys):
    code = main(["info", "--kind", "correlated", "--s2", "0.01",
                 "--eps2", "1.0", "--r2", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mutual_info_bits"] == pytest.approx(2.0, abs=1e-12)


def _stub_checks(monkeypatch, **rows):
    table = tuple((name, rows.get(name, lambda: (True, "stub")))
                  for name, _ in harness.CHECKS)
    monkeypatch.setattr(harness, "CHECKS", table)


def test_check_command_prints_one_pass_line_per_row(monkeypatch, capsys):
    _stub_checks(monkeypatch)
    assert main(["check"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"PASS {name}: stub" for name, _ in harness.CHECKS]


def test_check_command_exit_code_on_failure(monkeypatch, capsys):
    _stub_checks(monkeypatch, oracle_match=lambda: (False, "forced"))
    assert main(["check"]) == 1
    assert "FAIL oracle_match: forced" in capsys.readouterr().out


def test_g2_command_with_fit(capsys):
    code = main(["g2", "--nbar", "0.5", "--slots", "150000", "--seed", "3",
                 "--model", "gaussian-memory", "--tau-c", "5",
                 "--taus", "0,2,4,8,12", "--fit"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["samples"]) == 5
    assert payload["fitted_tau_c"] > 0.0


def test_g2_rejects_undersized_runs(capsys):
    assert main(["g2", "--nbar", "0.5", "--slots", "1000"]) == 2
