"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest perfbench/smoke.py

It checks that every metric named in ``BENCHMARK.json`` is emitted with
its unit on every workload, that a corrupted program result injected
through a wrapper is counted as a failure, that span self times add up to
the traced wall time, that a slowdown within one window does not set
``op_tail_ms``, and that the command refuses to run, printing no
result, where the program is missing.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(workload: str, trace: bool) -> dict:
    return run.run_benchmark(workload, seed=5, seconds=0.5, trace=trace, size="tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])
        assert f"metric {m['name']} " in "\n".join(out[:-1])


def _corrupt_first(monkeypatch, module, name, corrupt, when):
    """Rebind ``module.name`` so that its first matching result is corrupted."""
    original = getattr(module, name)
    done = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if not done and when(*args, **kwargs):
            done.append(True)
            return corrupt(result)
        return result

    monkeypatch.setattr(module, name, wrapper)


def _shift_one_entry(report):
    table = dict(report.table)
    key = next(iter(table))
    table[key] += 1e-9
    return dataclasses.replace(report, table=table)


def _always(*args, **kwargs) -> bool:
    return True


def _is_dead_window_run(config) -> bool:
    return config.dead_window_slots > 0


CORRUPTIONS = {
    "sweep-mc: a power cell": (
        "sweep-mc", "harness", "measure_power",
        lambda m: dataclasses.replace(m, value=m.value + 10.0), _always),
    "acquisition: a dead-window tally": (
        "acquisition", "montecarlo", "run",
        lambda res: dataclasses.replace(res, n_a=res.n_a + 1), _is_dead_window_run),
    "acquisition: an oracle table": (
        "acquisition", "oracle", "enumerate_outcomes", _shift_one_entry, _always),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_a_corrupted_result_counts_as_failed(case, monkeypatch):
    workload, module, name, corrupt, when = CORRUPTIONS[case]
    program = run.load_program()
    _corrupt_first(monkeypatch, getattr(program, module), name, corrupt, when)
    result = _tiny(workload, trace=False)
    assert result["failed"] == 1
    assert result["correct"] is False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_the_traced_wall(workload):
    result = _tiny(workload, trace=True)
    metrics = result["metrics"]
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert all(v >= -1e-9 for v in self_times.values())
    gap = abs(sum(self_times.values()) - result["detail"]["traced_mean_s"])
    # the floor covers the two clock reads between the round span and its timer
    assert gap <= max(abs(metrics["trace.overhead_s"]), 1e-5)


def test_one_slow_stretch_does_not_set_the_tail():
    # four rounds of 124 equal ops, and a slowdown over 20 ops of one round
    times = [50.0] * 496
    times[130:150] = [90.0] * 20
    round_ends = [124, 248, 372, 496]
    assert run.tail_percentile(times) == (97, 90.0)
    assert run.windowed_tail(times, round_ends) == ([91, 91, 91, 91], 50.0)
    # 6-op rounds pool into windows of 102 ops; the last 88 ops join the last
    assert run.windowed_tail(times, list(range(6, 497, 6)) + [496]) == ([90, 90, 90, 94], 50.0)
    assert run.windowed_tail(times[:60], list(range(6, 61, 6))) == ([83], 50.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
