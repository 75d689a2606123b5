"""Acceptance battery: every row of ``harness.CHECKS``, plus repeatable output.

The rows are the headline guarantees that ``demonlab check`` also runs; they
are defined once, in ``harness.CHECKS``.  ``pytest -v`` prints one PASS/FAIL
line per row through the test ids; run with ``-s`` (or ``-rA``) to also see
each row's measured numbers and wall time.
"""

import json
import math
import time

import pytest

from demonlab.cli import main
from demonlab.harness import CHECKS

#: Wall-time bounds, in seconds, for the rows that carry one.
WALL_BOUNDS = {"correlated_pair_power": 60.0, "oracle_match": 30.0}


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    start = time.monotonic()
    ok, detail = check()
    elapsed = time.monotonic() - start
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({elapsed:.1f} s)")
    assert ok, detail
    assert elapsed < WALL_BOUNDS.get(name, math.inf)


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
    commands = {
        fmt: ["sweep", "--config", str(config_path), "--format", fmt]
        for fmt in ("csv", "json")
    }
    commands["mc"] = ["mc", "--kind", "correlated", "--s2", "0.01",
                      "--slots", "30000", "--seed", "11"]
    for label, argv in commands.items():
        outputs = []
        for rep in range(2):
            out = tmp_path / f"{label}-{rep}.out"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], label
