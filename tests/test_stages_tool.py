"""The stage-timing script runs end to end, with this tree on both sides."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = ("setup_ms_per_run", "draw_ms_per_block", "tally_ms_per_chunk", "measure_power_ms")


def test_stage_timings_print_one_split_per_stage_and_cell():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"),
                          "--parent", str(ROOT), "--repeat", "2"],
                         check=True, capture_output=True, text=True).stdout
    split = json.loads(out.splitlines()[-1])["stage_split_ms_per_block"]
    assert tuple(split) == STAGES
    for stage in STAGES:
        assert len(split[stage]) == 2, stage
        for cell in split[stage].values():
            assert math.isfinite(cell["parent"]) and math.isfinite(cell["change"]), stage
    for cell in split["measure_power_ms"].values():
        assert cell["parent"] > 0 and cell["change"] > 0
    # the same tree draws the same photons on both sides
    for cell in split["draw_ms_per_block"].values():
        assert cell["k"]["parent"] == cell["k"]["change"] > 0


def test_a_revision_that_does_not_exist_is_refused():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"),
                           "--parent", "no-such-revision", "--repeat", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "--parent no-such-revision" in done.stderr
