"""Stage timings of the event engine: a parent tree against this tree, in one process.

    python3 tools/stages.py --parent HEAD~1 --repeat 300
    python3 tools/stages.py --parent ../other-checkout --repeat 300

``--parent`` is a git revision of this repository, exported with ``git
archive``, or a directory holding a checkout.  Both trees' ``src/demonlab``
are imported under their own module names, and every stage is timed on the
two trees alternately; a figure is the minimum of ``--repeat`` timings, in
ms.  The cells are two of the weak sweep's, at r2 0.5 and 200k slots: the
anti-correlated pair bath (s2 0.01, v2 0.87) at eps2 1, pair-normalized,
and the uncorrelated bath at nbar 0.05 and eps2 0.14, singles-normalized.
The stages, each on a cell's cross run unless named otherwise:

* ``setup_ms_per_run``: ``run`` with ``_draw_blocks`` replaced by a no-op,
  so everything it does but its block draws and tallies;
* ``draw_ms_per_block``: ``_draw_blocks`` with a tally that keeps nothing,
  its generators and draws, per block (``k`` is the mean occupied count of
  a block on each tree);
* ``tally_ms_per_chunk``: ``run`` replaying the chunks ``_draw_blocks``
  handed to its tally, less the set-up, per chunk;
* ``measure_power_ms``: the whole cell, a cross and a feed-forward run.

The last line of stdout is one JSON object whose ``stage_split_ms_per_block``
maps each stage to each cell to ``{"parent": ms, "change": ms}``.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOTS = 200_000
SEED = 1


def _export(rev: str, into: Path) -> Path:
    """``src/`` of revision ``rev`` of this repository, written under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def _load(tree: Path, name: str):
    """``demonlab`` from ``tree/src``, imported as the package ``name``."""
    package = tree / "src" / "demonlab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cells(lab) -> dict:
    """Each cell's ``measure_power`` arguments and its cross run's config."""
    r = math.sqrt(0.5)
    baths = {
        "anti-correlated s2 0.01, pairs, eps2 1": (
            lab.SourceSpec.anti_correlated(s2=0.01, v2=0.87), 1.0, "pairs"),
        "uncorrelated nbar 0.05, singles, eps2 0.14": (
            lab.SourceSpec.uncorrelated(0.05), 0.14, "singles"),
    }
    return {name: ((spec, r, eps2, SLOTS, SEED, norm),
                   lab.RunConfig(spec=spec, r=r, eps2=eps2, slots=SLOTS, seed=SEED,
                                 mode=lab.RunMode.CROSS))
            for name, (spec, eps2, norm) in baths.items()}


class Tree:
    """One tree's engine, with its stages as calls of no arguments."""

    def __init__(self, lab):
        self.engine = lab.montecarlo
        self.cells = _cells(lab)
        self.chunks = {name: self._chunks(config) for name, (_, config) in self.cells.items()}

    def _chunks(self, config) -> list:
        held = []
        p_vac, draw = self.engine._occupied_sampler(config.spec)
        self.engine._draw_blocks(config, p_vac, draw, lambda blocks: held.append(list(blocks)))
        return held

    def _run_with(self, config, draw_blocks) -> None:
        engine = self.engine
        original = engine._draw_blocks
        engine._draw_blocks = draw_blocks
        try:
            engine.run(config)
        finally:
            engine._draw_blocks = original

    def stages(self, name: str) -> dict:
        """The cell's stages: set-up, draw, tally (with set-up), whole cell."""
        args, config = self.cells[name]
        engine, chunks = self.engine, self.chunks[name]
        p_vac, draw_occupied = engine._occupied_sampler(config.spec)

        def replay(_config, _p_vac, _draw, tally):
            for blocks in chunks:
                tally(blocks)

        return {"setup": lambda: self._run_with(config, lambda *_: None),
                "draw": lambda: engine._draw_blocks(config, p_vac, draw_occupied,
                                                    lambda blocks: None),
                "tally": lambda: self._run_with(config, replay),
                "measure_power": lambda: engine.measure_power(*args)}


def _ms(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def measure(parent: Tree, change: Tree, repeat: int) -> dict:
    sides = {"parent": parent, "change": change}
    stages = {(side, name): tree.stages(name)
              for side, tree in sides.items() for name in tree.cells}
    best = {(side, name, stage): math.inf
            for (side, name), calls in stages.items() for stage in calls}
    for i in range(repeat):
        # alternate which tree goes first, so neither always runs warm
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in parent.cells:
            for stage in stages["parent", name]:
                for side in order:
                    key = (side, name, stage)
                    best[key] = min(best[key], _ms(stages[side, name][stage]))

    blocks = -(-SLOTS // change.engine.BLOCK)
    split = {"setup_ms_per_run": {}, "draw_ms_per_block": {}, "tally_ms_per_chunk": {},
             "measure_power_ms": {}}
    for name in parent.cells:
        row = {side: {stage: best[side, name, stage] for stage in stages[side, name]}
               for side in sides}
        split["setup_ms_per_run"][name] = {s: round(row[s]["setup"], 4) for s in sides}
        split["draw_ms_per_block"][name] = {
            "k": {s: round(sum(len(b[0]) for c in t.chunks[name] for b in c) / blocks)
                  for s, t in sides.items()},
            **{s: round(row[s]["draw"] / blocks, 4) for s in sides}}
        split["tally_ms_per_chunk"][name] = {
            "chunks": {s: len(t.chunks[name]) for s, t in sides.items()},
            **{s: round((row[s]["tally"] - row[s]["setup"]) / len(sides[s].chunks[name]), 4)
               for s in sides}}
        split["measure_power_ms"][name] = {s: round(row[s]["measure_power"], 4) for s in sides}
    return split


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of this repository, or a checkout directory")
    parser.add_argument("--repeat", type=int, default=300,
                        help="timings per stage, cell and tree; the minimum is kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(args.parent)
        if not tree.is_dir():
            try:
                tree = _export(args.parent, Path(tmp))
            except subprocess.CalledProcessError as err:
                parser.error(f"--parent {args.parent}: {err.stderr.decode().strip()}")
            except OSError as err:  # no git to export with
                parser.error(f"--parent {args.parent}: {err}")
        parent = _load(tree, "demonlab_parent")
        change = _load(ROOT, "demonlab_change")
        split = measure(Tree(parent), Tree(change), args.repeat)
    print(json.dumps({"parent": args.parent, "repeat": args.repeat, "slots": SLOTS,
                      "seed": SEED, "stage_split_ms_per_block": split}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
