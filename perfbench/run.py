"""demonlab benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload sweep-mc --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``NOTES.md``): ``sweep-mc`` and
``acquisition``.  Each op starts when the previous one
returns; a round is a fixed set of ops, and rounds repeat until
``--seconds`` have passed.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced rounds on one fixed input
and reports the per-layer metrics (see ``tracing.py``) plus the tracing
overhead.  Every output is verified
after the timed section.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit, the failure fraction and a provenance
note.  The process exits 2, printing no result, if it cannot import the
program from the checkout.
"""
from __future__ import annotations

import os

# One thread per workload process: keep numpy's BLAS pools off the other core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace

import provenance
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("sweep-mc", "acquisition")
PROGRAM_MODULES = ("analytics", "cli", "fock", "harness", "information",
                   "montecarlo", "oracle", "protocol", "sources")

#: End-to-end metrics, in the order of ``BENCHMARK.json``.  The failure
#: fraction is reported through ``attempted`` and ``failed``.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

#: Fewest ops in one window of ``op_tail_ms``.
TAIL_WINDOW_OPS = 100


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory for generated inputs and reports."""
    path = BENCH_DIR / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()  # only once no other process uses it


def load_program() -> SimpleNamespace:
    """Import demonlab from this checkout's ``src/``, and from nowhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"demonlab.{name}") for name in PROGRAM_MODULES}
    origin = Path(sys.modules["demonlab"].__file__).resolve()
    if not origin.is_relative_to(src):
        raise ImportError(f"demonlab was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def set_up(workload: str, seed: int, size: str, workdir: Path):
    """Import plus input generation; returns (program, workload, seconds)."""
    start = time.perf_counter()
    program = load_program()
    instance = workloads.WORKLOADS[workload](program, seed, workloads.SIZES[size], workdir)
    return program, instance, time.perf_counter() - start


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--size", size, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples above its rank.

    Nearest-rank definition: percentile ``p`` is the sample at rank
    ``ceil(p * n / 100)``.  With ten or fewer samples no such percentile
    exists and the maximum is returned as p100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[max(math.ceil(p * n / 100), 1) - 1]


def windowed_tail(times: list[float], round_ends: list[int]) -> tuple[list[int], float]:
    """Median over windows of each window's ``tail_percentile``.

    A window is a run of whole consecutive rounds holding at least
    ``TAIL_WINDOW_OPS`` ops; leftover rounds join the last window, and a run
    with fewer ops is one window.  A slowdown of the machine then moves the
    tail of the windows it covers, not the whole run's.  Returns each
    window's percentile and the median tail.
    """
    windows, start = [], 0
    for end in round_ends:
        if end - start >= TAIL_WINDOW_OPS:
            windows.append((start, end))
            start = end
    if start < len(times):
        last = windows.pop()[0] if windows else 0
        windows.append((last, len(times)))
    tails = [tail_percentile(times[a:b]) for a, b in windows]
    return [p for p, _ in tails], statistics.median(t for _, t in tails)


def run_round(workload, ops, input_id: int, tracer=None, position: int = 0) -> float:
    """One timed round; returns its wall time.  Outputs are kept untimed."""
    span = None
    if tracer is not None:
        tracer.round = position
        span = tracer.open(tracing.ROUND_SPAN)
    start = time.perf_counter()
    try:
        raw = workload.run_round(input_id, ops)
    except Exception as exc:  # a crashed round fails every check it holds
        traceback.print_exc()
        raw = exc
    wall = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    workload.collect(input_id, raw)
    return wall


def rounds_for(seconds: float, run_one) -> list:
    """Call ``run_one(k)`` for k = 0, 1, ... until ``seconds`` have passed."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(run_one(len(results)))
    return results


def vacuum_probability(program):
    cache = {}

    def p_vac(spec) -> float:
        if spec not in cache:
            with warnings.catch_warnings():
                # bright sources warn about the closed forms, unused here
                warnings.simplefilter("ignore", program.fock.LowPhotonRegimeWarning)
                cache[spec] = program.sources.make_source(spec, 2).entries.get((0, 0), 0.0)
        return cache[spec]

    return p_vac


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> dict:
    """Set up, measure, verify; returns the result with its provenance."""
    with scratch_dir() as workdir:
        program, instance, setup_main = set_up(workload, seed, size, workdir)
        ops = workloads.OpLog()
        if not trace:
            probes = workloads.SIZES[size].setup_probes
            setups = [setup_main]
            round_ends = []
            start = time.perf_counter()

            def measured_round(i: int) -> float:
                wall = run_round(instance, ops, i)
                round_ends.append(len(ops.times_ms))
                # Probes run between rounds, spread over the run, so they
                # sample the host's speed as the rounds do.
                due = (len(setups) - 0.5) * seconds / probes
                if len(setups) <= probes and time.perf_counter() - start >= due:
                    setups.append(probe_setup(workload, seed, size))
                return wall

            walls = rounds_for(seconds, measured_round)
            setups += [probe_setup(workload, seed, size) for _ in range(probes + 1 - len(setups))]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tail_pcts, tail_ms = windowed_tail(ops.times_ms, round_ends)
            metrics = {"setup_s": statistics.median(setups),
                       "wall_s": statistics.median(walls),
                       "op_p50_ms": statistics.median(ops.times_ms),
                       "op_tail_ms": tail_ms,
                       "peak_rss_mb": peak_rss_mb}
            units = dict(END_TO_END)
            detail = {"rounds": len(walls), "walls": walls, "ops": len(ops.times_ms),
                      "op_tail_percentiles": tail_pcts, "setup_samples": setups}
            mismatches = []
        else:
            # Untraced and traced rounds alternate on one input, so machine
            # drift hits both alike and every count must repeat exactly.
            tracer = tracing.Tracer(ops)
            untraced, traced = [], []

            def pair(k: int) -> None:
                untraced.append(run_round(instance, ops, 0))
                tracer.install()
                try:
                    traced.append(run_round(instance, ops, 0, tracer, k))
                finally:
                    tracer.uninstall()

            rounds_for(seconds, pair)
            fig4a = instance.fig4a_sources() if hasattr(instance, "fig4a_sources") else frozenset()
            layers, mismatches = tracing.layer_metrics(
                tracer.spans, len(traced), vacuum_probability(program), fig4a)
            layers["trace.wall_s"] = statistics.median(traced)
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            metrics = {name: layers[name] for name, _ in tracing.PER_LAYER}
            units = tracing.UNITS
            detail = {"rounds": len(traced), "spans": len(tracer.spans),
                      "untraced_walls": untraced, "traced_walls": traced,
                      "untraced_mean_s": statistics.fmean(untraced),
                      "traced_mean_s": statistics.fmean(traced),
                      "count_mismatches": mismatches}
        verdicts = instance.verify()
        detail.update(instance.notes())
        detail["failures"] = verdicts.messages
        note = provenance.machine_note(ROOT, seed)
        note["stream_fingerprint"] = provenance.stream_fingerprint(program)
        note.update(workload=workload, trace=int(trace), seconds=seconds, size=size)
    return {"correct": verdicts.failed == 0 and not mismatches,
            "attempted": verdicts.attempted, "failed": verdicts.failed,
            "metrics": metrics, "units": units, "detail": detail, "provenance": note}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up only and print it (used internally)")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            with scratch_dir() as workdir:
                setup_s = set_up(args.workload, args.seed, args.size, workdir)[2]
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.size)
    except ImportError as exc:
        print(f"error: cannot import demonlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("detail " + json.dumps(result["detail"], sort_keys=True, default=str))
    for name, value in result["metrics"].items():
        print(f"metric {name} {value!r} {result['units'][name]}")
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"metric fail_frac {fail_frac!r} frac ({result['failed']}/{result['attempted']})")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": result["units"][name]}
                                  for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
