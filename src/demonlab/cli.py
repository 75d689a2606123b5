"""Command-line front end.

Subcommands: ``sweep`` (config-driven reflectivity sweeps), ``mc`` (one
simulated acquisition), ``info`` (monitor/output mutual information),
``check`` (self-test table), ``g2`` (source intensity correlation).

Seed precedence is command line flag, then the ``DEMONLAB_SEED``
environment variable, then the config file or the built-in default.
Exit codes: 0 success, 1 failed checks, 2 bad config or arguments.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .analytics import Normalization
from .harness import (ConfigError, PRESETS, _parse_source, emit_report,
                      load_config, preset_config, run_checks, run_sweep)
from .information import mutual_information
from .montecarlo import (RunConfig, RunMode, estimate_g2,
                         fit_gaussian_memory_tau_c, measure_power, run)
from .sources import SourceKind, SourceSpec


def _resolve_seed(cli_seed, config_seed=None, default=1) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("DEMONLAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"DEMONLAB_SEED: not an integer: {env!r}") from None
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("DEMONLAB_SEED: must be a 64-bit unsigned integer")
        return seed
    return config_seed if config_seed is not None else default


def _spec_from_args(args) -> SourceSpec:
    fields = {key: getattr(args, key) for key in ("kind", "nbar", "s2", "v2")
              if getattr(args, key) is not None}
    return _parse_source(fields, "source").spec


def _tap_amplitude(r2: float) -> float:
    if not 0.0 <= r2 <= 1.0:
        raise ConfigError(f"--r2 must lie in [0, 1], got {r2!r}")
    return math.sqrt(r2)


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=sorted(
        kind.value.replace("_", "-") for kind in SourceKind))
    parser.add_argument("--nbar", type=float, help="mean photons per arm")
    parser.add_argument("--s2", type=float, help="pair production strength")
    parser.add_argument("--v2", type=float, help="overlap of the pair modes")
    parser.add_argument("--eps2", type=float, default=1.0,
                        help="coupling efficiency (default 1.0)")
    parser.add_argument("--r2", type=float, default=0.5,
                        help="tap reflectivity (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demonlab",
        description="Feed-forward photon sorting: closed forms, event "
                    "simulation, and information accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a reflectivity sweep")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="sweep config JSON file")
    group.add_argument("--preset", choices=sorted(PRESETS))
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--format", choices=("csv", "json", "svg"),
                       default="csv")
    sweep.add_argument("--out", help="output file (default stdout)")

    mc = sub.add_parser("mc", help="simulate one acquisition")
    _add_source_flags(mc)
    mc.add_argument("--slots", type=int, default=1_000_000)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--mode", choices=[m.value for m in RunMode])
    mc.add_argument("--dead-window", type=int, default=0,
                    help="switch freeze after a monitor click, in slots")
    mc.add_argument("--normalization", choices=[n.value for n in Normalization],
                    help="also report feed-forward minus cross power")
    mc.add_argument("--out", help="output file (default stdout)")

    info = sub.add_parser("info", help="monitor/output mutual information")
    _add_source_flags(info)
    info.add_argument("--cutoff", type=int,
                      help="photon-number truncation, at most 64 (default: the "
                           "smallest from 12 up that leaves out <= 1e-13 of the bath)")
    info.add_argument("--out", help="output file (default stdout)")

    sub.add_parser("check", help="run the self-test table")

    g2 = sub.add_parser("g2", help="source intensity correlation")
    g2.add_argument("--nbar", type=float, required=True)
    g2.add_argument("--slots", type=int, default=1_000_000)
    g2.add_argument("--seed", type=int)
    g2.add_argument("--model", choices=("iid", "gaussian-memory"),
                    default="iid")
    g2.add_argument("--tau-c", type=float,
                    help="memory scale for the gaussian-memory model")
    g2.add_argument("--taus", default="0,1,2,5,10,20",
                    help="comma-separated slot delays")
    g2.add_argument("--fit", action="store_true",
                    help="fit the memory scale to the sampled curve")
    g2.add_argument("--out", help="output file (default stdout)")
    return parser


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _emit(payload: str, path) -> None:
    stream, owned = _open_out(path)
    try:
        stream.write(payload)
    finally:
        if owned:
            stream.close()


def _cmd_sweep(args) -> int:
    config = load_config(args.config) if args.config else preset_config(args.preset)
    seed = _resolve_seed(args.seed, config.seed)
    if seed != config.seed:
        config = dataclasses.replace(config, seed=seed)
    rows = run_sweep(config)
    stream, owned = _open_out(args.out)
    try:
        emit_report(rows, stream, args.format)
    finally:
        if owned:
            stream.close()
    return 0


def _cmd_mc(args) -> int:
    spec = _spec_from_args(args)
    seed = _resolve_seed(args.seed)
    r = _tap_amplitude(args.r2)
    if args.normalization:
        # a power measurement runs its own feed-forward and cross legs
        for flag, value in (("--mode", args.mode),
                            ("--dead-window", args.dead_window)):
            if value:
                raise ConfigError(f"{flag} does not apply with --normalization")
        m = measure_power(spec, r, args.eps2, args.slots, seed,
                          args.normalization)
        payload = {"power": m.value, "power_stderr": m.stderr,
                   "feed_forward": m.feed_forward.to_json_dict(),
                   "cross": m.cross.to_json_dict()}
    else:
        if args.dead_window and args.mode in (RunMode.BAR, RunMode.CROSS):
            raise ConfigError(f"--dead-window does not apply with --mode {args.mode}")
        result = run(RunConfig(spec=spec, r=r, eps2=args.eps2,
                               slots=args.slots, seed=seed,
                               mode=RunMode(args.mode or RunMode.FEED_FORWARD),
                               dead_window_slots=args.dead_window))
        payload = result.to_json_dict()
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_info(args) -> int:
    spec = _spec_from_args(args)
    result = mutual_information(spec, _tap_amplitude(args.r2), args.eps2,
                                cutoff=args.cutoff)
    payload = {"mutual_info_bits": result.mutual_info_bits,
               "click_entropy_bits": result.click_entropy_bits}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    return 0 if run_checks() else 1


def _cmd_g2(args) -> int:
    spec = SourceSpec.uncorrelated(args.nbar)
    seed = _resolve_seed(args.seed)
    try:
        taus = [int(t) for t in args.taus.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"--taus: expected comma-separated integers, "
                          f"got {args.taus!r}") from None
    samples = estimate_g2(spec, args.slots, seed, taus, model=args.model,
                          tau_c=args.tau_c)
    payload = {"model": args.model,
               "samples": [{"tau": t, "g2": g} for t, g in samples]}
    if args.fit:
        payload["fitted_tau_c"] = fit_gaussian_memory_tau_c(samples)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "mc": _cmd_mc, "info": _cmd_info,
             "check": _cmd_check, "g2": _cmd_g2}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
