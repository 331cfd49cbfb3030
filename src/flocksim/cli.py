"""Command-line front end.

Subcommands: simulate a preset or config file, run a sweep grid,
validate a config, list presets.  Exit codes: 0 success, 1 config
error, 2 numeric failure during integration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .engine import ConfigError, SimConfig, SimulationNumericsError, empty_trajectory, run
from .lab import (
    export_all,
    list_presets,
    load_config,
    load_sweep_spec,
    preset,
    sweep,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _resolve_scenario(name_or_path: str) -> SimConfig:
    if os.path.exists(name_or_path):
        return load_config(name_or_path)
    if name_or_path in list_presets():
        return preset(name_or_path).config
    raise ConfigError(
        f"{name_or_path!r} is neither a config file nor a preset; "
        f"presets: {', '.join(list_presets())}"
    )


def _cmd_simulate(args) -> int:
    config = _resolve_scenario(args.scenario)
    overrides = {key: getattr(args, key) for key in ("seed", "dt", "duration")
                 if getattr(args, key) is not None}
    config = dataclasses.replace(config, **overrides)
    traj = run(config)
    final = traj.metrics[-1]
    print(
        f"ran {config.n} agents for {traj.times[-1]:g} s "
        f"({traj.n_snapshots} snapshots, seed {config.seed})"
    )
    print(
        f"final: h={final.h:.4f} r_agg={final.r_agg:.3f} m "
        f"d_avg={final.d_avg:.3f} m d_min={final.d_min:.3f} m"
    )
    if traj.events:
        kinds = {}
        for ev in traj.events:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        print("events: " + ", ".join(f"{k}x{v}" for k, v in sorted(kinds.items())))
    if args.out:
        paths = export_all(traj, args.out)
        for fmt in ("trajectory", "metrics", "config"):
            print(f"wrote {paths[fmt]}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    rows, failures = sweep(spec)
    for line in failures:
        print(f"cell failed: {line}", file=sys.stderr)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "sweep.csv")
        write_sweep_csv(rows, path, include_delta=spec.has_delta_axis)
        print(f"wrote {path} ({len(rows)} rows, {len(failures)} failed cells)")
    else:
        write_sweep_csv(rows, sys.stdout, include_delta=spec.has_delta_axis)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    empty_trajectory(config)  # refuses a run too long to record, as simulate does
    mode = "cucker-smale" if config.cucker_smale else (
        "adaptive" if config.adaptive else (
            "cluttered" if config.cluttered else "base"))
    print(
        f"{args.config}: valid ({config.n} agents, {config.m}D, "
        f"{config.n_steps} steps of {config.dt:g} s, mode {mode})"
    )
    return EXIT_OK


def _cmd_list_presets(_args) -> int:
    width = max(len(n) for n in list_presets())
    for name in list_presets():
        print(f"{name:<{width}}  {preset(name).note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocksim",
        description="Deterministic flocking/swarming simulation runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("scenario", help="preset name or config file path")
    sim.add_argument("--seed", type=int, help="override the RNG seed")
    sim.add_argument("--dt", type=float, help="override the time step (s)")
    sim.add_argument("--duration", type=float, help="override the duration (s)")
    sim.add_argument("--out", help="directory for trajectory/metrics/config files")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run a parameter grid from a spec file")
    sw.add_argument("spec", help="sweep spec JSON file")
    sw.add_argument("--out-dir", help="directory for sweep.csv (default: stdout)")
    sw.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="check a config file without running")
    val.add_argument("config", help="config file path")
    val.set_defaults(func=_cmd_validate)

    lp = sub.add_parser("list-presets", help="show available scenario presets")
    lp.set_defaults(func=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow and NaN end a run as a numeric failure (exit 2); NumPy's
        # warnings on the way there would only repeat it, with source lines.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationNumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
