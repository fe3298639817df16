"""Command-line entry points.

Four subcommands: ``simulate`` runs a configured experiment and writes its
artifacts, ``bounds`` prints the performance-constant report for a model,
``check`` prints its structural diagnosis, and ``gen-env`` freezes a
synthetic drift spec into a trace CSV.  Validation problems exit with
status 2 and a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bounds import compute_bound_report
from .environments import SyntheticDriftSpec, drift_to_trace
from .graph import check_graphically_unimodal, check_monotone, check_unimodal
from .harness import ExperimentConfig, _require_memory, emit_outputs, run_experiment
from .model import (
    DegenerateOptimumError,
    LinkModel,
    _echo,
    compute_optima,
    load_rates_json,
    load_theta_csv,
)

__all__ = ["main"]


def _load_model(theta_path: str, rates_path: str) -> LinkModel:
    rates, occupancy = load_rates_json(rates_path)
    theta = load_theta_csv(theta_path)
    return LinkModel(rates, theta, occupancy)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seeds is not None:
        config = config.with_seeds(args.seeds)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    result = run_experiment(config)
    paths = emit_outputs(result)
    print(f"slots: {result.slots}  seeds: {len(config.seeds)}")
    print(
        "oracle expected reward: "
        f"{result.oracle_reward:.6g}  static: {result.static_reward:.6g} "
        f"(channel {result.static_pair.channel}, rate {result.static_pair.rate_index})"
    )
    for pol in result.policies:
        eff = result.efficiency(pol.label)
        eff = "n/a" if eff is None else f"{eff.mean():.4f}"
        print(
            f"{pol.label}: final regret {pol.final_regret.mean():.6g} "
            f"+/- {pol.stddev_regret[-1]:.6g}, efficiency {eff}"
        )
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    model = _load_model(args.theta, args.rates)
    report = compute_bound_report(model)
    json.dump(report.to_json_dict(), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.theta, args.rates)
    opt = compute_optima(model)
    print(f"channels: {model.channels}  rates: {model.n_rates}")
    best = opt.best
    print(
        f"best pair: channel {best.channel}, rate index {best.rate_index} "
        f"({model.rates.rate(best.rate_index):g} per packet), "
        f"throughput {opt.mu_star:g}"
        + ("" if opt.unique_global else " (tied)")
    )
    def yn(flags: tuple[bool, ...]) -> str:
        if all(flags):
            return "yes"
        bad = [str(c + 1) for c, ok in enumerate(flags) if not ok]
        return f"no (channels {', '.join(bad)})"

    print(f"monotone rows: {yn(check_monotone(model))}")
    uni = check_unimodal(model)
    print(f"strictly unimodal rows: {yn(uni.strict)}")
    print(f"relaxed unimodal rows: {yn(uni.relaxed)}")
    try:
        gu = check_graphically_unimodal(model)
    except DegenerateOptimumError as exc:
        print(f"graphically unimodal: undefined ({exc})")
    else:
        if gu.unimodal:
            print("graphically unimodal: yes")
        else:
            w = gu.witness
            print(
                "graphically unimodal: no "
                f"(no strictly better neighbor from channel {w.channel}, "
                f"rate {w.rate_index})"
            )
    return 0


def _cmd_gen_env(args: argparse.Namespace) -> int:
    spec = SyntheticDriftSpec.from_json(args.spec)
    _require_memory(
        spec.nbytes(args.sample_every),
        f"the latent path and trace tables of a {_echo(spec.horizon)}-step drift spec",
    )
    trace = drift_to_trace(spec, sample_every=args.sample_every)
    trace.to_csv(args.out)
    print(
        f"wrote {args.out}: {len(trace.starts)} segments, "
        f"{trace.channels} channels x {trace.n_rates} rates, horizon {trace.horizon}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanrate",
        description="Joint channel and rate selection: simulation, bounds, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seeds", type=int, default=None, help="replace the seed list with 1..N")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="print the performance-constant report")
    p.add_argument("--theta", required=True, help="success-probability CSV")
    p.add_argument("--rates", required=True, help="rates JSON (list or {rates, occupancy})")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("check", help="print the structural diagnosis of a model")
    p.add_argument("--theta", required=True, help="success-probability CSV")
    p.add_argument("--rates", required=True, help="rates JSON (list or {rates, occupancy})")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen-env", help="freeze a drift spec into a trace CSV")
    p.add_argument("--spec", required=True, help="drift spec JSON")
    p.add_argument("--out", required=True, help="trace CSV to write")
    p.add_argument("--sample-every", type=int, default=1, help="steps between samples")
    p.set_defaults(func=_cmd_gen_env)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
