#!/usr/bin/env python3
"""chanrate benchmark: whole simulate runs, and each layer in a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload stationary-index --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke              # all workloads, tiny sizes
    python3 perfbench/run.py --record-reference   # rewrite reference.json

One run generates the workload's config from ``--seed`` and writes it to
``.bench_build/perfbench/<workload>/config.json``.  ``setup_s`` is the
median over fresh interpreters of ``import chanrate`` plus
``ExperimentConfig.from_json``.  Then, for ``--seconds``, it repeats
``run_experiment`` + ``emit_outputs`` in this process and thread, checks
every repeat (see checks.py), and reports on them.  With ``--trace 1`` it
alternates untraced and traced repeats and reports per-layer numbers from
the traced ones, plus the tracing overhead.  BLAS threads are pinned to 1.

Every reported time is normalised to a reference host speed: each timed
unit (a set-up child, a repeat) is preceded by a host-speed calibration
(see hostspeed.py) and divided by its slowdown factor.  The raw wall times
and the factors are printed on the line before the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the host and library versions, and every repeat's time.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "run_s": "s",
    "us_per_lane_step": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_share": "ratio",
}

SOLVER_FIELDS = {
    "calls": "count",
    "self_s": "s",
    "us_per_call": "us",
    "elements": "count",
    "bisected_elements": "count",
}
PER_LAYER = {
    **{f"klstats.ucb.{k}": u for k, u in SOLVER_FIELDS.items()},
    **{f"klstats.lcb.{k}": u for k, u in SOLVER_FIELDS.items()},
    "klstats.share": "ratio",
    "klstats.elements_per_decision": "count",
    "policies.select.calls": "count",
    "policies.select.self_s": "s",
    "policies.update.calls": "count",
    "policies.update.self_s": "s",
    "policies.us_per_step": "us",
    "environments.tape.calls": "count",
    "environments.tape.self_s": "s",
    "environments.tape.chunks": "count",
    "environments.tape.unique_chunk_ratio": "ratio",
    "environments.theta.calls": "count",
    "environments.theta.self_s": "s",
    "harness.run.self_s": "s",
    "harness.run.us_per_lane_step_self": "us",
    "harness.emit.self_s": "s",
    "harness.emit.bytes": "bytes",
    "harness.emit.rows": "count",
    "bounds.report.calls": "count",
    "bounds.report.self_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Self-time groups compared to find where a workload spends its time.
LAYER_GROUPS = {
    "klstats": ("klstats.ucb", "klstats.lcb"),
    "policies": ("policies.select", "policies.update"),
    "environments.tape": ("environments.tape",),
    "environments.theta": ("environments.theta",),
    "harness.run": ("harness.run",),
    "harness.emit": ("harness.emit",),
    "bounds.report": ("bounds.report",),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import chanrate
chanrate.ExperimentConfig.from_json(sys.argv[1])
print(repr(time.perf_counter() - t0))
print(chanrate.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the program's source is missing."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def import_chanrate():
    """Import chanrate from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "chanrate" / "__init__.py").is_file():
        raise BenchError(f"no chanrate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chanrate

    if Path(chanrate.__file__).resolve().parent != (SRC / "chanrate").resolve():
        raise BenchError(f"chanrate imported from {chanrate.__file__}, not {SRC}")
    return chanrate


def measure_setup(config_path: Path) -> float:
    """Wall seconds for ``import chanrate`` + config parsing in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config_path)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
    seconds, location = proc.stdout.split("\n")[:2]
    if Path(location).resolve().parent != (SRC / "chanrate").resolve():
        raise BenchError(f"set-up child imported chanrate from {location}")
    return float(seconds)


def one_rep(harness, config, out_dir: Path, tracer=None):
    """One simulate run; returns (result, run_experiment s, run + emit s)."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter()
        # Looked up on the module each time so the tracer's rebinding applies.
        result = harness.run_experiment(config)
        t1 = time.perf_counter()
        harness.emit_outputs(result, out_dir)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, t1 - t0, t2 - t0


def emit_size(out_dir: Path, names) -> tuple[int, int]:
    """Bytes of all artifacts and data rows of the CSV artifacts."""
    size = rows = 0
    for name in names:
        path = out_dir / name
        size += path.stat().st_size
        if name.endswith(".csv"):
            with path.open("rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return size, rows


def layer_metrics(tr, lane_steps: int, slowdown: float) -> tuple[dict, dict]:
    """Per-layer numbers and self time per layer group from one traced
    repeat, with times divided by the repeat's host slowdown."""
    s = collections.defaultdict(float, {k: t / slowdown for k, t in tr.self_s.items()})
    c, n = tr.calls, tr.counts
    traced_run = sum(e - b for name, b, e, parent in tr.spans if parent == -1) / slowdown
    out = {}
    for solver in ("klstats.ucb", "klstats.lcb"):
        out[f"{solver}.calls"] = c[solver]
        out[f"{solver}.self_s"] = s[solver]
        out[f"{solver}.us_per_call"] = 1e6 * s[solver] / c[solver] if c[solver] else 0.0
        out[f"{solver}.elements"] = n[f"{solver}.elements"]
        out[f"{solver}.bisected_elements"] = n[f"{solver}.bisected_elements"]
    out["klstats.share"] = (s["klstats.ucb"] + s["klstats.lcb"]) / traced_run
    out["klstats.elements_per_decision"] = (
        n["klstats.ucb.elements"] + n["klstats.lcb.elements"]
    ) / lane_steps
    for part in ("select", "update"):
        out[f"policies.{part}.calls"] = c[f"policies.{part}"]
        out[f"policies.{part}.self_s"] = s[f"policies.{part}"]
    policy_s = s["policies.select"] + s["policies.update"]
    out["policies.us_per_step"] = 1e6 * policy_s / c["policies.select"] if c["policies.select"] else 0.0
    out["environments.tape.calls"] = c["environments.tape"]
    out["environments.tape.self_s"] = s["environments.tape"]
    chunks = n["environments.tape.chunks"]
    out["environments.tape.chunks"] = chunks
    out["environments.tape.unique_chunk_ratio"] = (
        n["environments.tape.unique_chunks"] / chunks if chunks else 0.0
    )
    out["environments.theta.calls"] = c["environments.theta"]
    out["environments.theta.self_s"] = s["environments.theta"]
    out["harness.run.self_s"] = s["harness.run"]
    out["harness.run.us_per_lane_step_self"] = 1e6 * s["harness.run"] / lane_steps
    out["harness.emit.self_s"] = s["harness.emit"]
    out["bounds.report.calls"] = c["bounds.report"]
    out["bounds.report.self_s"] = s["bounds.report"]
    groups = {g: sum(s[name] for name in names) for g, names in LAYER_GROUPS.items()}
    return out, groups


def normalised_median(wall: list[float], slowdowns: list[float]) -> float:
    """Median of wall times, each divided by the host slowdown measured just before it."""
    return statistics.median(t / f for t, f in zip(wall, slowdowns))


def load_json(name: str) -> dict:
    with (HERE / name).open() as fh:
        return json.load(fh)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    small: bool = False,
    setup_reps: int = 5,
    min_reps: int = 3,
) -> tuple[dict, dict]:
    """Run one workload; returns (info line, result line) as dicts."""
    import numpy as np
    import scipy

    import checks
    import chanrate.harness as harness
    import hostspeed
    from chanrate import ExperimentConfig
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    config_dict = workload.config(seed, small)
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "artifacts"
    out_dir.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config_dict))

    # Set-up time is an end-to-end metric; the traced run does not report it.
    setup, setup_slowdowns = [], []
    for _ in range(0 if trace else setup_reps):
        setup_slowdowns.append(hostspeed.slowdown())
        setup.append(measure_setup(config_path))
    config = ExperimentConfig.from_json(config_path)

    failures: list[str] = []
    attempted = failed = 0
    reference = None
    if seed == DEFAULT_SEED:
        reference = load_json("reference.json")["small" if small else "full"].get(name, {})
    first_digests = None
    lane_steps = None
    run_times, total_times, traced_times = [], [], []
    slowdowns, traced_slowdowns = [], []
    layer_samples, group_samples = [], []
    tracer = Tracer() if trace else None

    def checked_rep(rep_tracer):
        nonlocal attempted, failed, first_digests, lane_steps
        slowdown = hostspeed.slowdown()
        result, run_t, total_t = one_rep(harness, config, out_dir, rep_tracer)
        attempted += 1
        problems = checks.check_result(result)
        got = checks.digests(out_dir, workload.artifacts)
        if first_digests is None:
            first_digests = got
            missing = [n for n, d in got.items() if not d]
            if missing:
                problems.append(f"artifacts missing: {missing}")
            if reference is not None and got != reference:
                problems.append("artifact digests differ from reference.json at the default seed")
            prefix = workload.prefix(small)
            if prefix is not None:
                problems += checks.check_lane_independence(config_dict, result, prefix)
            lane_steps = len(result.policies) * len(config.seeds) * result.slots
        elif got != first_digests:
            problems.append("artifacts differ between repeats of one seed")
        if problems:
            failed += 1
            failures.extend(problems)
        return slowdown, run_t, total_t

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        slowdown, run_t, total_t = checked_rep(None)
        slowdowns.append(slowdown)
        run_times.append(run_t)
        total_times.append(total_t)
        if tracer is not None:
            slowdown, _, traced_t = checked_rep(tracer)
            traced_slowdowns.append(slowdown)
            traced_times.append(traced_t)
            layers, groups = layer_metrics(tracer, lane_steps, slowdown)
            layer_samples.append(layers)
            group_samples.append(groups)
        step = time.perf_counter() - t0
        if len(run_times) >= min_reps and time.perf_counter() - start + step > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Content checks read one repeat's files; the digests tie every other
    # repeat to the same bytes.  They run after the peak-memory reading.
    content = checks.check_regret_csv(out_dir / "regret.csv")
    if content:
        failed = attempted
        failures.extend(content)

    info = {
        "workload": name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out": seed != DEFAULT_SEED,
        "small": small,
        "trace": int(trace),
        "repeats": len(run_times),
        "lane_steps": lane_steps,
        "setup_wall_s_each": setup,
        "setup_slowdown_each": setup_slowdowns,
        "run_wall_s_each": total_times,
        "run_experiment_wall_s_each": run_times,
        "slowdown_each": slowdowns,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "failures": failures[:20],
    }
    if not trace:
        metrics = {
            "run_s": normalised_median(total_times, slowdowns),
            "us_per_lane_step": 1e6 * normalised_median(run_times, slowdowns) / lane_steps,
            "setup_s": normalised_median(setup, setup_slowdowns),
            "peak_rss_mib": peak_rss_mib,
            "pass_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        tracer.write_spans(work / "spans.csv")
        metrics = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        emit_bytes, emit_rows = emit_size(out_dir, workload.artifacts)
        untraced = normalised_median(total_times, slowdowns)
        traced = normalised_median(traced_times, traced_slowdowns)
        info["traced_wall_s_each"] = traced_times
        info["traced_slowdown_each"] = traced_slowdowns
        metrics.update(
            {
                "harness.emit.bytes": emit_bytes,
                "harness.emit.rows": emit_rows,
                "trace.run_s": traced,
                "trace.untraced_run_s": untraced,
                "trace.overhead_ratio": traced / untraced,
            }
        )
        group_s = {g: statistics.median(x[g] for x in group_samples) for g in group_samples[0]}
        predicted = load_json("predictions.json")["largest_self"][name]
        info["self_s_by_layer"] = group_s
        info["largest_self"] = max(group_s, key=group_s.get)
        info["largest_self_predicted"] = predicted
        units = PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return info, result


def smoke() -> int:
    """Run every workload tiny, traced and not, and check the output schema
    against BENCHMARK.json."""
    from workloads import DEFAULT_SEED, WORKLOADS

    with (ROOT / "BENCHMARK.json").open() as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    predictions = load_json("predictions.json")
    if sorted(predictions["largest_self"]) != sorted(WORKLOADS):
        problems.append("predictions.json does not cover every workload")
    layer_names = [m for row in predictions["layers"] for m in row["metrics"]]
    for name in layer_names:
        if name not in PER_LAYER:
            problems.append(f"predictions.json names unknown metric {name}")
    for name in PER_LAYER:
        if not name.startswith("trace.") and name not in layer_names:
            problems.append(f"predictions.json has no row for {name}")
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            info, result = run_workload(
                name, DEFAULT_SEED, 0.0, trace, small=True, setup_reps=1, min_reps=2
            )
            where = f"{name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: incorrect: {info['failures']}")
            declared = {m["name"]: m["unit"] for m in bench[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != declared:
                problems.append(f"{where}: metrics {got} do not match BENCHMARK.json {declared}")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {metric} = {value!r}")
            print(f"smoke {where}: {result['attempted']} repeats, correct={result['correct']}")
    for problem in problems:
        print(f"smoke problem: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def record_reference() -> int:
    """Write reference.json: artifact digests at the default seed, both sizes."""
    import checks
    import chanrate.harness as harness
    from chanrate import ExperimentConfig
    from workloads import DEFAULT_SEED, WORKLOADS

    reference: dict = {"seed": DEFAULT_SEED}
    for size, small in (("full", False), ("small", True)):
        reference[size] = {}
        for name, workload in WORKLOADS.items():
            out_dir = OUT / "reference" / size / name
            shutil.rmtree(out_dir, ignore_errors=True)
            config = ExperimentConfig.from_json_dict(workload.config(DEFAULT_SEED, small))
            one_rep(harness, config, out_dir)
            reference[size][name] = checks.digests(out_dir, workload.artifacts)
    with (HERE / "reference.json").open("w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    os.environ.update({var: "1" for var in THREAD_VARS})
    try:
        import_chanrate()
        if args.smoke:
            return smoke()
        if args.record_reference:
            return record_reference()
        from workloads import DEFAULT_SEED, WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        seed = DEFAULT_SEED if args.seed is None else args.seed
        if seed < 0:
            parser.error("--seed must be nonnegative")
        info, result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
