"""Correctness checks on each benchmark repeat.

Every check holds for any workload seed, so a held-out seed is checked as
strictly as the default one.  Each function returns a list of failure
messages; an empty list means the repeat passed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def digests(out_dir: Path, names: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of each expected artifact; a missing file digests to ''."""
    out = {}
    for name in names:
        path = out_dir / name
        if not path.is_file():
            out[name] = ""
            continue
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def check_result(result) -> list[str]:
    """In-memory invariants of one ``ExperimentResult``."""
    from chanrate import accounting_check

    failures = []
    for pol in result.policies:
        sums = pol.pulls.sum(axis=1)
        if not np.all(sums == result.slots):
            failures.append(f"{pol.label}: pulls sum to {sorted(set(sums.tolist()))[:3]}, not {result.slots}")
    if result.time_horizon is not None:
        if not accounting_check(result).ok:
            failures.append("accounting_check(result).ok is false")
        inv_r = 1.0 / np.tile(result.config.rates.as_array(), result.config.channels)
        for pol in result.policies:
            if not np.all(pol.packet_counts @ inv_r <= result.time_horizon):
                failures.append(f"{pol.label}: packet airtime exceeds the budget")
    return failures


def check_regret_csv(path: Path) -> list[str]:
    """Oracle rows are zero; each lane's pseudo-regret never decreases."""
    rows: dict[str, list[tuple[int, np.ndarray]]] = {}
    with path.open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:4] != ["checkpoint", "policy", "mean", "stddev"]:
            return [f"regret.csv header starts {header[:4]}"]
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.setdefault(parts[1], []).append(
                (int(parts[0]), np.array(parts[2:], dtype=float))
            )
    failures = []
    for label, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        table = np.stack([values for _, values in entries])
        if label == "oracle" and np.any(table != 0.0):
            failures.append("oracle regret is not zero everywhere")
        if np.any(np.diff(table[:, 2:], axis=0) < 0.0):
            failures.append(f"{label}: a lane's pseudo-regret decreases")
    return failures


def check_lane_independence(config_dict: dict, batched, prefix: int) -> list[str]:
    """Replay the first lane alone for ``prefix`` slots; its decisions must
    equal lane 0's decisions in the batched run."""
    from chanrate import ExperimentConfig, run_experiment

    alone = dict(config_dict, seeds=config_dict["seeds"][:1], horizon=prefix)
    single = run_experiment(ExperimentConfig.from_json_dict(alone))
    failures = []
    for pol in single.policies:
        full = batched.policy(pol.label).decisions[:prefix]
        if not np.array_equal(pol.decisions, full):
            step = int(np.flatnonzero(pol.decisions != full)[0])
            failures.append(f"{pol.label}: lane 0 alone diverges from the batch at step {step}")
    return failures
