"""The benchmark's workloads: each turns a workload seed into a chanrate config.

Every workload is a closed-loop, lock-step batched simulation: all lanes
(one per outcome seed) advance one slot at a time, and the next slot starts
only when the previous one is fully processed.  The workload seed picks the
lane seeds and, for the drift workload, the drift path; the program only
ever sees the generated config.

Sizes are chosen so that one repeat takes one to three seconds on a
two-core x86 host, which leaves room for several repeats in one run.
``small`` sizes are for the smoke mode only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# The bundled 5-channel, 8-rate demo table (channel 2 at 52 Mbit/s is the
# unique best pair).  Copied here so the workloads stay fixed even if the
# program's own demo model changes; the reference digests would flag that.
DEMO_RATES = [6.0, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0]
DEMO_THETA = [
    [1.0, 1.0, 1.0, 1.0, 1.0, 0.2, 0.0, 0.0],
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.7, 0.1],
    [1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 0.8, 0.2, 0.0, 0.0, 0.0, 0.0],
]


def lane_seeds(seed: int, lanes: int) -> list[int]:
    """Distinct outcome seeds for one workload seed; seed 0 gives 1..lanes."""
    return list(range(seed * lanes + 1, seed * lanes + lanes + 1))


def _stationary_index(seed: int, small: bool) -> dict:
    return {
        "rates": DEMO_RATES,
        "theta": DEMO_THETA,
        "policies": [{"kind": "kl-ucb"}, {"kind": "kl-ucb-u"}],
        "horizon": 200 if small else 1000,
        "seeds": lane_seeds(seed, 4 if small else 20),
    }


def _drift_window(seed: int, small: bool) -> dict:
    horizon = 150 if small else 500
    return {
        "rates": DEMO_RATES,
        # The drift horizon is written out so that a shorter replay of the
        # same config (the lane-independence check) sees the same path.
        "synth": {"channels": 5, "step_std": 0.01, "seed": seed, "horizon": horizon},
        "policies": [
            {"kind": "kl-ucb-u", "window": 60 if small else 200},
            {"kind": "crs-t"},
        ],
        "horizon": horizon,
        "seeds": lane_seeds(seed, 4 if small else 20),
    }


def _baseline_airtime(seed: int, small: bool) -> dict:
    # Under "both" accounting the horizon is a time budget T and the run
    # simulates ceil(65 * T) slots.
    return {
        "rates": DEMO_RATES,
        "theta": DEMO_THETA,
        "policies": [{"kind": "oracle"}, {"kind": "static"}],
        "horizon": 40 if small else 300,
        "seeds": lane_seeds(seed, 4 if small else 20),
        "accounting": "both",
    }


def _wide_seeds(seed: int, small: bool) -> dict:
    # Criterion 10's 2x2 table at half its 10^5 seeds, so that a run holds
    # several repeats: pair count plus three free slots.
    return {
        "rates": [1.0, 2.0],
        "theta": [[0.85, 0.5], [0.6, 0.25]],
        "policies": [{"kind": "kl-ucb"}],
        "horizon": 7,
        "seeds": lane_seeds(seed, 2_000 if small else 50_000),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], dict]
    artifacts: tuple[str, ...]
    # Slots replayed for lane 0 alone to check that its decisions do not
    # depend on the other lanes; None skips the check.
    lane_prefix: int | None = None
    lane_prefix_small: int | None = None

    def config(self, seed: int, small: bool = False) -> dict:
        return self.build(seed, small)

    def prefix(self, small: bool) -> int | None:
        return self.lane_prefix_small if small else self.lane_prefix


_ALL = ("regret.csv", "decisions.csv", "summary.json", "bounds.json")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("stationary-index", _stationary_index, _ALL, 300, 100),
        # The drift source is not stationary, so no bounds.json; the replay
        # prefix exceeds the window so eviction is part of the check.
        Workload("drift-window", _drift_window, _ALL[:3], 300, 100),
        Workload("baseline-airtime", _baseline_airtime, _ALL),
        Workload("wide-seeds", _wide_seeds, _ALL),
    )
}
