"""Experiment harness: batched simulation, dual accounting, file outputs.

A run evaluates each configured policy on the same environment under common
random numbers (one replication lane per seed, a tile of lanes advanced in
lock step) in two passes over the schedule, a block of steps at a time.  The
totals pass reads only the success probabilities: the oracle's reward, each
pair's total (hence the static pick) and the best pair of every step.  The
main pass, a tile at a time, steps the learners through each block together,
with one solver call per slot for all their confidence bounds, and reads
their picked cells from the tile's outcome tape: by jumps to those cells in a
short chunk, from the block drawn once otherwise.  The baselines' cells are
drawn alone.  Then one ledger per policy accounts the block's picks,
except that ``static`` shares the oracle's ledger when the best pair is the
static pick at every step, as in every stationary environment.  Regret is
tracked two ways:

* slot accounting: every transmission costs one slot; the pseudo-regret
  trajectory ``sum(mu_star(n) - mu_chosen(n))`` is sampled at checkpoints.
* time accounting: a packet at rate ``r`` occupies ``1/r`` time units and a
  run has a fixed time budget; a lane's packet ledger freezes at the first
  packet that no longer fits.  The reported time-system regret compares the
  expected throughput of always playing the best pair against the expected
  throughput of the packets actually sent.

A lane's airtime is the sum of ``count * (1 / rate)`` over the pairs, added
left to right in flat pair order; the freeze, the reported time used and
the later audit all use it, so the budget invariant is exact and a lane's
result does not depend on the other lanes in its batch.

Outputs are byte-deterministic: no timestamps, sorted JSON keys, floats
rendered with ``repr`` (shortest round-trip form).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from pathlib import Path

import numpy as np

from .bounds import compute_bound_report
from .environments import (
    DriftEnvironment,
    Environment,
    OutcomeTape,
    SyntheticDriftSpec,
    TraceTable,
)
from .model import (
    DecisionPair,
    LinkModel,
    RateSet,
    _echo,
    _json_array,
    _json_int,
    _load_json,
    compute_optima,
    flat_to_pair,
    load_theta_csv,
    pair_to_flat,
)
from .policies import POLICY_KINDS, build_policy, check_policy_kind, record, select_all

__all__ = [
    "AccountingReport",
    "ExperimentConfig",
    "ExperimentResult",
    "PolicyAccounting",
    "PolicyRunResult",
    "PolicySpec",
    "accounting_check",
    "default_checkpoints",
    "emit_outputs",
    "run_experiment",
]

_BLOCK = 512
# Lanes the main pass steps, each tile with its own OutcomeTape, whose draw
# temporaries (64 KB an array here) so stay in cache; emission writes seeds'
# text a tile at a time.  At 50,000 lanes x 28 draws, median of 15 on a
# 2-core x86-64 host, over three sweeps: 2,048-lane tiles 0.070-0.091 s,
# 4,096 0.050-0.068 s, 8,192 0.038-0.049 s, 16,384 0.044-0.054 s, untiled
# 0.044-0.057 s.
_LANE_TILE = 8192
# Rows of decisions.csv encoded at a time (see _write_decisions).  It
# divides 10**4, so the steps of one chunk share all digits above the last four.
_EMIT_ROWS = 2_500


def _json_ints(values, what: str) -> list[int] | tuple[int, ...]:
    """A list of integral numbers as ints, checked as by ``_json_int``, so a
    non-integral entry is rejected rather than truncated."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {_echo(values)}")
    if set(map(type, values)) <= {int}:  # all plain ints: no call per entry
        return values
    return [_json_int(v, f"each of {what}") for v in values]


@dataclass(frozen=True)
class PolicySpec:
    """One policy to evaluate: a kind plus its variant knobs."""

    kind: str
    window: int | None = None
    strict: bool = False

    def __post_init__(self):
        kind = check_policy_kind(self.kind, window=self.window, strict=self.strict)
        object.__setattr__(self, "kind", kind)

    @property
    def label(self) -> str:
        parts = [self.kind]
        if self.window is not None:
            parts.append(f"w{self.window}")
        if self.strict:
            parts.append("strict")
        return "-".join(parts)

    @property
    def is_baseline(self) -> bool:
        return POLICY_KINDS[self.kind] is None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.window is not None:
            out["window"] = self.window
        if self.strict:
            out["strict"] = True
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolicySpec":
        if not isinstance(data, dict):
            raise ValueError(f"policy entry must be an object, got {_echo(data)}")
        extra = set(data) - {"kind", "window", "strict"}
        if extra:
            raise ValueError(f"unknown policy keys: {_echo(sorted(extra))}")
        if "kind" not in data:
            raise ValueError("policy entry needs a 'kind'")
        if not isinstance(data["kind"], str):
            raise ValueError(f"policy kind must be a string, got {_echo(data['kind'])}")
        window = data.get("window")
        strict = data.get("strict", False)
        if not isinstance(strict, bool):
            raise ValueError(f"strict must be true or false, got {_echo(strict)}")
        return cls(
            kind=data["kind"],
            window=None if window is None else _json_int(window, "window"),
            strict=strict,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment.

    Exactly one probability source must be set: an inline ``theta`` table
    (optionally occupancy-scaled), a ``trace``, or a ``drift`` spec.  Under
    ``accounting`` "original" or "both", ``horizon`` is the time budget and
    the source must be stationary; otherwise it is the slot count.
    """

    rates: RateSet
    policies: tuple[PolicySpec, ...]
    horizon: int
    seeds: tuple[int, ...]
    theta: np.ndarray | None = None
    occupancy: np.ndarray | None = None
    trace: TraceTable | None = None
    drift: SyntheticDriftSpec | None = None
    accounting: str = "alternative"
    checkpoints: tuple[int, ...] = ()
    out_dir: str = "results"

    def __post_init__(self):
        sources = [s is not None for s in (self.theta, self.trace, self.drift)]
        if sum(sources) != 1:
            raise ValueError("exactly one of theta, trace, drift must be given")
        if self.occupancy is not None and self.theta is None:
            raise ValueError("occupancy only applies to an inline theta table")
        if self.theta is not None:
            th = np.asarray(self.theta, dtype=float)
            object.__setattr__(self, "theta", th)
            occ = self.occupancy
            if occ is not None:
                occ = np.asarray(occ, dtype=float)
                object.__setattr__(self, "occupancy", occ)
            LinkModel(self.rates, th, occ)  # validates shapes and ranges
        if self.trace is not None and self.trace.n_rates != len(self.rates):
            raise ValueError("trace rate count does not match the rate set")
        if self.drift is not None and self.drift.rates.values != self.rates.values:
            raise ValueError("drift spec rates must equal the experiment rates")
        if not self.policies:
            raise ValueError("at least one policy required")
        object.__setattr__(self, "policies", tuple(self.policies))
        labels = [p.label for p in self.policies]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate policy labels: {_echo(labels)}")
        if self.horizon < self.channels * len(self.rates):
            raise ValueError(
                f"horizon {_echo(self.horizon)} below the pair count "
                f"{self.channels * len(self.rates)}"
            )
        seeds = tuple(_json_ints(tuple(self.seeds), "seeds"))
        object.__setattr__(self, "seeds", seeds)
        if not seeds:
            raise ValueError("at least one seed required")
        if min(seeds) < 0:
            raise ValueError("seeds must be nonnegative")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        if self.accounting not in ("alternative", "original", "both"):
            raise ValueError(
                "accounting must be alternative, original or both, "
                f"got {_echo(self.accounting)}"
            )
        if self.accounting != "alternative" and self.theta is None:
            raise ValueError("time accounting requires a stationary theta table")
        cps = tuple(_json_ints(tuple(self.checkpoints), "checkpoints"))
        object.__setattr__(self, "checkpoints", cps)
        if any(c < 1 for c in cps):
            raise ValueError("checkpoints must be >= 1")
        if self.drift is not None and self.horizon > self.drift.horizon:
            raise ValueError("horizon exceeds the drift spec horizon")
        if (
            self.trace is not None
            and self.trace.horizon is not None
            and self.horizon > self.trace.horizon
        ):
            raise ValueError("horizon exceeds the trace horizon")

    @property
    def channels(self) -> int:
        if self.theta is not None:
            return self.theta.shape[0]
        if self.trace is not None:
            return self.trace.channels
        return self.drift.channels

    @property
    def n_rates(self) -> int:
        return len(self.rates)

    def model(self) -> LinkModel | None:
        """Stationary link model, or None for trace/drift sources."""
        if self.theta is None:
            return None
        return LinkModel(self.rates, self.theta, self.occupancy)

    def build_environment(self) -> Environment:
        if self.theta is not None:
            # A stationary table is a trace of one segment with no horizon.
            return TraceTable(starts=(0,), tables=self.model().effective_theta()[None])
        return self.trace if self.trace is not None else DriftEnvironment(self.drift)

    def to_json_dict(self) -> dict:
        out: dict = {
            "rates": [float(r) for r in self.rates],
            "policies": [p.to_json_dict() for p in self.policies],
            "horizon": self.horizon,
            "seeds": list(self.seeds),
            "accounting": self.accounting,
            "out_dir": self.out_dir,
        }
        if self.checkpoints:
            out["checkpoints"] = list(self.checkpoints)
        if self.theta is not None:
            out["theta"] = [[float(v) for v in row] for row in self.theta]
            if self.occupancy is not None:
                out["occupancy"] = [float(v) for v in self.occupancy]
        elif self.trace is not None:
            out["trace"] = {
                "starts": self.trace.starts.tolist(),
                "horizon": self.trace.horizon,
                "tables": self.trace.tables.tolist(),
            }
        else:
            out["synth"] = self.drift.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict, base_dir: str | Path | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {
            "rates",
            "theta",
            "theta_csv",
            "trace_csv",
            "synth",
            "occupancy",
            "policies",
            "horizon",
            "seeds",
            "accounting",
            "checkpoints",
            "out_dir",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {_echo(sorted(extra))}")
        for key in ("rates", "policies", "horizon", "seeds"):
            if key not in data:
                raise ValueError(f"config missing required key {key!r}")
        horizon = _json_int(data["horizon"], "horizon")
        base = Path(base_dir) if base_dir is not None else Path(".")

        def resolve(key: str) -> Path:
            if not isinstance(data[key], str):
                raise ValueError(f"{key} must be a path, got {_echo(data[key])}")
            path = Path(data[key])
            return path if path.is_absolute() else base / path

        rates = RateSet.of(data["rates"])
        sources = [k for k in ("theta", "theta_csv", "trace_csv", "synth") if k in data]
        if len(sources) != 1:
            raise ValueError(
                f"exactly one of theta, theta_csv, trace_csv, synth required, got {sources}"
            )
        theta = trace = drift = None
        if "theta" in data:
            theta = _json_array(data["theta"], "theta")
        elif "theta_csv" in data:
            theta = load_theta_csv(resolve("theta_csv"))
        elif "trace_csv" in data:
            trace = TraceTable.from_csv(resolve("trace_csv"), horizon=horizon)
        else:
            if not isinstance(data["synth"], dict):
                raise ValueError(f"synth must be an object, got {_echo(data['synth'])}")
            drift = SyntheticDriftSpec.from_json_dict(
                {"rates": data["rates"], "horizon": horizon, **data["synth"]}
            )
        if not isinstance(data["policies"], (list, tuple)):
            raise ValueError(f"policies must be a list, got {_echo(data['policies'])}")
        seeds = data["seeds"]
        if not isinstance(seeds, (list, tuple)):
            seeds = _seed_range(_json_int(seeds, "seeds"))
        occupancy = data.get("occupancy")
        out_dir = data.get("out_dir", "results")
        if not isinstance(out_dir, str):
            raise ValueError(f"out_dir must be a path, got {_echo(out_dir)}")
        return cls(
            rates=rates,
            policies=tuple(PolicySpec.from_json_dict(p) for p in data["policies"]),
            horizon=horizon,
            seeds=tuple(seeds),
            theta=theta,
            occupancy=None if occupancy is None else _json_array(occupancy, "occupancy"),
            trace=trace,
            drift=drift,
            accounting=data.get("accounting", "alternative"),
            checkpoints=tuple(_json_ints(data.get("checkpoints", []), "checkpoints")),
            out_dir=out_dir,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_json_dict(_load_json(path), base_dir=path.parent)

    def with_seeds(self, n: int) -> "ExperimentConfig":
        """Replace the seed list with 1..n (CLI --seeds override)."""
        if n < 1:
            raise ValueError("need at least one seed")
        return dataclasses.replace(self, seeds=tuple(_seed_range(n)))


# Bytes a seed takes while a config is built and checked: its int, its
# slots in the seed tuples and its entry in the distinctness set (90
# measured at 10^6 seeds).
_SEED_BYTES = 128


def _seed_range(n: int) -> range:
    """Seeds 1..n, once their config fits in physical memory: a count too
    large is rejected before its seed list is built."""
    _require_memory(n * _SEED_BYTES, f"{_echo(n)} seeds")
    return range(1, n + 1)


def default_checkpoints(slots: int) -> tuple[int, ...]:
    """Powers of two up to the horizon, plus the horizon itself."""
    cps = set()
    p = 1
    while p <= slots:
        cps.add(p)
        p *= 2
    cps.add(slots)
    return tuple(sorted(cps))


@dataclass(frozen=True)
class PolicyRunResult:
    """Per-policy simulation output across all replication lanes."""

    spec: PolicySpec
    label: str
    checkpoints: tuple[int, ...]
    trajectories: np.ndarray = field(repr=False)
    pulls: np.ndarray = field(repr=False)
    expected_reward: np.ndarray = field(repr=False)
    realized_reward: np.ndarray = field(repr=False)
    decisions: np.ndarray = field(repr=False)
    packet_counts: np.ndarray | None = field(default=None, repr=False)
    time_used: np.ndarray | None = field(default=None, repr=False)
    time_regret: np.ndarray | None = field(default=None, repr=False)

    @property
    def mean_regret(self) -> np.ndarray:
        return self.trajectories.mean(axis=0)

    @property
    def stddev_regret(self) -> np.ndarray:
        if self.trajectories.shape[0] < 2:
            return np.zeros(self.trajectories.shape[1])
        return self.trajectories.std(axis=0, ddof=1)

    @property
    def final_regret(self) -> np.ndarray:
        return self.trajectories[:, -1]

    def regret_at(self, checkpoint: int) -> np.ndarray:
        try:
            col = self.checkpoints.index(checkpoint)
        except ValueError:
            raise KeyError(f"no checkpoint {checkpoint}; have {self.checkpoints}") from None
        return self.trajectories[:, col]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    slots: int
    time_horizon: float | None
    checkpoints: tuple[int, ...]
    policies: tuple[PolicyRunResult, ...]
    oracle_reward: float
    static_reward: float
    static_flat: int
    best_flats: np.ndarray = field(repr=False)

    def policy(self, label: str) -> PolicyRunResult:
        for p in self.policies:
            if p.label == label:
                return p
        raise KeyError(f"no policy {label!r}; have {[p.label for p in self.policies]}")

    @property
    def static_pair(self) -> DecisionPair:
        return flat_to_pair(self.static_flat, self.config.n_rates)

    def efficiency(self, label: str) -> np.ndarray | None:
        """Per-lane expected reward as a fraction of the oracle's; None when
        the oracle earns nothing (every pair has zero throughput), where the
        fraction is undefined."""
        if self.oracle_reward == 0.0:
            return None
        return self.policy(label).expected_reward / self.oracle_reward


def _resolve_slots(config: ExperimentConfig) -> tuple[int, float | None]:
    if config.accounting == "alternative":
        return config.horizon, None
    t_budget = float(config.horizon)
    return int(math.ceil(t_budget * config.rates.values[-1])), t_budget


def _checkpoint_grid(config: ExperimentConfig, slots: int, time_horizon: float | None) -> tuple[int, ...]:
    cps = set(default_checkpoints(slots))
    cps.update(c for c in config.checkpoints if c <= slots)
    if time_horizon is not None:
        cps.add(max(1, int(math.floor(time_horizon * config.rates.values[0]))))
    return tuple(sorted(cps))


def _require_memory(need: int, what: str) -> None:
    """Raise ValueError when ``need`` bytes exceed physical memory; ``what``
    names the arrays for the message."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf figures here
        return
    if need > have:
        # A count past float range (a 10^400 horizon) still gets its size.
        gib = need / 2**30 if need < 2**1000 else Decimal(need) / 2**30
        raise ValueError(
            f"{what} need about {gib:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _check_memory(config: ExperimentConfig, slots: int, checkpoints: int, timed: bool) -> None:
    """Reject a run whose arrays cannot fit in physical memory: the sum of
    what their owners report for a tile of ``T = min(seeds, _LANE_TILE)``
    lanes, and the harness's own arrays.  A block holds the tile's tape,
    policies, ledgers and picks, and the largest of its busy moments: the
    learners' step, a learner's ledger accounting, a baseline's read, a
    baseline's accounting beside the one outcome array it reads, or a
    drift's next θ block beside the last block's (none in a run of one
    block, whose main pass reuses the totals pass's).  One tile counts the
    larger of that and the result phase (the ledgers and the baselines'
    repeated results); more tiles count both, with all lanes' and one
    tile's results and lane 0's decision logs.  The totals pass
    holds only a θ block's busy moment and, past one block, the last
    block's.  A block is its θ and μ and their reductions (``_Block``).
    ``static`` counts a ledger even where it shares the oracle's."""
    S, C, K, top = len(config.seeds), config.channels, config.n_rates, max(config.seeds)
    P, T, B = C * K, min(S, _LANE_TILE), min(_BLOCK, slots)
    learners = [p for p in config.policies if not p.is_baseline]
    n, L, pair = len(config.policies), len(learners), np.min_scalar_type(P - 1).itemsize
    learned, shared = (_Ledger.nbytes(rows, T, slots, P, checkpoints, timed) for rows in (T, 1))
    policies = [POLICY_KINDS[p.kind].nbytes(T, C, K, slots, p.window, p.strict) for p in learners]
    tape, read = OutcomeTape.nbytes(T, top, slots, P, L)
    baseline = max(OutcomeTape.nbytes(T, top, slots, P)[1], T * B + shared[1])
    ledgers = L * learned[0] + (n - L) * shared[0]
    block = 16 * B * (P + 1) + 8 * P  # θ, μ, row maxima, their pairs and pair sums
    # Each learner's picks and outcomes, and the block.
    held = tape + ledgers + sum(h for h, _ in policies) + L * T * B * (pair + 1) + block
    step = read + sum(b for _, b in policies)
    drift, theta = config.drift.nbytes() if config.drift is not None else (0, 0)
    again = theta if slots > B else 0  # a θ block, beside the last block
    blocks = held + max(L and max(step, learned[1]), (n - L) and baseline, again)
    table = _Ledger.lane_nbytes(P, checkpoints, timed)
    if S > T:
        need = blocks + n * ((S + T) * table + slots * pair)
    else:
        need = max(blocks, ledgers + (n - L) * S * table)
    need = pair * slots + drift + max(need, theta + (again and block))
    what = f"the per-slot, per-lane and block arrays of {_echo(slots)} slots x {S} seeds"
    _require_memory(need, what)


@dataclass(frozen=True)
class _Schedule:
    """What both passes of one run share: the environment, the slot and
    checkpoint grids, and the time ledger's constants (``None`` under slot
    accounting)."""

    env: Environment
    slots: int
    checkpoints: tuple[int, ...]
    r_flat: np.ndarray
    time_horizon: float | None
    th_flat: np.ndarray | None
    time_benchmark: float | None

    def blocks(self):
        """Yield ``(n0, n1, block)``: the ``_Block`` of steps ``[n0, n1)``.
        A block in the last one's segment (``Environment.segment``) and of
        its length is the last ``_Block`` again, computed once; a drift
        block, or one a segment starts inside, is never shared."""
        P, last = self.r_flat.size, (None, None)
        for n0 in range(0, self.slots, _BLOCK):
            n1 = min(n0 + _BLOCK, self.slots)
            key = (self.env.segment(n0, n1), n1 - n0)
            if key[0] is None or key != last[0]:
                th_b = self.env.theta_block(n0, n1).reshape(n1 - n0, P)
                last = (key, _Block(th_b, th_b * self.r_flat))
            yield n0, n1, last[1]


def _frozen(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


class _Block:
    """One block's success probabilities ``theta`` and throughputs ``mu``,
    ``(B, P)`` and read-only, and the reductions of ``mu`` both passes read,
    each taken when first read and kept read-only: ``mu_star`` the row
    maxima, ``best`` their pairs, ``oracle`` the oracle's reward (the sum of
    ``mu_star``) and ``mu_sums`` each pair's sum over the block."""

    def __init__(self, theta: np.ndarray, mu: np.ndarray):
        self.theta, self.mu = _frozen(theta), _frozen(mu)

    @cached_property
    def mu_star(self) -> np.ndarray:
        return _frozen(self.mu.max(axis=1))

    @cached_property
    def best(self) -> np.ndarray:
        return _frozen(np.argmax(self.mu, axis=1))

    @cached_property
    def oracle(self) -> float:
        return float(self.mu_star.sum())

    @cached_property
    def mu_sums(self) -> np.ndarray:
        return _frozen(self.mu.sum(axis=0))


def _flat_sum(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``counts @ weights`` for each row, added left to right in flat pair
    order, so a row's value has the same bits whatever rows it is stacked
    with (a matrix product rounds a row differently by batch size)."""
    return np.cumsum(counts * weights, axis=-1)[..., -1]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """The totals pass, then the main pass a lane tile at a time
    (``_simulate_tiles``): the block arrays grow with the tile, the result
    tables with the seed count."""
    slots, time_horizon = _resolve_slots(config)
    checkpoints = _checkpoint_grid(config, slots, time_horizon)
    _check_memory(config, slots, len(checkpoints), time_horizon is not None)
    env = config.build_environment()
    th_flat = time_benchmark = None
    if time_horizon is not None:
        model = config.model()
        opt = compute_optima(model)
        th_flat = model.effective_theta().reshape(-1)
        time_benchmark = th_flat[pair_to_flat(opt.best, config.n_rates)] * math.floor(
            config.rates.rate(opt.best.rate_index) * time_horizon
        )

    run = _Schedule(
        env=env,
        slots=slots,
        checkpoints=checkpoints,
        r_flat=np.tile(config.rates.as_array(), config.channels),
        time_horizon=time_horizon,
        th_flat=th_flat,
        time_benchmark=time_benchmark,
    )
    oracle_reward, mu_totals, best_flats = _totals(run)
    static_flat = int(np.argmax(mu_totals))
    return ExperimentResult(
        config=config,
        slots=slots,
        time_horizon=time_horizon,
        checkpoints=run.checkpoints,
        policies=_simulate_tiles(run, config, best_flats, static_flat),
        oracle_reward=oracle_reward,
        static_reward=float(mu_totals[static_flat]),
        static_flat=static_flat,
        best_flats=best_flats,
    )


def _totals(run: _Schedule) -> tuple[float, np.ndarray, np.ndarray]:
    """The totals pass, over the probability schedule only: the oracle's
    expected reward, each pair's expected reward over the run (the static
    pick is the largest) and the best pair of every step: each
    ``_Block``'s reductions, taken once and added block by block in order."""
    oracle_reward = 0.0
    mu_totals = np.zeros(run.r_flat.size)
    best_flats = np.empty(run.slots, dtype=np.min_scalar_type(run.r_flat.size - 1))
    for n0, n1, block in run.blocks():
        oracle_reward += block.oracle
        mu_totals += block.mu_sums
        best_flats[n0:n1] = block.best
    return oracle_reward, mu_totals, best_flats


def _simulate_tiles(
    run: _Schedule, config: ExperimentConfig, best_flats: np.ndarray, static_flat: int
) -> tuple[PolicyRunResult, ...]:
    """``_simulate`` over tiles of at most ``_LANE_TILE`` lanes.
    A lane's results depend on its seed alone, so each tile writes its own
    into the run's arrays; lane 0's decision logs come from the first tile.
    A run of one tile returns that tile's results."""
    seeds, tile = config.seeds, _LANE_TILE
    results = []
    for a in range(0, len(seeds), tile):
        ledgers = _simulate(run, config, seeds[a : a + tile], best_flats, static_flat)
        part = [led.result(spec) for spec, led in zip(config.policies, ledgers)]
        if len(seeds) <= tile:
            return tuple(part)
        for i, r in enumerate(part):
            lanes = {k: x for k, x in vars(r).items() if isinstance(x, np.ndarray)}
            del lanes["decisions"]  # lane 0's log, from the first tile
            if a == 0:
                full = {k: np.empty((len(seeds), *x.shape[1:]), x.dtype) for k, x in lanes.items()}
                results.append(dataclasses.replace(r, **full))
            for k, x in lanes.items():
                getattr(results[i], k)[a : a + len(x)] = x
    return tuple(results)


def _simulate(
    run: _Schedule, config: ExperimentConfig, seeds: tuple, best_flats: np.ndarray, static_flat: int
) -> list["_Ledger"]:
    """The main pass of one lane tile, ``seeds``: one walk over the blocks
    with the tile's own tape.  The learning policies step through each block
    together (one solver call per slot for all their bounds), read the
    outcomes of their picks through the tape's ``reader`` with the block's
    probabilities from the schedule, and store picks and outcomes.  The
    baselines' picks are known in advance, so only the cells they read are
    drawn (``OutcomeTape.cells``), once for the two when they play the same
    pairs.  Then each ledger accounts the block.  The ledgers are returned
    in ``config.policies`` order; when the best pair is the static pick at
    every step, ``static`` and ``oracle`` play the same pairs and share one
    ledger."""
    tape, S, P = OutcomeTape(run.env, seeds), len(seeds), run.r_flat.size
    policies = [
        build_policy(
            spec.kind, config.rates, config.channels,
            window=spec.window, batch=S, strict=spec.strict,
        )
        for spec in config.policies
        if not spec.is_baseline
    ]
    learned = [_Ledger(run, S, S) for _ in policies]
    same = best_flats.min() == static_flat == best_flats.max()  # no slots-long temporary

    def plays(spec: PolicySpec) -> str:
        """The baseline kind whose pairs ``spec`` plays."""
        return "oracle" if same else spec.kind

    kinds = dict.fromkeys(plays(spec) for spec in config.policies if spec.is_baseline)
    baselines = {kind: _Ledger(run, 1, S) for kind in kinds}
    shape = (min(_BLOCK, run.slots), len(policies), S)
    picks = np.empty(shape, dtype=np.min_scalar_type(P - 1))
    wins = np.empty(shape, dtype=np.uint8)
    for n0, n1, block in run.blocks():
        B = n1 - n0
        if policies:
            read = tape.reader(n0, n1, block.theta, len(policies))
            for i in range(B):
                flats = select_all(policies)
                picks[i] = flats
                read(i, picks[i], wins[i])
                record(policies, flats, wins[i])
            del read  # the block it may hold is not needed to account the picks
        for l, led in enumerate(learned):
            led.account(n0, picks[:B, l], wins[:B, l], block)
        flats = won = None  # the last baseline's pairs and outcomes in this block
        for kind, led in baselines.items():
            played = flats
            flats = best_flats[n0:n1] if kind == "oracle" else np.full(B, static_flat)
            if won is None or not np.array_equal(flats, played):
                won = None  # one outcome array at a time
                won = tape.cells(n0, n1, flats, block.theta).T
            led.account(n0, flats[:, None], won, block)
    learned = iter(learned)
    return [
        baselines[plays(spec)] if spec.is_baseline else next(learned) for spec in config.policies
    ]


def _tally(picks: np.ndarray, pairs: int) -> np.ndarray:
    """Play counts ``(rows, pairs)`` of the columns of ``(B, rows)`` picks."""
    rows = picks.shape[1]
    at = picks + np.arange(0, rows * pairs, pairs)
    return np.bincount(at.ravel(), minlength=rows * pairs).reshape(rows, pairs)


def _running(values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running sums down each column of ``values``, in place, with ``start``
    added to the first row: the order of adding one step at a time.  A
    block of fewer steps than columns adds row by row, which spares
    ``cumsum`` one short inner loop per column."""
    values[0] += start
    if len(values) >= values.shape[1]:
        return np.cumsum(values, axis=0, out=values)
    for i in range(1, len(values)):
        np.add(values[i - 1], values[i], out=values[i])
    return values


class _Ledger:
    """Running totals of one policy, accounted a block at a time.

    A learner's ledger has one row per lane; a baseline plays the same pair
    on every lane, so its ledger has one row that all lanes share.  The
    realized reward is kept per lane either way.  Every running sum adds in
    the order of stepping slot by slot (``_running``), so it has the same
    bits.
    """

    def __init__(self, run: _Schedule, rows: int, lanes: int):
        self.run = run
        self.cps = np.asarray(run.checkpoints)
        self.pseudo = np.zeros(rows)
        self.expected = np.zeros(rows)
        self.realized = np.zeros(lanes)
        self.pulls = np.zeros((rows, run.r_flat.size), dtype=np.int64)
        self.traj = np.empty((rows, len(self.cps)))
        self.decisions = np.empty(run.slots, dtype=np.min_scalar_type(run.r_flat.size - 1))
        self.counts = self.frozen = None
        self.handed_out = False  # whether result() has given out the arrays
        if run.time_horizon is not None:
            self.inv_r = 1.0 / run.r_flat
            self.counts = np.zeros_like(self.pulls)
            self.frozen = np.zeros(rows, dtype=bool)

    @staticmethod
    def nbytes(rows, lanes, slots, pairs, checkpoints, timed) -> tuple[int, int]:
        """The bytes a ledger of ``rows`` rows and ``lanes`` lanes holds over
        ``slots`` slots (a decision log, a float64 realized reward a lane, a
        float64 pseudo-regret and ``lane_nbytes`` a row), and the most a block
        of ``B`` steps adds: its int64 steps; the realized rewards, float64 a
        step and lane, beside a rate and its index a step and row, and numpy's
        buffers for the uint8 outcomes' cast, 16 bytes a lane-step up to
        ``np.getbufsize()`` (no fewer than the regret's three float64
        temporaries a step and row and the picks' cast, as ``rows <=
        lanes``); a tally a row and pair; and if ``timed`` each row's picks
        and four tallies."""
        B, pair = min(_BLOCK, slots), np.min_scalar_type(pairs - 1).itemsize
        table = _Ledger.lane_nbytes(pairs, checkpoints, timed)
        held = slots * pair + 8 * lanes + rows * (8 + table)
        tallies = rows * (B * pair + 32 * pairs) if timed else 0
        rewards = 8 * B * (1 + lanes + 2 * rows) + 16 * min(B * lanes, np.getbufsize())
        return held, rewards + 8 * rows * pairs + tallies

    @staticmethod
    def lane_nbytes(pairs, checkpoints, timed) -> int:
        """Bytes of a lane of ``result()``: float64 regret a checkpoint and two rewards,
        int64 pulls a pair, and if ``timed`` int64 packets a pair and two float64 times."""
        return 8 * (checkpoints + 2 + (2 * pairs + 2 if timed else pairs))

    def account(self, n0, picks, wins, block: _Block) -> None:
        """Add one block: ``picks`` are the ``(B, rows)`` flat pairs played
        at steps ``[n0, n0 + B)``, ``wins`` their ``(B, S)`` outcomes and
        ``block`` the steps' ``_Block``."""
        run, P = self.run, self.run.r_flat.size
        B, steps = len(picks), np.arange(len(picks))
        self.realized = _running(wins * run.r_flat.take(picks), self.realized)[-1].copy()
        mu = block.mu.take(picks + P * steps[:, None])  # cheaper than mu[steps, picks]
        sums = _running(block.mu_star[:, None] - mu, self.pseudo)
        self.pseudo = sums[-1].copy()
        lo, hi = np.searchsorted(self.cps, (n0, n0 + B), side="right")
        self.traj[:, lo:hi] = sums[self.cps[lo:hi] - n0 - 1].T
        self.expected = _running(mu, self.expected)[-1].copy()
        self.pulls += _tally(picks, P)
        self.decisions[n0 : n0 + B] = picks[:, 0]
        if self.frozen is None or self.frozen.all():
            return
        # Airtime only grows, so a row that fits after the block fit at
        # every step; a row over the budget freezes at the first packet
        # that no longer fits, which happens once per row in a run.
        act = np.flatnonzero(~self.frozen)
        end = self.counts[act] + _tally(picks[:, act], P)
        over = _flat_sum(end, self.inv_r) > run.time_horizon
        self.counts[act[~over]] = end[~over]
        for row in act[over]:
            one_hot = np.zeros((B, P), dtype=np.int64)
            one_hot[steps, picks[:, row]] = 1
            after = self.counts[row] + np.cumsum(one_hot, axis=0)
            first = np.argmax(_flat_sum(after, self.inv_r) > run.time_horizon)
            self.counts[row] = after[first] - one_hot[first]
            self.frozen[row] = True

    def result(self, spec: PolicySpec) -> PolicyRunResult:
        """``spec``'s result.  A ledger that two baselines share hands the
        second its own copies, so no two results share an array."""
        run, S = self.run, len(self.realized)

        def lanes(x):
            return x if len(x) == S else np.repeat(x, S, axis=0)

        arrays = {
            "trajectories": lanes(self.traj),
            "pulls": lanes(self.pulls),
            "expected_reward": lanes(self.expected),
            "realized_reward": self.realized,
            "decisions": self.decisions,
        }
        if run.time_horizon is not None:
            counts = lanes(self.counts)
            arrays["packet_counts"] = counts
            arrays["time_used"] = _flat_sum(counts, self.inv_r)
            arrays["time_regret"] = run.time_benchmark - _flat_sum(counts, run.th_flat)
        if self.handed_out:
            arrays = {name: x.copy() for name, x in arrays.items()}
        self.handed_out = True
        return PolicyRunResult(spec=spec, label=spec.label, checkpoints=run.checkpoints, **arrays)


@dataclass(frozen=True)
class PolicyAccounting:
    """Sandwich and budget verdicts for one policy."""

    label: str
    mean_slot_low: float
    mean_time: float
    mean_slot_high: float
    tol_low: float
    tol_high: float
    lower_ok: bool
    upper_ok: bool
    budget_ok: bool
    max_time_used: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.budget_ok

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "mean_slot_regret_low": self.mean_slot_low,
            "mean_time_regret": self.mean_time,
            "mean_slot_regret_high": self.mean_slot_high,
            "tolerance_low": self.tol_low,
            "tolerance_high": self.tol_high,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "budget_ok": self.budget_ok,
            "max_time_used": self.max_time_used,
        }


@dataclass(frozen=True)
class AccountingReport:
    time_horizon: float
    slot_low: int
    slot_high: int
    entries: tuple[PolicyAccounting, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "time_horizon": self.time_horizon,
            "slot_low": self.slot_low,
            "slot_high": self.slot_high,
            "ok": self.ok,
            "policies": [e.to_json_dict() for e in self.entries],
        }


def _se(x: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    return float(x.std(ddof=1) / math.sqrt(len(x)))


def accounting_check(result: ExperimentResult) -> AccountingReport:
    """Verify the slot/time regret sandwich and the exact budget invariant.

    The mean time-system regret must sit between the mean slot-system
    regrets at ``floor(T * r_min)`` and ``ceil(T * r_max)`` slots, up to
    three combined standard errors; and every lane's packet ledger must fit
    the budget, its airtime summed as the run sums it (``_flat_sum``).
    """
    if result.time_horizon is None:
        raise ValueError("accounting_check needs a run with time accounting enabled")
    rates = result.config.rates
    t_budget = result.time_horizon
    slot_low = max(1, int(math.floor(t_budget * rates.values[0])))
    slot_high = int(math.ceil(t_budget * rates.values[-1]))
    inv_r = 1.0 / np.tile(rates.as_array(), result.config.channels)
    entries = []
    for pol in result.policies:
        if pol.time_regret is None:
            continue
        r_lo = pol.regret_at(slot_low)
        r_hi = pol.regret_at(slot_high)
        r_time = pol.time_regret
        tol_low = 3.0 * math.hypot(_se(r_lo), _se(r_time))
        tol_high = 3.0 * math.hypot(_se(r_hi), _se(r_time))
        time_used = _flat_sum(pol.packet_counts, inv_r)
        entries.append(
            PolicyAccounting(
                label=pol.label,
                mean_slot_low=float(r_lo.mean()),
                mean_time=float(r_time.mean()),
                mean_slot_high=float(r_hi.mean()),
                tol_low=tol_low,
                tol_high=tol_high,
                lower_ok=bool(r_lo.mean() <= r_time.mean() + tol_low),
                upper_ok=bool(r_time.mean() <= r_hi.mean() + tol_high),
                budget_ok=bool(np.all(time_used <= t_budget)),
                max_time_used=float(time_used.max()),
            )
        )
    return AccountingReport(
        time_horizon=t_budget, slot_low=slot_low, slot_high=slot_high, entries=tuple(entries)
    )


def _float_texts(values: np.ndarray) -> bytes:
    """``",".join(map(repr, values.tolist()))`` as bytes, for a non-empty
    1-D float array, with each distinct value formatted once.  Values are
    told apart by their bits, so -0.0 keeps its own text beside 0.0.  A
    lane-constant array (one bit pattern) is one text repeated; otherwise
    the distinct bits come from a sort, and each value's text from a binary
    search among them."""
    bits = values.view(np.int64)
    if bits.min() == bits.max():
        text = repr(float(values[0])).encode()
        return text + (b"," + text) * (len(values) - 1)
    ordered = np.sort(bits)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    texts = np.array([repr(v).encode() for v in distinct.view(np.float64).tolist()], dtype=object)
    return b",".join(texts[np.searchsorted(distinct, bits)].tolist())


def _write_ints(fh, item: bytes, values: tuple, skip: int = 0) -> None:
    """Write ``item % v`` for each int ``v`` of ``values`` to the binary file
    ``fh``, less the first ``skip`` bytes: one bytes %-format per tile of
    ``_LANE_TILE`` values."""
    for a in range(0, len(values), _LANE_TILE):
        part = values[a : a + _LANE_TILE]
        text = item * len(part) % part
        fh.write(text[skip:] if a == 0 else text)


def _write_regret(fh, policies, checkpoints: tuple[int, ...], seeds: tuple) -> None:
    """Write regret.csv to the binary file ``fh``: the header, then one row
    per policy (by label) and checkpoint.  The seed names and each row's
    per-seed values go out ``_LANE_TILE`` lanes at a time, so the text held
    at once is one tile's, not one row's.  Each row's mean and stddev are
    reduced over the whole table, as ``PolicyRunResult`` reports them."""
    fh.write(b"checkpoint,policy,mean,stddev")
    _write_ints(fh, b",seed_%d", seeds)
    fh.write(b"\n")
    for pol in sorted(policies, key=lambda p: p.label):
        means = pol.mean_regret.tolist()
        stds = pol.stddev_regret.tolist()
        for i, cp in enumerate(checkpoints):
            fh.write(f"{cp},{pol.label},{means[i]!r},{stds[i]!r}".encode())
            column = pol.trajectories[:, i]
            for a in range(0, len(seeds), _LANE_TILE):
                fh.write(b",")
                fh.write(_float_texts(column[a : a + _LANE_TILE]))
            fh.write(b"\n")


def _words(texts: list[str], words: int, right: bool = False) -> np.ndarray:
    """Each text NUL-padded to ``words`` uint32 words (on the left when
    ``right``), as a ``(len(texts), words)`` array of its bytes."""
    pad = str.rjust if right else str.ljust
    data = "".join(pad(t, 4 * words, "\0") for t in texts).encode()
    return np.frombuffer(data, dtype=np.uint32).reshape(len(texts), words)


def _write_decisions(
    fh, logs: list[tuple[str, np.ndarray]], best_flats: np.ndarray, channels: int, n_rates: int
) -> None:
    """Write the rows ``step,label,c,k,best_c,best_k`` of each ``(label,
    decisions)`` log to the binary file ``fh``, steps counting from 0.

    A chunk of ``_EMIT_ROWS`` rows is laid out in one ``(rows, W)`` uint32
    matrix, each field NUL-padded to whole words: the step's digits above
    its last four (one text per chunk), its last four digits (from a table
    of 0..9999 made by ``divmod`` by 10, leading zeros as NUL), ``,label,``,
    then the decision's ``c,k,`` and the best pair's ``c,k\\n`` (from tables
    of the flat pairs).  The matrix's bytes without their NULs are the
    chunk's rows, as no field holds a NUL byte: labels are policy kinds with
    ``-w<int>``/``-strict``, the rest is digits, commas and a newline.
    """
    slots = len(best_flats)
    if slots == 0:
        return
    steps = np.arange(min(slots, 10_000))
    full = np.empty((len(steps), 4), dtype=np.uint8)  # "0007"
    q = steps
    for col in (3, 2, 1, 0):
        q, r = np.divmod(q, 10)
        full[:, col] = r + ord("0")
    lead = full.copy()  # leading zeros as NUL: the text of a step below 10^4
    for col in (0, 1, 2):
        lead[steps < 10 ** (3 - col), col] = 0
    full, lead = full.view(np.uint32).reshape(-1), lead.view(np.uint32).reshape(-1)
    pairs = [f"{c},{k}" for c in range(1, channels + 1) for k in range(1, n_rates + 1)]
    pw = -(-(max(map(len, pairs)) + 1) // 4)  # words per pair field
    dec_words = _words([p + "," for p in pairs], pw)
    best_words = _words([p + "\n" for p in pairs], pw)
    hw = -(-max(len(str(slots - 1)) - 4, 0) // 4)  # words of digits above the last four
    for label, decisions in logs:
        head = _words([f",{label},"], -(-(len(label) + 2) // 4))
        a = hw + 1 + head.shape[1]  # the decision's field starts here
        m = np.empty((min(_EMIT_ROWS, slots), a + 2 * pw), dtype=np.uint32)
        m[:, hw + 1 : a] = head
        for n0 in range(0, slots, _EMIT_ROWS):
            n1 = min(n0 + _EMIT_ROWS, slots)
            rows = m[: n1 - n0]
            high, r0 = divmod(n0, 10_000)
            rows[:, :hw] = _words([str(high) if high else ""], hw, right=True)
            rows[:, hw] = (full if high else lead)[r0 : r0 + n1 - n0]
            rows[:, a : a + pw] = np.take(dec_words, decisions[n0:n1], axis=0)
            rows[:, a + pw :] = np.take(best_words, best_flats[n0:n1], axis=0)
            text = rows.view(np.uint8).reshape(-1)
            fh.write(text[text != 0])


def emit_outputs(result: ExperimentResult, out_dir: str | Path | None = None) -> dict[str, Path]:
    """Write regret.csv, decisions.csv, summary.json and, when the source
    is stationary, bounds.json.  Returns the paths keyed by artifact name.

    regret.csv: one row per (policy, checkpoint), columns ``checkpoint,
    policy, mean, stddev, seed_<id>...`` with per-seed trajectory values,
    written as bytes a lane tile at a time by :func:`_write_regret`.
    decisions.csv: lane-0 decision log, ``step, policy, channel,
    rate_index, best_channel, best_rate_index``, one row per policy and
    slot.  It is encoded as bytes, ``_EMIT_ROWS`` rows at a time, by
    :func:`_write_decisions`.  summary.json's seed list is written into its
    text a lane tile at a time.  So emission holds no text as long as the
    horizon or the seed list, beyond the decision logs themselves; its
    largest temporary is the stddev's copy of one policy's regret table.
    """
    out = Path(out_dir if out_dir is not None else result.config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    config = result.config
    K = config.n_rates

    regret_path = out / "regret.csv"
    with regret_path.open("wb") as fh:
        _write_regret(fh, result.policies, result.checkpoints, config.seeds)
    paths["regret"] = regret_path

    dec_path = out / "decisions.csv"
    with dec_path.open("wb") as fh:
        fh.write(b"step,policy,channel,rate_index,best_channel,best_rate_index\n")
        _write_decisions(
            fh,
            [(pol.label, pol.decisions) for pol in sorted(result.policies, key=lambda p: p.label)],
            result.best_flats,
            config.channels,
            K,
        )
    paths["decisions"] = dec_path

    # Efficiencies are fractions of the oracle's reward: null when it is 0.
    undefined = result.oracle_reward == 0.0
    summary: dict = {
        # The seed list is written into the text afterwards, as json.dumps
        # encodes a list one token at a time.  Quoted, this key and value
        # match nowhere else: a quote inside a string value is escaped.
        "config": {**config.to_json_dict(), "seeds": "seeds"},
        "slots": result.slots,
        "checkpoints": list(result.checkpoints),
        "oracle": {"expected_reward": result.oracle_reward, "efficiency": None if undefined else 1.0},
        "static": {
            "pair": [result.static_pair.channel, result.static_pair.rate_index],
            "expected_reward": result.static_reward,
            "efficiency": None if undefined else result.static_reward / result.oracle_reward,
        },
        "policies": {},
    }
    if result.time_horizon is not None:
        summary["time_horizon"] = result.time_horizon
        summary["accounting"] = accounting_check(result).to_json_dict()
    for pol in result.policies:
        eff = result.efficiency(pol.label)
        entry = {
            "final_regret_mean": float(pol.final_regret.mean()),
            "final_regret_stddev": float(np.std(pol.final_regret, ddof=1))
            if len(pol.final_regret) > 1
            else 0.0,
            "efficiency_mean": None if eff is None else float(eff.mean()),
            "expected_reward_mean": float(pol.expected_reward.mean()),
            "realized_reward_mean": float(pol.realized_reward.mean()),
        }
        if pol.time_regret is not None:
            entry["time_regret_mean"] = float(pol.time_regret.mean())
            entry["max_time_used"] = float(pol.time_used.max())
        summary["policies"][pol.label] = entry
    # One dumps: json.dump writes each token on its own.  The seed list goes
    # between the text's two halves, laid out as json.dumps lays out a list.
    sum_path = out / "summary.json"
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    head, tail = text.split('"seeds": "seeds"')
    with sum_path.open("wb") as fh:
        fh.write(head.encode() + b'"seeds": [')
        _write_ints(fh, b",\n      %d", config.seeds, skip=1)
        fh.write(b"\n    ]" + tail.encode() + b"\n")
    paths["summary"] = sum_path

    model = config.model()
    if model is not None:
        bounds_path = out / "bounds.json"
        report = compute_bound_report(model).to_json_dict()
        bounds_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        paths["bounds"] = bounds_path
    return paths
