"""Experiment harness: batched simulation, dual accounting, file outputs.

A run evaluates each configured policy on the same environment under common
random numbers (one replication lane per seed, all lanes advanced in lock
step).  The learning policies step together in one pass over the schedule
and share one confidence-bound solver call per slot; the oracle and static
baselines follow in a second pass.  Regret is tracked two ways:

* slot accounting: every transmission costs one slot; the pseudo-regret
  trajectory ``sum(mu_star(n) - mu_chosen(n))`` is sampled at checkpoints.
* time accounting: a packet at rate ``r`` occupies ``1/r`` time units and a
  run has a fixed time budget; a lane's packet ledger freezes at the first
  packet that no longer fits.  The reported time-system regret compares the
  expected throughput of always playing the best pair against the expected
  throughput of the packets actually sent.

Both views come from a single simulation: lanes share one decision sequence
(identical histories imply identical decisions), so the time system is just
extra bookkeeping on the slot system.  The budget test uses one canonical
reduction, ``counts @ (1 / rates) <= budget``, applied identically during
the run and in any later audit, making the budget invariant exact.

Outputs are byte-deterministic: no timestamps, sorted JSON keys, floats
rendered with ``repr`` (shortest round-trip form).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import compute_bound_report
from .environments import (
    DriftEnvironment,
    Environment,
    OutcomeTape,
    StationaryEnvironment,
    SyntheticDriftSpec,
    TraceEnvironment,
    TraceTable,
)
from .model import (
    DecisionPair,
    LinkModel,
    RateSet,
    _json_array,
    _json_int,
    compute_optima,
    flat_to_pair,
    load_theta_csv,
    pair_to_flat,
)
from .policies import POLICY_KINDS, build_policy, check_policy_kind, select_all

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


def _json_ints(values, what: str) -> list[int] | tuple[int, ...]:
    """A list of integral numbers as ints, checked as by ``_json_int``, so a
    non-integral entry is rejected rather than truncated."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {values!r}")
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
            raise ValueError(f"policy entry must be an object, got {data!r}")
        extra = set(data) - {"kind", "window", "strict"}
        if extra:
            raise ValueError(f"unknown policy keys: {sorted(extra)}")
        if "kind" not in data:
            raise ValueError("policy entry needs a 'kind'")
        if not isinstance(data["kind"], str):
            raise ValueError(f"policy kind must be a string, got {data['kind']!r}")
        window = data.get("window")
        strict = data.get("strict", False)
        if not isinstance(strict, bool):
            raise ValueError(f"strict must be true or false, got {strict!r}")
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
            raise ValueError(f"duplicate policy labels: {labels}")
        if self.horizon < self.channels * len(self.rates):
            raise ValueError(
                f"horizon {self.horizon} below the pair count "
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
                f"accounting must be alternative, original or both, got {self.accounting!r}"
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
            return StationaryEnvironment(self.model())
        if self.trace is not None:
            return TraceEnvironment(self.trace, self.rates)
        return DriftEnvironment(self.drift)

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
                "starts": list(self.trace.starts),
                "horizon": self.trace.horizon,
                "tables": [
                    [[float(v) for v in row] for row in tab] for tab in self.trace.tables
                ],
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
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        for key in ("rates", "policies", "horizon", "seeds"):
            if key not in data:
                raise ValueError(f"config missing required key {key!r}")
        horizon = _json_int(data["horizon"], "horizon")
        base = Path(base_dir) if base_dir is not None else Path(".")

        def resolve(key: str) -> Path:
            if not isinstance(data[key], str):
                raise ValueError(f"{key} must be a path, got {data[key]!r}")
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
                raise ValueError(f"synth must be an object, got {data['synth']!r}")
            drift = SyntheticDriftSpec.from_json_dict(
                {"rates": data["rates"], "horizon": horizon, **data["synth"]}
            )
        if not isinstance(data["policies"], (list, tuple)):
            raise ValueError(f"policies must be a list, got {data['policies']!r}")
        seeds = data["seeds"]
        if isinstance(seeds, (list, tuple)):
            seeds = _json_ints(seeds, "seeds")
        else:
            seeds = list(range(1, _json_int(seeds, "seeds") + 1))
        occupancy = data.get("occupancy")
        out_dir = data.get("out_dir", "results")
        if not isinstance(out_dir, str):
            raise ValueError(f"out_dir must be a path, got {out_dir!r}")
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
        with path.open() as fh:
            data = json.load(fh)
        return cls.from_json_dict(data, base_dir=path.parent)

    def with_seeds(self, n: int) -> "ExperimentConfig":
        """Replace the seed list with 1..n (CLI --seeds override)."""
        if n < 1:
            raise ValueError("need at least one seed")
        return dataclasses.replace(self, seeds=tuple(range(1, n + 1)))


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
        raise ValueError(
            f"{what} need about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _check_memory(config: ExperimentConfig, slots: int) -> None:
    """Reject a run whose horizon-length arrays cannot fit in physical memory.

    Counts the per-step best pair, one int64 decision log per policy, each
    windowed policy's rings (per lane an int64 pair ring and an int8
    outcome ring, and for kl-ucb-u an int64 leader ring) and, for a
    synthetic drift source, its latent path.
    """
    need = 8 * slots * (1 + len(config.policies))
    need += len(config.seeds) * sum(
        p.window * (17 if p.kind == "kl-ucb-u" else 9) for p in config.policies if p.window
    )
    if config.drift is not None:
        need += config.drift.nbytes()
    _require_memory(need, f"the per-slot and window arrays of {slots} slots")


@dataclass(frozen=True)
class _Schedule:
    """What every pass of one run shares: the environment and its outcome
    tape, the slot and checkpoint grids, and the time ledger's constants
    (``None`` under slot accounting)."""

    env: Environment
    tape: OutcomeTape
    slots: int
    checkpoints: tuple[int, ...]
    r_flat: np.ndarray
    time_horizon: float | None
    th_flat: np.ndarray | None
    time_benchmark: float | None

    @property
    def inv_r(self) -> np.ndarray:
        return 1.0 / self.r_flat

    def blocks(self, outcomes: bool = True):
        """Yield ``(n0, n1, mu_b, mu_star_b, outs)`` block by block: the
        throughputs ``(B, P)`` of steps ``[n0, n1)``, their row maxima, and
        the outcomes ``(S, B, P)`` (None unless ``outcomes``)."""
        S, P = len(self.tape.seeds), self.r_flat.size
        outs = None
        for n0 in range(0, self.slots, _BLOCK):
            n1 = min(n0 + _BLOCK, self.slots)
            mu_b = self.env.theta_block(n0, n1).reshape(n1 - n0, P) * self.r_flat
            if outcomes:
                outs = self.tape.block(n0, n1).reshape(S, n1 - n0, P)
            yield n0, n1, mu_b, mu_b.max(axis=1), outs

    def result(
        self, spec: PolicySpec, traj, pulls, expected, realized, decisions, s_counts
    ) -> PolicyRunResult:
        kwargs = {}
        if self.time_horizon is not None:
            kwargs = {
                "packet_counts": s_counts,
                "time_used": s_counts @ self.inv_r,
                "time_regret": self.time_benchmark - s_counts @ self.th_flat,
            }
        return PolicyRunResult(
            spec=spec,
            label=spec.label,
            checkpoints=self.checkpoints,
            trajectories=traj,
            pulls=pulls,
            expected_reward=expected,
            realized_reward=realized,
            decisions=decisions,
            **kwargs,
        )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    slots, time_horizon = _resolve_slots(config)
    _check_memory(config, slots)
    env = config.build_environment()
    C, K = config.channels, config.n_rates
    r_flat = np.tile(config.rates.as_array(), C)
    tape = OutcomeTape(env, config.seeds)

    th_flat = time_benchmark = None
    if time_horizon is not None:
        model = config.model()
        opt = compute_optima(model)
        th_flat = model.effective_theta().reshape(-1)
        best_pair_flat = pair_to_flat(opt.best, K)
        time_benchmark = th_flat[best_pair_flat] * math.floor(
            config.rates.rate(opt.best.rate_index) * time_horizon
        )

    run = _Schedule(
        env=env,
        tape=tape,
        slots=slots,
        checkpoints=_checkpoint_grid(config, slots, time_horizon),
        r_flat=r_flat,
        time_horizon=time_horizon,
        th_flat=th_flat,
        time_benchmark=time_benchmark,
    )
    learners = [spec for spec in config.policies if not spec.is_baseline]
    oracle_reward, mu_totals, best_flats, learned = _run_learning(run, learners, config)
    static_flat = int(np.argmax(mu_totals))
    static_reward = float(mu_totals[static_flat])
    baselines = [spec for spec in config.policies if spec.is_baseline]
    results = dict(zip((spec.label for spec in learners), learned))
    results.update(
        zip(
            (spec.label for spec in baselines),
            _run_baselines(run, baselines, best_flats, static_flat),
        )
    )

    return ExperimentResult(
        config=config,
        slots=slots,
        time_horizon=time_horizon,
        checkpoints=run.checkpoints,
        policies=tuple(results[spec.label] for spec in config.policies),
        oracle_reward=oracle_reward,
        static_reward=static_reward,
        static_flat=static_flat,
        best_flats=best_flats,
    )


def _run_learning(run: _Schedule, specs: list[PolicySpec], config: ExperimentConfig):
    """One pass over the schedule that steps every learning policy in lock
    step, one slot at a time, with one solver call per slot for all their
    confidence bounds.  The same pass totals the schedule for the baselines.

    Returns the oracle's expected reward, each pair's expected reward, the
    best pair of every step and one result per spec.
    """
    S, P = len(run.tape.seeds), run.r_flat.size
    r_flat, inv_r, time_horizon = run.r_flat, run.inv_r, run.time_horizon
    policies = [
        build_policy(
            spec.kind, config.rates, config.channels, window=spec.window, batch=S, strict=spec.strict
        )
        for spec in specs
    ]
    ledgers = [_LearnerLedger(S, P, run.slots, len(run.checkpoints), time_horizon) for _ in specs]
    lanes = np.arange(S)
    cp_col = {cp: i for i, cp in enumerate(run.checkpoints)}
    oracle_reward = 0.0
    mu_totals = np.zeros(P)
    best_flats = np.empty(run.slots, dtype=np.int64)

    for n0, n1, mu_b, mu_star_b, outs in run.blocks(outcomes=bool(policies)):
        oracle_reward += float(mu_star_b.sum())
        mu_totals += mu_b.sum(axis=0)
        best_flats[n0:n1] = np.argmax(mu_b, axis=1)
        if not policies:
            continue
        for i in range(n1 - n0):
            n = n0 + i
            mu_n = mu_b[i]
            col = cp_col.get(n + 1)
            for policy, flats, led in zip(policies, select_all(policies), ledgers):
                o = outs[lanes, i, flats]
                policy._record(flats, o)
                led.pseudo += mu_star_b[i] - mu_n[flats]
                led.expected += mu_n[flats]
                led.realized += o * r_flat[flats]
                led.pulls[lanes, flats] += 1
                led.decisions[n] = flats[0]
                if time_horizon is not None and not led.frozen.all():
                    frozen, s_counts = led.frozen, led.s_counts
                    act = np.flatnonzero(~frozen)
                    fl = flats[act]
                    s_counts[act, fl] += 1
                    over = s_counts[act] @ inv_r > time_horizon
                    if over.any():
                        s_counts[act[over], fl[over]] -= 1
                        frozen[act[over]] = True
                if col is not None:
                    led.traj[:, col] = led.pseudo

    learned = [
        run.result(
            spec, led.traj, led.pulls, led.expected, led.realized, led.decisions, led.s_counts
        )
        for spec, led in zip(specs, ledgers)
    ]
    return oracle_reward, mu_totals, best_flats, learned


class _LearnerLedger:
    """Running per-lane totals of one learning policy."""

    def __init__(
        self, lanes: int, pairs: int, slots: int, checkpoints: int, time_horizon: float | None
    ):
        self.pseudo = np.zeros(lanes)
        self.expected = np.zeros(lanes)
        self.realized = np.zeros(lanes)
        self.pulls = np.zeros((lanes, pairs), dtype=np.int64)
        self.traj = np.empty((lanes, checkpoints))
        self.decisions = np.empty(slots, dtype=np.int64)
        self.s_counts = self.frozen = None
        if time_horizon is not None:
            self.s_counts = np.zeros((lanes, pairs), dtype=np.int64)
            self.frozen = np.zeros(lanes, dtype=bool)


def _run_baselines(
    run: _Schedule, specs: list[PolicySpec], best_flats: np.ndarray, static_flat: int
) -> list[PolicyRunResult]:
    """The oracle and static baselines, a block at a time.

    Their decisions are known in advance (``best_flats`` and ``static_flat``)
    and are the same on every lane, so each block takes a few array
    operations on one shared theta and tape block.  Every running sum is a
    ``cumsum`` with the running value placed first, which adds in the same
    order as stepping slot by slot and so gives the same bits.
    """
    if not specs:
        return []
    S, P = len(run.tape.seeds), run.r_flat.size
    cps = np.asarray(run.checkpoints)
    ledgers = [_BaselineLedger(S, P, run.slots, len(cps)) for _ in specs]
    for n0, n1, mu_b, mu_star_b, outs in run.blocks():
        steps = np.arange(n1 - n0)
        lo, hi = np.searchsorted(cps, (n0, n1), side="right")
        for spec, led in zip(specs, ledgers):
            flats = best_flats[n0:n1] if spec.kind == "oracle" else np.full(n1 - n0, static_flat)
            mu = mu_b[steps, flats]
            pseudo = np.cumsum(np.concatenate(([led.pseudo], mu_star_b - mu)))
            led.pseudo = pseudo[-1]
            led.traj[:, lo:hi] = pseudo[cps[lo:hi] - n0]
            led.expected = np.cumsum(np.concatenate(([led.expected], mu)))[-1]
            # Each lane's running value joins its first gain, which is the
            # first addition the slot-by-slot sum makes; in place, so the
            # block holds one (S, B) float array.
            gains = outs[:, steps, flats] * run.r_flat[flats]
            gains[:, 0] += led.realized
            led.realized = np.cumsum(gains, axis=1, out=gains)[:, -1].copy()
            led.pulls += np.bincount(flats, minlength=P)
            led.decisions[n0:n1] = flats
            if run.time_horizon is not None and not led.frozen:
                # Packet counts after each step of the block; the first row
                # over the budget is the packet that no longer fits.  Under
                # time accounting the source is stationary, so a baseline
                # plays one pair throughout: each row has one nonzero count
                # and the canonical reduction is exact in any summation order.
                one_hot = np.zeros((n1 - n0, P), dtype=np.int64)
                one_hot[steps, flats] = 1
                counts = led.counts + np.cumsum(one_hot, axis=0)
                over = np.flatnonzero(counts @ run.inv_r > run.time_horizon)
                if over.size:
                    led.frozen = True
                    led.counts = counts[over[0]] - one_hot[over[0]]
                else:
                    led.counts = counts[-1]

    return [
        run.result(
            spec,
            led.traj,
            np.tile(led.pulls, (S, 1)),
            np.full(S, led.expected),
            led.realized,
            led.decisions,
            np.tile(led.counts, (S, 1)),
        )
        for spec, led in zip(specs, ledgers)
    ]


class _BaselineLedger:
    """Running totals of one baseline.  Every lane makes the same decisions,
    so only the realized reward is kept per lane."""

    def __init__(self, lanes: int, pairs: int, slots: int, checkpoints: int):
        self.pseudo = 0.0
        self.expected = 0.0
        self.realized = np.zeros(lanes)
        self.pulls = np.zeros(pairs, dtype=np.int64)
        self.counts = np.zeros(pairs, dtype=np.int64)
        self.frozen = False
        self.traj = np.empty((lanes, checkpoints))
        self.decisions = np.empty(slots, dtype=np.int64)


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


def accounting_check(result: ExperimentResult, rates: RateSet | None = None) -> AccountingReport:
    """Verify the slot/time regret sandwich and the exact budget invariant.

    The mean time-system regret must sit between the mean slot-system
    regrets at ``floor(T * r_min)`` and ``ceil(T * r_max)`` slots, up to
    three combined standard errors; and every lane's packet ledger must
    satisfy ``counts @ (1 / rates) <= T`` under the canonical reduction.
    """
    if result.time_horizon is None:
        raise ValueError("accounting_check needs a run with time accounting enabled")
    rates = result.config.rates if rates is None else rates
    if rates.values != result.config.rates.values:
        raise ValueError("rates disagree with the experiment's rate set")
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
        time_used = pol.packet_counts @ inv_r
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


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_outputs(result: ExperimentResult, out_dir: str | Path | None = None) -> dict[str, Path]:
    """Write regret.csv, decisions.csv, summary.json and, when the source
    is stationary, bounds.json.  Returns the paths keyed by artifact name.

    regret.csv: one row per (policy, checkpoint), columns ``checkpoint,
    policy, mean, stddev, seed_<id>...`` with per-seed trajectory values.
    decisions.csv: lane-0 decision log, ``step, policy, channel,
    rate_index, best_channel, best_rate_index``.
    """
    out = Path(out_dir if out_dir is not None else result.config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    config = result.config
    K = config.n_rates

    regret_path = out / "regret.csv"
    with regret_path.open("w", newline="") as fh:
        header = ["checkpoint", "policy", "mean", "stddev"]
        header += [f"seed_{s}" for s in config.seeds]
        fh.write(",".join(header) + "\n")
        for pol in sorted(result.policies, key=lambda p: p.label):
            means = pol.mean_regret
            stds = pol.stddev_regret
            for i, cp in enumerate(result.checkpoints):
                row = [str(cp), pol.label, _fmt(means[i]), _fmt(stds[i])]
                row += [_fmt(v) for v in pol.trajectories[:, i]]
                fh.write(",".join(row) + "\n")
    paths["regret"] = regret_path

    dec_path = out / "decisions.csv"
    # "channel,rate_index" text of each flat pair index, built once.
    pair_text = ["{},{}".format(*flat_to_pair(j, K)) for j in range(config.channels * K)]
    with dec_path.open("w", newline="") as fh:
        fh.write("step,policy,channel,rate_index,best_channel,best_rate_index\n")
        for pol in sorted(result.policies, key=lambda p: p.label):
            for n0 in range(0, result.slots, _BLOCK):
                n1 = min(n0 + _BLOCK, result.slots)
                rows = zip(
                    range(n0, n1),
                    pol.decisions[n0:n1].tolist(),
                    result.best_flats[n0:n1].tolist(),
                )
                fh.write(
                    "".join(
                        f"{n},{pol.label},{pair_text[d]},{pair_text[b]}\n" for n, d, b in rows
                    )
                )
    paths["decisions"] = dec_path

    # Efficiencies are fractions of the oracle's reward: null when it is 0.
    undefined = result.oracle_reward == 0.0
    summary: dict = {
        "config": config.to_json_dict(),
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
            entry["max_time_used"] = float((pol.packet_counts @ (1.0 / np.tile(config.rates.as_array(), config.channels))).max())
        summary["policies"][pol.label] = entry
    sum_path = out / "summary.json"
    with sum_path.open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    paths["summary"] = sum_path

    model = config.model()
    if model is not None:
        bounds_path = out / "bounds.json"
        with bounds_path.open("w") as fh:
            json.dump(compute_bound_report(model).to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["bounds"] = bounds_path
    return paths
