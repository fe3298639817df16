"""Reward environments: stationary, trace-driven, and synthetic drift.

Environments are seedless probability schedules.  The outcomes drawn over
one honor *common random numbers*: the Bernoulli outcome of playing pair
``(c, k)`` at step ``n`` under seed ``s`` is a pure function of
``(s, n, c, k)``.  Two policies evaluated on the same
seed therefore see identical outcomes wherever their decisions coincide,
and a scalar replay of a batched run reproduces it bit for bit.

Purity is achieved by deriving outcomes from a virtual uniform tape: step
``n`` reads cell ``(c, k)`` of a ``(chunk, C, K)`` uniform block generated
by ``default_rng(SeedSequence([tag, seed, n // chunk]))`` and compares it
against the success probability in force at ``n``.  ``OutcomeTape``
reproduces that stream without one ``SeedSequence`` per seed: it hashes
the entropy of every seed at once (numpy's ``SeedSequence`` pool hash,
vectorized over seeds), seeds one ``PCG64`` per seed from the result, and
draws only the rows a block needs.  Nothing is cached; a block costs the
same whichever blocks came before it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import expit

from .model import LinkModel, RateSet, _json_int, _json_real

__all__ = [
    "DriftEnvironment",
    "Environment",
    "OutcomeTape",
    "StationaryEnvironment",
    "SyntheticDriftSpec",
    "TraceEnvironment",
    "TraceTable",
    "accelerate",
    "drift_to_trace",
]

# Steps per uniform block.  Fixed forever: changing it changes every
# outcome stream, so it is part of the reproducibility contract.
_CHUNK = 512

# Domain tags keep outcome streams and drift paths statistically unrelated
# even when the user passes the same seed to both.
_OUTCOME_TAG = 0x9E3779B9
_DRIFT_TAG = 0x2545F491


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
# numpy's stream-compatibility policy keeps them, and the streams seeded
# from them, fixed.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _check_seeds(seeds) -> tuple[int, ...]:
    """``_check_seed`` on every seed, in bulk: one ``type`` pass and one
    ``min`` when all are plain ints, the per-seed check otherwise."""
    seeds = tuple(seeds)
    if set(map(type, seeds)) - {int} or (seeds and min(seeds) < 0):
        return tuple(map(_check_seed, seeds))
    return seeds


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n`` as ``SeedSequence`` splits an
    entropy integer (0 is one word)."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row.

    ``entropy`` is a ``(lanes, L)`` uint32 array, one entropy word list per
    row; the result is ``(lanes, 4)`` uint64.  Each step of numpy's pool
    hash is one uint32 array operation over all rows (uint32 arithmetic
    wraps, as the C code does); the hash constants do not depend on the
    data, so they stay Python ints.
    """
    lanes, L = entropy.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        out ^= out >> _XSHIFT
        return out

    zero = np.zeros(lanes, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < L else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, L):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # paired little-endian into uint64s.
    state = np.empty((lanes, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        state[:, i] = value
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _tagged(seed_words: np.ndarray) -> np.ndarray:
    """Outcome-stream entropy prefixes: ``_OUTCOME_TAG`` before each row."""
    tag = np.full((len(seed_words), 1), _OUTCOME_TAG, dtype=np.uint32)
    return np.hstack([tag, seed_words])


class _PresetState(ISeedSequence):
    """Hands ``PCG64`` a seed state computed by ``_seed_states``."""

    __slots__ = ("state",)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


class Environment:
    """Base class: a success-probability schedule.  It holds no seed;
    ``OutcomeTape`` draws the outcomes, one stream per seed it is given.

    Subclasses implement ``theta_at`` (effective success probabilities in
    force at a step) and ``theta_block`` (the same for a run of steps).
    """

    def __init__(self, rates: RateSet, channels: int, horizon: int | None):
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        self._rates = rates
        self._channels = int(channels)
        self._horizon = None if horizon is None else int(horizon)

    @property
    def rates(self) -> RateSet:
        return self._rates

    @property
    def channels(self) -> int:
        return self._channels

    @property
    def n_rates(self) -> int:
        return len(self._rates)

    @property
    def horizon(self) -> int | None:
        """Number of valid steps, or None when the schedule never ends."""
        return self._horizon

    def _check_step(self, step: int) -> int:
        step = int(step)
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        if self._horizon is not None and step >= self._horizon:
            raise ValueError(f"step {step} beyond horizon {self._horizon}")
        return step

    def theta_at(self, step: int) -> np.ndarray:
        """Effective success probabilities, shape (channels, n_rates)."""
        raise NotImplementedError

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        """Probabilities for steps [start, stop), shape (stop-start, C, K)."""
        raise NotImplementedError


class StationaryEnvironment(Environment):
    """Fixed success probabilities given by a link model."""

    def __init__(self, model: LinkModel):
        super().__init__(model.rates, model.channels, None)
        th = model.effective_theta().copy()
        th.setflags(write=False)
        self._theta = th

    def theta_at(self, step: int) -> np.ndarray:
        self._check_step(step)
        return self._theta

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        self._check_step(start)
        return np.broadcast_to(self._theta, (stop - start, *self._theta.shape))


@dataclass(frozen=True)
class TraceTable:
    """Piecewise-constant success-probability schedule.

    ``starts`` are strictly increasing segment start steps beginning at 0;
    ``tables[i]`` holds the full (channels, n_rates) probabilities in force
    from ``starts[i]`` until the next start.  ``horizon`` bounds the valid
    step range when set.

    The CSV form has columns ``start_step, channel, rate_index, theta``,
    one row per cell; rows sharing a start form a segment, and cells a
    segment leaves unspecified inherit the previous segment's values.  The
    first segment must therefore specify every cell.
    """

    starts: tuple[int, ...]
    tables: tuple[np.ndarray, ...]
    horizon: int | None = None

    def __post_init__(self):
        if not self.starts:
            raise ValueError("trace needs at least one segment")
        if self.starts[0] != 0:
            raise ValueError("first segment must start at step 0")
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if len(self.tables) != len(self.starts):
            raise ValueError("one probability table per segment required")
        shape = self.tables[0].shape
        for tab in self.tables:
            if tab.shape != shape or tab.ndim != 2:
                raise ValueError("all segment tables must share one (C, K) shape")
            if np.any(tab < 0.0) or np.any(tab > 1.0):
                raise ValueError("trace probabilities must lie in [0, 1]")
        if self.horizon is not None and self.horizon <= self.starts[-1]:
            raise ValueError("horizon must exceed the last segment start")
        for tab in self.tables:
            tab.setflags(write=False)

    @property
    def channels(self) -> int:
        return self.tables[0].shape[0]

    @property
    def n_rates(self) -> int:
        return self.tables[0].shape[1]

    def segment_index(self, step: int) -> int:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return bisect_right(self.starts, step) - 1

    def theta_at(self, step: int) -> np.ndarray:
        return self.tables[self.segment_index(step)]

    def to_csv(self, path: str | Path) -> None:
        """Write the sparse CSV form: full first segment, then changed cells."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["start_step", "channel", "rate_index", "theta"])
            prev = None
            for start, tab in zip(self.starts, self.tables):
                for c in range(self.channels):
                    for k in range(self.n_rates):
                        if prev is not None and tab[c, k] == prev[c, k]:
                            continue
                        w.writerow([start, c + 1, k + 1, repr(float(tab[c, k]))])
                prev = tab

    @classmethod
    def from_csv(cls, path: str | Path, horizon: int | None = None) -> "TraceTable":
        rows: list[tuple[int, int, int, float]] = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"start_step", "channel", "rate_index", "theta"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"trace CSV must have columns {sorted(required)}")
            for row in reader:
                rows.append(
                    (
                        int(row["start_step"]),
                        int(row["channel"]),
                        int(row["rate_index"]),
                        float(row["theta"]),
                    )
                )
        if not rows:
            raise ValueError("trace CSV has no data rows")
        channels = max(r[1] for r in rows)
        n_rates = max(r[2] for r in rows)
        if min(r[1] for r in rows) < 1 or min(r[2] for r in rows) < 1:
            raise ValueError("channel and rate_index are 1-based")
        starts = sorted({r[0] for r in rows})
        by_start: dict[int, list[tuple[int, int, float]]] = {s: [] for s in starts}
        for s, c, k, th in rows:
            by_start[s].append((c, k, th))
        tables: list[np.ndarray] = []
        current = np.full((channels, n_rates), np.nan)
        for s in starts:
            current = current.copy()
            for c, k, th in by_start[s]:
                current[c - 1, k - 1] = th
            if np.any(np.isnan(current)):
                missing = np.argwhere(np.isnan(current))[0]
                raise ValueError(
                    f"first segment leaves channel {missing[0] + 1}, "
                    f"rate {missing[1] + 1} unspecified"
                )
            tables.append(current)
        return cls(starts=tuple(starts), tables=tuple(tables), horizon=horizon)


class TraceEnvironment(Environment):
    """Replays a trace table; steps at or past the horizon are rejected."""

    def __init__(self, trace: TraceTable, rates: RateSet):
        if len(rates) != trace.n_rates:
            raise ValueError(
                f"rate count {len(rates)} does not match trace width {trace.n_rates}"
            )
        super().__init__(rates, trace.channels, trace.horizon)
        self._trace = trace
        self._starts = np.asarray(trace.starts, dtype=np.int64)
        self._tables = np.stack(trace.tables)

    def theta_at(self, step: int) -> np.ndarray:
        return self._trace.theta_at(self._check_step(step))

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        self._check_step(start)
        if stop > start:
            self._check_step(stop - 1)
        segments = np.searchsorted(self._starts, np.arange(start, stop), side="right") - 1
        return self._tables[segments]


def accelerate(trace: TraceTable, factor: int) -> TraceTable:
    """Compress a trace in time: starts and horizon divide by ``factor``.

    Segments whose starts collide after division are merged with the latest
    one winning, matching what a simulator skipping steps would observe.  A
    horizon that would shrink to zero is clamped to one step so the result
    stays a valid single-segment trace.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    merged: dict[int, np.ndarray] = {}
    for start, tab in zip(trace.starts, trace.tables):
        merged[start // factor] = tab
    starts = tuple(sorted(merged))
    horizon = trace.horizon
    if horizon is not None:
        horizon = max(1, horizon // factor)
        # Segments pushed past the compressed horizon never activate.
        for s in starts:
            if s >= horizon:
                del merged[s]
        starts = tuple(s for s in starts if s < horizon)
    return TraceTable(
        starts=starts,
        tables=tuple(merged[s] for s in starts),
        horizon=horizon,
    )


@dataclass(frozen=True)
class SyntheticDriftSpec:
    """Parameters for a smoothly drifting channel-quality process.

    Each channel carries a latent quality performing a reflected Gaussian
    random walk in ``[latent_lo, latent_hi]``; channel ``c`` starts at the
    ``(c - 1/2)/C`` quantile of the range so channels begin evenly spread.
    Success probabilities come from squashing the latent against a strictly
    increasing per-rate threshold ladder, which keeps every row of the
    probability table nonincreasing in the rate index at every step.  A
    ``step_std`` of zero freezes the walk, recovering a stationary model.
    """

    rates: RateSet
    channels: int
    horizon: int
    step_std: float
    softness: float = 0.08
    latent_lo: float = 0.0
    latent_hi: float = 1.0
    thresholds: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.step_std >= 0.0:  # NaN fails too
            raise ValueError("step_std must be >= 0")
        if not self.softness > 0.0:
            raise ValueError("softness must be > 0")
        if not self.latent_hi > self.latent_lo:
            raise ValueError("latent_hi must exceed latent_lo")
        _check_seed(self.seed)
        if self.thresholds is not None:
            if len(self.thresholds) != len(self.rates):
                raise ValueError("need one threshold per rate")
            if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
                raise ValueError("thresholds must be strictly increasing")

    def threshold_array(self) -> np.ndarray:
        if self.thresholds is not None:
            return np.asarray(self.thresholds, dtype=float)
        K = len(self.rates)
        span = self.latent_hi - self.latent_lo
        return self.latent_lo + span * (np.arange(1, K + 1) / (K + 1))

    def to_json_dict(self) -> dict:
        return {
            "rates": list(self.rates.as_array()),
            "channels": self.channels,
            "horizon": self.horizon,
            "step_std": self.step_std,
            "softness": self.softness,
            "latent_lo": self.latent_lo,
            "latent_hi": self.latent_hi,
            "thresholds": None if self.thresholds is None else list(self.thresholds),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SyntheticDriftSpec":
        if not isinstance(data, dict):
            raise ValueError(f"drift spec must be an object, got {data!r}")
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ValueError(f"unknown drift spec keys: {sorted(extra)}")
        missing = [k for k in ("rates", "channels", "horizon", "step_std") if k not in data]
        if missing:
            raise ValueError(f"drift spec missing keys: {missing}")
        kwargs = {
            k: (_json_int if k in ("channels", "horizon", "seed") else _json_real)(v, k)
            for k, v in data.items()
            if k not in ("rates", "thresholds")
        }
        kwargs["rates"] = RateSet.of(data["rates"])
        thresholds = data.get("thresholds")
        if thresholds is not None:
            if not isinstance(thresholds, (list, tuple)):
                raise ValueError(f"thresholds must be a list, got {thresholds!r}")
            kwargs["thresholds"] = tuple(_json_real(v, "each threshold") for v in thresholds)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticDriftSpec":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    return lo + np.where(y > span, 2.0 * span - y, y)


class DriftEnvironment(Environment):
    """Synthetic drift: latent walks precomputed at construction."""

    def __init__(self, spec: SyntheticDriftSpec):
        super().__init__(spec.rates, spec.channels, spec.horizon)
        self._softness = spec.softness
        span = spec.latent_hi - spec.latent_lo
        start = spec.latent_lo + span * (np.arange(spec.channels) + 0.5) / spec.channels
        if spec.step_std > 0.0:
            gen = np.random.default_rng(np.random.SeedSequence([_DRIFT_TAG, spec.seed]))
            steps = gen.normal(0.0, spec.step_std, size=(spec.horizon, spec.channels))
            steps[0] = 0.0
            raw = start[None, :] + np.cumsum(steps, axis=0)
            self._latent = _reflect(raw, spec.latent_lo, spec.latent_hi)
        else:
            self._latent = np.broadcast_to(start, (spec.horizon, spec.channels))
        self._thresholds = spec.threshold_array()

    def latent_at(self, step: int) -> np.ndarray:
        return self._latent[self._check_step(step)].copy()

    def theta_at(self, step: int) -> np.ndarray:
        step = self._check_step(step)
        z = self._latent[step][:, None] - self._thresholds[None, :]
        return expit(z / self._softness)

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        self._check_step(start)
        if stop > start:
            self._check_step(stop - 1)
        z = self._latent[start:stop, :, None] - self._thresholds[None, None, :]
        return expit(z / self._softness)


def drift_to_trace(spec: SyntheticDriftSpec, sample_every: int = 1) -> TraceTable:
    """Freeze a drift process into a piecewise-constant trace.

    Probabilities are sampled every ``sample_every`` steps and held until
    the next sample, so ``sample_every=1`` reproduces the process exactly.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    env = DriftEnvironment(spec)
    starts = tuple(range(0, spec.horizon, sample_every))
    tables = tuple(env.theta_at(s) for s in starts)
    return TraceTable(starts=starts, tables=tables, horizon=spec.horizon)


class OutcomeTape:
    """Materializes outcome blocks for many seeds over one environment.

    ``block(start, stop)`` returns a ``(seeds, stop-start, C, K)`` uint8
    array: entry ``[i, n - start, c, k]`` is 1 when cell ``(c, k)`` of the
    uniform chunk ``default_rng(SeedSequence([tag, seeds[i], n // chunk]))
    .random((chunk, C, K))``, at row ``n % chunk``, is below the success
    probability in force at ``n``.  Each lane depends on its own seed only,
    so batched runs and scalar replays agree bit for bit.
    """

    def __init__(self, env: Environment, seeds: tuple[int, ...] | list[int]):
        seeds = _check_seeds(seeds)
        if not seeds:
            raise ValueError("at least one seed required")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        self._env = env
        self._seeds = seeds
        # Lanes grouped by the word count of their seed, which sets the
        # entropy length: (lane indices, (lanes, 1 + words) uint32 entropy
        # prefix [tag, *words(seed)]).
        if max(seeds) <= _MASK32:
            words = np.array(seeds, dtype=np.uint32)[:, None]
            self._groups = [(range(len(seeds)), _tagged(words))]
        else:
            by_len: dict[int, list[int]] = {}
            for lane, seed in enumerate(seeds):
                by_len.setdefault(len(_words(seed)), []).append(lane)
            self._groups = [
                (lanes, _tagged(np.array([_words(seeds[i]) for i in lanes], dtype=np.uint32)))
                for lanes in by_len.values()
            ]

    @property
    def seeds(self) -> tuple[int, ...]:
        return self._seeds

    def block(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            raise ValueError("stop must exceed start")
        th = np.ascontiguousarray(self._env.theta_block(start, stop))
        C, K = self._env.channels, self._env.n_rates
        out = np.empty((len(self._seeds), stop - start, C, K), dtype=np.uint8)
        b_lo, b_hi = start // _CHUNK, (stop - 1) // _CHUNK
        # A double takes one uint64 draw, so rows [0, hi) of a chunk are
        # the first hi * C * K draws of its stream: generate only those.
        buf = np.empty((min(_CHUNK, stop - b_lo * _CHUNK), C, K))
        preset = _PresetState()
        for b in range(b_lo, b_hi + 1):
            lo = max(start, b * _CHUNK) - b * _CHUNK
            hi = min(stop, (b + 1) * _CHUNK) - b * _CHUNK
            pos = b * _CHUNK + lo - start
            rows, seg = buf[:hi], buf[lo:hi]
            th_seg = th[pos : pos + hi - lo]
            block_words = np.array(_words(b), dtype=np.uint32)
            for lanes, prefix in self._groups:
                suffix = np.broadcast_to(block_words, (len(lanes), block_words.size))
                for lane, state in zip(lanes, _seed_states(np.hstack([prefix, suffix]))):
                    preset.state = state
                    np.random.Generator(np.random.PCG64(preset)).random(out=rows)
                    np.less(seg, th_seg, out=out[lane, pos : pos + hi - lo])
        return out
