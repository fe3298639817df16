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
vectorized over seeds) and draws only the rows a block needs, one of two
ways chosen per chunk from its draws per lane (rows times cells).  A short
chunk, of at most ``_EMULATE_MAX_DRAWS`` draws, steps numpy's PCG64 for
every lane at once in uint64 array arithmetic; a longer one seeds one
numpy ``PCG64`` per seed, whose C loop draws faster once set up.  A third
way, ``OutcomeTape.cells``, computes one cell a step and nothing else: it
jumps PCG64 straight to the draw of that cell, for every lane at once.  The
harness uses it when a run holds only the baselines, whose picks are known
before the run; a learning policy's reads depend on its picks slot by
slot, so a run with one draws whole blocks.  All three give numpy's bits.
Nothing is cached; a block costs the same whichever blocks came before it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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

# Segments (to_csv) or sampled rows (drift_to_trace) handled per array
# operation: enough to spread the per-call cost, few enough that the
# temporaries (a stacked copy, _expit's list of floats) stay small.
_ROWS = 512

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

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), as its
# high 64-bit word and the two 32-bit limbs of its low word.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_PCG_MULT_L0 = np.uint64(_PCG_MULT & _MASK32)
_PCG_MULT_L1 = np.uint64(_PCG_MULT >> 32 & _MASK32)

# Lanes OutcomeTape.block steps together through _pcg64_random, so that a
# tile's ten work arrays (73 bytes a lane, 600 KB here) stay in cache.  At
# 50,000 lanes x 28 draws, median of 15 on a 2-core x86-64 host: 2,048-lane
# tiles 0.071 s, 4,096 0.056 s, 8,192 0.045 s, 16,384 0.043 s, untiled
# 0.048 s.
_PCG_TILE = 8192

# Lane-steps (lanes x rows of a chunk) OutcomeTape.cells computes in one
# pass, so that its work arrays stay small however many lanes there are.
_CELL_TILE = 16384

# Draws per lane (hi * C * K for rows [0, hi) of a chunk) up to which
# OutcomeTape.block steps PCG64 for all lanes at once in numpy, about 37 ns
# per lane-draw, rather than running numpy's C generator once per lane,
# about 8 us per lane to set up and 2 ns per draw.  A block of 50,000 lanes
# (2x2 cells, same host) took, emulated against per-lane generators, 0.34
# against 0.40 s at 224 draws per lane, 0.47 against 0.47 s at 256, 0.50
# against 0.50 s at 320 and 0.96 against 0.54 s at 512.
_EMULATE_MAX_DRAWS = 256

# Bytes of Python objects per drift_to_trace segment besides its table's
# data: an array header (the table is a view of the trace's probabilities),
# the start step and two tuple slots; about 176 under tracemalloc on
# 64-bit CPython 3.11, so 300 is an upper bound.
_SEGMENT_OBJECT_BYTES = 300

# The largest double whose exp is finite; math.exp raises above it, where
# the C library's exp returns inf.
_EXP_MAX = math.log(sys.float_info.max)


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


def _pcg64_random(states: np.ndarray, skip: int, count: int):
    """Draws ``skip`` to ``skip + count - 1`` of numpy's
    ``Generator(PCG64(...)).random()`` for every lane, seeded from the
    ``(lanes, 4)`` uint64 states ``_seed_states`` gives.

    Yields one ``(lanes,)`` float64 array per draw, the same buffer each
    time, so use each before asking for the next.  PCG64 (O'Neill, PCG,
    HMC-CS-2014-0905) is the 128-bit LCG ``state = state * M + inc`` (mod
    2**128) whose output is the XOR of the state's two 64-bit words rotated
    right by its top six bits; numpy seeds it with ``inc = (s2:s3) << 1 | 1``
    and ``state = (inc + (s0:s1)) * M + inc``, and a double is
    ``(output >> 11) * 2**-53``.  Here the state is a high and a low uint64
    array over the lanes, stepped by in-place ufuncs (uint64 arithmetic
    wraps mod 2**64); the high word of the low words' 64x64-bit product is
    built from 32-bit limbs.
    """
    hi, lo = states[:, 0].copy(), states[:, 1].copy()
    inc_hi = states[:, 2] << 1 | states[:, 3] >> 63
    inc_lo = states[:, 3] << 1 | 1
    t, u, v, w = (np.empty_like(lo) for _ in range(4))
    carry = np.empty(lo.shape, dtype=bool)
    draw = np.empty(lo.shape)
    # state = inc + initstate; then numpy's seeding step, the skipped draws'
    # steps, and one step per draw.
    lo += inc_lo
    np.less(lo, inc_lo, out=carry)
    hi += inc_hi
    hi += carry
    for i in range(1 + skip + count):
        # v = high word of lo * MULT_LO: with lo = lo1:lo0 and MULT_LO =
        # m1:m0, lo1*m1 + (lo1*m0 + (lo0*m0 >> 32)) >> 32 + the carry out
        # of the middle column; no partial sum overflows 64 bits.
        np.bitwise_and(lo, _MASK32, out=t)
        np.multiply(t, _PCG_MULT_L1, out=w)
        t *= _PCG_MULT_L0
        t >>= 32
        np.right_shift(lo, 32, out=u)
        np.multiply(u, _PCG_MULT_L1, out=v)
        u *= _PCG_MULT_L0
        u += t
        np.bitwise_and(u, _MASK32, out=t)
        t += w
        t >>= 32
        u >>= 32
        v += u
        v += t
        # (hi:lo) * M + inc = (v + lo*MULT_HI + hi*MULT_LO + inc_hi + carry)
        #                     : (lo*MULT_LO + inc_lo)
        np.multiply(lo, _PCG_MULT_HI, out=t)
        v += t
        hi *= _PCG_MULT_LO
        hi += v
        lo *= _PCG_MULT_LO
        lo += inc_lo
        np.less(lo, inc_lo, out=carry)
        hi += inc_hi
        hi += carry
        if i > skip:
            # XSL-RR: (hi ^ lo) rotated right by hi >> 58
            np.bitwise_xor(hi, lo, out=t)
            np.right_shift(hi, 58, out=u)
            np.right_shift(t, u, out=v)
            np.subtract(64, u, out=u)
            u &= 63
            t <<= u
            t |= v
            t >>= 11
            np.multiply(t, 2.0**-53, out=draw)
            yield draw


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``(a_hi:a_lo) * (b_hi:b_lo)`` mod 2**128 as a ``(hi, lo)`` pair of
    uint64 arrays, broadcasting.  The high word of ``a_lo * b_lo`` is built
    from 32-bit limbs; no partial sum overflows 64 bits."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = ((mid & _MASK32) + a0 * b1) >> 32
    hi = a1 * b1 + (mid >> 32) + carry + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _jump_tables(P: int) -> tuple[np.ndarray, np.ndarray]:
    """The jump constants of draw ``d = r * P + j`` of a chunk of ``P``
    cells a row, where PCG64's state is ``M**(d+2) * s + A(d+3) * inc``
    with ``A(k) = M**0 + ... + M**(k-1)`` (see ``OutcomeTape.cells``).

    Returns a ``(4, _CHUNK)`` uint64 table of ``M**(r*P)`` and ``A(r*P)``
    for each row ``r`` and a ``(4, P)`` one of ``M**(j+2)`` and ``A(j+3)``
    for each cell ``j``, each constant as its high and low words; a draw's
    constants are ``M**(r*P) * M**(j+2)`` and ``A(r*P) + M**(r*P) * A(j+3)``.
    """
    mask = (1 << 128) - 1
    powers, sums = [1], [0]
    for _ in range(P + 2):
        sums.append(sums[-1] + powers[-1] & mask)
        powers.append(powers[-1] * _PCG_MULT & mask)
    rows, m, a = [], 1, 0
    for _ in range(_CHUNK):
        rows.append((m, a))
        m, a = m * powers[P] & mask, a + m * sums[P] & mask
    cells = [(powers[j + 2], sums[j + 3]) for j in range(P)]

    def words(pairs):  # (n, 2) constants -> (4, n) high and low words
        flat = [w for pair in pairs for v in pair for w in (v >> 64, v & 2**64 - 1)]
        return np.array(flat, dtype=np.uint64).reshape(-1, 4).T

    return words(rows), words(cells)


def _pcg64_at(states: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """Doubles of numpy's ``Generator(PCG64(...)).random()`` for every lane
    and step, seeded from the ``(lanes, 4)`` uint64 states ``_seed_states``
    gives, at the draws whose jump constants ``jump`` holds: a ``(4,
    steps)`` uint64 array of ``G`` and ``H`` as high and low words, where
    the state is ``G * s + H * inc`` (mod 2**128).  Returns ``(lanes,
    steps)``; output and seeding as in ``_pcg64_random``.
    """
    s_hi, s_lo, w2, w3 = (states[:, i, None] for i in range(4))
    hi, lo = _mul128(jump[0], jump[1], s_hi, s_lo)
    inc_hi, inc_lo = _mul128(jump[2], jump[3], w2 << 1 | w3 >> 63, w3 << 1 | 1)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    # XSL-RR: (hi ^ lo) rotated right by hi >> 58
    xor, rot = hi ^ lo, hi >> 58
    out = xor >> rot | xor << (64 - rot & 63)
    return (out >> 11) * 2.0**-53


def _lane_tiles(lanes, size: int):
    """Split a seed group's lanes into tiles of ``size``: yields each tile's
    slice of the group and its lanes in the tape, as a slice when the group
    is a ``range`` (one group), so that writing them is not a fancy index."""
    for a in range(0, len(lanes), size):
        dst = lanes[a : a + size]
        if isinstance(dst, range):
            dst = slice(dst.start, dst.stop)
        yield slice(a, a + size), dst


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
    step range when set.  The probabilities are held once, as the read-only
    ``(segments, channels, n_rates)`` float array ``probabilities``; the
    ``tables`` given (a sequence of tables, or that array itself) are
    stacked into it, and ``tables`` becomes the tuple of its rows.

    The CSV form has columns ``start_step, channel, rate_index, theta``,
    one row per cell; rows sharing a start form a segment, and cells a
    segment leaves unspecified inherit the previous segment's values.  The
    first segment must therefore specify every cell.
    """

    starts: tuple[int, ...]
    tables: tuple[np.ndarray, ...]
    horizon: int | None = None
    probabilities: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.starts:
            raise ValueError("trace needs at least one segment")
        if self.starts[0] != 0:
            raise ValueError("first segment must start at step 0")
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if len(self.tables) != len(self.starts):
            raise ValueError("one probability table per segment required")
        shape = np.shape(self.tables[0])
        if len(shape) != 2 or any(np.shape(tab) != shape for tab in self.tables):
            raise ValueError("all segment tables must share one (C, K) shape")
        tables = np.asarray(self.tables, dtype=float)
        bad = ~((tables >= 0.0) & (tables <= 1.0))  # NaN is bad too
        if bad.any():
            i, c, k = np.argwhere(bad)[0]
            raise ValueError(
                f"trace probabilities must lie in [0, 1]: segment {i + 1} (from step "
                f"{self.starts[i]}) has {float(tables[i, c, k])!r} at channel {c + 1}, "
                f"rate {k + 1}"
            )
        if self.horizon is not None and self.horizon <= self.starts[-1]:
            raise ValueError("horizon must exceed the last segment start")
        tables.setflags(write=False)
        object.__setattr__(self, "probabilities", tables)
        object.__setattr__(self, "tables", tuple(tables))

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
        """Write the sparse CSV form: full first segment, then changed cells.

        Each segment is compared with the one before it, ``_ROWS`` segments
        at a time; a NaN table before the first makes every cell of the
        first segment count as changed.  Rows end in CRLF, as ``csv``
        writes them, and a probability is written as its ``repr``.
        """
        C, K = self.channels, self.n_rates
        cell_text = np.array([f"{c + 1},{k + 1}," for c in range(C) for k in range(K)], object)
        with open(path, "w", newline="") as fh:
            fh.write("start_step,channel,rate_index,theta\r\n")
            prev = np.full((1, C * K), np.nan)
            for a in range(0, len(self.tables), _ROWS):
                tabs = np.concatenate([prev, self.probabilities[a : a + _ROWS].reshape(-1, C * K)])
                seg, cell = np.nonzero(tabs[1:] != tabs[:-1])
                start_text = np.array([f"{s}," for s in self.starts[a : a + _ROWS]], dtype=object)
                theta_text = np.array(list(map(repr, tabs[seg + 1, cell].tolist())), dtype=object)
                fh.write("".join((start_text[seg] + cell_text[cell] + theta_text + "\r\n").tolist()))
                prev = tabs[-1:]

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
        unset = np.ones((channels, n_rates), dtype=bool)
        for c, k, _ in by_start[starts[0]]:
            unset[c - 1, k - 1] = False
        if unset.any():
            c, k = np.argwhere(unset)[0]
            raise ValueError(f"first segment leaves channel {c + 1}, rate {k + 1} unspecified")
        tables: list[np.ndarray] = []
        current = np.empty((channels, n_rates))
        for s in starts:
            current = current.copy()
            for c, k, th in by_start[s]:
                current[c - 1, k - 1] = th
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

    def theta_at(self, step: int) -> np.ndarray:
        return self._trace.theta_at(self._check_step(step))

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        self._check_step(start)
        if stop > start:
            self._check_step(stop - 1)
        segments = np.searchsorted(self._starts, np.arange(start, stop), side="right") - 1
        return self._trace.probabilities[segments]


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

    def nbytes(self, sample_every: int | None = None) -> int:
        """Estimated bytes this process holds in memory: its latent path
        (``horizon x channels`` float64, unless ``step_std`` is 0) and, when
        ``sample_every`` is given, the tables ``drift_to_trace`` builds."""
        need = 8 * self.horizon * self.channels if self.step_std > 0.0 else 0
        if sample_every is not None:
            if sample_every < 1:
                raise ValueError("sample_every must be >= 1")
            segments = -(-self.horizon // sample_every)
            need += segments * (8 * self.channels * len(self.rates) + _SEGMENT_OBJECT_BYTES)
        return need

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


def _expit(z: np.ndarray) -> np.ndarray:
    """``scipy.special.expit``, 1 / (1 + exp(-z)), elementwise.

    ``math.exp`` calls the C library's exp, as scipy does, so every result
    has the same bits; numpy's ``np.exp`` is a different implementation and
    differs in the last bit on some inputs.  Where exp(-z) overflows, the
    result is exactly 0, as in scipy.
    """
    nz = np.negative(z).ravel()
    e = np.fromiter(map(math.exp, np.minimum(nz, _EXP_MAX).tolist()), float, nz.size)
    e[nz > _EXP_MAX] = math.inf
    e += 1.0
    np.divide(1.0, e, out=e)
    return e.reshape(z.shape)


class DriftEnvironment(Environment):
    """Synthetic drift: latent walks precomputed at construction.

    The success probability of rate ``k`` on channel ``c`` at step ``n`` is
    the logistic function of ``(latent[n, c] - threshold[k]) / softness``,
    computed through the C library's exp (see ``_expit``) so that it has the
    bits of ``scipy.special.expit`` without importing scipy.
    """

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
        return _expit(z / self._softness)

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        self._check_step(start)
        if stop > start:
            self._check_step(stop - 1)
        z = self._latent[start:stop, :, None] - self._thresholds[None, None, :]
        return _expit(z / self._softness)


def drift_to_trace(spec: SyntheticDriftSpec, sample_every: int = 1) -> TraceTable:
    """Freeze a drift process into a piecewise-constant trace.

    Probabilities are sampled every ``sample_every`` steps and held until
    the next sample, so ``sample_every=1`` reproduces the process exactly.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    env = DriftEnvironment(spec)
    latent = env._latent[::sample_every]
    tables = np.empty((len(latent), spec.channels, len(spec.rates)))
    for a in range(0, len(latent), _ROWS):
        z = latent[a : a + _ROWS, :, None] - env._thresholds
        tables[a : a + _ROWS] = _expit(z / env._softness)
    starts = tuple(range(0, spec.horizon, sample_every))
    return TraceTable(starts=starts, tables=tables, horizon=spec.horizon)


class OutcomeTape:
    """Materializes outcome blocks for many seeds over one environment.

    ``block(start, stop)`` returns a ``(seeds, stop-start, C, K)`` uint8
    array: entry ``[i, n - start, c, k]`` is 1 when cell ``(c, k)`` of the
    uniform chunk ``default_rng(SeedSequence([tag, seeds[i], n // chunk]))
    .random((chunk, C, K))``, at row ``n % chunk``, is below the success
    probability in force at ``n``.  Each lane depends on its own seed only,
    so batched runs and scalar replays agree bit for bit.

    A chunk whose rows ``[0, hi)`` hold at most ``_EMULATE_MAX_DRAWS``
    draws per lane (``hi * C * K``), as in many seeds over a few steps, is
    drawn by ``_pcg64_random`` for ``_PCG_TILE`` lanes at a time; a longer
    one by numpy's generator, one lane at a time.  The choice depends on
    the chunk, never on the lanes, and both paths give the same bits.

    ``cells(start, stop, flats)`` reads one cell a step of the same
    outcomes, ``block(start, stop)`` at step ``n``'s cell ``flats[n -
    start]``, without drawing the rest: each lane's state at that cell's
    draw comes from a closed form, ``_CELL_TILE`` lane-steps at a time.  It
    costs two 128-bit products a lane-step, however many cells a row has.
    """

    def __init__(self, env: Environment, seeds: tuple[int, ...] | list[int]):
        seeds = _check_seeds(seeds)
        if not seeds:
            raise ValueError("at least one seed required")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        self._env = env
        self._seeds = seeds
        self._jumps = None  # _jump_tables, built by the first cells call
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
                (
                    np.array(lanes),
                    _tagged(np.array([_words(seeds[i]) for i in lanes], dtype=np.uint32)),
                )
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
            for lanes, states in self._chunk_states(b):
                if hi * C * K > _EMULATE_MAX_DRAWS:
                    for lane, state in zip(lanes, states):
                        preset.state = state
                        np.random.Generator(np.random.PCG64(preset)).random(out=rows)
                        np.less(seg, th_seg, out=out[lane, pos : pos + hi - lo])
                    continue
                # Short chunk: step every lane's PCG64 at once, a tile of
                # lanes at a time, and compare each draw as it comes.
                th_draws = th_seg.reshape(-1)
                tile = np.empty((min(_PCG_TILE, len(lanes)), th_draws.size), dtype=np.uint8)
                for src, dst in _lane_tiles(lanes, _PCG_TILE):
                    tile_states = states[src]
                    part = tile[: len(tile_states)]
                    draws = _pcg64_random(tile_states, lo * C * K, th_draws.size)
                    for j, u in enumerate(draws):
                        np.less(u, th_draws[j], out=part[:, j])
                    out[dst, pos : pos + hi - lo] = part.reshape(-1, hi - lo, C, K)
        return out

    def cells(self, start: int, stop: int, flats) -> np.ndarray:
        """Outcomes of one cell a step: a ``(seeds, stop-start)`` uint8 array
        whose entry ``[i, n - start]`` equals ``block(start, stop)[i, n -
        start]`` at flat cell ``flats[n - start]`` (``c * K + k``).

        Each outcome is computed alone, without the draws before it.  PCG64
        is an LCG, so the state it outputs at draw ``d`` has a closed form
        (Brown, Random Number Generation with Arbitrary Strides, 1994):
        ``M**(d+2) * s + A(d+3) * inc`` (mod 2**128), where numpy starts
        from ``x0 = s + inc`` (see ``_pcg64_random``) and ``A(k) = M**0 +
        ... + M**(k-1)``.  The cell at row ``r`` of a chunk is draw ``d = r
        * C * K + c * K + k``.
        """
        flats = np.asarray(flats)
        B, P = stop - start, self._env.channels * self._env.n_rates
        if B <= 0:
            raise ValueError("stop must exceed start")
        if flats.shape != (B,):
            raise ValueError(f"need one flat cell a step, {B}, got shape {flats.shape}")
        if flats.min() < 0 or flats.max() >= P:
            raise ValueError(f"flat cells must lie in [0, {P})")
        th = self._env.theta_block(start, stop).reshape(B, P)[np.arange(B), flats]
        if self._jumps is None:
            self._jumps = _jump_tables(P)
        rows, cells = self._jumps
        rows = rows[:, np.arange(start, stop) % _CHUNK]
        cells = cells[:, flats]
        # Step n's constants, at row r and cell j: G = M**(r*P) * M**(j+2)
        # and H = A(r*P) + M**(r*P) * A(j+3).
        g = _mul128(rows[0], rows[1], cells[0], cells[1])
        h_hi, h_lo = _mul128(rows[0], rows[1], cells[2], cells[3])
        h_lo += rows[3]
        h_hi += rows[2]
        h_hi += h_lo < rows[3]
        jump = np.array([*g, h_hi, h_lo])
        out = np.empty((len(self._seeds), B), dtype=np.uint8)
        for b in range(start // _CHUNK, (stop - 1) // _CHUNK + 1):
            seg = slice(max(start, b * _CHUNK) - start, min(stop, (b + 1) * _CHUNK) - start)
            tile = max(1, _CELL_TILE // (seg.stop - seg.start))
            for lanes, states in self._chunk_states(b):
                for src, dst in _lane_tiles(lanes, tile):
                    out[dst, seg] = _pcg64_at(states[src], jump[:, seg]) < th[seg]
        return out

    def _chunk_states(self, b: int):
        """Yield ``(lanes, states)`` for each seed group: the group's lane
        indices and the ``_seed_states`` of their streams for chunk ``b``."""
        block_words = np.array(_words(b), dtype=np.uint32)
        for lanes, prefix in self._groups:
            suffix = np.broadcast_to(block_words, (len(lanes), block_words.size))
            yield lanes, _seed_states(np.hstack([prefix, suffix]))
