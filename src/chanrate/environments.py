"""Reward environments: trace-driven and synthetic drift.

Environments are seedless probability schedules, each an ``Environment``.
A trace (``TraceTable``) is its own schedule, piecewise constant and held
as two read-only arrays, its segment starts and its ``(segments, C, K)``
tables; a stationary table runs as a trace of one segment with no horizon.
The outcomes drawn over one honor *common random numbers*: the Bernoulli
outcome of playing pair ``(c, k)`` at step ``n`` under seed ``s`` is a
pure function of ``(s, n, c, k)``.  Two policies evaluated on the same
seed therefore see identical outcomes wherever their decisions coincide,
and a scalar replay of a batched run reproduces it bit for bit.

Purity is achieved by deriving outcomes from a virtual uniform tape: step
``n`` reads cell ``(c, k)`` of a ``(chunk, C, K)`` uniform block generated
by ``default_rng(SeedSequence([tag, seed, n // chunk]))`` and compares it
against the success probability in force at ``n``.  ``OutcomeTape``
reproduces that stream without one ``SeedSequence`` per seed: it hashes
the entropy of all seeds, whatever their size, at once (numpy's pool hash,
vectorized over seeds) and draws only the rows a block needs, one of two
ways chosen per chunk from its draws per lane (rows times cells).  A short
chunk, of at most ``_EMULATE_MAX_DRAWS`` draws, steps numpy's PCG64 for
every lane at once in uint64 array arithmetic; a longer one seeds one
numpy ``PCG64`` per seed, whose C loop draws faster once set up.  A third
way computes one cell a read and nothing else: it jumps PCG64 straight to
the draw of that cell, for every lane at once.  ``OutcomeTape.cells`` reads
so the baselines' cells, known before the run; ``OutcomeTape.reader``
reads so a learning policy's cells in a short chunk, one step at a time as
the policy picks them, where a row's cells are at least twice the reads,
and draws the block otherwise.  The ways in numpy step or jump the state
with one PCG64 kernel.  All give numpy's bits.  A tape keeps two bounded
caches, which change no bit: the seed states of a run of chunks, hashed in
one batch as the tape moves forward, and the jump constants of its last
``cells`` call, which the next one reuses when it draws the same cells at
the same rows; the jump tables they come from are built once per process.
A cell of probability 0 or 1 is never drawn by ``cells``: every draw lies
in [0, 1), so its outcome is known.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import RateSet, _csv_rows, _echo, _json_int, _json_real, _load_json, _parse

__all__ = [
    "DriftEnvironment",
    "Environment",
    "OutcomeTape",
    "SyntheticDriftSpec",
    "TraceTable",
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

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), and its
# high and low 64-bit words.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)

# Lane-steps (lanes x rows of a chunk) OutcomeTape.cells computes in one
# pass, so that its work arrays stay small however many lanes there are.
_CELL_TILE = 16384

# Lane-chunks of seed states (32 bytes each) an OutcomeTape hashes in one
# batch and keeps: 512 KB, or one chunk of a tape of more lanes.
_STATE_BATCH = 16384

# Draws per lane (hi * C * K for rows [0, hi) of a chunk) up to which
# OutcomeTape.block steps PCG64 for all lanes at once in numpy, about 37 ns
# per lane-draw, rather than running numpy's C generator once per lane,
# about 8 us per lane to set up and 2 ns per draw.  A block of 50,000 lanes
# (2x2 cells, same host) took, emulated against per-lane generators, 0.34
# against 0.40 s at 224 draws per lane, 0.47 against 0.47 s at 256, 0.50
# against 0.50 s at 320 and 0.96 against 0.54 s at 512.  OutcomeTape.reader
# jumps to a learner's cells in the same chunks, where stepping would run;
# this sweep timed stepping only, not jumping against the generator.
_EMULATE_MAX_DRAWS = 256

# The largest double whose exp is finite; math.exp raises above it, where
# the C library's exp returns inf.
_EXP_MAX = math.log(sys.float_info.max)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {_echo(seed)}")
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


def _padded(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Word lists as one uint32 array, each zero-padded to the longest, and
    their lengths."""
    lengths = np.array(list(map(len, rows)))
    out = np.zeros((len(rows), lengths.max()), dtype=np.uint32)
    for out_row, row in zip(out, rows):
        out_row[: len(row)] = row
    return out, lengths


def _seed_states(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(row[:length]).generate_state(4, np.uint64)`` per row.

    ``entropy`` is a ``(lanes, L)`` uint32 array, one entropy word list per
    row, zero-padded past the row's length in ``lengths``; the result is
    ``(lanes, 4)`` uint64.  numpy hashes
    a word missing from its 4-word pool as 0, so padding there needs no
    mask; a word past the pool is mixed in only where its row holds it.
    Each step of numpy's pool hash is one uint32 array operation over all
    rows (uint32 arithmetic wraps, as the C code does); the hash constants
    do not depend on the data, so they stay Python ints.
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
        held = lengths > i_src
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = np.where(held, mix(pool[i_dst], hashmix(entropy[:, i_src])), pool[i_dst])

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


def _mul128(a_hi, a_lo, b_hi, b_lo, out):
    """``(a_hi:a_lo) * (b_hi:b_lo)`` mod 2**128, broadcasting, into ``out``:
    five uint64 arrays of the result's shape, the high and low words and
    three of scratch.  Returns the first two.  They may be ``a_hi`` and
    ``a_lo`` themselves; ``b`` must not share memory with ``out``, and is
    best the smaller operand (a scalar, or a column), since its 32-bit limbs
    are new arrays.  The high word of ``a_lo * b_lo`` is built from 32-bit
    limbs; no partial sum overflows 64 bits."""
    hi, lo, t1, t2, t3 = out
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    np.multiply(a_hi, b_lo, out=t1)
    np.multiply(a_lo, b_hi, out=t2)
    np.add(t1, t2, out=t1)  # the cross products, high word only
    np.bitwise_and(a_lo, _MASK32, out=t2)  # a0
    np.right_shift(a_lo, 32, out=t3)  # a1
    np.multiply(t3, b1, out=hi)
    np.add(hi, t1, out=hi)
    np.multiply(t2, b0, out=t1)
    np.multiply(a_lo, b_lo, out=lo)
    np.right_shift(t1, 32, out=t1)
    np.multiply(t3, b0, out=t3)
    np.add(t3, t1, out=t3)  # mid = a1 * b0 + (a0 * b0 >> 32)
    np.multiply(t2, b1, out=t2)
    np.bitwise_and(t3, _MASK32, out=t1)
    np.add(t1, t2, out=t1)
    np.right_shift(t1, 32, out=t1)  # carry = ((mid & MASK32) + a0 * b1) >> 32
    np.add(hi, t1, out=hi)
    np.right_shift(t3, 32, out=t3)
    np.add(hi, t3, out=hi)
    return hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo, out):
    """``(a_hi:a_lo) + (b_hi:b_lo)`` mod 2**128 into ``out``, three uint64
    arrays: the high and low words, which may be ``a_hi`` and ``a_lo``, and
    one of scratch.  Returns the first two."""
    hi, lo, carry = out
    np.add(a_lo, b_lo, out=lo)
    np.less(lo, b_lo, out=carry)
    np.add(a_hi, b_hi, out=hi)
    np.add(hi, carry, out=hi)
    return hi, lo


def _pcg64_double(hi, lo, out):
    """numpy's double from PCG64 state ``(hi:lo)``: the XSL-RR output, the
    XOR of the two words rotated right by ``hi >> 58``, then ``>> 11`` and
    times ``2**-53``.  ``out`` is three uint64 scratch arrays; the doubles
    are written over the last, which is returned viewed as float64."""
    xor, rot, right = out
    np.bitwise_xor(hi, lo, out=xor)
    np.right_shift(hi, 58, out=rot)
    np.right_shift(xor, rot, out=right)
    np.subtract(64, rot, out=rot)
    np.bitwise_and(rot, 63, out=rot)
    np.left_shift(xor, rot, out=xor)
    np.bitwise_or(xor, right, out=xor)
    np.right_shift(xor, 11, out=xor)
    return np.multiply(xor, 2.0**-53, out=right.view(np.float64))


def _pcg64_random(states: np.ndarray, skip: int, count: int):
    """Draws ``skip`` to ``skip + count - 1`` of numpy's
    ``Generator(PCG64(...)).random()`` for every lane, seeded from the
    ``(lanes, 4)`` uint64 states ``_seed_states`` gives.

    Yields one ``(lanes,)`` float64 array per draw, the same buffer each
    time: a draw must be used before the next is asked for.  PCG64
    (O'Neill, PCG, HMC-CS-2014-0905) is the 128-bit LCG ``state = state * M
    + inc`` (mod 2**128) with XSL-RR output (``_pcg64_double``); numpy seeds
    it with ``inc = (s2:s3) << 1 | 1`` and ``state = (inc + (s0:s1)) * M +
    inc``.  Here the state is a high and a low uint64 array over the lanes
    (uint64 arithmetic wraps mod 2**64), stepped in place by ``_mul128`` and
    ``_add128``.
    """
    work = np.empty((7, len(states)), dtype=np.uint64)
    hi, lo, inc_hi, inc_lo = work[:4]
    np.left_shift(states[:, 2], 1, out=inc_hi)
    inc_hi |= states[:, 3] >> 63
    np.left_shift(states[:, 3], 1, out=inc_lo)
    inc_lo |= 1
    # state = inc + initstate; then numpy's seeding step, the skipped draws'
    # steps, and one step per draw.
    _add128(states[:, 0], states[:, 1], inc_hi, inc_lo, (hi, lo, work[4]))
    for i in range(1 + skip + count):
        _mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO, (hi, lo, *work[4:]))
        _add128(hi, lo, inc_hi, inc_lo, (hi, lo, work[4]))
        if i > skip:
            yield _pcg64_double(hi, lo, work[4:])


@functools.lru_cache(maxsize=16)
def _jump_tables(P: int) -> tuple[np.ndarray, np.ndarray]:
    """The jump constants of draw ``d = r * P + j`` of a chunk of ``P``
    cells a row, where PCG64's state is ``M**(d+2) * s + A(d+3) * inc``
    with ``A(k) = M**0 + ... + M**(k-1)`` (see ``OutcomeTape.cells``).

    Returns a ``(4, _CHUNK)`` uint64 table of ``M**(r*P)`` and ``A(r*P)``
    for each row ``r`` and a ``(4, P)`` one of ``M**(j+2)`` and ``A(j+3)``
    for each cell ``j``, each constant as its high and low words; a draw's
    constants are ``M**(r*P) * M**(j+2)`` and ``A(r*P) + M**(r*P) * A(j+3)``.
    Both are read-only and built once per process for each ``P``.
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
        out = np.array(flat, dtype=np.uint64).reshape(-1, 4).T
        out.flags.writeable = False
        return out

    return words(rows), words(cells)


def _jump_constants(rows: np.ndarray, flats: np.ndarray, P: int) -> np.ndarray:
    """The ``(4, steps)`` jump constants ``_pcg64_at`` takes for cells
    ``flats`` read at rows ``rows`` of their chunks, of ``P`` cells a row:
    at row ``r`` and cell ``j``, ``G = M**(r*P) * M**(j+2)`` and ``H =
    A(r*P) + M**(r*P) * A(j+3)``, each as its high and low words."""
    row_jumps, cell_jumps = _jump_tables(P)
    r, c = row_jumps[:, rows], cell_jumps[:, flats]
    work = np.empty((7, len(flats)), dtype=np.uint64)
    _mul128(r[0], r[1], c[0], c[1], work[:5])
    _mul128(r[0], r[1], c[2], c[3], work[2:])
    _add128(work[2], work[3], r[2], r[3], (work[2], work[3], work[4]))
    return work[:4]


def _pcg64_at(states: np.ndarray, jump: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Doubles of numpy's ``Generator(PCG64(...)).random()`` for every lane
    and step, seeded from the ``(lanes, 4)`` uint64 states ``_seed_states``
    gives, at the draws whose jump constants ``jump`` holds: a ``(4,
    steps)`` uint64 array of ``G`` and ``H`` as high and low words, where
    the state is ``G * s + H * inc`` (mod 2**128).  ``work`` is a ``(7,
    lanes, steps)`` uint64 scratch array; the ``(lanes, steps)`` result is a
    float64 view of one of its rows.  Output and seeding as in
    ``_pcg64_random``.
    """
    s_hi, s_lo, w2, w3 = (states[:, i, None] for i in range(4))
    g_hi, g_lo = _mul128(jump[0], jump[1], s_hi, s_lo, work[:5])
    h_hi, h_lo = _mul128(jump[2], jump[3], w2 << 1 | w3 >> 63, w3 << 1 | 1, work[2:])
    _add128(g_hi, g_lo, h_hi, h_lo, (g_hi, g_lo, work[4]))
    return _pcg64_double(g_hi, g_lo, work[2:5])


def _pcg64_picked(ops, jump, theta, at, work, out) -> None:
    """Outcomes at one row of a chunk, one cell a lane and read: ``out[i,
    lane]`` is 1 when the lane's draw at cell ``at[i, lane]`` is below that
    cell's probability in ``theta``.  ``ops`` holds each lane's ``s`` and
    ``inc`` (see ``_pcg64_random``) as four ``(lanes,)`` uint64 rows, high
    and low words; ``jump`` the row's ``(4, P)`` constants ``G`` and ``H``
    (``_jump_constants``), the state at a cell being ``G * s + H * inc``;
    ``at`` is ``(reads, lanes)`` intp, ``work`` a ``(7, reads, lanes)``
    uint64 scratch array and ``out`` ``(reads, lanes)`` uint8."""
    g_hi, g_lo, h_hi, h_lo = work[:4]
    np.take(jump, at, axis=1, out=work[:4], mode="clip")
    _mul128(g_hi, g_lo, ops[0], ops[1], (g_hi, g_lo, *work[4:]))
    _mul128(h_hi, h_lo, ops[2], ops[3], (h_hi, h_lo, *work[4:]))
    _add128(g_hi, g_lo, h_hi, h_lo, (g_hi, g_lo, work[4]))
    u = _pcg64_double(g_hi, g_lo, work[4:])
    np.less(u, np.take(theta, at, out=work[4].view(np.float64), mode="clip"), out=out)


class _PresetState(ISeedSequence):
    """Hands ``PCG64`` a seed state computed by ``_seed_states``."""

    __slots__ = ("state",)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


class Environment:
    """Base class: a success-probability schedule over ``channels`` x
    ``n_rates`` pairs, valid below ``horizon`` when set.  It holds no state,
    nor a seed (``OutcomeTape`` draws the outcomes, one stream per seed):
    ``TraceTable`` and ``DriftEnvironment`` set the three attributes and
    implement ``_theta_block``, which ``theta_block`` calls on valid steps."""

    channels: int
    n_rates: int
    horizon: int | None

    def theta_block(self, start: int, stop: int) -> np.ndarray:
        """Probabilities for steps [start, stop), shape (stop-start, C, K)."""
        for step in (int(start), max(int(start), int(stop) - 1)):
            if step < 0:
                raise ValueError(f"step must be >= 0, got {step}")
            if self.horizon is not None and step >= self.horizon:
                raise ValueError(f"step {step} beyond horizon {self.horizon}")
        return self._theta_block(start, stop)

    def _theta_block(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class TraceTable(Environment):
    """Piecewise-constant success-probability schedule.

    ``starts`` are strictly increasing segment start steps beginning at 0;
    ``tables[i]`` holds the full (channels, n_rates) probabilities in force
    from ``starts[i]`` until the next start, for one channel and one rate at
    least.  Steps at or past ``horizon``, when set, are rejected.  Each is
    held once, as a read-only array: ``starts`` of int64, ``tables`` of
    floats shaped ``(segments, channels, n_rates)``.  An array of the right
    type is taken as it is and made read-only; a sequence is stacked into a
    new one.

    The CSV form has columns ``start_step, channel, rate_index, theta``,
    one row per cell; rows sharing a start form a segment, and cells a
    segment leaves unspecified inherit the previous segment's values.  The
    first segment must therefore specify every cell.  A cell named twice in
    one segment takes the later row's value.
    """

    starts: np.ndarray
    tables: np.ndarray
    horizon: int | None = None

    def __post_init__(self):
        try:
            starts = np.asarray(self.starts, dtype=np.int64)
        except OverflowError:
            i, s = next((i, s) for i, s in enumerate(self.starts) if not -(2**63) <= s < 2**63)
            raise ValueError(f"segment {i + 1} starts at step {s}, beyond int64") from None
        if not len(starts):
            raise ValueError("trace needs at least one segment")
        if starts[0] != 0:
            raise ValueError("first segment must start at step 0")
        if np.any(starts[1:] <= starts[:-1]):
            raise ValueError("segment starts must be strictly increasing")
        if len(self.tables) != len(starts):
            raise ValueError("one probability table per segment required")
        if not isinstance(self.tables, np.ndarray) and len(set(map(np.shape, self.tables))) > 1:
            raise ValueError("all segment tables must share one (C, K) shape")
        tables = np.asarray(self.tables, dtype=float)
        if tables.ndim != 3 or 0 in tables.shape[1:]:
            raise ValueError("all segment tables must share one (C, K) shape, with C, K >= 1")
        bad = ~((tables >= 0.0) & (tables <= 1.0))  # NaN is bad too
        if bad.any():
            i, c, k = np.argwhere(bad)[0]
            raise ValueError(
                f"trace probabilities must lie in [0, 1]: segment {i + 1} (from step "
                f"{starts[i]}) has {float(tables[i, c, k])!r} at channel {c + 1}, "
                f"rate {k + 1}"
            )
        if self.horizon is not None and self.horizon <= starts[-1]:
            raise ValueError("horizon must exceed the last segment start")
        starts.setflags(write=False)
        tables.setflags(write=False)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "tables", tables)

    @property
    def channels(self) -> int:
        return self.tables.shape[1]

    @property
    def n_rates(self) -> int:
        return self.tables.shape[2]

    def _theta_block(self, start: int, stop: int) -> np.ndarray:
        """Steps inside one segment read a broadcast view of its table."""
        starts, tables = self.starts, self.tables
        i = bisect_right(starts, start) - 1
        if i + 1 == len(starts) or stop <= starts[i + 1]:
            return np.broadcast_to(tables[i], (stop - start, *tables.shape[1:]))
        return tables[np.searchsorted(starts, np.arange(start, stop), side="right") - 1]

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
            for a in range(0, len(self.starts), _ROWS):
                tabs = np.concatenate([prev, self.tables[a : a + _ROWS].reshape(-1, C * K)])
                seg, cell = np.nonzero(tabs[1:] != tabs[:-1])
                start_text = np.array([f"{s}," for s in self.starts[a : a + _ROWS].tolist()], object)
                theta_text = np.array(list(map(repr, tabs[seg + 1, cell].tolist())), dtype=object)
                fh.write("".join((start_text[seg] + cell_text[cell] + theta_text + "\r\n").tolist()))
                prev = tabs[-1:]

    @classmethod
    def from_csv(cls, path: str | Path, horizon: int | None = None) -> "TraceTable":
        rows: list[tuple[int, int, int, float]] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows_in = _csv_rows(reader, path)
            header = next(rows_in, [])
            required = ("start_step", "channel", "rate_index", "theta")
            if not set(required).issubset(header):
                raise ValueError(f"{path}: trace CSV must have columns {sorted(required)}")
            column = {name: i for i, name in enumerate(header)}
            for row in rows_in:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                line = reader.line_num
                s, c, k = (_parse(int, row[column[n]], n, path, line) for n in required[:3])
                rows.append((s, c, k, _parse(float, row[column["theta"]], "theta", path, line)))
        if not rows:
            raise ValueError(f"{path}: trace CSV has no data rows")
        channels = max(r[1] for r in rows)
        n_rates = max(r[2] for r in rows)
        if min(r[1] for r in rows) < 1 or min(r[2] for r in rows) < 1:
            raise ValueError(f"{path}: channel and rate_index are 1-based")
        starts = sorted({r[0] for r in rows})
        by_start: dict[int, list[tuple[int, int, float]]] = {s: [] for s in starts}
        for s, c, k, th in rows:
            by_start[s].append((c, k, th))
        # Every cell must be named, so a set of the named ones is enough to
        # find the first one missing: memory follows the file, not the indices.
        named = {(c, k) for c, k, _ in by_start[starts[0]]}
        if len(named) < channels * n_rates:
            cells = ((c, k) for c in range(1, channels + 1) for k in range(1, n_rates + 1))
            c, k = next(cell for cell in cells if cell not in named)
            raise ValueError(f"first segment leaves channel {c}, rate {k} unspecified")
        # Each segment starts as a copy of the one before, then takes its
        # rows in file order, so a later row for a cell wins.
        tables = np.empty((len(starts), channels, n_rates))
        for i, s in enumerate(starts):
            if i:
                tables[i] = tables[i - 1]
            for c, k, th in by_start[s]:
                tables[i, c - 1, k - 1] = th
        return cls(starts=starts, tables=tables, horizon=horizon)


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
        for name in ("step_std", "softness", "latent_lo", "latent_hi"):
            _check_finite(getattr(self, name), name)
        if not self.step_std >= 0.0:
            raise ValueError("step_std must be >= 0")
        if not self.softness > 0.0:
            raise ValueError("softness must be > 0")
        if not self.latent_hi > self.latent_lo:
            raise ValueError("latent_hi must exceed latent_lo")
        _check_seed(self.seed)
        if self.thresholds is not None:
            if len(self.thresholds) != len(self.rates):
                raise ValueError("need one threshold per rate")
            for value in self.thresholds:
                _check_finite(value, "each threshold")
            if not all(b > a for a, b in zip(self.thresholds, self.thresholds[1:])):
                raise ValueError("thresholds must be strictly increasing")

    def threshold_array(self) -> np.ndarray:
        if self.thresholds is not None:
            return np.asarray(self.thresholds, dtype=float)
        K = len(self.rates)
        span = self.latent_hi - self.latent_lo
        return self.latent_lo + span * (np.arange(1, K + 1) / (K + 1))

    def nbytes(self, sample_every: int | None = None) -> int:
        """Bytes this process holds in memory: its latent path (``horizon x
        channels`` float64, unless ``step_std`` is 0) and, when
        ``sample_every`` is given, the trace ``drift_to_trace`` builds, one
        int64 start and ``channels x n_rates`` float64 a segment."""
        need = 8 * self.horizon * self.channels if self.step_std > 0.0 else 0
        if sample_every is not None:
            if sample_every < 1:
                raise ValueError("sample_every must be >= 1")
            segments = -(-self.horizon // sample_every)
            need += 8 * segments * (1 + self.channels * len(self.rates))
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
            raise ValueError(f"drift spec must be an object, got {_echo(data)}")
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ValueError(f"unknown drift spec keys: {_echo(sorted(extra))}")
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
                raise ValueError(f"thresholds must be a list, got {_echo(thresholds)}")
            kwargs["thresholds"] = tuple(_json_real(v, "each threshold") for v in thresholds)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticDriftSpec":
        return cls.from_json_dict(_load_json(path))


def _check_finite(value, what: str) -> None:
    """Raise ValueError unless the real ``value`` is finite as a float."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond float range") from None
    if not finite:
        raise ValueError(f"{what} must be finite, got {value}")


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

    ``theta_block`` returns a read-only array and hands the last one back
    when asked for the same steps again, as a tile's outcome tape does right
    after its main pass: θ is computed once a block by a run's totals pass
    and again by each lane tile's main pass (once in all for one block).
    """

    def __init__(self, spec: SyntheticDriftSpec):
        self.channels, self.n_rates, self.horizon = spec.channels, len(spec.rates), spec.horizon
        self._softness = spec.softness
        lo, span = spec.latent_lo, spec.latent_hi - spec.latent_lo
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            latent = lo + span * (np.arange(spec.channels) + 0.5) / spec.channels
            if spec.step_std > 0.0:
                gen = np.random.default_rng(np.random.SeedSequence([_DRIFT_TAG, spec.seed]))
                steps = gen.normal(0.0, spec.step_std, size=(spec.horizon, spec.channels))
                steps[0] = 0.0
                # The reflected walk, built in the only array of its size.
                np.cumsum(steps, axis=0, out=steps)
                steps += latent
                steps -= lo
                np.mod(steps, 2.0 * span, out=steps)
                np.subtract(2.0 * span, steps, out=steps, where=steps > span)
                steps += lo
                latent = steps
        if not np.isfinite(latent).all():
            raise ValueError("the drift's latent path leaves float range")
        self._latent = np.broadcast_to(latent, (spec.horizon, spec.channels))
        self._thresholds = spec.threshold_array()
        self._last = (None, None)  # (start, stop) and the block of the last theta_block

    def _theta_block(self, start: int, stop: int) -> np.ndarray:
        if self._last[0] != (start, stop):
            block = self._theta(slice(start, stop))
            block.flags.writeable = False
            self._last = ((start, stop), block)
        return self._last[1]

    def _theta(self, steps) -> np.ndarray:
        """Probabilities ``(steps, C, K)`` at ``steps``, a slice or an index
        array of steps of the latent path."""
        # A z past float range is +-inf, which expit maps to 0 or 1 as scipy does.
        with np.errstate(over="ignore"):
            z = self._latent[steps, :, None] - self._thresholds
            return _expit(z / self._softness)


def drift_to_trace(spec: SyntheticDriftSpec, sample_every: int = 1) -> TraceTable:
    """Freeze a drift process into a piecewise-constant trace.

    Probabilities are sampled every ``sample_every`` steps and held until
    the next sample, so ``sample_every=1`` reproduces the process exactly.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    env = DriftEnvironment(spec)
    starts = np.arange(0, spec.horizon, sample_every)
    tables = np.empty((len(starts), spec.channels, len(spec.rates)))
    for a in range(0, len(starts), _ROWS):
        tables[a : a + _ROWS] = env._theta(starts[a : a + _ROWS])
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
    drawn by one ``_pcg64_random`` pass over all the tape's lanes; a longer
    one by numpy's generator, one lane at a time.  The choice depends on
    the chunk, never on the lanes, and both paths give the same bits.  A
    run gives each tape one lane tile, so a pass's temporaries stay small.

    ``reader(start, stop, theta, reads)`` serves a learning policy, whose
    cells are known only a step at a time: each ``read(i, flats, out)``
    gives the outcomes at one step's picked cells, ``reads`` a lane.  In a
    chunk ``block`` would step, with at least twice as many cells a row as
    reads, it draws no block: each read jumps the lane's stream to its own
    cell, as ``cells`` does, about 55 array operations a lane against
    about 30 a cell for stepping.  Elsewhere it draws the block once, with
    the caller's ``theta``, and each read is a take.

    ``cells(start, stop, flats, theta)`` reads one cell a step of the same
    outcomes, ``block(start, stop)`` at step ``n``'s cell ``flats[n -
    start]``, without drawing the rest: each lane's state at that cell's
    draw comes from a closed form, ``_CELL_TILE`` lane-steps at a time.  It
    costs two 128-bit products a lane-step, however many cells a row has,
    and runs the kernel ``_pcg64_random`` steps with (``_mul128``,
    ``_add128``, ``_pcg64_double``).  A step whose cell has probability 0
    or 1 costs nothing: every draw lies in [0, 1), so its outcome is known
    without it, and a chunk whose steps are all known hashes no seed
    state.  The closed form's jump constants depend only on the drawn cells
    and their rows in the chunk, so a call that draws the last call's cells
    at the same rows reuses its constants: baselines that keep to one pair
    repeat them every full block.

    Seed states are hashed a batch of chunks at a time.  Asked for a chunk
    it does not hold, the tape drops what it holds and hashes that chunk
    and the ones after it, twice as many as at its previous miss, up to
    ``_STATE_BATCH`` lane-chunks (one chunk at least).  A walk forward over
    ``n`` chunks so hashes them in about ``log2(n)`` batches.  A batch is
    one ``_seed_states`` call for all lanes, whatever the sizes of their
    seeds (see ``_hash_chunks``).
    """

    def __init__(self, env: Environment, seeds: tuple[int, ...] | list[int]):
        seeds = _check_seeds(seeds)
        if not seeds:
            raise ValueError("at least one seed required")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        self._env = env
        self._seeds = seeds
        self._last_jump = None  # (row offset, flats, jump) of the last cells call
        self._held = None  # (first chunk, (n, lanes, 4) states) of the last state batch
        self._batch = 1  # chunks the next state batch hashes
        # Each lane's entropy prefix [tag, *words(seed)], zero-padded to the
        # longest, as a (lanes, width) uint32 array, and its int64 length;
        # array operations build them below 2**64.
        if max(seeds) < 2**64:
            low = np.array(seeds, dtype=np.uint64)
            high = (low >> np.uint64(32)).astype(np.uint32)
            words = [np.full(len(seeds), _OUTCOME_TAG, np.uint32), low.astype(np.uint32), high]
            self._prefix = np.stack(words[: 3 if high.any() else 2], axis=1)
            self._prefix_len = 2 + (high > 0)
        else:
            self._prefix, self._prefix_len = _padded([[_OUTCOME_TAG, *_words(s)] for s in seeds])

    @property
    def seeds(self) -> tuple[int, ...]:
        return self._seeds

    @staticmethod
    def nbytes(lanes: int, largest_seed: int, steps: int, reads: int = 0) -> int:
        """Bytes a tape of ``lanes`` seeds up to ``largest_seed`` holds at
        most over steps below ``steps``: a lane's uint32 ``[tag, seed]``
        prefix, padded to the largest seed's words, and int64 length; and a
        lane-chunk of its largest batch, 4 bytes a word of the longest
        ``[tag, seed, chunk]`` and 128 more: an 8-byte length, a 32-byte
        state and the previous batch's, and 56 bytes of hash temporaries.
        With ``reads`` cells read a lane and step (``reader``), it adds a
        jumped read's per-lane arrays: the lane's 32 bytes of ``s`` and
        ``inc``, and per read 56 bytes of work and an 8-byte cell index."""
        seed_words = len(_words(largest_seed))
        chunks = -(-steps // _CHUNK)
        n = min(max(1, _STATE_BATCH // lanes), chunks)  # chunks in the largest batch
        batch = n * (4 * (1 + seed_words + len(_words(chunks + n))) + 128)
        read = 32 + 64 * reads if reads else 0
        return lanes * (4 * (1 + seed_words) + 8 + batch + read)

    def block(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            raise ValueError("stop must exceed start")
        return self._block(start, stop, self._env.theta_block(start, stop))

    def _block(self, start: int, stop: int, theta) -> np.ndarray:
        """``block(start, stop)`` compared against ``theta``, the block's
        probabilities as ``cells`` takes them."""
        C, K = self._env.channels, self._env.n_rates
        th = np.asarray(theta).reshape(stop - start, C, K)
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
            th_seg, part = th[pos : pos + hi - lo], out[:, pos : pos + hi - lo]
            states = self._chunk_states(b)
            if hi * C * K > _EMULATE_MAX_DRAWS:
                for lane, state in enumerate(states):
                    preset.state = state
                    np.random.Generator(np.random.PCG64(preset)).random(out=rows)
                    np.less(seg, th_seg, out=part[lane])
                continue
            # Short chunk: step every lane's PCG64 at once, and compare each
            # draw as it comes, into its column of the lanes' outcomes.
            th_draws, lane_draws = th_seg.reshape(-1), part.reshape(len(states), -1)
            for j, u in enumerate(_pcg64_random(states, lo * C * K, th_draws.size)):
                np.less(u, th_draws[j], out=lane_draws[:, j])
        return out

    def cells(self, start: int, stop: int, flats, theta) -> np.ndarray:
        """Outcomes of one cell a step: a ``(seeds, stop-start)`` uint8 array
        whose entry ``[i, n - start]`` equals ``block(start, stop)[i, n -
        start]`` at flat cell ``flats[n - start]`` (``c * K + k``).
        ``theta`` holds the block's success probabilities, the environment's
        ``theta_block(start, stop)`` in any shape of ``stop-start`` rows of
        ``C * K``, which a caller walking the schedule already has.

        Each outcome is computed alone, without the draws before it.  PCG64
        is an LCG, so the state it outputs at draw ``d`` has a closed form
        (Brown, Random Number Generation with Arbitrary Strides, 1994):
        ``M**(d+2) * s + A(d+3) * inc`` (mod 2**128), where numpy starts
        from ``x0 = s + inc`` (see ``_pcg64_random``) and ``A(k) = M**0 +
        ... + M**(k-1)``.  The cell at row ``r`` of a chunk is draw ``d = r
        * C * K + c * K + k``.

        Only steps whose probability lies strictly between 0 and 1 are
        drawn.  A draw is ``k * 2**-53`` with ``k < 2**53``, below 1 always
        and below 0 (or -0.0) never, so the outcome at probability 1 is 1
        and at 0 is 0 whatever the draw, exactly as ``block`` compares it.
        """
        flats = np.asarray(flats)
        B, P = stop - start, self._env.channels * self._env.n_rates
        if B <= 0:
            raise ValueError("stop must exceed start")
        if flats.shape != (B,):
            raise ValueError(f"need one flat cell a step, {B}, got shape {flats.shape}")
        if flats.min() < 0 or flats.max() >= P:
            raise ValueError(f"flat cells must lie in [0, {P})")
        theta = np.asarray(theta)
        if theta.size != B * P:
            raise ValueError(f"need {B} x {P} probabilities, got shape {theta.shape}")
        th = theta.reshape(B, P)[np.arange(B), flats]
        # A draw is k * 2**-53 with k < 2**53: below 1 always, below 0 never.
        known = (th == 0.0) | (th == 1.0)
        steps = np.flatnonzero(~known)  # the steps drawn, in order
        jump = self._jump((start + steps) % _CHUNK, flats[steps])
        th_u = th[steps]
        won = np.empty((len(self._seeds), len(steps)), dtype=np.uint8)
        # Chunk b's drawn steps are steps[i0:i1], between two edges.
        b_lo, b_hi = start // _CHUNK, (stop - 1) // _CHUNK
        edges = np.searchsorted(steps, np.arange(b_lo, b_hi + 2) * _CHUNK - start).tolist()
        for b, i0, i1 in zip(range(b_lo, b_hi + 1), edges, edges[1:]):
            if i0 == i1:
                continue  # every cell known: no seed state to hash
            seg = slice(i0, i1)
            tile = max(1, _CELL_TILE // (i1 - i0))
            work = np.empty((7, min(tile, len(self._seeds)), i1 - i0), dtype=np.uint64)
            states = self._chunk_states(b)
            for a in range(0, len(states), tile):
                part = states[a : a + tile]
                draws = _pcg64_at(part, jump[:, seg], work[:, : len(part)])
                won[a : a + tile, seg] = draws < th_u[seg]
        if len(steps) == B:
            return won
        out = np.empty((len(self._seeds), B), dtype=np.uint8)
        out[:, known] = th[known] == 1.0
        out[:, steps] = won
        return out

    def _jump(self, rows: np.ndarray, flats: np.ndarray) -> np.ndarray:
        """``_jump_constants`` of cells ``flats`` at rows ``rows``: the last
        call's when it read the same cells at the same rows."""
        last = self._last_jump
        if last is not None and np.array_equal(last[0], rows) and np.array_equal(last[1], flats):
            return last[2]
        if not len(flats):  # nothing to draw: no tables to build
            return np.empty((4, 0), dtype=np.uint64)
        jump = _jump_constants(rows, flats, self._env.channels * self._env.n_rates)
        self._last_jump = (rows, flats, jump)
        return jump

    def reader(self, start: int, stop: int, theta, reads: int):
        """A reader of the outcomes at cells picked step by step, as a
        learning policy picks them: ``read(i, flats, out)`` writes into the
        ``(reads, seeds)`` uint8 ``out`` what ``block(start, stop)`` holds
        at step ``start + i`` and, for each read and lane, flat cell
        ``flats[read, lane]``.  The steps lie in one chunk; ``theta`` is
        as ``cells`` takes it, and ``flats`` are trusted as given.

        The reader draws the block once when its chunk's rows ``[0, hi)``
        hold more than ``_EMULATE_MAX_DRAWS`` draws a lane (numpy's
        generator is faster there), or when a row's cells are fewer than
        twice the reads, where stepping them costs less than jumping to
        each read's cell; each read is then a take.  Otherwise it draws
        nothing ahead: each read jumps the lane's stream straight to its
        cell (``_pcg64_picked``, the closed form of ``cells``), with work
        arrays of ``reads x seeds`` whatever the cells a row.
        """
        B, P = stop - start, self._env.channels * self._env.n_rates
        b = start // _CHUNK
        if B <= 0 or (stop - 1) // _CHUNK != b:
            raise ValueError("a reader's steps must lie in one chunk")
        # Jumping to a read's cell takes about 55 array operations a lane,
        # stepping a row about 30 a cell for all reads: at 8,192 lanes over
        # a short chunk (2-core x86-64 host), jumping took 0.09-0.97 of
        # stepping's time where 2 * reads <= P (P = 2 to 16 pairs, one to
        # four reads) and 1.06-2.7 times it elsewhere (P = 1 to 6).
        if (stop - b * _CHUNK) * P > _EMULATE_MAX_DRAWS or 2 * reads > P:
            outs = self._block(start, stop, theta).reshape(-1)
            lanes = np.arange(0, outs.size, B * P)  # each lane's cell 0 at step 0

            def take(i, flats, out):
                # The cells are in range; "clip" writes to ``out`` unbuffered.
                outs[i * P :].take(flats + lanes, out=out, mode="clip")

            return take
        th = np.asarray(theta).reshape(B, P)
        jump = _jump_constants(
            np.repeat(np.arange(start, stop) % _CHUNK, P), np.tile(np.arange(P), B), P
        ).reshape(4, B, P)
        states = self._chunk_states(b)
        ops = np.empty((4, len(states)), dtype=np.uint64)  # s and inc, high and low words
        ops[:2] = states[:, :2].T
        np.left_shift(states[:, 2], 1, out=ops[2])
        ops[2] |= states[:, 3] >> 63
        np.left_shift(states[:, 3], 1, out=ops[3])
        ops[3] |= 1
        work = np.empty((7, reads, len(states)), dtype=np.uint64)
        at = np.empty((reads, len(states)), dtype=np.intp)

        def jumped(i, flats, out):
            np.copyto(at, flats)
            _pcg64_picked(ops, jump[:, i], th[i], at, work, out)

        return jumped

    def _chunk_states(self, b: int) -> np.ndarray:
        """The ``(lanes, 4)`` ``_seed_states`` of every lane's stream for
        chunk ``b``, from the held batch or a new one (see the class
        docstring)."""
        held = self._held
        if held is None or not 0 <= b - held[0] < len(held[1]):
            cap = max(1, _STATE_BATCH // len(self._seeds))
            n = min(self._batch, cap)
            self._held = held = (b, self._hash_chunks(b, n))
            self._batch = min(2 * n, cap)
        return held[1][b - held[0]]

    def _hash_chunks(self, b: int, n: int) -> np.ndarray:
        """The seed states of chunks ``b`` to ``b + n - 1``, a ``(n, lanes,
        4)`` uint64 array, from one ``_seed_states`` call whatever the
        seeds' and chunks' sizes: row ``(i, lane)`` is the lane's prefix,
        then the words of chunk ``b + i``, zero-padded to the longest row."""
        words, counts = _padded([_words(c) for c in range(b, b + n)])
        lanes, width = self._prefix.shape
        entropy = np.zeros((n, lanes, width + words.shape[1]), dtype=np.uint32)
        entropy[:, :, :width] = self._prefix
        at = np.arange(lanes)
        for k in range(words.shape[1]):
            entropy[:, at, self._prefix_len + k] = words[:, k, None]
        lengths = (self._prefix_len + counts[:, None]).reshape(-1)
        return _seed_states(entropy.reshape(n * lanes, -1), lengths).reshape(n, lanes, 4)
