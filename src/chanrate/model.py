"""Static link model: rate sets, success-probability tables, and optima.

Everything downstream (policies, bounds, environments) consumes the types
defined here.  A link is described by an ordered set of transmission rates,
a channels x rates matrix of packet success probabilities, and optionally a
per-channel occupancy probability that scales successes down.  Channel and
rate indices are 1-based throughout the public API; flat row-major ids are
used internally and exposed through :func:`pair_to_flat` / :func:`flat_to_pair`.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DecisionPair",
    "DegenerateOptimumError",
    "LinkModel",
    "OptimaSummary",
    "RateSet",
    "compute_optima",
    "demo_model",
    "flat_to_pair",
    "load_rates_json",
    "load_theta_csv",
    "pair_to_flat",
    "throughput_matrix",
]


class DegenerateOptimumError(ValueError):
    """Raised where a computation requires a unique best pair and the model ties."""


class DecisionPair(NamedTuple):
    """One arm of the bandit: transmit on ``channel`` at rate index ``rate_index``.

    Both fields are 1-based.
    """

    channel: int
    rate_index: int


def _json_int(value, what: str) -> int:
    """``value`` as an int if it is an integral number (not a bool).  An
    integer goes straight through ``int``: ``float`` overflows past 1e308."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (isinstance(value, numbers.Integral) or float(value).is_integer())
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_real(value, what: str):
    """``value``, unchanged, if it is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value


def _json_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; anything numpy cannot convert raises
    ValueError."""
    try:
        return np.asarray(value, dtype=float)
    except TypeError:
        raise ValueError(f"{what} must hold numbers, got {value!r}") from None
    except OverflowError:  # an int past float range
        raise ValueError(f"{what} holds a number beyond float range") from None


def pair_to_flat(pair: DecisionPair | tuple[int, int], n_rates: int) -> int:
    """Row-major flat id of a 1-based (channel, rate) pair."""
    c, k = pair
    return (c - 1) * n_rates + (k - 1)


def flat_to_pair(flat: int, n_rates: int) -> DecisionPair:
    """Inverse of :func:`pair_to_flat`."""
    c, k = divmod(int(flat), n_rates)
    return DecisionPair(c + 1, k + 1)


@dataclass(frozen=True)
class RateSet:
    """Strictly increasing, positive transmission rates.

    Rates are abstract reward units per packet; in the wireless reading they
    are Mbit/s and a packet at rate ``r`` occupies ``1/r`` time units.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("rate set must contain at least one rate")
        try:
            vals = tuple(float(v) for v in self.values)
        except OverflowError:  # an int past float range
            raise ValueError("rates must be positive and finite") from None
        if not all(0 < v < math.inf for v in vals):
            raise ValueError("rates must be positive and finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("rates must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, rates: Sequence[float] | np.ndarray) -> "RateSet":
        if not isinstance(rates, (list, tuple, np.ndarray)):
            raise ValueError(f"rates must be a list of numbers, got {rates!r}")
        return cls(tuple(_json_real(r, "each rate") for r in rates))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def rate(self, rate_index: int) -> float:
        """Rate value for a 1-based index."""
        if not 1 <= rate_index <= len(self.values):
            raise IndexError(f"rate index {rate_index} out of range 1..{len(self.values)}")
        return self.values[rate_index - 1]


@dataclass(frozen=True)
class LinkModel:
    """A rate set plus the success-probability table, optionally occupancy-scaled.

    ``theta[c-1, k-1]`` is the probability that a packet sent on channel ``c``
    at rate index ``k`` is acknowledged, conditional on the channel being free.
    ``occupancy[c-1]``, when given, is the probability the channel is busy; the
    effective success probability becomes ``(1 - occupancy) * theta``.
    """

    rates: RateSet
    theta: np.ndarray
    occupancy: np.ndarray | None = None

    def __post_init__(self) -> None:
        th = np.array(self.theta, dtype=float)
        if th.ndim != 2:
            raise ValueError("theta must be a 2-D channels x rates matrix")
        if th.shape[1] != len(self.rates):
            raise ValueError(
                f"theta has {th.shape[1]} rate columns but the rate set has {len(self.rates)}"
            )
        if th.shape[0] < 1:
            raise ValueError("at least one channel required")
        if not np.all((th >= 0.0) & (th <= 1.0)):  # NaN fails too
            raise ValueError("theta entries must lie in [0, 1]")
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)
        if self.occupancy is not None:
            occ = np.array(self.occupancy, dtype=float)
            if occ.shape != (th.shape[0],):
                raise ValueError("occupancy must have one entry per channel")
            if not np.all((occ >= 0.0) & (occ <= 1.0)):
                raise ValueError("occupancy entries must lie in [0, 1]")
            occ.setflags(write=False)
            object.__setattr__(self, "occupancy", occ)

    @property
    def channels(self) -> int:
        return self.theta.shape[0]

    @property
    def n_rates(self) -> int:
        return self.theta.shape[1]

    def effective_theta(self) -> np.ndarray:
        """Success probabilities after occupancy scaling (a copy)."""
        if self.occupancy is None:
            return self.theta.copy()
        return (1.0 - self.occupancy)[:, None] * self.theta


def throughput_matrix(model: LinkModel) -> np.ndarray:
    """Expected reward per transmission for each pair: ``rate * effective_theta``."""
    return model.effective_theta() * model.rates.as_array()[None, :]


@dataclass(frozen=True)
class OptimaSummary:
    """Derived optima of a link model.

    All rate-index sets are 1-based tuples.  ``viable_rates`` collects the
    rate indices whose raw rate meets or exceeds the best throughput; by rate
    monotonicity it is always a suffix of the rate list.  ``viable_adjacent``
    intersects that set with the two rate indices adjacent to the best
    pair's rate, and ``viable_adjacent_by_channel`` repeats that
    construction channel by channel around each channel's own best rate.

    Ties are reported through the ``unique_*`` flags and never broken
    silently; where several pairs attain the maximum, ``best`` holds the
    lexicographically smallest.
    """

    mu: np.ndarray
    mu_star: float
    best: DecisionPair
    unique_global: bool
    best_rate_by_channel: tuple[int, ...]
    unique_per_channel: tuple[bool, ...]
    viable_rates: tuple[int, ...]
    viable_adjacent: tuple[int, ...]
    viable_adjacent_by_channel: tuple[tuple[int, ...], ...] = field(repr=False)


def _viable_suffix(rates: np.ndarray, threshold: float) -> tuple[int, ...]:
    # Rates are strictly increasing, so {k: r_k >= threshold} is a suffix.
    return tuple(int(k) for k in range(1, len(rates) + 1) if rates[k - 1] >= threshold)


def _adjacent(viable: tuple[int, ...], peak: int, n_rates: int) -> tuple[int, ...]:
    members = set(viable)
    return tuple(k for k in (peak - 1, peak + 1) if 1 <= k <= n_rates and k in members)


def compute_optima(model: LinkModel) -> OptimaSummary:
    """Compute best pairs, per-channel bests, and the viable-rate sets.

    Tie detection compares computed throughputs exactly; inputs are typically
    user-supplied rationals and epsilon-merging would hide modeling errors.
    """
    mu = throughput_matrix(model)
    rates = model.rates.as_array()
    C, K = mu.shape

    flat_best = int(np.argmax(mu))  # first maximum = lexicographically smallest pair
    best = flat_to_pair(flat_best, K)
    mu_star = float(mu.flat[flat_best])
    unique_global = int(np.count_nonzero(mu == mu_star)) == 1

    best_rate_by_channel: list[int] = []
    unique_per_channel: list[bool] = []
    adjacent_by_channel: list[tuple[int, ...]] = []
    for c in range(C):
        row = mu[c]
        k_best = int(np.argmax(row)) + 1
        mu_best = float(row[k_best - 1])
        best_rate_by_channel.append(k_best)
        unique_per_channel.append(int(np.count_nonzero(row == mu_best)) == 1)
        adjacent_by_channel.append(_adjacent(_viable_suffix(rates, mu_best), k_best, K))

    viable = _viable_suffix(rates, mu_star)
    return OptimaSummary(
        mu=mu,
        mu_star=mu_star,
        best=best,
        unique_global=unique_global,
        best_rate_by_channel=tuple(best_rate_by_channel),
        unique_per_channel=tuple(unique_per_channel),
        viable_rates=viable,
        viable_adjacent=_adjacent(viable, best.rate_index, K),
        viable_adjacent_by_channel=tuple(adjacent_by_channel),
    )


def _load_json(path: str | Path):
    """``json.load`` of the file at ``path``.  JSON nested deeper than the
    parser's recursion limit raises ValueError naming the file, where it
    would raise RecursionError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _csv_rows(reader, path: str | Path):
    """The rows of a ``csv.reader``.  A line the csv module rejects, such as
    one with a field over its size limit, raises ValueError naming the file
    and line, where it would raise ``csv.Error``."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _parse(convert, text: str, what: str, path: str | Path, line: int):
    """``convert(text)``, int or float, raising ValueError naming the file
    and line where the text is not such a number."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{path}:{line}: {what} must be {kind}, got {text!r}") from None


def load_theta_csv(path: str | Path) -> np.ndarray:
    """Load a success-probability table from CSV.

    Expected layout: header ``channel,<label>,...`` with one column per rate,
    then one row per channel.  Channel ids must be 1..C in order; rate column
    labels are ignored.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = _csv_rows(csv.reader(fh), path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty theta CSV") from None
        if not header or header[0].strip().lower() != "channel":
            raise ValueError(f"{path}: first header column must be 'channel'")
        n_rates = len(header) - 1
        if n_rates < 1:
            raise ValueError(f"{path}: no rate columns")
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != n_rates + 1:
                raise ValueError(f"{path}:{lineno}: expected {n_rates + 1} columns, got {len(row)}")
            cid = _parse(int, row[0], "channel", path, lineno)
            if cid != len(rows) + 1:
                raise ValueError(f"{path}:{lineno}: channel ids must run 1..C in order, got {cid}")
            rows.append([_parse(float, cell, "theta", path, lineno) for cell in row[1:]])
    if not rows:
        raise ValueError(f"{path}: no channel rows")
    theta = np.asarray(rows, dtype=float)
    if not np.all((theta >= 0.0) & (theta <= 1.0)):  # NaN fails too
        raise ValueError(f"{path}: values must lie in [0, 1]")
    return theta


def load_rates_json(path: str | Path) -> tuple[RateSet, np.ndarray | None]:
    """Load rates (and optional per-channel occupancy) from JSON.

    Accepts either a bare list ``[r1, r2, ...]`` or an object with a ``rates``
    key and an optional ``occupancy`` key.
    """
    path = Path(path)
    data = _load_json(path)
    if isinstance(data, list):
        return RateSet.of(data), None
    if isinstance(data, dict):
        if "rates" not in data:
            raise ValueError(f"{path}: missing 'rates' key")
        occupancy = data.get("occupancy")
        occ = None if occupancy is None else _json_array(occupancy, "occupancy")
        return RateSet.of(data["rates"]), occ
    raise ValueError(f"{path}: expected a JSON list or object")


# IEEE 802.11g-style table used in docs and tests: 5 channels, 8 rates.
_DEMO_RATES = (6.0, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0)
_DEMO_THETA = (
    (1.0, 1.0, 1.0, 1.0, 1.0, 0.2, 0.0, 0.0),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.7, 0.1),
    (1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, 1.0, 0.8, 0.2, 0.0, 0.0, 0.0, 0.0),
)


def demo_model() -> LinkModel:
    """The bundled 5-channel, 8-rate stationary benchmark table.

    Channel 2 at 52 Mbit/s is the unique best pair (throughput 52); channel 4
    is entirely dead, which exercises every degenerate-row code path.
    """
    return LinkModel(RateSet.of(_DEMO_RATES), np.array(_DEMO_THETA))
