"""Sequential decision policies over (channel, rate) pairs.

Three index policies share one interface: an optimism-only rule ranking
every pair by its upper confidence index (`KlUcbPolicy`), a per-channel
leader/test rule exploiting rate unimodality inside each channel
(`CrsTPolicy`), and a global-leader rule exploring only the neighborhood
graph around the empirically best pair (`KlUcbUPolicy`).  Each accepts a
``window`` argument that swaps every statistic (sample counts, empirical
means, confidence bounds, and for the leader policy its leadership counts)
for sliding-window versions, which is what tracks drifting environments.

Every policy starts with one round-robin pass over all pairs in row-major
order.  All argmax/argmin ties break lexicographically by (channel, rate).

Policies are vectorized over ``batch`` independent replications that
advance in lock-step (one per environment seed); a batch of 1 is one run.
There is one way to step a policy: :func:`select_all` returns the flat pair
``c * K + k`` (0-based channel and rate indices) each replication uses for
the next transmission, and :func:`record` then feeds back their
acknowledgement bits.

Each policy keeps its statistics per (lane, pair): pull and success counts
and, beside them, the empirical success rates ``successes / pulls`` (0.0
where a pair has no pulls).  :func:`record` and ``_evict`` are the only
writers, and each touches only the one (lane, pair) element a lane pulls or
a window drops, so a step costs no full-table recomputation of the rates.

Selection is split in two so that many policies can share one solver call:
a policy first requests the confidence bounds its next pick needs, as flat
``(p, t, f, upper)`` arrays (``f`` and ``upper`` may be scalars), then
finishes the pick from the solved bounds.  :func:`select_all` solves the
requests of all the policies it steps in one call.  A ``KlUcbPolicy``
request is the grid of its distinct (successes, pulls) pairs when that is
smaller than its lanes x pairs table; elements are solved independently, so
the bits do not change.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import NeighborhoodGraph, build_graph
from .klstats import _allowance_vec, _solve_nbytes, _solve_trusted, allowance
from .model import RateSet, _echo

__all__ = [
    "BasePolicy",
    "CrsTPolicy",
    "KlUcbPolicy",
    "KlUcbUPolicy",
    "build_policy",
    "record",
    "select_all",
]


def _solved(n: int, own: int) -> int:
    """Bytes of an ``n``-element request while :func:`select_all` solves it:
    ``own`` an element, 25 of float64 p, t, f and bool direction, and the solver's."""
    return n * (own + 25) + _solve_nbytes(n)


class BasePolicy:
    """Shared bookkeeping: counts, round-robin prefix, windowing, batching."""

    def __init__(
        self,
        rates: RateSet | Iterable[float],
        channels: int,
        *,
        window: int | None = None,
        batch: int = 1,
    ) -> None:
        self._rates = rates if isinstance(rates, RateSet) else RateSet.of(rates)
        if channels < 1:
            raise ValueError("need at least one channel")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._channels = channels
        self._n_rates = len(self._rates)
        self._n_pairs = P = channels * self._n_rates
        self._batch = batch
        self._window = window
        self._r_flat = np.tile(self._rates.as_array(), channels)
        self._r_row = self._rates.as_array()
        self._step = 0  # completed transmissions, identical across the batch
        self._lane_base = np.arange(0, batch * P, P)  # flat index of (lane, pair 0)
        self._pulls = np.zeros((batch, P), dtype=np.int64)
        self._successes = np.zeros((batch, P), dtype=np.int64)
        self._rate = np.zeros((batch, P))  # successes / pulls, 0.0 where unpulled
        if window is not None:
            # Step by step, each lane's flat (lane, pair) index and outcome.
            self._ring_at = np.full((window, batch), -1, dtype=np.int64)
            self._ring_out = np.zeros((window, batch), dtype=np.int8)
            self._ring_pos = 0

    @classmethod
    def nbytes(cls, lanes, channels, n_rates, steps, window=None, strict=False) -> tuple[int, int]:
        """The bytes ``lanes`` lanes hold over ``steps`` steps, and the most a
        step's request adds (``_solved``); here per lane int64 pulls and
        successes and a float64 rate a pair, an int64 index and pick, and an
        int64 pair and int8 outcome a window step."""
        return lanes * (24 * channels * n_rates + 16 + 9 * (window or 0)), 0

    # -- subclass hooks ---------------------------------------------------

    def _after_update(self) -> None:
        pass

    def _request(self):
        raise NotImplementedError

    def _finish(self, q: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    # -- shared internals -------------------------------------------------

    def _evict(self) -> None:
        # Lanes step together, so the ring slot is filled on every lane or none.
        if self._step < self._window:
            return
        at = self._ring_at[self._ring_pos]
        pulls = self._pulls.take(at) - 1
        successes = self._successes.take(at) - self._ring_out[self._ring_pos]
        self._pulls.put(at, pulls)
        self._successes.put(at, successes)
        # A pair left with no pulls has no successes either: its rate is 0/1.
        self._rate.put(at, successes / np.maximum(pulls, 1))

    def _scalar_budget(self) -> float:
        """Budget for policies whose allowance argument is the step count."""
        return allowance(self._step if self._window is None else self._window)


class KlUcbPolicy(BasePolicy):
    """Play the pair with the highest optimistic throughput index.

    The index of a pair is the largest throughput statistically compatible
    with its samples at budget allowance(n), where n counts completed
    transmissions (or allowance(window) for the windowed variant).  The
    policy is structure-blind: it never looks at channel or rate adjacency.

    An index depends only on a pair's (successes s, pulls t) and the slot's
    budget.  When the grid of every s <= t <= top (top being the most pulls
    a pair can have) is smaller than the lanes x pairs table, the request is
    that grid and each pair gathers its bound at ``t * (t + 1) // 2 + s``;
    the solver treats elements independently and the grid's rates are
    ``s / t`` as :func:`record` divides them, so the bits are the same.
    """

    @classmethod
    def nbytes(cls, lanes, channels, n_rates, steps, window=None, strict=False):
        """Adds the request: the table's rates and pulls as views, or the
        smaller grid's float64 rates and int64 pulls, then int64 keys and
        gathered bounds a lane and pair."""
        table, top = lanes * channels * n_rates, min(steps - 1, window or steps)
        grid = (top + 1) * (top + 2) // 2
        step = _solved(table, 0) if grid >= table else _solved(grid, 16) + 16 * table
        return super().nbytes(lanes, channels, n_rates, steps, window)[0], step

    def _request(self):
        top = self._step if self._window is None else min(self._step, self._window)
        size = (top + 1) * (top + 2) // 2
        if size >= self._pulls.size:
            return self._rate.ravel(), self._pulls.ravel(), self._scalar_budget(), True
        t = np.arange(top + 1).repeat(np.arange(1, top + 2))
        s = np.arange(size) - t * (t + 1) // 2
        p = np.zeros(size)
        np.divide(s, t, out=p, where=t > 0)
        return p, t, self._scalar_budget(), True

    def _finish(self, q: np.ndarray) -> np.ndarray:
        if q.size < self._pulls.size:  # the (successes, pulls) grid
            key = self._pulls + 1
            key *= self._pulls
            key >>= 1
            key += self._successes
            q = q.take(key)
        q = q.reshape(self._batch, self._n_pairs)
        q *= self._r_flat
        return q.argmax(axis=1)


class CrsTPolicy(BasePolicy):
    """Per-channel leader rule for channels with unimodal throughput in rate.

    Each channel's leader is its empirically best rate.  A channel is
    "decided" when the leader's lower confidence index dominates the upper
    indices of the adjacent rates.  While any channel is undecided, the
    lowest-indexed such channel is probed at whichever of the leader's
    closed rate-neighborhood {leader-1, leader, leader+1} has the fewest
    pulls; once every channel is decided, the policy plays the leader with
    the highest upper confidence index across channels.
    """

    # Bounds one step solves, in this order: lcb on each channel's leader,
    # ucb on its lower and upper rate neighbours, ucb on the leader.
    _OFFSETS = np.array([0, -1, 1, 0])[:, None]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        S, C, K = self._batch, self._channels, self._n_rates
        self._upper = np.repeat([False, True, True, True], S * C)
        # Tables by leader rate index k.  Out-of-range neighbours are clamped
        # into the row, onto the leader itself.
        k = np.arange(K)
        self._bound_k = np.clip(k + self._OFFSETS, 0, K - 1)  # (4, K): each bound's rate
        # Each bound's rate, and what to add to its index: -inf for a missing
        # neighbour, which then never beats the leader's lower index, else 0.
        missing = self._bound_k != k + self._OFFSETS
        self._bound_scale = np.stack([self._r_row[self._bound_k], np.where(missing, -np.inf, 0.0)])
        # (K, 3): the closed neighbourhood, where a clamped neighbour is the
        # leader again and so picks what the leader would.
        self._near_k = np.clip(k[:, None] + np.array([-1, 0, 1]), 0, K - 1)
        lanes = np.arange(S)
        self._lanes3 = lanes * 3
        self._lane_c = lanes * C  # flat index of (lane, channel 0) in (S, C)
        self._chan_base = (self._lane_c[:, None] + np.arange(C)) * K  # of (lane, c, rate 0)

    @classmethod
    def nbytes(cls, lanes, channels, n_rates, steps, window=None, strict=False):
        """Adds per lane two int64, and per lane and channel four bool
        directions, an int64 rate-0 index and leader, and four bounds'
        requests, each a gathered float64 rate and int64 pulls."""
        bounds = 4 * lanes * channels
        held = super().nbytes(lanes, channels, n_rates, steps, window)[0] + 5 * bounds + 16 * lanes
        return held, _solved(bounds, 16)

    def _request(self):
        S, C, K = self._batch, self._channels, self._n_rates
        # Each channel's leader; the first max is the smallest rate index.
        lead = (self._rate.reshape(S, C, K) * self._r_row).argmax(axis=2)
        at = (self._chan_base + self._bound_k.take(lead, axis=1)).ravel()  # (4, S, C) bounds
        self._ctx = lead
        return self._rate.take(at), self._pulls.take(at), self._scalar_budget(), self._upper

    def _finish(self, q: np.ndarray) -> np.ndarray:
        K = self._n_rates
        lead = self._ctx
        scale = self._bound_scale.take(lead, axis=2)
        q = q.reshape(4, self._batch, self._channels)
        q *= scale[0]
        q += scale[1]
        lcb, below, above, ucb = q
        undecided = lcb < np.maximum(below, above)  # leader not yet separated
        explore = undecided.any(axis=1)
        # Exploration probes the lowest undecided channel at the least-pulled
        # rate of its leader's closed neighbourhood (ties to the smallest rate
        # index); exploitation plays the leader of highest upper index.
        ch = np.where(explore, undecided.argmax(axis=1), ucb.argmax(axis=1))
        row = self._lane_c + ch
        lead_ch = lead.take(row)
        cand = self._near_k.take(lead_ch, axis=0)
        pulls = self._pulls.take(row[:, None] * K + cand)
        k_ex = cand.take(self._lanes3 + pulls.argmin(axis=1))
        return ch * K + np.where(explore, k_ex, lead_ch)


class KlUcbUPolicy(BasePolicy):
    """Leader-centric rule exploring only the neighborhood graph.

    After each update the global leader is the pair with the highest
    empirical throughput.  Leadership counts v pace a forced-play schedule:
    whenever (v[leader] - 1) is a multiple of the graph's maximum out-degree
    gamma, the leader itself is played; otherwise the policy plays the best
    optimistic index among the leader's out-neighbors, with budget
    allowance(v[leader]).  The candidate set includes the leader itself by
    default so it can be exploited between forced plays; pass
    ``strict=True`` to restrict the non-forced play to the out-neighbors
    only.

    With a window, sample statistics and leadership counts alike are
    evaluated over the last ``window`` steps.
    """

    def __init__(
        self,
        rates: RateSet | Iterable[float],
        channels: int,
        *,
        window: int | None = None,
        batch: int = 1,
        strict: bool = False,
    ) -> None:
        super().__init__(rates, channels, window=window, batch=batch)
        self.graph = build_graph(channels, self._n_rates)
        self._cand_table = self._build_candidates(self.graph, strict)
        self._width = self._cand_table.shape[1]
        self._safe_table = np.maximum(self._cand_table, 0)  # padding clamped to pair 0
        # Each candidate's rate, and what to add to its index: -inf for padding, else 0.
        pad = np.where(self._cand_table < 0, -np.inf, 0.0)
        self._cand_scale = np.stack([self._r_flat[self._safe_table], pad])
        self._lane_rows = self._lane_base[:, None]
        self._lane_cols = np.arange(batch) * self._width  # flat index of (lane, column 0)
        self._lead_counts = np.zeros((batch, self._n_pairs), dtype=np.int64)
        self._leader = np.zeros(batch, dtype=np.int64)
        self._v_lead = np.zeros(batch, dtype=np.int64)  # the leader's count
        if window is not None:
            self._lead_ring = np.full((window, batch), -1, dtype=np.int64)  # flat leaders

    @staticmethod
    def _build_candidates(graph: NeighborhoodGraph, strict: bool) -> np.ndarray:
        K = graph.n_rates
        rows = []
        for flat, nbrs in enumerate(graph.adjacency):
            ids = [(c - 1) * K + (k - 1) for c, k in nbrs]
            if not strict:
                ids.append(flat)
            rows.append(sorted(ids))
        width = max(len(row) for row in rows)
        table = np.full((len(rows), width), -1, dtype=np.int64)
        for flat, row in enumerate(rows):
            table[flat, : len(row)] = row
        return table

    @classmethod
    def nbytes(cls, lanes, channels, n_rates, steps, window=None, strict=False):
        """Adds per lane int64 leadership counts a pair, four int64, an int64
        pair a candidate and an int64 leader a window step, and a request of
        its candidates, each a gathered float64 rate, int64 pulls and budget."""
        gamma = build_graph(channels, n_rates).gamma
        width = gamma + (not strict)  # candidates a lane: out-neighbours, and the leader
        held = super().nbytes(lanes, channels, n_rates, steps, window)[0]
        held += lanes * (8 * channels * n_rates + 32 + 8 * width + 8 * (window or 0))
        return held, _solved(lanes * width, 24) if gamma else 0

    @property
    def gamma(self) -> int:
        return self.graph.gamma

    def _after_update(self) -> None:
        # Leadership counts include the leader after the current step.
        self._leader = (self._rate * self._r_flat).argmax(axis=1)
        at = self._lane_base + self._leader
        if self._window is not None:
            pos = self._ring_pos
            if self._step > self._window:  # the slot is filled on every lane
                old = self._lead_ring[pos]
                self._lead_counts.put(old, self._lead_counts.take(old) - 1)
            self._lead_ring[pos] = at
        self._v_lead = self._lead_counts.take(at) + 1
        self._lead_counts.put(at, self._v_lead)

    def _request(self):
        if self.gamma == 0:  # single-vertex graph: the leader is the only pair
            return None
        f = _allowance_vec(self._v_lead)  # int64 counts: the bits of their floats
        self._cand = self._safe_table.take(self._leader, axis=0)
        at = (self._lane_rows + self._cand).ravel()
        return self._rate.take(at), self._pulls.take(at), f.repeat(self._width), True

    def _finish(self, q: np.ndarray | None) -> np.ndarray:
        lead = self._leader
        if q is None:
            return lead.copy()
        gamma = self.graph.gamma
        forced = self._v_lead % gamma == 1 % gamma  # (v - 1) is a multiple of gamma
        scale = self._cand_scale.take(lead, axis=1)
        q = q.reshape(self._batch, self._width)
        q *= scale[0]
        q += scale[1]
        # Candidate rows are sorted, so the first max wins; padding (-inf) never does.
        pick = self._cand.take(self._lane_cols + q.argmax(axis=1))
        return np.where(forced, lead, pick)


def select_all(policies: list[BasePolicy]) -> list[np.ndarray]:
    """Every policy's next pick, with one solver call for all their bounds.

    A policy in its round-robin prefix asks for no bounds and plays its
    step number as the flat pair.  The other requests are laid end to end,
    solved together, and each policy gets its slice of the result back;
    requests that all ask for upper bounds pass the direction as one bool.
    Each element's bound is the one a call on it alone gives, so a policy's
    picks do not depend on the policies it steps with.  :func:`record` of
    the picks' outcomes completes the step.
    """
    requests = [None if policy._step < policy._n_pairs else policy._request() for policy in policies]
    live = [r for r in requests if r is not None]
    if live:
        n = sum(r[0].size for r in live)
        p, t, f = np.empty(n), np.empty(n), np.empty(n)
        upper = True if all(r[3] is True for r in live) else np.empty(n, dtype=bool)
        a = 0
        for rp, rt, rf, ru in live:
            b = a + rp.size
            p[a:b], t[a:b], f[a:b] = rp, rt, rf
            if upper is not True:
                upper[a:b] = ru
            a = b
        q = _solve_trusted(p, t, f, upper)
    picks, a = [], 0
    for policy, r in zip(policies, requests):
        if r is not None:
            b = a + r[0].size
            picks.append(policy._finish(q[a:b]))
            a = b
        elif policy._step < policy._n_pairs:
            picks.append(np.full(policy._batch, policy._step, dtype=np.int64))
        else:
            picks.append(policy._finish(None))
    return picks


def record(
    policies: list[BasePolicy], flats: Iterable[np.ndarray], outcomes: Iterable[np.ndarray]
) -> None:
    """Record the 0/1 outcomes of the picks :func:`select_all` just made for
    ``policies``, trusted as given: ``flats`` and ``outcomes`` hold one row
    per policy and one column per lane.  A windowed policy first drops its
    oldest step; then each policy updates the counts and rate of the pair
    each lane pulled and runs its ``_after_update``."""
    for policy, f, o in zip(policies, flats, outcomes):
        at = policy._lane_base + f
        if policy._window is not None:
            policy._evict()
            policy._ring_at[policy._ring_pos] = at
            policy._ring_out[policy._ring_pos] = o
        pulls = policy._pulls.take(at) + 1
        successes = policy._successes.take(at) + o
        policy._pulls.put(at, pulls)
        policy._successes.put(at, successes)
        policy._rate.put(at, successes / pulls)
        policy._step += 1
        policy._after_update()
        if policy._window is not None:
            policy._ring_pos = (policy._ring_pos + 1) % policy._window


# Every policy kind a run accepts: the class that learns it, or None for a
# baseline whose decisions the harness computes in closed form.
POLICY_KINDS: dict[str, type[BasePolicy] | None] = {
    "kl-ucb": KlUcbPolicy,
    "crs-t": CrsTPolicy,
    "kl-ucb-u": KlUcbUPolicy,
    "oracle": None,
    "static": None,
}


def check_policy_kind(kind: str, *, window: int | None = None, strict: bool = False) -> str:
    """The normalized name of ``kind`` after checking its variant knobs.

    Baselines take no window, and ``strict`` applies only to "kl-ucb-u".
    """
    key = kind.strip().lower()
    if key not in POLICY_KINDS:
        raise ValueError(
            f"unknown policy kind {_echo(kind)}; expected one of {sorted(POLICY_KINDS)}"
        )
    if window is not None:
        if POLICY_KINDS[key] is None:
            raise ValueError(f"{key} takes no window")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {_echo(window)}")
    if strict and POLICY_KINDS[key] is not KlUcbUPolicy:
        raise ValueError(f"strict applies only to kl-ucb-u, not {_echo(kind)}")
    return key


def build_policy(
    kind: str,
    rates: RateSet | Iterable[float],
    channels: int,
    *,
    window: int | None = None,
    batch: int = 1,
    strict: bool = False,
) -> BasePolicy:
    """Construct a learning policy by kind name ("kl-ucb", "crs-t", "kl-ucb-u").

    ``strict`` only applies to "kl-ucb-u" and removes the leader from the
    non-forced candidate set.
    """
    key = check_policy_kind(kind, window=window, strict=strict)
    cls = POLICY_KINDS[key]
    if cls is None:
        raise ValueError(f"{key} is a baseline, not a learning policy")
    extra = {"strict": True} if strict else {}
    return cls(rates, channels, window=window, batch=batch, **extra)
