"""Independent reference implementations used only by the test suite.

Everything here is written the straightforward, slow way on purpose: each
function re-derives its quantity from first principles so the package and
the tests cannot share a bug.  Keep these free of imports from the package
internals beyond plain data types and ``select_all`` and ``record``, which
step a policy.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from bisect import bisect_right

import numpy as np

from chanrate.policies import record, select_all


def kl_closed_form(p: float, q: float) -> float:
    """Textbook Bernoulli divergence with explicit limit handling."""
    if p < 0 or p > 1 or q < 0 or q > 1:
        raise ValueError("arguments must lie in [0, 1]")
    if p == q:
        return 0.0
    if q in (0.0, 1.0):
        return math.inf
    terms = 0.0
    if p > 0:
        terms += p * math.log(p / q)
    if p < 1:
        terms += (1 - p) * math.log((1 - p) / (1 - q))
    return terms


def kl_mp(p: float, q: float, dps: int = 30):
    """Bernoulli divergence in mpmath at ``dps`` digits; inf off the support."""
    import mpmath

    with mpmath.workdps(dps):
        return _kl_mp(mpmath.mpf(p), mpmath.mpf(q))


def _kl_mp(p, q):
    import mpmath

    if (q == 0 and p > 0) or (q == 1 and p < 1):
        return mpmath.inf
    out = mpmath.mpf(0)
    if p > 0:
        out += p * mpmath.log(p / q)
    if p < 1:
        out += (1 - p) * mpmath.log((1 - p) / (1 - q))
    return out


def confidence_root_mp(p: float, t: float, f: float, upper: bool, dps: int = 30):
    """Root of t * I(p, q) = f on the bound's side of p, as an mpmath number.

    Plain bisection on q itself in ``dps``-digit arithmetic until the bracket
    is below 1e-22 of the root: no log-space transform, no Newton step,
    nothing shared with the package's solver.
    """
    import mpmath

    with mpmath.workdps(dps):
        p, t, f = mpmath.mpf(p), mpmath.mpf(t), mpmath.mpf(f)
        lo, hi = (p, mpmath.mpf(1)) if upper else (mpmath.mpf(0), p)
        tol = mpmath.mpf("1e-22")
        while hi - lo > tol * hi:
            mid = (lo + hi) / 2
            if (t * _kl_mp(p, mid) <= f) == upper:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def increasing_path_exists(mu: np.ndarray, start: tuple[int, int], goal: tuple[int, int],
                           neighbors) -> bool:
    """DFS for a strictly throughput-increasing path from start to goal.

    ``neighbors(c, k)`` yields 1-based out-neighbor pairs; ``mu`` is the
    (C, K) throughput table; ``start``/``goal`` are 1-based pairs.
    """
    if start == goal:
        return True
    stack = [start]
    seen = {start}
    while stack:
        c, k = stack.pop()
        here = mu[c - 1, k - 1]
        for nc, nk in neighbors(c, k):
            if mu[nc - 1, nk - 1] <= here:
                continue
            if (nc, nk) == goal:
                return True
            if (nc, nk) not in seen:
                seen.add((nc, nk))
                stack.append((nc, nk))
    return False


def bound_sum_structure_blind(theta: np.ndarray, rates: np.ndarray) -> float | None:
    """Reference value for the structure-blind constant; None when undefined."""
    mu = theta * rates[None, :]
    mu_star = mu.max()
    if (mu == mu_star).sum() != 1:
        return None
    terms = []
    for c in range(mu.shape[0]):
        for k in range(mu.shape[1]):
            if rates[k] < mu_star or mu[c, k] == mu_star:
                continue
            div = kl_closed_form(theta[c, k], mu_star / rates[k])
            if div == 0.0:
                return None
            if math.isinf(div):
                continue
            terms.append((mu_star - mu[c, k]) / div)
    return math.fsum(terms)


def step_policy(policy, outcome) -> np.ndarray:
    """Step ``policy`` once, as a run does: its picks from
    ``select_all([policy])``, then ``record`` of the 0/1 outcomes
    ``outcome(flats)`` gives, one per lane.  Returns the flat picks."""
    flats = select_all([policy])[0]
    record([policy], flats[None], np.asarray(outcome(flats), dtype=np.int64)[None])
    return flats


def expected_regret_exhaustive(policy, theta: np.ndarray, rates: np.ndarray,
                               horizon: int) -> float:
    """Exact expected slot regret by enumerating every outcome sequence.

    Recursively forks the batch-1 policy on both outcomes of each step,
    weighting branches by the selected pair's success probability: a copy
    taken before the step records the success, the original the failure.
    Cost is 2^horizon policy copies, so keep the horizon tiny.
    """
    mu = theta * rates[None, :]
    mu_star = mu.max()
    n_rates = theta.shape[1]

    def recurse(pol, depth: int) -> float:
        if depth == horizon:
            return 0.0
        won = copy.deepcopy(pol)
        c, k = divmod(int(step_policy(pol, lambda flats: [0])[0]), n_rates)
        p_succ = theta[c, k]
        total = mu_star - mu[c, k]
        if p_succ > 0.0:
            step_policy(won, lambda flats: [1])
            total += p_succ * recurse(won, depth + 1)
        if p_succ < 1.0:
            total += (1.0 - p_succ) * recurse(pol, depth + 1)
        return total

    return recurse(copy.deepcopy(policy), 0)


def baseline_plays(kind: str, theta: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Flat pairs the ``oracle`` or ``static`` baseline plays at each step.

    ``theta`` is the ``(slots, C, K)`` success-probability schedule and
    ``rates`` the K rates; pairs are numbered ``c * K + k``.  The oracle
    plays the pair of highest ``rate * theta`` at each step and static the
    pair of highest total over the run (the first one on ties).
    """
    slots, channels, n_rates = theta.shape
    pairs = channels * n_rates
    mu = [[float(theta[n, j // n_rates, j % n_rates]) * float(rates[j % n_rates])
           for j in range(pairs)] for n in range(slots)]
    if kind == "oracle":
        return np.array([row.index(max(row)) for row in mu])
    totals = [math.fsum(mu[n][j] for n in range(slots)) for j in range(pairs)]
    return np.full(slots, totals.index(max(totals)))


def weighted_sum_reference(counts, weights) -> float:
    """``sum(count * weight)`` over the pairs of one ledger, added left to
    right in plain Python floats; with ``1 / rate`` weights, its airtime."""
    total = 0.0
    for count, weight in zip(counts, weights):
        total += int(count) * float(weight)
    return total


def run_reference(plays: np.ndarray, theta: np.ndarray, outcomes: np.ndarray,
                  rates: np.ndarray, checkpoints, time_budget: float | None = None) -> dict:
    """Slot-by-slot, lane-by-lane ledger of the given plays.

    ``plays`` is the ``(S, slots)`` flat pair each lane plays at each step,
    ``theta`` the ``(slots, C, K)`` success-probability schedule,
    ``outcomes`` the ``(S, slots, C, K)`` outcome bits and ``rates`` the K
    rates; pairs are numbered ``c * K + k``.  Under a time budget a lane's
    packet ledger stops at the first packet whose airtime
    (``weighted_sum_reference`` of ``1 / rate``) exceeds the budget; the
    time benchmark is the best pair's success probability times the packets
    of its rate that fit.
    Returns the fields of a ``PolicyRunResult``, with ``None`` for the time
    fields when there is no budget.
    """
    slots, channels, n_rates = theta.shape
    pairs = channels * n_rates
    rate = [float(rates[j % n_rates]) for j in range(pairs)]
    inv_r = [1.0 / r for r in rate]
    mu = [[float(theta[n, j // n_rates, j % n_rates]) * rate[j] for j in range(pairs)]
          for n in range(slots)]
    wanted = set(checkpoints)

    out = {name: [] for name in ("trajectories", "pulls", "expected_reward",
                                 "realized_reward", "packet_counts")}
    for lane, lane_plays in enumerate(plays.tolist()):
        pseudo = expected = realized = 0.0
        pulls = [0] * pairs
        counts = [0] * pairs
        frozen = False
        traj = []
        for n, j in enumerate(lane_plays):
            pseudo += max(mu[n]) - mu[n][j]
            expected += mu[n][j]
            realized += int(outcomes[lane, n, j // n_rates, j % n_rates]) * rate[j]
            pulls[j] += 1
            if time_budget is not None and not frozen:
                counts[j] += 1
                if weighted_sum_reference(counts, inv_r) > time_budget:
                    counts[j] -= 1
                    frozen = True
            if n + 1 in wanted:
                traj.append(pseudo)
        for name, value in zip(out, (traj, pulls, expected, realized, counts)):
            out[name].append(value)

    ref = {name: np.array(value) for name, value in out.items()}
    ref["decisions"] = np.array(plays[0])
    if time_budget is None:
        ref.update(packet_counts=None, time_used=None, time_regret=None)
    else:
        th_flat = [float(v) for v in theta[0].reshape(-1)]
        best = mu[0].index(max(mu[0]))
        benchmark = th_flat[best] * math.floor(rate[best] * time_budget)
        ref["time_used"] = np.array([weighted_sum_reference(c, inv_r) for c in out["packet_counts"]])
        ref["time_regret"] = np.array(
            [benchmark - weighted_sum_reference(c, th_flat) for c in out["packet_counts"]]
        )
    return ref


def trace_csv_reference(trace) -> str:
    """The sparse CSV text of a ``TraceTable``, one cell at a time: every
    cell of the first segment, then each cell that differs from the
    previous segment's, written by ``csv.writer`` with ``repr`` values."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["start_step", "channel", "rate_index", "theta"])
    prev = None
    for start, tab in zip(trace.starts, trace.tables):
        for c in range(tab.shape[0]):
            for k in range(tab.shape[1]):
                if prev is not None and tab[c, k] == prev[c, k]:
                    continue
                w.writerow([start, c + 1, k + 1, repr(float(tab[c, k]))])
        prev = tab
    return buf.getvalue()


def trace_theta_reference(trace, step: int) -> np.ndarray:
    """The ``(C, K)`` table of a ``TraceTable`` in force at ``step``: that
    of the last segment starting at or before it."""
    return trace.tables[bisect_right(trace.starts, step) - 1]


def write_theta_csv(path, theta, rates=None) -> None:
    """Write a ``(C, K)`` success-probability table as the theta CSV that
    ``load_theta_csv`` reads: a ``channel`` column, then one column per rate
    (labelled by the rate's ``repr``, or ``rate1``...), each value's
    ``repr``."""
    theta = np.asarray(theta, dtype=float)
    labels = [repr(float(r)) for r in rates] if rates is not None else [
        f"rate{k}" for k in range(1, theta.shape[1] + 1)
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["channel", *labels])
        for c, row in enumerate(theta.tolist(), start=1):
            w.writerow([c, *map(repr, row)])


def _crst_index(pulls, successes, rates, budget):
    """``index(bound, c, k)``: ``bound(p_hat, pulls, budget)`` of pair ``(c,
    k)`` times its rate, with ``p_hat`` 0.0 for a pair never pulled."""

    def index(bound, c, k):
        p_hat = successes[c][k] / pulls[c][k] if pulls[c][k] > 0 else 0.0
        return bound(p_hat, pulls[c][k], budget) * rates[k]

    return index


def klucb_pick_reference(pulls, successes, rates, budget, ucb) -> int:
    """Flat pair KL-UCB plays next for one lane, after its round-robin pass:
    the highest ``ucb(p_hat, pulls, budget)`` times the rate over the ``(C,
    K)`` pairs, the lowest flat index on ties.  The arguments are as in
    ``crst_pick_reference``."""
    index = _crst_index(pulls, successes, rates, budget)
    values = [index(ucb, c, k) for c in range(len(pulls)) for k in range(len(rates))]
    return values.index(max(values))


def crst_leaders_reference(pulls, successes, rates, budget, ucb, lcb):
    """``(leaders, undecided)`` of one lane: each channel's leader and the
    undecided channels, 0-based, by the rule ``crst_pick_reference`` states;
    the arguments are as there."""
    channels, n_rates = len(pulls), len(rates)
    index = _crst_index(pulls, successes, rates, budget)
    leaders, undecided = [], []
    for c in range(channels):
        mu = [index(lambda p_hat, n, f: p_hat, c, k) for k in range(n_rates)]
        lead = mu.index(max(mu))
        leaders.append(lead)
        near = [index(ucb, c, k) for k in (lead - 1, lead + 1) if 0 <= k < n_rates]
        if near and index(lcb, c, lead) < max(near):
            undecided.append(c)
    return leaders, undecided


def crst_pick_reference(pulls, successes, rates, budget, ucb, lcb) -> int:
    """Flat pair CRS-T plays next for one lane, after its round-robin pass.

    ``pulls``/``successes`` are ``(C, K)`` counts, ``ucb``/``lcb`` scalar
    confidence bounds on a success probability, called as
    ``bound(p_hat, pulls, budget)``.  A channel's leader is its rate of
    highest empirical throughput (the lowest on ties); the channel is
    undecided while the leader's lower index is below the upper index of a
    rate next to it.  The lowest undecided channel is probed at the least
    pulled rate of the leader and its neighbours (the lowest on ties);
    with every channel decided, the leader of highest upper index plays
    (the lowest channel on ties).
    """
    n_rates = len(rates)
    leaders, undecided = crst_leaders_reference(pulls, successes, rates, budget, ucb, lcb)
    if undecided:
        c = undecided[0]
        near = [k for k in (leaders[c] - 1, leaders[c], leaders[c] + 1) if 0 <= k < n_rates]
        k = min(near, key=lambda k: (pulls[c][k], k))
        return c * n_rates + k
    index = _crst_index(pulls, successes, rates, budget)
    upper = [index(ucb, c, lead) for c, lead in enumerate(leaders)]
    c = upper.index(max(upper))
    return c * n_rates + leaders[c]


# The outcome tape's reproducibility contract: the domain tag of outcome
# streams and the steps per uniform chunk.  Restated here, not imported.
TAPE_TAG = 0x9E3779B9
TAPE_CHUNK = 512

# The domain tag of synthetic drift paths, restated likewise.
DRIFT_TAG = 0x2545F491


def drift_latent_reference(spec) -> np.ndarray:
    """``(horizon, channels)`` latent path of a ``SyntheticDriftSpec``, one
    value at a time.  Channel ``c`` (0-based) starts at ``lo + span * (c +
    1/2) / C`` and, when ``step_std`` is 0, stays there.  Otherwise step
    ``n`` is the start plus the running sum of the normal draws of
    ``default_rng(SeedSequence([DRIFT_TAG, seed]))`` (a ``(horizon, C)``
    array, its first row replaced by zeros) up to row ``n``, reflected
    into ``[lo, hi]``: ``y = (x - lo) mod 2 span`` maps to ``lo + y`` up to
    ``span`` and to ``lo + 2 span - y`` above it."""
    lo, hi, C = spec.latent_lo, spec.latent_hi, spec.channels
    span = hi - lo
    start = [lo + span * (c + 0.5) / C for c in range(C)]
    out = np.empty((spec.horizon, C))
    if spec.step_std == 0.0:
        out[:] = start
        return out
    gen = np.random.default_rng(np.random.SeedSequence([DRIFT_TAG, spec.seed]))
    steps = gen.normal(0.0, spec.step_std, size=(spec.horizon, C)).tolist()
    for c in range(C):
        walked = 0.0
        for n in range(spec.horizon):
            if n > 0:
                walked += steps[n][c]
            y = (start[c] + walked - lo) % (2.0 * span)
            out[n, c] = lo + (2.0 * span - y if y > span else y)
    return out


def reference_outcomes(env, seed: int, start: int, stop: int) -> np.ndarray:
    """``(stop - start, C, K)`` uint8 outcomes of ``env`` under ``seed`` over
    steps ``[start, stop)``, the plain way: for each step one
    ``SeedSequence`` and one ``default_rng`` for its chunk, the full
    ``(512, C, K)`` chunk drawn, its row compared with the probabilities
    ``env.theta_block`` gives for that one step."""
    out = np.empty((stop - start, env.channels, env.n_rates), dtype=np.uint8)
    for n in range(start, stop):
        gen = np.random.default_rng(np.random.SeedSequence([TAPE_TAG, seed, n // TAPE_CHUNK]))
        u = gen.random((TAPE_CHUNK, env.channels, env.n_rates))
        out[n - start] = u[n % TAPE_CHUNK] < env.theta_block(n, n + 1)[0]
    return out


def pcg64_doubles(state_words, count: int) -> np.ndarray:
    """The first ``count`` doubles of numpy's ``Generator(PCG64(...))``
    seeded with the four uint64 words ``state_words``, which numpy would
    otherwise take from ``SeedSequence.generate_state(4, np.uint64)``."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            assert (n_words, dtype) == (4, np.uint64)
            return np.array(state_words, dtype=np.uint64)

    return np.random.Generator(np.random.PCG64(Words())).random(count)


def reference_draw(env, seed: int, pair: tuple[int, int], step: int) -> int:
    """Bernoulli outcome (0 or 1) of playing ``pair`` at ``step`` under ``seed``."""
    c, k = pair
    return int(reference_outcomes(env, seed, step, step + 1)[0, c - 1, k - 1])


def assert_same_bits(got, want) -> None:
    """``got`` and ``want`` hold the same float64 bits, NaN matching NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
