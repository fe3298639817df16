"""Independent reference implementations used only by the test suite.

Everything here is written the straightforward, slow way on purpose: each
function re-derives its quantity from first principles so the package and
the tests cannot share a bug.  Keep these free of imports from the package
internals beyond plain data types.
"""

from __future__ import annotations

import math

import numpy as np


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


def expected_regret_exhaustive(policy, theta: np.ndarray, rates: np.ndarray,
                               horizon: int) -> float:
    """Exact expected slot regret by enumerating every outcome sequence.

    Recursively forks the policy on both outcomes of each step, weighting
    branches by the selected pair's success probability.  Cost is 2^horizon
    policy clones, so keep the horizon tiny.
    """
    mu = theta * rates[None, :]
    mu_star = mu.max()
    n_rates = theta.shape[1]

    def recurse(pol, depth: int) -> float:
        if depth == horizon:
            return 0.0
        c, k = pol.select()
        p_succ = theta[c - 1, k - 1]
        gap = mu_star - mu[c - 1, k - 1]
        total = gap
        if p_succ > 0.0:
            branch = pol.clone()
            branch.update((c, k), 1)
            total += p_succ * recurse(branch, depth + 1)
        if p_succ < 1.0:
            pol.update((c, k), 0)
            total += (1.0 - p_succ) * recurse(pol, depth + 1)
        return total

    return recurse(policy.clone(), 0)
