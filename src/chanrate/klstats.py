"""Bernoulli KL divergence, exploration allowance, and confidence-bound solvers.

All confidence bounds are solved on the probability scale (arguments in
[0, 1]) and rescaled by the transmission rate at the boundary, so KL
arguments never leave the unit interval.  The defining problems are

    UCB: largest  q in [p, 1] with  t * I(p, q) <= f,
    LCB: smallest q in [0, p] with  t * I(p, q) <= f,

where ``I`` is the Bernoulli KL divergence, ``p`` the empirical success
rate, ``t`` the sample count and ``f`` the exploration budget.

The solver works on ``v = log(1 - q)`` (upper bound) or ``v = log(q)``
(lower bound) rather than on ``q`` itself: near-saturated roots sit within a
few float spacings of the boundary, where ``q`` is too coarse to meet the
target residual.  In ``v`` the divergence is convex and decreasing on the
bound's side of ``p``, so a Newton step from the infeasible end never
passes the root and the chord through both ends of a bracket never falls
short of it.  Each element starts from closed-form bounds left of its root
and takes Newton steps, then Newton and chord steps that shrink a
two-sided bracket, and stops on its own test:

- its residual ``|t * I(p, q) - f|`` is certified at ``1e-10`` (or, where
  ``t`` is too large for float64 to reach that, at a few times the
  residual's own rounding error); or
- after a hard cap of Newton steps, bisection has collapsed its float
  bracket.

No element's result depends on the other elements of the batch, and a
zero budget returns ``p`` exactly.

A call whose elements all take one direction passes ``upper`` as a bool, the
fast path with no direction masks that the upper-bound learners (``kl-ucb``,
``kl-ucb-u``) take on every slot.  ``_solve_probability``, behind
``ucb_probability`` and ``lcb_probability``, validates and broadcasts its
arguments; ``_solve_trusted``, which ``select_all`` calls, checks nothing,
since its flat arrays are valid by construction.  ``_solve_trusted`` is
also the one place that sets numpy's error state: its decorator ignores
floating-point errors for its closed forms and for the log-space core,
which takes logs of zero and may overflow by design, and restores the
caller's state on return.

The divergence itself is a port of ``scipy.special.rel_entr`` to Python's
``math`` module, which calls the same C library ``log`` and ``log1p``, so
it returns the same bits without importing scipy.  numpy's own ``np.log``
is a different implementation and would not: it differs from the C
library's in the last bit on about a third of inputs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "allowance",
    "kl_bernoulli",
    "lcb_probability",
    "ucb_probability",
]

# Certified bound on |t * I(p, q) - f| at the returned point; the solver
# may do better.  Two orders of magnitude under the 1e-9 the tests demand,
# leaving room for evaluation error in the probability-scale transform.
_RESIDUAL_BOUND = 1e-10
_EPS4 = 4.0 * np.finfo(float).eps
_DBL_MIN = sys.float_info.min
# Newton steps every element takes before its first stop test; from the
# solver's starting point these certify nearly all inputs.
_UNCHECKED_STEPS = 4
# Newton steps after which an element falls back to bisection.
_NEWTON_STEPS = 16


def _rel_entr(x: float, y: float) -> float:
    """``scipy.special.rel_entr(x, y)`` on Python floats: x*log(x/y).

    The same branches in the same order as scipy's C code, so every result,
    NaN and infinity included, has the same bits.
    """
    if math.isnan(x) or math.isnan(y):
        return math.nan
    if x > 0.0 and y > 0.0:
        ratio = x / y
        if 0.5 < ratio < 2.0:
            return x * math.log1p((x - y) / y)  # more accurate when x ~ y
        if _DBL_MIN < ratio < math.inf:
            return x * math.log(ratio)
        return x * (math.log(x) - math.log(y))  # the ratio under- or overflows
    if x == 0.0 and y >= 0.0:
        return 0.0
    return math.inf


def _kl(p: float, q: float) -> float:
    if p < 0.0 or p > 1.0 or q < 0.0 or q > 1.0:
        raise ValueError("kl_bernoulli arguments must lie in [0, 1]")
    return _rel_entr(p, q) + _rel_entr(1.0 - p, 1.0 - q)


def kl_bernoulli(p, q):
    """Bernoulli KL divergence I(p, q), elementwise on arrays.

    Conventions: 0*log(0) = 0; the result is +inf when q is 0 or 1 while
    p is not, and NaN when either argument is NaN.  Python float (or int)
    arguments return a float without a numpy round trip; anything else
    broadcasts and returns an array, or a float for 0-d inputs.

    Bitwise equal to ``rel_entr(p, q) + rel_entr(1 - p, 1 - q)`` with
    scipy's ``rel_entr``, of which this is a C-library (libm) port.

    Raises:
        ValueError: if any argument lies outside [0, 1].
    """
    if isinstance(p, (float, int)) and isinstance(q, (float, int)):
        return _kl(float(p), float(q))
    p_arr, q_arr = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    out = np.fromiter(map(_kl, p_arr.ravel().tolist(), q_arr.ravel().tolist()), float, p_arr.size)
    if p_arr.ndim == 0:
        return float(out[0])
    return out.reshape(p_arr.shape)


def allowance(n: int) -> float:
    """Exploration budget after n transmissions: log(n) + 3*log(max(log n, 1)).

    The inner log is clamped at 1 so the log-log term stays defined and
    nonnegative for every n >= 1; the clamp only matters for the handful of
    steps that round-robin initialization covers anyway.
    """
    if n < 1:
        raise ValueError(f"allowance requires n >= 1, got {n}")
    ln = math.log(n)
    return ln + 3.0 * math.log(max(ln, 1.0))


def _allowance_vec(n: np.ndarray) -> np.ndarray:
    # allowance() of each n >= 1, but through np.log, whose last bit differs
    # from math.log's at some n (389, 5431, 9170, ...: 265 of n <= 2 * 10**6).
    # kl-ucb-u's budget is this, kl-ucb's and crs-t's allowance(): merging
    # the two changes output bits.
    ln = np.log(n)
    return ln + 3.0 * np.log(np.maximum(ln, 1.0))


def _residual(v, r, rho, nw, w, s, k):
    """Fill ``r`` with I(p, q(v)) - f/t and ``rho`` with its negated slope at
    log-space points ``v``; -w, w, s and k = s*log(s) - f/t broadcast against
    ``v``, as set up in :func:`_solve_log_space`."""
    np.expm1(v, rho)  # e^v - 1, minus the probability opposite the variable
    np.divide(nw, rho, rho)
    np.log(rho, r)
    r *= w
    r -= s * v
    r += k
    np.subtract(1.0, rho, rho)  # -dr/dv = 1 - w/(1 - e^v) > 0 left of the anchor


def _solve_log_space(p, t, target, upper):
    """Solve t * I(p, q) = f for strictly interior p, one element at a time.

    ``p``, ``t``, ``target`` (= f/t > 0) are same-shape 1-D arrays with
    every p in (0, 1) and every t >= 1; ``upper`` is a Python bool, one
    direction for every element, or a bool array of that shape choosing each
    element's bound.  Returns ``(q, steps)``: q on the probability scale and
    the number of Newton steps the slowest element took; more than
    ``_NEWTON_STEPS`` means some element fell back to bisection.  No
    element's result depends on the other elements.  Its logs of zero and
    overflows are expected, so the caller ignores floating-point errors.
    """
    # UCB: v = log(1 - q); LCB: v = log(q).  With s = 1 - p (UCB) or p (LCB)
    # and w = 1 - s, I(p, q(v)) = w*log(w/(1 - e^v)) + s*(log(s) - v), which
    # is zero at the anchor v = log(s) and convex and decreasing left of it.
    # The direction only swaps s and w here and picks the transform back.
    # Every row is a contiguous 1-D array, so each transcendental takes
    # numpy's contiguous SIMD loop, whose bits do not depend on position.
    n = p.shape[0]
    nw, s, k, anchor, tol, x, d = np.empty((7, n))
    np.subtract(1.0, p, s)
    w = p
    if upper is not True:
        lower = np.logical_not(upper)
        w = np.where(lower, s, p)
        np.copyto(s, p, where=lower)
    np.negative(w, nw)
    np.log(s, anchor)
    np.multiply(s, anchor, k)
    k -= target
    # The certified bound, or where t is too large for float64 to reach it,
    # 4 eps * (2 + 2 f/t + s |log s|): at least twice the residual's rounding
    # error, and above the change of the residual over one float step of v.
    np.subtract(target, k, tol)
    tol += 2.0
    tol *= _EPS4
    np.maximum(tol, np.divide(_RESIDUAL_BOUND, t, x), out=tol)

    e = np.empty((3, 2, n))  # point, residual, negated slope of two candidates
    ev, er, erho = e
    lo, hi = ev
    r_lo, r_hi = er
    # The bracket starts at points that are provably infeasible (lo) and
    # feasible (hi).  Since w/(1 - e^v) <= 1 left of the anchor, I lies below
    # s*(log(s) - v) and above w*log(w) + s*(log(s) - v).
    np.divide(target, s, hi)
    np.subtract(anchor, hi, hi)
    np.log(w, x)
    x *= w
    np.subtract(target, x, x)
    x /= s
    np.subtract(anchor, x, lo)
    # I(p, q) >= (q - p)^2 / (2 max x(1 - x) over [p, q]) and that maximum is
    # at most min(1/4, s, q on the UCB side), so the distance d solving the
    # bound's equality is infeasible too; it is tight when the root nears p.
    # Past d = s/2 the rounding of s - d could spoil that, and lo is better.
    np.minimum(s, 0.25, out=d)
    np.multiply(target, 2.0, x)
    d *= x
    np.sqrt(d, d)
    np.multiply(w, 2.0, x)
    x += target
    x *= target
    np.sqrt(x, x)
    x += target
    np.minimum(d, x, out=d)
    np.subtract(s, d, d)
    np.multiply(s, 0.5, x)
    np.copyto(d, 0.0, where=d < x)
    np.log(d, d)
    np.fmax(lo, d, lo)
    # Newton steps from the left never pass the root, so the first few need
    # no check; checking each costs more than the rare extra step saves.
    rho_lo = erho[0]
    for _ in range(_UNCHECKED_STEPS):
        _residual(lo, r_lo, rho_lo, nw, w, s, k)
        r_lo /= rho_lo
        lo += r_lo

    _residual(ev, er, erho, nw, w, s, k)
    # An end whose residual exceeds tol has an exact sign and a Newton step
    # of at least one float spacing, so each element moves until certified.
    # A sign against the bracket can only be rounding within tol, which
    # certifies that end; the same tests stop the element either way.
    np.negative(r_hi, x)
    active = np.minimum(r_lo, x) > tol
    steps = _UNCHECKED_STEPS
    if active.any():
        lo_state = e[:, 0].copy()  # lo, r(lo) > 0, -r'(lo) > 0
        hi_state = e[:2, 1].copy()  # hi, r(hi) <= 0
        lo, r_lo, rho_lo = lo_state
        hi, r_hi = hi_state
        while active.any():
            steps += 1
            if steps <= _NEWTON_STEPS:
                # Newton from the infeasible end stays left of the root; the chord
                # through both ends lands right of it (I is convex in v).
                np.divide(r_lo, rho_lo, ev[0])
                np.subtract(hi, lo, ev[1])
                ev[1] *= r_lo
                ev[1] /= r_lo - r_hi
                ev += lo
                _residual(ev, er, erho, nw, w, s, k)
                np.copyto(lo_state, e[:, 0], where=active)
                np.copyto(hi_state, e[:2, 1], where=active)
            else:
                # Hard cap reached: bisect until the float bracket collapses.
                mid = lo + hi
                mid *= 0.5
                active &= (lo < mid) & (mid < hi)
                ev[:] = mid
                _residual(ev, er, erho, nw, w, s, k)
                move = er[0] <= 0.0
                move &= active
                np.copyto(hi_state, e[:2, 0], where=move)
                np.copyto(lo_state, e[:, 0], where=move ^ active)
            np.negative(r_hi, x)
            active &= np.minimum(r_lo, x) > tol

    v = np.where(r_lo <= x, lo, hi)
    q = np.expm1(v)
    np.negative(q, q)
    np.maximum(q, p, out=q)
    if upper is not True:
        np.copyto(q, np.minimum(np.exp(v), p), where=lower)
    return q, steps


def _solve_probability(p_hat, pulls, budget, upper):
    """Confidence bounds on the success probability, elementwise.

    The validating entry: it checks its arguments, broadcasts them together
    and hands them flat to :func:`_solve_trusted`, the core that trusts its
    caller, which ``select_all`` calls directly.  ``upper`` (a bool, or a
    bool array broadcasting with the others) picks the upper or the lower
    bound of each element; every element's result is what a call on it alone
    returns.  A 0-d ``upper`` takes the single-direction path.
    """
    p = np.asarray(p_hat, dtype=float)
    t = np.asarray(pulls, dtype=float)
    f = np.asarray(budget, dtype=float)
    upper = np.asarray(upper, dtype=bool)
    # One reduction per bound.  minimum/maximum propagate NaN and a NaN
    # fails every comparison, so a NaN anywhere is rejected like a negative.
    lowest = np.minimum.reduce
    if not (
        lowest(p, axis=None, initial=0.0) >= 0.0
        and np.maximum.reduce(p, axis=None, initial=1.0) <= 1.0
    ):
        raise ValueError("empirical rate must lie in [0, 1]")
    if not (lowest(t, axis=None, initial=0.0) >= 0.0):
        raise ValueError("pull counts must be nonnegative")
    if not (lowest(f, axis=None, initial=0.0) >= 0.0):
        raise ValueError("budget must be nonnegative")

    shape = np.broadcast(p, t, f, upper).shape
    p, t = (np.broadcast_to(a, shape).ravel() for a in (p, t))
    f, upper = (a.item() if a.ndim == 0 else np.broadcast_to(a, shape).ravel() for a in (f, upper))
    out = _solve_trusted(p, t, f, upper)
    return float(out[0]) if shape == () else out.reshape(shape)


# Interior elements _solve_trusted solves in log space at a time, so their
# temporaries stay in cache: 327,680 elements took 45.8 ms in one call, 24.8
# ms in chunks of 8,192 and 29.2 ms of 4,096 (2-core x86-64 host).
_SOLVE_CHUNK = 8192


def _solve_nbytes(n: int) -> int:
    """The most bytes ``_solve_trusted``'s temporaries take for ``n``
    elements, its result among them: 26 an element, and 224 an element of a
    chunk (traced at most 26 and 221) or 8 while mixed directions are set up."""
    return 26 * n + max(8 * n, 224 * min(n, _SOLVE_CHUNK))


@np.errstate(all="ignore")
def _solve_trusted(p, t, f, upper):
    """:func:`_solve_probability` with nothing checked, for a caller whose
    arguments are valid by construction: ``p`` and ``t`` (possibly integer)
    1-D arrays of one shape, ``f`` a float or such an array, ``upper`` a bool
    or such a bool array; p in [0, 1], t >= 0, f >= 0 and no NaN."""
    target = f / t
    # Unpulled entries give the extreme value (1 up, 0 down); endpoint
    # rates have closed forms; interior entries hold p, the exact answer
    # at a zero budget, until solved.  I(1, q) is infinite below 1 and
    # t * (-log(1 - q)) = f at p = 0; I(0, q) is infinite above 0 and
    # t * (-log(q)) = f at p = 1.
    out = np.negative(target)
    if upper is False:
        use_p = p < 1.0
        np.exp(out, out)
    else:
        use_p = p > 0.0
        np.expm1(out, out)
        np.negative(out, out)
        if upper is not True:
            use_p = np.where(upper, use_p, p < 1.0)
            np.copyto(out, np.exp(-target), where=~upper)
    np.copyto(out, p, where=use_p)
    np.copyto(out, upper, where=t <= 0.0)
    inner = out != upper  # out lies in [0, 1]: below 1 up, above 0 down
    inner &= use_p
    inner &= target > 0.0
    at = inner.nonzero()[0]
    for a in range(0, at.size, _SOLVE_CHUNK):
        part = at[a : a + _SOLVE_CHUNK]
        up = upper if isinstance(upper, bool) else upper.take(part)
        out.put(part, _solve_log_space(p.take(part), t.take(part), target.take(part), up)[0])
    return out


def ucb_probability(p_hat, pulls, budget):
    """Upper confidence bound on the success probability.

    Vectorized: arguments broadcast together.  Unpulled entries (pulls == 0)
    return 1, the maximally optimistic value.
    """
    return _solve_probability(p_hat, pulls, budget, upper=True)


def lcb_probability(p_hat, pulls, budget):
    """Lower confidence bound on the success probability; unpulled entries give 0."""
    return _solve_probability(p_hat, pulls, budget, upper=False)
