"""Divergence, allowance, and confidence-bound solver tests.

Reference values below were computed with the closed-form divergence in
tests/_oracles.py; divergence comparisons use a 1e-12 tolerance because the
implementation evaluates log terms in a different order than the textbook
formula and the two can differ in the last bit.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanrate.klstats import allowance, kl_bernoulli, lcb_probability, ucb_probability

import chanrate.klstats as klstats
from _oracles import assert_same_bits, confidence_root_mp, kl_closed_form, kl_mp


class TestKlBernoulli:
    def test_frozen_values(self):
        assert abs(kl_bernoulli(0.2, 0.5) - 0.19274475702175753) < 1e-12
        assert abs(kl_bernoulli(0.5, 0.2) - 0.22314355131420976) < 1e-12

    def test_conventions(self):
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0
        assert kl_bernoulli(0.3, 0.3) == 0.0
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.0, 1.0) == math.inf
        assert kl_bernoulli(1.0, 0.0) == math.inf

    def test_endpoint_p(self):
        # I(0, q) = -log(1-q); I(1, q) = -log(q)
        assert abs(kl_bernoulli(0.0, 0.3) - (-math.log(0.7))) < 1e-12
        assert abs(kl_bernoulli(1.0, 0.3) - (-math.log(0.3))) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.1)

    def test_matches_reference_on_random_points(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 1, 2000)
        q = rng.uniform(1e-6, 1 - 1e-6, 2000)
        got = kl_bernoulli(p, q)
        want = np.array([kl_closed_form(a, b) for a, b in zip(p, q)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_array_broadcasting(self):
        q = np.linspace(0.1, 0.9, 9)
        out = kl_bernoulli(0.5, q)
        assert out.shape == (9,)
        assert out[4] == 0.0  # q = 0.5

    def test_scalar_returns_float(self):
        assert isinstance(kl_bernoulli(0.2, 0.5), float)


class TestKlBernoulliMatchesScipy:
    """kl_bernoulli is a libm port of scipy's rel_entr; scipy is the oracle."""

    @staticmethod
    def oracle(p, q):
        rel_entr = pytest.importorskip("scipy.special").rel_entr
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        return rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q)

    def test_random_pairs_bitwise(self):
        rng = np.random.default_rng(20140222)
        n = 100_000
        p = rng.uniform(0.0, 1.0, n)
        # A third each: unrelated q, q near p (the log1p branch), tiny q.
        q = rng.uniform(0.0, 1.0, n)
        near = slice(n // 3, 2 * n // 3)
        q[near] = np.clip(p[near] * (1.0 + rng.normal(0.0, 0.3, p[near].size)), 0.0, 1.0)
        q[2 * n // 3 :] = 10.0 ** rng.uniform(-320.0, 0.0, n - 2 * n // 3)
        assert_same_bits(kl_bernoulli(p, q), self.oracle(p, q))
        assert_same_bits(kl_bernoulli(q, p), self.oracle(q, p))

    def test_edges_bitwise(self):
        up, down = np.inf, -np.inf
        base = [0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.3, 0.7, 1e-6]
        edges = base + [
            5e-324,  # subnormal
            1e-310,
            np.finfo(float).tiny,
            np.nextafter(1.0, down),  # one ulp below 1
            np.nextafter(0.0, up),
            np.nextafter(0.5, up),
            np.nextafter(0.5, down),
        ]
        # p at the x/y ratios 0.5 and 2 and their float neighbours.
        for q in (0.1, 0.3, 0.4, 1e-300):
            for r in (0.5, 2.0):
                x = r * q
                edges += [x, np.nextafter(x, up), np.nextafter(x, down)]
        edges = np.array(edges)
        edges = edges[(edges >= 0.0) & (edges <= 1.0)]
        p, q = np.meshgrid(edges, edges)
        p = np.append(p.ravel(), [np.nan, 0.3, np.nan])
        q = np.append(q.ravel(), [0.3, np.nan, np.nan])
        want = self.oracle(p, q)
        assert_same_bits(kl_bernoulli(p, q), want)
        # The scalar path (Python floats, no numpy) is the same helper.
        assert_same_bits([kl_bernoulli(a, b) for a, b in zip(p.tolist(), q.tolist())], want)


class TestAllowance:
    def test_frozen_values(self):
        assert allowance(1) == 0.0
        assert allowance(2) == 0.6931471805599453
        assert allowance(20) == 6.287298374648837
        assert allowance(100) == 9.186709063411795

    def test_clamp_region(self):
        # For n <= e the log-log term is clamped to zero.
        assert allowance(2) == math.log(2)
        assert allowance(3) > math.log(3)

    def test_monotone(self):
        vals = [allowance(n) for n in range(1, 500)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="n >= 1"):
            allowance(0)


class TestConfidenceBounds:
    def test_closed_form_endpoints(self):
        # p = 0: t * (-log(1-q)) = f; p = 1: t * (-log(q)) = f.
        assert abs(ucb_probability(0.0, 10, 2.0) - (-math.expm1(-0.2))) < 1e-12
        assert abs(lcb_probability(1.0, 10, 2.0) - math.exp(-0.2)) < 1e-12
        assert ucb_probability(1.0, 10, 2.0) == 1.0
        assert lcb_probability(0.0, 10, 2.0) == 0.0

    def test_unpulled_defaults(self):
        assert ucb_probability(0.0, 0, 5.0) == 1.0
        assert lcb_probability(0.0, 0, 5.0) == 0.0

    def test_zero_budget_collapses_to_point_estimate(self):
        # The exact root is p itself, and the solver returns it exactly.
        assert ucb_probability(0.3, 50, 0.0) == 0.3
        assert lcb_probability(0.3, 50, 0.0) == 0.3
        p = np.array([0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0])
        np.testing.assert_array_equal(ucb_probability(p, 50, 0.0), p)
        np.testing.assert_array_equal(lcb_probability(p, 50, 0.0), p)

    def test_brackets_the_empirical_rate(self):
        rng = np.random.default_rng(11)
        t = rng.integers(1, 1000, 500)
        s = rng.integers(0, t + 1)
        p = s / t
        f = rng.uniform(0, 20, 500)
        u = ucb_probability(p, t, f)
        l = lcb_probability(p, t, f)
        # The solver clamps against p, so the bracket is exact.
        assert np.all(l <= p)
        assert np.all(p <= u)
        assert np.all((0.0 <= l) & (u <= 1.0))

    def test_residual_at_interior_roots(self):
        """t * I(p, q) lands within 1e-9 of the budget when q is interior."""
        rng = np.random.default_rng(13)
        t = rng.integers(1, 10_000, 1000)
        s = rng.integers(0, t + 1)
        p = s / t
        f = rng.uniform(0.01, 25, 1000)
        u = ucb_probability(p, t, f)
        l = lcb_probability(p, t, f)
        for pi, ti, fi, qi in zip(p, t, f, u):
            if not (0 < pi < 1 and qi < 1):
                continue
            if ti * (1 - pi) * 2.3e-16 / (1 - qi) > 1e-10:
                # Roots this close to 1 move t*I by more than 1e-9 per float
                # spacing of q; no float64 answer meets the residual there.
                continue
            assert abs(ti * kl_closed_form(pi, qi) - fi) < 1e-9
        for pi, ti, fi, qi in zip(p, t, f, l):
            if 0 < pi < 1 and qi > 0:
                assert abs(ti * kl_closed_form(pi, qi) - fi) < 1e-9

    def test_saturated_upper_bound_is_feasible(self):
        # Huge budget pushes the bound to 1; the constraint must still hold
        # in the limit sense (I stays below f right up to the boundary).
        q = ucb_probability(0.5, 2, 50.0)
        assert q == 1.0
        assert 2 * kl_closed_form(0.5, 1 - 1e-12) < 50.0

    def test_monotone_in_budget(self):
        f = np.linspace(0.0, 10.0, 50)
        u = ucb_probability(0.4, 20, f)
        l = lcb_probability(0.4, 20, f)
        assert np.all(np.diff(u) >= 0)
        assert np.all(np.diff(l) <= 0)

    def test_monotone_in_pulls(self):
        t = np.arange(1, 200)
        u = ucb_probability(0.4, t, 3.0)
        assert np.all(np.diff(u) <= 1e-12)  # more data, tighter bound

    def test_validation(self):
        with pytest.raises(ValueError, match="must lie in"):
            ucb_probability(1.2, 10, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ucb_probability(0.5, -1, 1.0)
        with pytest.raises(ValueError, match="budget"):
            lcb_probability(0.5, 10, -1.0)

    @pytest.mark.parametrize("bound", [ucb_probability, lcb_probability])
    @pytest.mark.parametrize(
        "position, message",
        [(0, "must lie in"), (1, "pull counts"), (2, "budget")],
    )
    @pytest.mark.parametrize("in_array", [False, True])
    def test_nan_rejected_like_a_negative(self, bound, position, message, in_array):
        args = [np.array([0.5, 0.0, 1.0]), np.array([3.0, 0.0, 7.0]), np.array([1.0, 0.0, 2.0])]
        if in_array:
            args[position][1] = np.nan
        else:
            args[position] = math.nan
        with pytest.raises(ValueError, match=message):
            bound(*args)

    def test_windowed_index_uses_constant_budget(self):
        # 0 successes in 20 pulls at a window of 100, so budget allowance(100):
        # the optimistic probability solves 20 * (-log(1 - q)) = allowance(100).
        got = ucb_probability(0.0, 20, allowance(100))
        assert abs(got - 0.3682966975225834) < 1e-12
        assert abs(got - (-math.expm1(-allowance(100) / 20))) < 1e-12
        # Pessimistic mirror at 20 straight successes.
        low = lcb_probability(1.0, 20, allowance(100))
        assert abs(low - 0.6317033024774166) < 1e-12

    def test_broadcasting_and_scalar_types(self):
        out = ucb_probability(np.full((3, 4), 0.5), np.arange(1, 5), 2.0)
        assert out.shape == (3, 4)
        low = lcb_probability(np.array([0.0, 0.5, 1.0]), np.arange(12).reshape(4, 3), 2.0)
        assert low.shape == (4, 3)
        assert low[0, 0] == 0.0 and abs(low[0, 2] - math.exp(-1.0)) < 1e-15
        assert low[1, 1] == lcb_probability(0.5, 4, 2.0)
        assert isinstance(ucb_probability(0.5, 3, 2.0), float)


class TestSolverIndependence:
    """A bound depends only on its own (p, t, f), never on the rest of the batch."""

    @staticmethod
    def _cases(n=2000):
        rng = np.random.default_rng(17)
        t = np.floor(10 ** rng.uniform(0, 5, n))
        p = rng.integers(0, t + 1) / t
        p[:100] = rng.choice([0.0, 1.0], 100)
        f = rng.uniform(0.0, 25.0, n)
        f[100:150] = 0.0
        return p, t, f

    @pytest.mark.parametrize("bound", [ucb_probability, lcb_probability])
    def test_batch_composition_and_order_do_not_change_bits(self, bound):
        p, t, f = self._cases()
        batch = bound(p, t, f)
        alone = np.array([bound(pi, ti, fi) for pi, ti, fi in zip(p, t, f)])
        np.testing.assert_array_equal(alone, batch)
        perm = np.random.default_rng(5).permutation(p.size)
        np.testing.assert_array_equal(bound(p[perm], t[perm], f[perm]), batch[perm])
        # A neighbour with far more pulls leaves every other element alone.
        with_big = bound(np.append(p, 0.5), np.append(t, 1e6), np.append(f, 25.0))
        np.testing.assert_array_equal(with_big[:-1], batch)

    def test_mixed_directions_match_each_bound_alone(self):
        p, t, f = self._cases()
        upper = np.random.default_rng(11).random(p.size) < 0.5
        alone = np.array(
            [
                (ucb_probability if u else lcb_probability)(pi, ti, fi)
                for pi, ti, fi, u in zip(p, t, f, upper)
            ]
        )
        mixed = klstats._solve_probability(p, t, f, upper)
        np.testing.assert_array_equal(mixed, alone)
        perm = np.random.default_rng(5).permutation(p.size)
        np.testing.assert_array_equal(
            klstats._solve_probability(p[perm], t[perm], f[perm], upper[perm]), alone[perm]
        )
        for u in (True, False):
            with_big = klstats._solve_probability(
                np.append(p, 0.5), np.append(t, 1e6), np.append(f, 25.0), np.append(upper, u)
            )
            np.testing.assert_array_equal(with_big[:-1], alone)
        # A direction given per element or once for the batch gives the same bits.
        for u, bound in ((True, ucb_probability), (False, lcb_probability)):
            np.testing.assert_array_equal(
                klstats._solve_probability(p, t, f, np.full(p.size, u)), bound(p, t, f)
            )


# One element of a solver call: a rate (often an endpoint, else successes
# over pulls or any float in [0, 1]), a pull count (often 0), a budget (often
# 0) and a direction.
_PULLS = st.sampled_from([0, 1]) | st.integers(0, 10**6)
_ELEMENT = st.tuples(
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | st.fractions(0, 1, max_denominator=500),
    _PULLS,
    st.sampled_from([0.0]) | st.floats(0.0, 30.0),
    st.booleans(),
)


class TestTrustedEntry:
    """``_solve_trusted``, which ``select_all`` calls without validation,
    gives the validating entry's bits on every element."""

    @staticmethod
    def _call(solve, p, t, f, upper, at):
        def part(a):
            return a if np.ndim(a) == 0 else a[at]

        return solve(p[at], t[at], part(f), part(upper))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        rows=st.lists(_ELEMENT, min_size=1, max_size=40),
        direction=st.sampled_from([True, False, "mixed"]),
        one_budget=st.booleans(),
        float_pulls=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_validating_entry_bit_for_bit(
        self, rows, direction, one_budget, float_pulls, data
    ):
        p, t, f, u = (np.array(column) for column in zip(*rows))
        p = p.astype(float)
        t = t.astype(float if float_pulls else np.int64)  # select_all passes either
        f = float(f[0]) if one_budget else f
        upper = u if direction == "mixed" else direction
        got = klstats._solve_trusted(p, t, f, upper)
        want = klstats._solve_probability(p, t, f, upper)
        assert got.dtype == np.float64 and got.shape == p.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        # Neither the order of the batch nor the rest of it changes an element.
        n = p.size
        order = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        some = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        alone = [np.array([i]) for i in range(n)]
        for at in [order, some, *alone]:
            again = self._call(klstats._solve_trusted, p, t, f, upper, at)
            np.testing.assert_array_equal(again.view(np.int64), got[at].view(np.int64))

    @pytest.mark.parametrize("upper", [True, False, "mixed"])
    def test_a_call_with_no_interior_element(self, upper):
        # Endpoint rates, unpulled pairs and zero budgets have closed forms.
        p = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 0.3, 0.0, 1.0, 0.5])
        t = np.array([4, 7, 0, 0, 0, 9, 0, 3, 0])
        f = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        directions = np.arange(p.size) % 2 == 0 if upper == "mixed" else upper
        got = klstats._solve_trusted(p, t, f, directions)
        want = klstats._solve_probability(p, t, f, directions)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        up = np.broadcast_to(directions, p.shape)
        np.testing.assert_array_equal(got[t == 0], up[t == 0].astype(float))
        np.testing.assert_array_equal(got[(f == 0) & (t > 0)], p[(f == 0) & (t > 0)])

    @pytest.mark.parametrize("upper", [True, False, "mixed"])
    def test_chunks_do_not_change_bits(self, monkeypatch, upper):
        """Interior elements are solved ``_SOLVE_CHUNK`` at a time; chunks of
        one, of seven, or all at once give the same bits."""
        p, t, f = TestSolverIndependence._cases()
        directions = np.random.default_rng(3).random(p.size) < 0.5 if upper == "mixed" else upper
        whole = klstats._solve_trusted(p, t, f, directions)
        for chunk in (1, 7):
            monkeypatch.setattr(klstats, "_SOLVE_CHUNK", chunk)
            got = klstats._solve_trusted(p, t, f, directions)
            np.testing.assert_array_equal(got.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("upper", [True, "mixed"])
    def test_solve_nbytes_covers_the_traced_peak(self, upper):
        """Over three chunks and a part, with every element interior and
        bracketed steps likely (pulls up to 10**18), ``_solve_nbytes`` asks
        at least the traced peak, and at most a quarter more."""
        n = 3 * klstats._SOLVE_CHUNK + 5
        rng = np.random.default_rng(23)
        p, t = rng.uniform(1e-9, 1 - 1e-9, n), 10.0 ** rng.uniform(0, 18, n)
        f = 10.0 ** rng.uniform(-3, 3, n)
        directions = rng.random(n) < 0.5 if upper == "mixed" else upper
        tracemalloc.start()
        try:
            klstats._solve_trusted(p, t, f, directions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= klstats._solve_nbytes(n) <= 1.25 * peak


def test_the_callers_error_state_is_kept():
    """Bounds at t = 0, f = 0, p = 0 and 1, interior p and roots near 0 and
    1 come out inside ``np.errstate(all="raise")`` with the bits they have
    outside it, and leave the caller's state as it was."""
    p = np.array([0.0, 1.0, 0.0, 0.3, 0.3, 0.5, 1e-300, 1.0 - 2**-52, 0.25])
    t = np.array([4, 7, 0, 0, 9, 10**6, 3, 50, 1])
    f = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 25.0, 30.0, 1e-8, 800.0])
    want = ucb_probability(p, t, f), lcb_probability(p, t, f)
    before = np.geterr()
    with np.errstate(all="raise"):
        raising = np.geterr()
        got = ucb_probability(p, t, f), lcb_probability(p, t, f)
        assert np.geterr() == raising
    assert np.geterr() == before
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


class TestSolverAgainstHighPrecision:
    """Roots checked against a 30-digit bisection that shares no code with the solver."""

    @pytest.fixture(autouse=True)
    def _callers_error_state(self):
        # The core runs under the error state its caller, _solve_trusted, sets.
        with np.errstate(all="ignore"):
            yield

    @staticmethod
    def _cases(kind, rng, n=60):
        if kind == "random":
            t = np.floor(10 ** rng.uniform(0, 5, n))
            s = np.floor(rng.uniform(0, 1, n) * (t - 1)) + 1
            f = rng.uniform(0.01, 25.0, n)
        elif kind == "near-saturated":
            # p within a few samples of 1 and a large budget: q -> 1.
            t = np.floor(10 ** rng.uniform(0, 4, n))
            s = t - rng.integers(1, 4, n)
            f = rng.uniform(5.0, 25.0, n)
        else:
            # Small f/t: the root sits where the divergence is flat.
            t = np.floor(10 ** rng.uniform(2, 5, n))
            s = np.floor(rng.uniform(0, 1, n) * (t - 1)) + 1
            f = 10 ** rng.uniform(-8, -2, n)
        p = s / t
        keep = (p > 0) & (p < 1)
        return p[keep], t[keep], f[keep]

    @staticmethod
    def _count_coarse(p, t, f, q, upper):
        """Assert each root's certificate; return how many needed the 4-ulp one."""
        coarse = 0
        for pi, ti, fi, qi in zip(p, t, f, q):
            root = confidence_root_mp(pi, ti, fi, upper)
            within_4_ulp = abs(qi - root) <= 4 * np.spacing(qi)
            if abs(ti * kl_mp(pi, qi) - fi) > 1e-9:
                # The float grid is too coarse near q = 1 to meet the residual;
                # the true root must then lie within 4 ulp of the answer.
                coarse += 1
                assert within_4_ulp, (pi, ti, fi, qi)
        return coarse

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("kind", ["random", "near-saturated", "small-f/t"])
    def test_certified_residual_or_root_within_four_ulp(self, kind, upper):
        rng = np.random.default_rng(["random", "near-saturated", "small-f/t"].index(kind))
        p, t, f = self._cases(kind, rng)
        if kind == "near-saturated" and not upper:
            p = 1.0 - p  # mirror: q -> 0
        q, steps = klstats._solve_log_space(p, t, f / t, upper)
        assert steps <= klstats._NEWTON_STEPS  # never fell back to bisection
        coarse = self._count_coarse(p, t, f, q, upper)
        if (kind, upper) == ("near-saturated", True):
            assert coarse > 0  # the 4-ulp certificate is exercised

    def test_bisection_fallback_meets_the_same_certificate(self, monkeypatch):
        monkeypatch.setattr(klstats, "_UNCHECKED_STEPS", 0)
        monkeypatch.setattr(klstats, "_NEWTON_STEPS", 0)
        rng = np.random.default_rng(3)
        for kind in ("random", "near-saturated", "small-f/t"):
            p, t, f = self._cases(kind, rng, n=15)
            for upper in (True, False):
                q, steps = klstats._solve_log_space(p, t, f / t, upper)
                assert steps > 0
                self._count_coarse(p, t, f, q, upper)

    def test_step_count_stays_under_cap_on_extreme_inputs(self):
        rng = np.random.default_rng(23)
        n = 20_000
        t = np.floor(10 ** rng.uniform(0, 7, n))
        p = (np.floor(rng.uniform(0, 1, n) * (t - 1)) + 1) / t
        f = 10 ** rng.uniform(-8, 1.5, n)
        keep = (p > 0) & (p < 1)
        for upper in (True, False):
            _, steps = klstats._solve_log_space(p[keep], t[keep], f[keep] / t[keep], upper)
            assert steps <= klstats._NEWTON_STEPS
