"""Decision policy behavior: initialization, batching, windows, structure.

Outcome bits in these tests come from seeded generators rather than an
environment; the policies only ever see (pair, outcome) and cannot tell
the difference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanrate import policies
from chanrate.klstats import _allowance_vec, allowance, lcb_probability, ucb_probability
from chanrate.model import RateSet, flat_to_pair
from chanrate.policies import KlUcbPolicy, build_policy, check_policy_kind, record, select_all

from _oracles import (
    assert_same_bits,
    crst_leaders_reference,
    crst_pick_reference,
    klucb_pick_reference,
    step_policy,
)

RATES2 = RateSet.of([1.0, 2.0])


def step_one(policy, outcome_fn):
    """Step a batch=1 policy once; outcome_fn(pair) -> 0/1.  Returns the pair."""
    K = policy._n_rates
    flat = step_policy(policy, lambda flats: [outcome_fn(flat_to_pair(int(flats[0]), K))])
    return flat_to_pair(int(flat[0]), K)


def run_scalar(policy, n_steps, outcome_fn):
    """Drive a batch=1 policy; outcome_fn(step, pair) -> 0/1."""
    return [tuple(step_one(policy, lambda pair: outcome_fn(n, pair))) for n in range(n_steps)]


class TestRoundRobinAndAlternation:
    def test_round_robin_prefix_covers_all_pairs_in_order(self):
        policy = build_policy("kl-ucb", RATES2, channels=3)
        seen = run_scalar(policy, 6, lambda n, pair: 0)
        assert seen == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]

    def test_round_robin_prefix_in_batch(self):
        policy = build_policy("crs-t", RATES2, channels=2, batch=4)
        for n in range(4):
            flats = step_policy(policy, lambda f: np.zeros(4))
            assert np.all(flats == n)


class TestBatchSemantics:
    def test_batch_lanes_match_independent_scalar_runs(self):
        """batch=S is S synchronized replications of batch=1 policies."""
        rng = np.random.default_rng(31)
        steps, S = 120, 3
        bits = rng.integers(0, 2, size=(steps, S)).astype(np.int64)

        batched = build_policy("kl-ucb", RATES2, channels=2, batch=S)
        scalars = [build_policy("kl-ucb", RATES2, channels=2) for _ in range(S)]
        for n in range(steps):
            flats = step_policy(batched, lambda f: bits[n])
            for i in range(S):
                assert step_policy(scalars[i], lambda f: bits[n, i : i + 1])[0] == flats[i]
        for i in range(S):
            np.testing.assert_array_equal(batched._pulls[i], scalars[i]._pulls[0])
            np.testing.assert_array_equal(batched._successes[i], scalars[i]._successes[0])

        # Near-tie tables, where index values differing in the last bits
        # decide the argmax: every pair's rate * theta lies within 1e-3 of
        # the best, and lanes see Bernoulli(theta) outcomes.
        for table in range(3):
            channels, n_rates = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            rates = np.sort(rng.uniform(0.5, 4.0, n_rates))
            mu = rng.uniform(0.3, 0.9) * rates[0] - rng.uniform(0.0, 1e-3, (channels, n_rates))
            theta = (mu / rates).ravel()
            u = rng.uniform(size=(steps, S))
            for kind in ("kl-ucb", "kl-ucb-u", "crs-t"):
                batched = build_policy(kind, rates, channels=channels, batch=S)
                scalars = [build_policy(kind, rates, channels=channels) for _ in range(S)]
                for n in range(steps):
                    flats = step_policy(batched, lambda f: u[n] < theta[f])
                    for i in range(S):
                        pick = step_policy(scalars[i], lambda f: u[n, i : i + 1] < theta[f])
                        assert pick[0] == flats[i], (table, kind, n, i)


class TestSelectAll:
    @staticmethod
    def _assert_picks_as_alone(record_step):
        """Policies of different kinds and batch sizes, stepped together by
        ``select_all`` and ``record_step``, make the picks each makes alone."""
        rng = np.random.default_rng(53)
        steps = 150
        theta = np.array([0.7, 0.4, 0.5, 0.3, 0.6, 0.2])
        specs = [("kl-ucb", 2), ("crs-t", 3), ("kl-ucb-u", 1), ("kl-ucb-u", 2)]
        u = [rng.uniform(size=(steps, batch)) for _, batch in specs]
        together = [build_policy(kind, [1.0, 2.0, 3.0], channels=2, batch=b) for kind, b in specs]
        alone = [build_policy(kind, [1.0, 2.0, 3.0], channels=2, batch=b) for kind, b in specs]
        for n in range(steps):
            picks = select_all(together)
            outcomes = [(u[i][n] < theta[f]).astype(np.int64) for i, f in enumerate(picks)]
            record_step(together, picks, outcomes)
            for i, policy in enumerate(alone):
                solo = step_policy(policy, lambda f: u[i][n] < theta[f])
                np.testing.assert_array_equal(picks[i], solo, err_msg=f"{specs[i]} at step {n}")

    def test_picks_do_not_depend_on_the_policies_stepped_with(self):
        """Their bound requests are solved in one call and ask for mixed
        directions; each policy is recorded alone."""

        def each_alone(policies, picks, outcomes):
            for policy, flats, won in zip(policies, picks, outcomes):
                record([policy], flats[None], won[None])

        self._assert_picks_as_alone(each_alone)

    def test_record_steps_any_policies_in_one_call(self):
        self._assert_picks_as_alone(record)

    def test_a_warming_policy_asks_for_no_bounds(self, monkeypatch):
        warming = build_policy("crs-t", RATES2, channels=2, batch=2)
        warmed = build_policy("kl-ucb", RATES2, channels=2, batch=2)
        step_policy(warming, lambda f: np.ones(2))
        for _ in range(4):
            step_policy(warmed, lambda f: f % 2)
        alone = select_all([warmed])[0]
        monkeypatch.setattr(warming, "_request", lambda: pytest.fail("asked for bounds"))
        warming_picks, warmed_picks = select_all([warming, warmed])
        np.testing.assert_array_equal(warming_picks, [1, 1])  # its step number
        np.testing.assert_array_equal(warmed_picks, alone)

    def test_an_outer_error_state_is_kept(self, monkeypatch):
        """Steps whose one solver call holds bounds at t = 0, at f = 0, at
        p = 0 and 1 and at interior p in both directions run inside
        ``np.errstate(all="raise")`` and leave the caller's state as it was."""
        seen = set()
        solve = policies._solve_trusted

        def spy(p, t, f, upper):
            up, f = np.broadcast_to(upper, p.shape), np.broadcast_to(f, p.shape)
            pulled, interior = t > 0, (0 < p) & (p < 1) & (t > 0) & (f > 0)
            cases = {
                "t=0": t == 0, "f=0": (f == 0) & pulled, "p=0": (p == 0) & pulled,
                "p=1": (p == 1) & pulled, "interior up": interior & up, "interior down": interior & ~up,
            }
            seen.update(name for name, hit in cases.items() if hit.any())
            return solve(p, t, f, upper)

        monkeypatch.setattr(policies, "_solve_trusted", spy)
        theta = np.array([1.0, 0.6, 0.0, 0.8, 0.5, 0.0])
        group = [
            build_policy("kl-ucb", [1.0, 2.0, 3.0], channels=2, batch=3, window=4),
            build_policy("crs-t", [1.0, 2.0, 3.0], channels=2, batch=3, window=5),
            build_policy("kl-ucb-u", [1.0, 2.0, 3.0], channels=2, batch=3),
            build_policy("kl-ucb", [1.0, 2.0, 3.0], channels=2, batch=3),
        ]
        rng = np.random.default_rng(61)
        before = np.geterr()
        with np.errstate(all="raise"):
            raising = np.geterr()
            for _ in range(80):
                picks = select_all(group)
                record(group, picks, [(rng.random(3) < theta[f]).astype(np.int64) for f in picks])
                assert np.geterr() == raising
        assert np.geterr() == before
        assert seen == {"t=0", "f=0", "p=0", "p=1", "interior up", "interior down"}


class TestBudgetBits:
    """Each learner asks the solver for a budget with the bits of the
    allowance it uses: ``allowance`` (math.log) at the step count for kl-ucb
    and crs-t, ``_allowance_vec`` (np.log) at the leader's count for
    kl-ucb-u.  The two differ in the last bit at n = 389, which these runs
    reach, so a learner that switched functions fails here; a golden digest
    rarely shows a budget's last bit."""

    @pytest.mark.parametrize("kind", ["kl-ucb", "crs-t", "kl-ucb-u"])
    def test_requested_budget_has_the_bits_of_its_allowance(self, monkeypatch, kind):
        assert allowance(389) != _allowance_vec(np.array([389]))[0]
        policy = build_policy(kind, RATES2, channels=1, batch=2)
        leader = kind == "kl-ucb-u"
        asked, solve = [], policies._solve_trusted

        def spy(p, t, f, upper):
            n = policy._v_lead.copy() if leader else policy._step
            asked.append((n, np.broadcast_to(f, p.shape).copy()))
            return solve(p, t, f, upper)

        monkeypatch.setattr(policies, "_solve_trusted", spy)
        for _ in range(400):
            step_policy(policy, lambda f: f == 0)  # rate 1 always works, rate 2 never
        for n, f in asked:
            want = _allowance_vec(n).repeat(policy._width) if leader else np.full(f.shape, allowance(n))
            assert_same_bits(f, want)
        assert any(389 in np.atleast_1d(n) for n, _ in asked)


class TestDeterminism:
    def test_same_outcomes_reproduce_decisions(self):
        def make():
            return build_policy("kl-ucb-u", RATES2, channels=2)

        def bits(n, pair):
            return (n * 2654435761 + pair[0] * 40503 + pair[1]) % 3 == 0

        a = run_scalar(make(), 200, lambda n, p: int(bits(n, p)))
        b = run_scalar(make(), 200, lambda n, p: int(bits(n, p)))
        assert a == b


    @pytest.mark.parametrize("kind", ["kl-ucb", "crs-t", "kl-ucb-u"])
    def test_a_new_policy_starts_from_empty_statistics(self, kind):
        """Each constructor sets the whole initial state: two policies built
        alike step alike, and each starts with no pulls and sweeps pair 0
        first on every lane."""
        a, b = (build_policy(kind, RATES2, channels=2, window=3, batch=2) for _ in range(2))
        assert a._step == 0
        assert not a._pulls.any() and not a._successes.any()
        if kind == "kl-ucb-u":
            assert not a._leader.any() and not a._lead_counts.any()  # leader (1, 1)
        rng = np.random.default_rng(59)
        for n in range(40):
            bits = rng.integers(0, 2, size=2)
            flats = step_policy(a, lambda f: bits)
            np.testing.assert_array_equal(step_policy(b, lambda f: bits), flats)
            if n == 0:
                np.testing.assert_array_equal(flats, [0, 0])

class TestWindowing:
    def test_window_caps_total_pulls(self):
        policy = build_policy("kl-ucb", RATES2, channels=2, window=8)
        for n in range(1, 41):
            step_one(policy, lambda pair: n % 2)
            assert policy._pulls.sum() == min(n, 8)

    def test_wide_window_matches_plain_policy_under_equal_budget(self, monkeypatch):
        """With the budget pinned and the window longer than the run, the
        sliding-window variant has identical statistics and decisions."""
        monkeypatch.setattr(policies, "allowance", lambda n: 2.5)
        monkeypatch.setattr(policies, "_allowance_vec", lambda v: np.full(v.shape, 2.5))
        for kind in ("kl-ucb", "kl-ucb-u"):
            plain = build_policy(kind, RATES2, channels=2)
            wide = build_policy(kind, RATES2, channels=2, window=10_000)
            a = run_scalar(plain, 300, lambda n, p: (n + p[1]) % 2)
            b = run_scalar(wide, 300, lambda n, p: (n + p[1]) % 2)
            assert a == b

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            build_policy("kl-ucb", RATES2, 1, window=-1)


class TestWindowShorterThanThePairs:
    """A window of 1 on a 2x3 table keeps only the last pick: after the
    round robin every other pair is back to 0 pulls, and the budget
    allowance(1) is 0, so each slot solves bounds at t = 0 and at f = 0."""

    @pytest.mark.parametrize("kinds", [("kl-ucb",), ("crs-t",), ("kl-ucb", "crs-t")])
    def test_picks_match_the_scalar_bounds(self, kinds):
        rates = np.array([1.0, 2.0, 3.0])
        theta = np.array([[0.9, 0.6, 0.2], [0.8, 0.7, 0.5]]).ravel()
        lanes, shape = 4, (4, 2, 3)
        group = [build_policy(kind, rates, channels=2, batch=lanes, window=1) for kind in kinds]
        rng = np.random.default_rng(29)
        budget = allowance(1)
        assert budget == 0.0
        for n in range(80):
            wants = []
            for kind, policy in zip(kinds, group):
                if n < theta.size:
                    wants.append(np.full(lanes, n))
                    continue
                assert (policy._pulls.sum(axis=1) == 1).all()  # the rest went back to 0
                counts = zip(policy._pulls.reshape(shape), policy._successes.reshape(shape))
                if kind == "kl-ucb":
                    want = [klucb_pick_reference(*c, rates, budget, ucb_probability) for c in counts]
                else:
                    want = [
                        crst_pick_reference(*c, rates, budget, ucb_probability, lcb_probability)
                        for c in counts
                    ]
                wants.append(want)
            outcomes = rng.random(lanes)
            for policy, flats, want in zip(group, select_all(group), wants):
                assert flats.tolist() == list(want)
                record([policy], flats[None], (outcomes < theta[flats]).astype(np.int64)[None])


class TestRateStore:
    """The empirical rates a policy keeps beside its counts."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["kl-ucb", "crs-t", "kl-ucb-u", "kl-ucb-u-strict"]),
        channels=st.integers(1, 3),
        n_rates=st.integers(1, 3),
        batch=st.integers(2, 4),
        window=st.one_of(st.none(), st.integers(1, 6)),
        data=st.data(),
    )
    def test_rates_equal_successes_over_pulls_after_every_step(
        self, kind, channels, n_rates, batch, window, data
    ):
        # Windows of 1 to 6 steps empty pairs again once the round robin ends.
        strict = kind.endswith("-strict")
        rates = np.arange(1, n_rates + 1, dtype=float)
        policy = build_policy(
            kind.removesuffix("-strict"), rates, channels, window=window, batch=batch, strict=strict
        )
        P = channels * n_rates
        lane_bits = st.lists(st.integers(0, 1), min_size=batch, max_size=batch)
        bits = data.draw(st.lists(lane_bits, min_size=1, max_size=40))
        history = []
        for outcomes in bits:
            flats = step_policy(policy, lambda f: outcomes)
            history.append((flats, outcomes))
            kept = history if window is None else history[-window:]
            pulls = np.zeros((batch, P), dtype=np.int64)
            wins = np.zeros((batch, P), dtype=np.int64)
            for f, o in kept:
                for lane in range(batch):
                    pulls[lane, f[lane]] += 1
                    wins[lane, f[lane]] += o[lane]
            want = [
                [w / n if n else 0.0 for w, n in zip(w_row, n_row)]
                for w_row, n_row in zip(wins.tolist(), pulls.tolist())
            ]
            np.testing.assert_array_equal(policy._pulls, pulls)
            np.testing.assert_array_equal(policy._successes, wins)
            assert_same_bits(policy._rate, want)


class TestKlUcbSelection:
    def test_picks_argmax_of_optimistic_throughput(self):
        policy = KlUcbPolicy(RATES2, channels=2)
        # Round-robin with fixed outcomes: arm order (1,1),(1,2),(2,1),(2,2).
        outs = [1, 0, 1, 1]
        seen = run_scalar(policy, 4, lambda n, p: outs[n])
        assert seen == [(1, 1), (1, 2), (2, 1), (2, 2)]
        f = allowance(4)
        expect = np.array(
            [
                1.0 * ucb_probability(1.0, 1, f),
                2.0 * ucb_probability(0.0, 1, f),
                1.0 * ucb_probability(1.0, 1, f),
                2.0 * ucb_probability(1.0, 1, f),
            ]
        )
        assert step_one(policy, lambda pair: 0) == flat_to_pair(int(np.argmax(expect)), 2)

    def test_lexicographic_tie_break(self):
        # Identical histories on every arm tie all indexes; the first
        # (lowest channel, lowest rate-index) flat must win among equal rates.
        policy = KlUcbPolicy(RateSet.of([1.0]), channels=3)
        assert run_scalar(policy, 3, lambda n, p: 1) == [(1, 1), (2, 1), (3, 1)]
        assert step_one(policy, lambda pair: 1) == (1, 1)


class TestCrsT:
    def test_exploration_confined_to_leader_neighborhood(self):
        rng = np.random.default_rng(37)
        rates = RateSet.of([1.0, 2.0, 4.0])
        policy = build_policy("crs-t", rates, channels=2)
        n_pairs = 6
        for n in range(250):
            if n >= n_pairs:
                pulls, wins = (x.reshape(2, 3) for x in (policy._pulls, policy._successes))
                leaders, undecided = crst_leaders_reference(
                    pulls, wins, rates.values, allowance(n), ucb_probability, lcb_probability
                )
            pair = step_one(policy, lambda pair: int(rng.random() < 0.5))
            if n >= n_pairs:
                c, k = pair.channel - 1, pair.rate_index - 1
                if undecided:
                    assert c == undecided[0]  # lowest undecided channel
                    assert abs(k - leaders[c]) <= 1
                else:
                    assert k == leaders[c]

    def test_picks_match_the_plain_rule(self, monkeypatch):
        """Every pick equals a lane-by-lane restatement of the rule that
        takes each index from its own scalar bound call."""
        rng = np.random.default_rng(53)
        rates = np.array([1.0, 1.8, 2.5, 3.1])
        theta = np.array([[0.95, 0.6, 0.4, 0.2], [0.9, 0.85, 0.5, 0.1], [0.7, 0.5, 0.45, 0.4]])
        lanes, (channels, n_rates) = 3, theta.shape
        # A small pinned budget lets channels settle within the run, so the
        # exploit branch is exercised too.
        for window, budget in ((None, None), (40, None), (None, 0.3), (60, 0.3)):
            monkeypatch.undo()
            if budget is not None:
                monkeypatch.setattr(policies, "allowance", lambda n: budget)
            policy = build_policy("crs-t", rates, channels=channels, batch=lanes, window=window)
            for n in range(300):
                want = None
                if n >= channels * n_rates:
                    f = allowance(window or n) if budget is None else budget
                    shape = (lanes, channels, n_rates)
                    want = [
                        crst_pick_reference(pulls, wins, rates, f, ucb_probability, lcb_probability)
                        for pulls, wins in zip(policy._pulls.reshape(shape), policy._successes.reshape(shape))
                    ]
                flats = step_policy(policy, lambda f: rng.random(lanes) < theta.ravel()[f])
                assert want is None or flats.tolist() == want, (window, n)

    def test_converges_to_clear_best_pair(self):
        # Deterministic link: rate 1 always works, rate 2 never does.
        policy = build_policy("crs-t", RATES2, channels=1)
        decisions = run_scalar(policy, 400, lambda n, p: int(p[1] == 1))
        assert decisions[-50:] == [(1, 1)] * 50
        pulls, wins = (x.reshape(1, 2) for x in (policy._pulls, policy._successes))
        leaders, undecided = crst_leaders_reference(
            pulls, wins, RATES2.values, allowance(400), ucb_probability, lcb_probability
        )
        assert leaders == [0] and undecided == []


class TestKlUcbU:
    def test_candidates_stay_in_leader_neighborhood(self):
        rng = np.random.default_rng(41)
        policy = build_policy("kl-ucb-u", RATES2, channels=2)
        graph = policy.graph
        for n in range(300):
            leader = flat_to_pair(int(policy._leader[0]), 2)
            pair = step_one(policy, lambda pair: int(rng.random() < 0.6))
            if n >= 4:
                allowed = set(graph.neighbors(leader)) | {tuple(leader)}
                assert tuple(pair) in allowed

    def test_forced_leader_cadence(self):
        rng = np.random.default_rng(43)
        policy = build_policy("kl-ucb-u", RATES2, channels=2)
        forced_steps = nonforced_leader_plays = 0
        for n in range(400):
            leader = int(policy._leader[0])
            v = policy._lead_counts[0, leader]
            pair = step_one(policy, lambda pair: int(rng.random() < 0.5))
            if n >= 4:
                if (v - 1) % policy.gamma == 0:
                    assert pair == flat_to_pair(leader, 2)
                    forced_steps += 1
                elif pair == flat_to_pair(leader, 2):
                    nonforced_leader_plays += 1
        assert forced_steps > 0

    def test_strict_mode_excludes_leader_from_free_plays(self):
        rng = np.random.default_rng(47)
        policy = build_policy("kl-ucb-u", RATES2, channels=2, strict=True)
        for n in range(300):
            leader = int(policy._leader[0])
            v = policy._lead_counts[0, leader]
            pair = step_one(policy, lambda pair: int(rng.random() < 0.5))
            if n >= 4:
                if (v - 1) % policy.gamma != 0:
                    assert pair != flat_to_pair(leader, 2)

    def test_leader_tracks_empirical_best(self):
        policy = build_policy("kl-ucb-u", RATES2, channels=2)
        run_scalar(policy, 4, lambda n, p: int(p == (2, 2)))
        assert flat_to_pair(int(policy._leader[0]), 2) == (2, 2)

    @pytest.mark.parametrize("strict", [False, True])
    def test_single_pair_grid(self, strict):
        policy = build_policy("kl-ucb-u", RateSet.of([1.0]), channels=1, strict=strict)
        assert policy.gamma == 0
        decisions = run_scalar(policy, 10, lambda n, p: 1)
        assert decisions == [(1, 1)] * 10


class TestBuildPolicy:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            build_policy("ucb1", RATES2, 1)

    def test_strict_only_for_neighborhood_policy(self):
        with pytest.raises(ValueError, match="strict"):
            build_policy("kl-ucb", RATES2, 1, strict=True)

    def test_kind_normalization(self):
        assert check_policy_kind(" KL-UCB ") == "kl-ucb"

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="channel"):
            build_policy("kl-ucb", RATES2, 0)
        with pytest.raises(ValueError, match="batch"):
            build_policy("kl-ucb", RATES2, 1, batch=0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_strict_reaches_the_candidate_table(self, strict):
        policy = build_policy("kl-ucb-u", [1.0, 2.0, 3.0], channels=2, strict=strict)
        assert policy.graph.n_rates == 3
        for flat, row in enumerate(policy._cand_table):
            assert (flat in row) is not strict

    def test_baselines_are_not_learning_policies(self):
        for kind in ("oracle", "static"):
            with pytest.raises(ValueError, match="baseline"):
                build_policy(kind, RATES2, 1)
