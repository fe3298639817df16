"""Acceptance suite: one test per shipped guarantee.

``pytest tests/test_acceptance.py -v`` prints a pass/fail line per criterion.
The simulation-heavy entries (06, 07, 09, 10) dominate the runtime; the whole
file takes a few minutes.  Measured values and timings are printed so a
``-rA`` run shows the margins, not just the verdicts.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

from chanrate.bounds import c_GU, c_I, c_U_prime
from chanrate.cli import main as cli_main
from chanrate.environments import TraceTable
from chanrate.graph import build_graph, check_graphically_unimodal, check_monotone, check_unimodal
from chanrate.harness import ExperimentConfig, PolicySpec, accounting_check, run_experiment
from chanrate.klstats import kl_bernoulli, lcb_probability, ucb_probability
from chanrate.model import (
    DecisionPair,
    DegenerateOptimumError,
    LinkModel,
    RateSet,
    compute_optima,
    demo_model,
)
from chanrate.policies import build_policy

from _oracles import (
    expected_regret_exhaustive,
    increasing_path_exists,
    kl_closed_form,
    write_theta_csv,
)


def _kl_grid_reference(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized closed form, written independently of the package."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        t2 = np.where(p < 1, (1 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0)
    out = t1 + t2
    out = np.where((q == 0) & (p > 0), np.inf, out)
    out = np.where((q == 1) & (p < 1), np.inf, out)
    return out


def test_criterion_01_kl_divergence_matches_closed_form_grid():
    grid = np.linspace(0.0, 1.0, 1000)
    P, Q = np.meshgrid(grid, grid, indexing="ij")
    got = kl_bernoulli(P, Q)
    want = _kl_grid_reference(P, Q)

    # The vectorized reference agrees with the scalar one it derives from,
    # up to log-evaluation order.
    rng = np.random.default_rng(1)
    for i, j in rng.integers(0, 1000, size=(100, 2)):
        assert math.isclose(
            want[i, j], kl_closed_form(grid[i], grid[j]), rel_tol=0.0, abs_tol=1e-13
        )

    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    worst = np.max(np.abs(got[finite] - want[finite]))
    print(f"\nmax |difference| over 10^6 grid points: {worst:.3e} (allowed 1e-12)")
    assert worst <= 1e-12

    # For fixed p the divergence falls while q approaches p from below and
    # rises once q moves past p.
    d = np.diff(got, axis=1)
    falling = Q[:, 1:] <= P[:, 1:]
    rising = Q[:, :-1] >= P[:, :-1]
    assert np.all(d[falling] <= 0.0)
    assert np.all(d[rising] >= 0.0)
    # p itself is the minimum, at exactly zero.
    assert np.all(np.diagonal(got) == 0.0)


def test_criterion_02_confidence_bound_solver_residuals():
    rng = np.random.default_rng(20260814)
    N = 10_000
    pulls = rng.integers(1, 10_001, N)
    successes = rng.integers(0, pulls + 1)
    # Force a few hundred boundary cases; random draws rarely hit them.
    pulls[:400] = rng.integers(1, 10_001, 400)
    successes[:200] = 0
    successes[200:400] = pulls[200:400]
    p_hat = successes / pulls
    budget = rng.uniform(0.01, 25.0, N)
    rate = rng.uniform(0.5, 4.0, N)

    t0 = time.perf_counter()
    ucb = ucb_probability(p_hat, pulls, budget)
    lcb = lcb_probability(p_hat, pulls, budget)
    solve_time = time.perf_counter() - t0
    print(f"\nvectorized solve of 2x10^4 bounds: {solve_time:.2f} s (allowed 5 s)")
    assert solve_time < 5.0

    assert np.all(lcb <= p_hat) and np.all(p_hat <= ucb)

    # Rate scaling is definitional: the throughput index is rate times the
    # probability bound, and a scalar call reproduces its element of the
    # batched call bit for bit.
    for i in range(100):
        assert rate[i] * ucb_probability(p_hat[i], pulls[i], budget[i]) == rate[i] * ucb[i]
        assert rate[i] * lcb_probability(p_hat[i], pulls[i], budget[i]) == rate[i] * lcb[i]

    # Closed forms at the endpoints.
    z = p_hat == 0.0
    np.testing.assert_allclose(ucb[z], -np.expm1(-budget[z] / pulls[z]), rtol=0, atol=1e-9)
    assert np.all(lcb[z] == 0.0)
    o = p_hat == 1.0
    np.testing.assert_allclose(lcb[o], np.exp(-budget[o] / pulls[o]), rtol=0, atol=1e-9)
    assert np.all(ucb[o] == 1.0)

    # Defining equations at interior roots, residual measured against the
    # independent closed form.  Near q -> 1 the float grid is too coarse to
    # evaluate the divergence to 1e-9; those cells instead certify that the
    # true root lies within 4 ulp of the answer.
    coarse = 0
    for i in range(N):
        p, t, f, u, l = p_hat[i], pulls[i], budget[i], ucb[i], lcb[i]
        if p < 1.0:
            if t * (1.0 - p) * 2.3e-16 / (1.0 - u) > 1e-10:
                coarse += 1
                down = max(u - 4 * np.spacing(u), p)
                up = u + 4 * np.spacing(u)
                assert t * kl_closed_form(p, down) <= f + 1e-9
                assert up >= 1.0 or t * kl_closed_form(p, min(up, 1.0)) >= f - 1e-9
            else:
                assert abs(t * kl_closed_form(p, u) - f) <= 1e-9
        if p > 0.0:
            assert abs(t * kl_closed_form(p, l) - f) <= 1e-9
    print(f"ulp-certified near-saturated cells: {coarse} of {N}")


def test_criterion_03_structure_check_agrees_with_path_oracle():
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    verdicts = {True: 0, False: 0}
    done = 0
    while done < 1000:
        channels = int(rng.integers(1, 7))
        n_rates = int(rng.integers(1, 13))
        if channels * n_rates > 12:
            continue
        theta = rng.uniform(0.05, 0.95, (channels, n_rates))
        try:
            model = LinkModel(RateSet.of(np.sort(rng.uniform(0.5, 4.0, n_rates))), theta)
            report = check_graphically_unimodal(model)
        except (ValueError, DegenerateOptimumError):
            continue
        opt = compute_optima(model)
        graph = build_graph(channels, n_rates)
        reachable = all(
            increasing_path_exists(
                opt.mu, tuple(pair), tuple(opt.best), lambda c, k: graph.neighbors((c, k))
            )
            for pair in itertools.product(range(1, channels + 1), range(1, n_rates + 1))
            if tuple(pair) != tuple(opt.best)
        )
        assert report.unimodal == reachable
        verdicts[report.unimodal] += 1
        done += 1
    elapsed = time.perf_counter() - t0
    print(f"\n1000 instances in {elapsed:.2f} s (allowed 10 s); "
          f"{verdicts[True]} unimodal, {verdicts[False]} not")
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert elapsed < 10.0


def test_criterion_04_benchmark_table_structure(tmp_path, capsys):
    model = demo_model()
    assert all(check_monotone(model))
    assert all(check_unimodal(model).relaxed)
    assert check_graphically_unimodal(model).unimodal
    opt = compute_optima(model)
    assert opt.best == DecisionPair(channel=2, rate_index=6)
    assert model.rates.rate(6) == 52.0
    assert opt.mu_star == 52.0

    # The CLI diagnosis reports the same facts.
    write_theta_csv(tmp_path / "theta.csv", model.theta)
    (tmp_path / "rates.json").write_text(json.dumps([float(r) for r in model.rates]))
    code = cli_main(
        ["check", "--theta", str(tmp_path / "theta.csv"), "--rates", str(tmp_path / "rates.json")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "monotone rows: yes" in out
    assert "relaxed unimodal rows: yes" in out
    assert "graphically unimodal: yes" in out
    assert "best pair: channel 2, rate index 6 (52 per packet), throughput 52" in out


def test_criterion_05_bound_ordering_and_low_rate_invariance():
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    done = 0
    for _ in range(20_000):
        if done == 500:
            break
        channels = int(rng.integers(2, 4))
        n_rates = int(rng.integers(2, 4))
        theta = rng.uniform(0.05, 0.95, (channels, n_rates))
        rates = np.sort(rng.uniform(0.5, 4.0, n_rates))
        model = LinkModel(RateSet.of(rates), theta)
        blind = c_I(model)
        graph_bound = c_GU(model)
        channel_bound = c_U_prime(model)
        if not (blind.defined and graph_bound.defined and channel_bound.defined):
            continue
        for bound in (blind, graph_bound, channel_bound):
            assert bound.value >= 0.0 and math.isfinite(bound.value)
        assert graph_bound.value <= blind.value

        # Appending a dominated low rate (dead in every channel) must leave
        # each constant bitwise unchanged.
        opt = compute_optima(model)
        low = 0.5 * min(rates[0], float(opt.mu.max(axis=1).min()))
        extended = LinkModel(
            RateSet.of([low, *rates]),
            np.concatenate([np.zeros((channels, 1)), theta], axis=1),
        )
        assert c_U_prime(extended).value == channel_bound.value
        assert c_I(extended).value == blind.value
        assert c_GU(extended).value == graph_bound.value
        done += 1
    elapsed = time.perf_counter() - t0
    print(f"\n{done} unimodal instances in {elapsed:.2f} s (allowed 30 s)")
    assert done == 500
    assert elapsed < 30.0


def test_criterion_06_neighborhood_policy_beats_plain_index():
    model = demo_model()
    config = ExperimentConfig(
        rates=model.rates,
        policies=(PolicySpec("kl-ucb"), PolicySpec("kl-ucb-u")),
        horizon=100_000,
        seeds=tuple(range(1, 21)),
        theta=np.array(model.theta),
    )
    t0 = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    plain = result.policy("kl-ucb").final_regret.mean()
    structured = result.policy("kl-ucb-u").final_regret.mean()
    ratio = structured / plain
    print(
        f"\nmean final regret over 20 seeds: kl-ucb {plain:.1f}, "
        f"kl-ucb-u {structured:.1f}, ratio {ratio:.4f} (allowed 0.7); "
        f"runtime {elapsed:.1f} s (target < 120 s)"
    )
    assert ratio <= 0.7


def test_criterion_07_logarithmic_regret_slope():
    config = ExperimentConfig(
        rates=RateSet.of([1.0]),
        policies=(PolicySpec("kl-ucb"),),
        horizon=100_000,
        seeds=tuple(range(1, 51)),
        theta=np.array([[0.9], [0.5]]),
        checkpoints=(10_000,),
    )
    result = run_experiment(config)
    pol = result.policy("kl-ucb")
    gain = pol.regret_at(100_000).mean() - pol.regret_at(10_000).mean()
    slope = gain / math.log(10.0)
    constant = 0.78305  # 0.4 / kl(0.5, 0.9)
    print(
        f"\nregret gain per log slot: {slope:.4f}, "
        f"allowed [{constant / 3:.4f}, {3 * constant:.4f}]"
    )
    assert constant / 3 <= slope <= 3 * constant


def test_criterion_08_slot_and_time_accounting_sandwich():
    config = ExperimentConfig(
        rates=RateSet.of([31 / 32, 63 / 64, 1.0]),
        policies=(PolicySpec("kl-ucb"),),
        horizon=4096,
        seeds=tuple(range(1, 51)),
        theta=np.array([[0.9, 0.8, 0.7]]),
        accounting="both",
    )
    result = run_experiment(config)
    report = accounting_check(result)
    assert report.slot_low == 3968 and report.slot_high == 4096
    entry = report.entries[0]
    print(
        f"\nmean regret: slots(3968) {entry.mean_slot_low:.3f} "
        f"<= time {entry.mean_time:.3f} (+/- {entry.tol_low:.3f}) "
        f"<= slots(4096) {entry.mean_slot_high:.3f} (+/- {entry.tol_high:.3f})"
    )
    assert entry.lower_ok and entry.upper_ok
    assert entry.budget_ok
    # Budget invariant, recomputed outside the harness: packets weighted by
    # per-packet airtime never exceed the horizon, in any run.
    pol = result.policy("kl-ucb")
    inv_r = 1.0 / np.array([31 / 32, 63 / 64, 1.0])
    assert np.all(pol.packet_counts @ inv_r <= 4096.0)


def test_criterion_09_windowed_tracking_after_mid_horizon_swap():
    before = np.array([[0.3, 0.9], [0.3, 0.55]])
    after = np.array([[0.3, 0.55], [0.3, 0.8]])
    trace = TraceTable(starts=(0, 20_000), tables=(before, after), horizon=40_000)
    config = ExperimentConfig(
        rates=RateSet.of([0.5, 1.0]),
        policies=(PolicySpec("kl-ucb"), PolicySpec("kl-ucb-u", window=2000)),
        horizon=40_000,
        seeds=tuple(range(1, 21)),
        trace=trace,
    )
    result = run_experiment(config)
    oracle = result.oracle_reward
    static = result.static_reward
    plain = result.policy("kl-ucb").expected_reward.mean()
    windowed = result.policy("kl-ucb-u-w2000").expected_reward.mean()
    print(
        f"\nexpected reward: static {static:.0f} < kl-ucb {plain:.0f} "
        f"< kl-ucb-u-w2000 {windowed:.0f} < oracle {oracle:.0f}; "
        f"windowed fraction of oracle {windowed / oracle:.4f} (needs >= 0.8)"
    )
    assert windowed >= 0.8 * oracle
    assert static < plain < windowed < oracle


def test_criterion_10_tiny_horizon_exhaustive_expectation():
    theta = np.array([[0.85, 0.5], [0.6, 0.25]])
    rates = RateSet.of([1.0, 2.0])
    horizon = 7  # pair count plus three free slots

    exact = expected_regret_exhaustive(
        build_policy("kl-ucb", rates, 2), theta, rates.as_array(), horizon
    )
    config = ExperimentConfig(
        rates=rates,
        policies=(PolicySpec("kl-ucb"),),
        horizon=horizon,
        seeds=tuple(range(1, 100_001)),
        theta=theta,
    )
    final = run_experiment(config).policy("kl-ucb").final_regret
    se = final.std(ddof=1) / math.sqrt(len(final))
    print(
        f"\nexact expected regret {exact:.6f}, Monte Carlo {final.mean():.6f} "
        f"+/- {se:.6f} over 10^5 seeds"
    )
    assert abs(final.mean() - exact) <= 3 * se


def test_criterion_11_simulation_outputs_byte_reproducible(tmp_path, capsys):
    model = demo_model()
    cfg = {
        "rates": [float(r) for r in model.rates],
        "theta": [[float(v) for v in row] for row in model.theta],
        "policies": [{"kind": "kl-ucb"}, {"kind": "kl-ucb-u"}],
        "horizon": 1024,
        "seeds": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for sub in ("first", "second"):
        code = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / sub)])
        assert code == 0
    capsys.readouterr()
    for name in ("regret.csv", "decisions.csv"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, name
