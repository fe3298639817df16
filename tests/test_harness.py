"""Experiment harness: configs, simulation invariants, accounting, outputs."""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanrate import environments, harness, policies
from chanrate.environments import (
    OutcomeTape,
    SyntheticDriftSpec,
    TraceTable,
)
from chanrate.harness import (
    ExperimentConfig,
    ExperimentResult,
    PolicyRunResult,
    PolicySpec,
    _flat_sum,
    _float_texts,
    accounting_check,
    default_checkpoints,
    emit_outputs,
    run_experiment,
)
from chanrate.model import RateSet, demo_model
from chanrate.policies import build_policy

from _oracles import (
    assert_same_bits,
    baseline_plays,
    run_reference,
    step_policy,
    weighted_sum_reference,
    write_theta_csv,
)


def _memory_asked(monkeypatch, config) -> int:
    """The bytes ``run_experiment(config)`` asks ``_require_memory`` for; the
    run stops there, before it allocates anything."""
    asked = []

    class Asked(Exception):
        pass

    def record(need, what):
        asked.append(need)
        raise Asked

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_require_memory", record)
        with pytest.raises(Asked):
            run_experiment(config)
    return asked[0]


def config_2x2(**kw):
    base = dict(
        rates=RateSet.of([1.0, 2.0]),
        policies=(PolicySpec("oracle"), PolicySpec("static"), PolicySpec("kl-ucb")),
        horizon=256,
        seeds=tuple(range(1, 9)),
        theta=np.array([[0.9, 0.6], [0.5, 0.3]]),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestPolicySpec:
    def test_labels(self):
        assert PolicySpec("kl-ucb").label == "kl-ucb"
        assert PolicySpec("kl-ucb-u", window=2000).label == "kl-ucb-u-w2000"
        assert PolicySpec("kl-ucb-u", strict=True).label == "kl-ucb-u-strict"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            PolicySpec("thompson")
        with pytest.raises(ValueError, match="takes no window"):
            PolicySpec("oracle", window=10)
        with pytest.raises(ValueError, match="strict"):
            PolicySpec("crs-t", strict=True)

    def test_json_round_trip(self):
        spec = PolicySpec("kl-ucb-u", window=500, strict=True)
        assert PolicySpec.from_json_dict(spec.to_json_dict()) == spec
        with pytest.raises(ValueError, match="unknown policy keys"):
            PolicySpec.from_json_dict({"kind": "kl-ucb", "tau": 3})


class TestExperimentConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            config_2x2(trace=TraceTable(starts=(0,), tables=(np.full((2, 2), 0.5),)))
        with pytest.raises(ValueError, match="exactly one"):
            config_2x2(theta=None)

    def test_a_seed_count_beyond_memory_is_rejected_before_its_list_is_built(self, monkeypatch):
        """On a host of 4 MiB, 10^5 seeds (12.8 MB at 128 bytes a seed) are
        rejected by ``from_json_dict`` and by ``with_seeds``."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        data = {"rates": [1.0, 2.0], "theta": [[0.9, 0.6], [0.5, 0.3]], "policies": [{"kind": "oracle"}]}
        with pytest.raises(ValueError, match="100000 seeds need about .* physical memory"):
            ExperimentConfig.from_json_dict({**data, "horizon": 16, "seeds": 10**5})
        config = ExperimentConfig.from_json_dict({**data, "horizon": 16, "seeds": 10**4})
        with pytest.raises(ValueError, match="100000 seeds need about .* physical memory"):
            config.with_seeds(10**5)

    def test_occupancy_needs_theta(self):
        trace = TraceTable(starts=(0,), tables=(np.full((2, 2), 0.5),))
        with pytest.raises(ValueError, match="occupancy"):
            config_2x2(theta=None, trace=trace, occupancy=np.array([0.1, 0.2]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate policy labels"):
            config_2x2(policies=(PolicySpec("kl-ucb"), PolicySpec("kl-ucb")))

    def test_horizon_must_cover_one_round_robin(self):
        with pytest.raises(ValueError, match="below the pair count"):
            config_2x2(horizon=3)

    def test_seed_checks(self):
        with pytest.raises(ValueError, match="distinct"):
            config_2x2(seeds=(1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            config_2x2(seeds=(-1,))
        with pytest.raises(ValueError, match="at least one seed"):
            config_2x2(seeds=())

    def test_non_integral_seeds_rejected_not_truncated(self):
        for seeds in ((1.5, 2.7), (1, 2.5), (1, float("nan")), (1, float("inf")), ("1",), (True, 2)):
            with pytest.raises(ValueError, match="each of seeds must be an integer"):
                config_2x2(seeds=seeds)
        config = config_2x2(seeds=(1.0, np.int64(2), np.float64(3.0)))
        assert config.seeds == (1, 2, 3) and all(type(s) is int for s in config.seeds)

    def test_non_integral_checkpoints_rejected_not_truncated(self):
        for cps in ((3.9,), (4, 100.5), (float("nan"),)):
            with pytest.raises(ValueError, match="each of checkpoints must be an integer"):
                config_2x2(checkpoints=cps)
        assert config_2x2(checkpoints=(3.0, np.int64(5))).checkpoints == (3, 5)

    def test_accounting_values(self):
        with pytest.raises(ValueError, match="accounting"):
            config_2x2(accounting="packets")
        trace = TraceTable(starts=(0,), tables=(np.full((2, 2), 0.5),), horizon=300)
        with pytest.raises(ValueError, match="stationary theta"):
            config_2x2(theta=None, trace=trace, accounting="original")

    def test_horizon_capped_by_trace(self):
        trace = TraceTable(starts=(0,), tables=(np.full((2, 2), 0.5),), horizon=100)
        with pytest.raises(ValueError, match="exceeds the trace horizon"):
            config_2x2(theta=None, trace=trace, horizon=101)

    def test_rate_width_must_match(self):
        trace = TraceTable(starts=(0,), tables=(np.full((2, 3), 0.5),))
        with pytest.raises(ValueError, match="trace rate count does not match the rate set"):
            config_2x2(theta=None, trace=trace)
        # A trace of the right width is the run's schedule as it is.
        trace = TraceTable(starts=(0,), tables=(np.full((2, 2), 0.5),))
        assert config_2x2(theta=None, trace=trace).build_environment() is trace

    def test_drift_rates_must_match(self):
        drift = SyntheticDriftSpec(
            rates=RateSet.of([1.0, 3.0]), channels=2, horizon=300, step_std=0.01
        )
        with pytest.raises(ValueError, match="drift spec rates"):
            config_2x2(theta=None, drift=drift)

    def test_theta_json_round_trip(self):
        config = config_2x2(occupancy=np.array([0.1, 0.0]), checkpoints=(100,))
        again = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert again.rates == config.rates
        assert again.policies == config.policies
        assert again.checkpoints == (100,)
        np.testing.assert_array_equal(again.theta, config.theta)
        np.testing.assert_array_equal(again.occupancy, config.occupancy)

    def test_synth_json_round_trip(self):
        drift = SyntheticDriftSpec(
            rates=RateSet.of([1.0, 2.0]), channels=2, horizon=300, step_std=0.01
        )
        config = config_2x2(theta=None, drift=drift, horizon=300)
        again = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert again.drift == drift

    def test_seed_count_shorthand(self):
        data = config_2x2().to_json_dict()
        data["seeds"] = 5
        config = ExperimentConfig.from_json_dict(data)
        assert config.seeds == (1, 2, 3, 4, 5)

    def test_unknown_keys_rejected(self):
        data = config_2x2().to_json_dict()
        data["epsilon"] = 0.1
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json_dict(data)

    def test_paths_resolve_relative_to_config(self, tmp_path):
        write_theta_csv(tmp_path / "theta.csv", np.array([[0.9, 0.6], [0.5, 0.3]]))
        cfg = {
            "rates": [1.0, 2.0],
            "theta_csv": "theta.csv",
            "policies": [{"kind": "kl-ucb"}],
            "horizon": 64,
            "seeds": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        config = ExperimentConfig.from_json(path)
        assert config.theta[1, 0] == 0.5

    def test_with_seeds(self):
        assert config_2x2().with_seeds(3).seeds == (1, 2, 3)


class TestDefaultCheckpoints:
    def test_powers_of_two_plus_horizon(self):
        assert default_checkpoints(100) == (1, 2, 4, 8, 16, 32, 64, 100)
        assert default_checkpoints(64) == (1, 2, 4, 8, 16, 32, 64)
        assert default_checkpoints(1) == (1,)


class TestRunExperiment:
    def test_a_run_frees_its_learners_without_the_cycle_collector(self, monkeypatch):
        """A run's policies form no reference cycle, so they are freed when
        the run returns: a repeated run holds one run's arrays."""
        built = []

        def tracked(*args, **kwargs):
            policy = build_policy(*args, **kwargs)
            built.append(weakref.ref(policy))
            return policy

        monkeypatch.setattr(harness, "build_policy", tracked)
        gc.disable()
        try:
            run_experiment(config_2x2(horizon=64, policies=_LEARNERS))
        finally:
            gc.enable()
        assert len(built) == len(_LEARNERS) and all(ref() is None for ref in built)

    def test_stationary_invariants(self):
        config = config_2x2()
        result = run_experiment(config)
        assert result.slots == 256
        assert result.checkpoints[-1] == 256
        oracle = result.policy("oracle")
        # The oracle plays the true best pair every slot: zero pseudo-regret.
        assert np.all(oracle.trajectories == 0.0)
        # On a stationary schedule the static baseline is the oracle.
        assert result.static_flat == 1  # pair (1, 2)
        np.testing.assert_allclose(result.oracle_reward, 1.2 * 256, rtol=1e-12)
        np.testing.assert_allclose(result.static_reward, 1.2 * 256, rtol=1e-12)
        learner = result.policy("kl-ucb")
        assert learner.trajectories.shape == (8, len(result.checkpoints))
        assert np.all(learner.pulls.sum(axis=1) == 256)
        assert np.all(np.diff(learner.mean_regret) >= 0)
        assert np.all(result.efficiency("kl-ucb") <= 1.0)
        assert learner.final_regret.mean() > 0

    def test_trace_swap_penalizes_static(self):
        t0 = np.array([[0.9, 0.2], [0.1, 0.1]])
        t1 = np.array([[0.1, 0.1], [0.9, 0.2]])
        trace = TraceTable(starts=(0, 128), tables=(t0, t1), horizon=256)
        config = config_2x2(theta=None, trace=trace)
        result = run_experiment(config)
        # Sanity: the swap makes any fixed pair earn about half the oracle.
        assert result.static_reward < 0.6 * result.oracle_reward
        assert np.all(result.policy("oracle").trajectories == 0.0)
        np.testing.assert_array_equal(result.best_flats[:128], 0)
        np.testing.assert_array_equal(result.best_flats[128:], 2)

    def test_decision_logs_hold_one_byte_per_slot(self):
        # 4 pairs fit in a uint8; the logs are as long as the horizon.
        result = run_experiment(config_2x2(seeds=(3,)))
        assert result.best_flats.dtype == np.uint8
        assert all(pol.decisions.dtype == np.uint8 for pol in result.policies)

    @pytest.mark.parametrize("channels, rates, itemsize", [(2, 2, 1), (2, 128, 1), (3, 100, 2)])
    def test_memory_check_counts_the_log_entry_size(self, monkeypatch, channels, rates, itemsize):
        """A decision log entry takes the bytes of the smallest type that
        holds a flat pair index: 1 up to 256 pairs, 2 above."""
        config = ExperimentConfig(
            rates=RateSet.of([float(r) for r in range(1, rates + 1)]),
            policies=(PolicySpec("oracle"), PolicySpec("kl-ucb-u", window=7), PolicySpec("crs-t")),
            horizon=1000,
            seeds=(1, 2, 3),
            theta=np.full((channels, rates), 0.5),
        )
        P = channels * rates
        logs = itemsize * 1000 * 4  # best-pair log plus three decision logs
        tape = 3 * 512 * P  # one block of outcomes
        # Per learner and lane: a block's picks and outcome bytes and the pair
        # tables (kl-ucb-u adds leadership counts); the window's rings.
        learners = 3 * (2 * 512 * (itemsize + 1) + P * (32 + 24)) + 3 * 7 * 17
        # Per policy and lane, the result's int64 pulls and float64 regret at
        # 11 checkpoints (1, 2, 4, ..., 512 and 1000): a learner's for the
        # whole run, the oracle's repeated only after the block phase.
        table = 3 * 8 * (P + 11)
        # Per lane and step of a block: the oracle's outcome byte and three
        # 8-byte temporaries of accounting a learner's ledger.
        block = 3 * 512 * (1 + 3 * 8)
        # The tile's tape, alive in the block phase: its [tag, seed] prefix,
        # two uint32 words and an int64 length a lane; its largest batch of
        # seed states, the run's 2 chunks per lane, 4 bytes a word of [tag,
        # seed, chunk] and 128 more; and a jumped read's arrays, a lane's 32
        # bytes of s and inc and 64 a learner.
        prefix, batch = 3 * (2 * 4 + 8), 3 * 2 * (4 * 3 + 128)
        read = 3 * (32 + 2 * 64)
        want = logs + 2 * table + max(prefix + tape + learners + block + batch + read, table)
        assert _memory_asked(monkeypatch, config) == want

        # Baselines alone on many seeds draw no block of outcomes, but each
        # result repeats its one-row tables to every lane, and each block
        # holds a baseline's outcome bytes and one float64 reward per lane
        # and step.  Time accounting adds the int64 packet counts per pair.
        # The seeds span 25 lane tiles of 8,192: the block phase, the
        # tape's prefix and its batch of seed states (two chunks of a tile's
        # lanes) count one tile, and the full-width result tables are alive
        # with them, as are one tile's tables of each policy.
        S, T = 2 * 10**5, 8192
        baselines = dataclasses.replace(
            config, policies=(PolicySpec("oracle"), PolicySpec("static")), horizon=600, seeds=tuple(range(S))
        )
        prefix, batch = T * (2 * 4 + 8), T * 2 * (4 * 3 + 128)
        block = T * 512 * (2 + 8) + batch
        want = itemsize * 600 * 3 + prefix + block + (S + T) * 2 * 8 * (P + 11)
        assert _memory_asked(monkeypatch, baselines) == want
        timed = dataclasses.replace(baselines, accounting="original")
        slots = 600 * rates  # the time budget at the top rate
        cps = len({2**i for i in range(slots.bit_length())} | {slots, 600})
        want = itemsize * slots * 3 + prefix + block + (S + T) * 2 * 8 * (2 * P + cps)
        assert _memory_asked(monkeypatch, timed) == want

    def test_memory_check_counts_a_learners_block_buffers(self, monkeypatch):
        """A million seeds on the demo table: the block phase counts one lane
        tile of 8,192 (its outcome tape is 168 MB, where all lanes at once
        would take 20.5 GB), and the result tables every lane."""
        demo = demo_model()
        config = ExperimentConfig(
            rates=demo.rates,
            policies=(PolicySpec("kl-ucb"),),
            horizon=1000,
            seeds=tuple(range(10**6)),
            theta=demo.theta,
        )
        S, T, P = 10**6, 8192, 40
        table = 8 * (P + 11)  # a lane's result pulls and regret at 11 checkpoints
        block = T * 512 * (P + 3 * 8)  # the outcome tape and accounting temporaries
        # The tape's [tag, seed] prefix and int64 lengths, and its batch of
        # seed states: both chunks of a tile, 4 bytes a word of [tag, seed,
        # chunk] and 128 more.
        seeds = T * (2 * 4 + 8) + T * 2 * (4 * 3 + 128)
        read = T * (32 + 64)  # a jumped read's arrays: s and inc, one learner's work
        # A later tile runs with the full-width tables and one tile's.
        want = 1000 * 2 + block + T * (512 * 2 + P * 24) + (S + T) * table + seeds + read
        assert _memory_asked(monkeypatch, config) == want
        # A run of baselines alone draws no block of outcomes and keeps no
        # policy tables, but its full-width results are alive with each
        # tile's block phase.
        baselines = dataclasses.replace(config, policies=(PolicySpec("oracle"), PolicySpec("static")))
        want = 1000 * 3 + T * 512 * (2 + 8) + seeds + 2 * (S + T) * table
        assert _memory_asked(monkeypatch, baselines) == want
        # On a host of 512 MiB the run stops before it allocates anything.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**17}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match=r"need about 0\.65\d* GiB, more than the 0\.5 GiB"):
            run_experiment(config)

    def test_memory_check_counts_the_tapes_seed_words(self, monkeypatch):
        """One lane tile, 8,192 lanes, and one seed of 10^3999, 416 words:
        the tape's padded entropy prefix (13.7 MB, held all run) and a
        batch's entropy rows (13.7 MB more) dwarf the rest of a 4-slot
        oracle run.  The check asks for at least the peak of building the
        tape and hashing a batch, and the prefix is built in about its own
        size."""
        seeds = (*range(1, 8_192), 10**3999)
        config = config_2x2(policies=(PolicySpec("oracle"),), horizon=4, seeds=seeds)
        asked = _memory_asked(monkeypatch, config)
        tracemalloc.start()
        try:
            tape = OutcomeTape(config.build_environment(), seeds)
            _, built = tracemalloc.get_traced_memory()
            tape._chunk_states(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tape._prefix.shape == (8_192, 417)
        assert built < 1.25 * tape._prefix.nbytes
        assert asked >= peak > 2 * tape._prefix.nbytes

    def test_memory_check_takes_the_larger_phase_not_their_sum(self, monkeypatch):
        """The baselines' repeated result tables are built after the block
        arrays are freed, so a run that fits each phase but not both at
        once is accepted, and one byte less memory rejects it."""
        config = ExperimentConfig(
            rates=RateSet.of([float(r) for r in range(1, 129)]),
            policies=(PolicySpec("oracle"), PolicySpec("static")),
            horizon=512,
            seeds=(1, 2, 3, 4),
            theta=np.full((2, 128), 0.5),
        )
        kept = 1 * 512 * 3  # uint8 best-pair log plus two decision logs
        block = 4 * 512 * (2 + 8)  # two outcome bytes and one float64 a lane-step
        block += 4 * (2 * 4 + 8)  # the tape's [tag, seed] prefix and int64 lengths
        block += 4 * (4 * 3 + 128)  # the tape's one-chunk batch of seed states
        results = 4 * 2 * 8 * (256 + 10)  # pulls and regret at 1, 2, ..., 512
        assert results < block  # each phase fits in kept + block; both at once do not
        for have, fits in ((kept + block, True), (kept + block - 1, False)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
            monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
            if fits:
                assert run_experiment(config).policy("oracle").trajectories.shape == (4, 10)
            else:
                with pytest.raises(ValueError, match="physical memory"):
                    run_experiment(config)

    def test_decisions_recorded_for_lane_zero(self):
        result = run_experiment(config_2x2(seeds=(3,)))
        learner = result.policy("kl-ucb")
        assert learner.decisions.shape == (256,)
        np.testing.assert_array_equal(learner.decisions[:4], [0, 1, 2, 3])
        counts = np.bincount(learner.decisions, minlength=4)
        np.testing.assert_array_equal(counts, learner.pulls[0])

    def test_common_random_numbers_share_outcomes(self):
        # Same seed, same step, same pair => same outcome bit, so two runs
        # of the same config are fully identical.
        a = run_experiment(config_2x2())
        b = run_experiment(config_2x2())
        for pa, pb in zip(a.policies, b.policies):
            np.testing.assert_array_equal(pa.trajectories, pb.trajectories)
            np.testing.assert_array_equal(pa.decisions, pb.decisions)

    def test_policy_lookup_errors(self):
        result = run_experiment(config_2x2())
        with pytest.raises(KeyError, match="no policy"):
            result.policy("crs-t")
        with pytest.raises(KeyError, match="no checkpoint"):
            result.policy("kl-ucb").regret_at(999)


_RESULT_FIELDS = (
    "trajectories",
    "pulls",
    "expected_reward",
    "realized_reward",
    "decisions",
    "packet_counts",
    "time_used",
    "time_regret",
)
_BASELINES = (PolicySpec("oracle"), PolicySpec("static"), PolicySpec("kl-ucb"))


def _baseline_configs():
    """Configs for the baseline reference test, with the packet count at
    which the time ledger freezes (None when no budget applies)."""
    t0 = np.array([[0.95, 0.5, 0.2], [0.9, 0.75, 0.3]])
    t1 = t0[::-1].copy()
    t2 = np.array([[0.3, 0.2, 0.1], [0.99, 0.9, 0.8]])
    nd3 = RateSet.of([31 / 32, 1.1, 2.3])
    yield "stationary", dict(
        rates=nd3, theta=t0, horizon=1300, seeds=(1, 2, 3), checkpoints=(700, 1001)
    ), None
    trace = TraceTable(starts=(0, 300, 900), tables=(t0, t1, t2), horizon=1100)
    yield "trace-segments-mid-block", dict(
        rates=nd3, trace=trace, horizon=1100, seeds=(4, 5), checkpoints=(299, 300, 901)
    ), None
    drift = SyntheticDriftSpec(rates=nd3, channels=3, horizon=900, step_std=0.05, seed=2)
    yield "synth-drift", dict(rates=nd3, drift=drift, horizon=900, seeds=(1, 7)), None
    theta = np.array([[0.9, 0.3], [0.5, 0.2]])
    yield "both-freeze-mid-block", dict(
        rates=RateSet.of([1.1, 2.3]), theta=theta, horizon=1000, seeds=(1, 2, 3),
        accounting="both", checkpoints=(1111,),
    ), 1100
    yield "original-freeze-mid-block", dict(
        rates=RateSet.of([31 / 32, 1.3]), theta=np.array([[0.9, 0.6]]), horizon=400,
        seeds=(2, 3), accounting="original", occupancy=np.array([0.1]),
    ), 387
    yield "freeze-at-block-start", dict(
        rates=RateSet.of([1.3, 2.9]), theta=np.array([[0.9, 0.2]]), horizon=394,
        seeds=(1, 2), accounting="both",
    ), 512
    yield "freeze-at-block-end", dict(
        rates=RateSet.of([0.5, 1.0]), theta=np.array([[0.9, 0.3]]), horizon=1022,
        seeds=(1, 2), accounting="both",
    ), 511


def _assert_matches_reference(pol, ref) -> None:
    for name in _RESULT_FIELDS:
        got = getattr(pol, name)
        if ref[name] is None:
            assert got is None, (pol.label, name)
        else:
            assert got.shape == ref[name].shape, (pol.label, name)
            assert np.array_equal(got, ref[name]), (pol.label, name)
            if got.dtype.kind == "f":
                assert_same_bits(got, ref[name])


def _schedule(config: ExperimentConfig, slots: int):
    """The run's ``(slots, C, K)`` probabilities and ``(S, slots, C, K)`` outcomes."""
    env = config.build_environment()
    return env.theta_block(0, slots), OutcomeTape(env, config.seeds).block(0, slots)


def _assert_baselines_match_reference(config: ExperimentConfig, packets) -> None:
    result = run_experiment(config)
    theta, outcomes = _schedule(config, result.slots)
    rates = config.rates.as_array()
    for kind in ("oracle", "static"):
        pol = result.policy(kind)
        plays = np.tile(baseline_plays(kind, theta, rates), (len(config.seeds), 1))
        _assert_matches_reference(
            pol, run_reference(plays, theta, outcomes, rates, result.checkpoints, result.time_horizon)
        )
        if packets is not None:
            # The scenario is the one named: the ledger stops where stated.
            assert np.all(pol.packet_counts.sum(axis=1) == packets)
            assert packets < result.slots


class TestBaselinesAgainstReference:
    """The block-vectorized oracle and static baselines reproduce a plain
    slot-by-slot replay bit for bit, on every result field."""

    @pytest.mark.parametrize(
        "kw, packets", [pytest.param(kw, n, id=name) for name, kw, n in _baseline_configs()]
    )
    def test_every_field_is_bitwise_equal(self, kw, packets):
        _assert_baselines_match_reference(ExperimentConfig(policies=_BASELINES, **kw), packets)

    @pytest.mark.parametrize(
        "kw, packets", [pytest.param(kw, n, id=name) for name, kw, n in _baseline_configs()]
    )
    def test_alone_every_field_is_bitwise_equal(self, kw, packets):
        """Without a learner the run draws only the cells the baselines read
        (``OutcomeTape.cells``), with the same bits."""
        _assert_baselines_match_reference(ExperimentConfig(policies=_BASELINES[:2], **kw), packets)

    def test_alone_no_block_is_drawn_and_equal_picks_share_a_draw(self, monkeypatch):
        calls = []
        cells = OutcomeTape.cells
        monkeypatch.setattr(OutcomeTape, "block", lambda *args: pytest.fail("block drawn"))
        monkeypatch.setattr(
            OutcomeTape, "cells", lambda tape, *args: calls.append(args[:2]) or cells(tape, *args)
        )
        # A stationary table with a unique best pair: oracle and static agree.
        run_experiment(config_2x2(policies=_BASELINES[:2], horizon=1100))
        assert calls == [(0, 512), (512, 1024), (1024, 1100)]
        calls.clear()
        # The best pair is the static pick until step 700 and another after.
        t0 = np.array([[0.95, 0.5, 0.2], [0.9, 0.75, 0.3]])
        trace = TraceTable(starts=(0, 700), tables=(t0, t0[::-1]), horizon=1100)
        rates = RateSet.of([31 / 32, 1.1, 2.3])
        result = run_experiment(
            ExperimentConfig(rates=rates, trace=trace, policies=_BASELINES[:2], horizon=1100, seeds=(1, 2))
        )
        assert result.static_flat == 0 and set(result.best_flats[700:]) == {3}
        assert calls == [(0, 512), (512, 1024), (512, 1024), (1024, 1100), (1024, 1100)]

    @pytest.mark.parametrize(
        "best_theta, hashes",
        [pytest.param(0.99, 6, id="interior-best"), pytest.param(1.0, 0, id="demo")],
    )
    def test_alone_hashes_seed_states_in_few_batches_and_reads_theta_twice_a_block(
        self, monkeypatch, best_theta, hashes
    ):
        """Demo table, 20 seeds, time budget 300 (19,500 slots in 39 blocks):
        each pass computes a block's probabilities once.  With the best
        cell (channel 2, 52 Mbit/s) at 0.99 the chunks' seed states come in
        batches of 1, 2, 4, ... chunks; at the demo's 1.0 every outcome the
        baselines read is known, so no seed state is hashed."""
        counts = {"_seed_states": 0, "theta_block": 0}
        seed_states, theta_block = environments._seed_states, TraceTable.theta_block

        def count(name, fn):
            return lambda *args: counts.__setitem__(name, counts[name] + 1) or fn(*args)

        monkeypatch.setattr(environments, "_seed_states", count("_seed_states", seed_states))
        monkeypatch.setattr(TraceTable, "theta_block", count("theta_block", theta_block))
        demo = demo_model()
        theta = demo.theta.copy()
        theta[1, 5] = best_theta
        config = ExperimentConfig(
            rates=demo.rates,
            theta=theta,
            policies=_BASELINES[:2],
            horizon=300,
            seeds=tuple(range(1, 21)),
            accounting="both",
        )
        result = run_experiment(config)
        assert result.slots == 19_500 and set(result.best_flats) == {1 * 8 + 5}
        assert counts == {"_seed_states": hashes, "theta_block": 2 * 39}

    @pytest.mark.parametrize(
        "rates, theta",
        [
            pytest.param(demo_model().rates, demo_model().theta, id="demo"),
            pytest.param(RateSet.of([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, -0.0]]), id="2x2"),
        ],
    )
    def test_alone_on_known_cells_the_realized_reward_is_the_expected(self, rates, theta):
        """Where every cell the baselines play is 0 or 1, each outcome is
        its probability, so each lane's realized reward is its expected
        reward, bit for bit."""
        for policy in _BASELINES[:2]:
            config = ExperimentConfig(
                rates=rates, theta=theta, policies=(policy,), horizon=1100, seeds=(1, 2, 2**40)
            )
            result = run_experiment(config).policy(policy.kind)
            assert result.realized_reward.shape == (3,)
            assert_same_bits(result.realized_reward, result.expected_reward)


def _count_accounts(monkeypatch) -> list:
    """The ``n0`` of every ``_Ledger.account`` call from now on."""
    calls = []
    account = harness._Ledger.account
    monkeypatch.setattr(
        harness._Ledger, "account", lambda led, n0, *args: calls.append(n0) or account(led, n0, *args)
    )
    return calls


class TestSharedBaselineLedger:
    """``static`` and ``oracle`` share one ledger when the best pair is the
    static pick at every step, and keep one each when it moves."""

    @pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
    def test_a_fixed_best_pair_accounts_each_block_once(self, monkeypatch, seeds):
        calls = _count_accounts(monkeypatch)
        result = run_experiment(
            config_2x2(policies=_BASELINES[:2], horizon=600, seeds=seeds, accounting="both")
        )
        assert set(result.best_flats) == {result.static_flat}
        assert calls == [0, 512, 1024]  # 1200 slots: the budget at the top rate
        oracle, static = result.policy("oracle"), result.policy("static")
        for name in _RESULT_FIELDS:
            assert_same_bits(getattr(static, name), getattr(oracle, name))
        # Each result owns its arrays: editing one leaves the other as it was.
        for name in _RESULT_FIELDS:
            got, want = getattr(oracle, name), getattr(static, name).copy()
            got += 1
            assert_same_bits(getattr(static, name), want)

    def test_a_moving_best_pair_accounts_each_block_twice(self, monkeypatch):
        calls = _count_accounts(monkeypatch)
        t0 = np.array([[0.95, 0.5, 0.2], [0.9, 0.75, 0.3]])
        trace = TraceTable(starts=(0, 700), tables=(t0, t0[::-1]), horizon=1100)
        result = run_experiment(
            ExperimentConfig(
                rates=RateSet.of([31 / 32, 1.1, 2.3]), trace=trace, policies=_BASELINES[:2],
                horizon=1100, seeds=(1, 2),
            )
        )
        assert calls == [0, 0, 512, 512, 1024, 1024]
        assert (result.policy("static").final_regret > 0).all()
        assert (result.policy("oracle").final_regret == 0).all()


_LEARNERS = (
    PolicySpec("kl-ucb"),
    PolicySpec("kl-ucb-u", window=200),
    PolicySpec("kl-ucb-u", strict=True),
    PolicySpec("crs-t"),
)


# A 2x4 table of interior probabilities for runs of short chunks.
_SHORT_THETA = np.array([[0.9, 0.7, 0.5, 0.3], [0.85, 0.75, 0.45, 0.2]])


def _learner_configs():
    """Configs for the learner reference test, with the packet counts at
    which some lane's time ledger freezes: 511 is the last step of the first
    block and 512 the first step of the second (budgets found by replaying
    each lane's plays)."""
    for name, kw, _ in _baseline_configs():
        if "accounting" not in kw:
            yield name, kw, ()
    rates = RateSet.of([0.55, 0.8, 1.0])
    theta = np.array([[0.95, 0.6, 0.4], [0.9, 0.75, 0.5]])
    yield "both-freeze-at-block-edges", dict(
        rates=rates, theta=theta, horizon=583, seeds=(1, 2, 3), accounting="both"
    ), (511, 512)
    yield "original-freeze-at-block-edges", dict(
        rates=rates, theta=theta, horizon=590, seeds=(1, 2, 3), accounting="original"
    ), (511, 512)
    # A 2x4 table, so that the four learners' reads jump to their cells
    # (2 x 4 reads <= 8 pairs): a run of one short chunk (32 rows x 8 =
    # 256 draws), and a run whose trailing chunk is short (28 x 8 = 224).
    short = dict(rates=RateSet.of([1.0, 1.5, 2.0, 3.0]), theta=_SHORT_THETA, seeds=(1, 2**32, 7))
    yield "one-short-chunk", dict(short, horizon=32), ()
    yield "short-trailing-chunk", dict(short, horizon=540), ()


def _learner_plays(spec: PolicySpec, config: ExperimentConfig, outcomes) -> np.ndarray:
    """``(S, slots)`` picks of ``spec`` replayed alone through ``step_policy``
    on the tape's outcomes."""
    lanes, slots = outcomes.shape[:2]
    policy = build_policy(
        spec.kind, config.rates, config.channels, window=spec.window, batch=lanes, strict=spec.strict
    )
    K = config.n_rates
    plays = np.empty((lanes, slots), dtype=np.int64)
    for n in range(slots):
        plays[:, n] = step_policy(policy, lambda f: outcomes[np.arange(lanes), n, f // K, f % K])
    return plays


class TestLearnersAgainstReference:
    """Every learner's ledger equals a plain slot-by-slot ledger of its own
    replayed plays, bit for bit, on every result field."""

    @pytest.mark.parametrize(
        "kw, edges", [pytest.param(kw, e, id=name) for name, kw, e in _learner_configs()]
    )
    def test_every_field_is_bitwise_equal(self, kw, edges):
        config = ExperimentConfig(policies=_LEARNERS, **kw)
        result = run_experiment(config)
        theta, outcomes = _schedule(config, result.slots)
        rates = config.rates.as_array()
        for spec in _LEARNERS:
            plays = _learner_plays(spec, config, outcomes)
            _assert_matches_reference(
                result.policy(spec.label),
                run_reference(plays, theta, outcomes, rates, result.checkpoints, result.time_horizon),
            )
        if edges:
            # The scenario is the one named: some ledgers freeze at a block
            # edge and others inside a block.
            packets = {int(n) for p in result.policies for n in p.packet_counts.sum(axis=1)}
            assert set(edges) <= packets
            assert any(n % 512 not in (0, 511) for n in packets)
            assert max(packets) < result.slots


class TestLearnerReads:
    """A learner's outcome reads: jumps to its cells in a short chunk, a
    block drawn once in a long one, and θ computed once a block a pass."""

    @staticmethod
    def _calls(monkeypatch, name, owner=environments, fail=False) -> list:
        calls, fn = [], getattr(owner, name)

        def spy(*args):
            if fail:
                pytest.fail(f"{name} called")
            calls.append(args[-3:-1] if owner is OutcomeTape else args)
            return fn(*args)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_a_short_chunk_draws_no_block(self, monkeypatch):
        for name in ("block", "_block"):
            self._calls(monkeypatch, name, OutcomeTape, fail=True)
        self._calls(monkeypatch, "_pcg64_random", fail=True)
        config = ExperimentConfig(
            rates=RateSet.of([1.0, 1.5, 2.0, 3.0]), theta=_SHORT_THETA, horizon=32,
            seeds=(1, 2, 3), policies=(PolicySpec("kl-ucb"), PolicySpec("crs-t")),
        )
        assert run_experiment(config).policy("kl-ucb").pulls.sum() == 3 * 32

    def test_a_long_chunk_draws_each_block_once(self, monkeypatch):
        drawn = self._calls(monkeypatch, "_block", OutcomeTape)
        self._calls(monkeypatch, "block", OutcomeTape, fail=True)
        run_experiment(config_2x2(policies=_LEARNERS, horizon=1100))
        assert drawn == [(0, 512), (512, 1024), (1024, 1100)]

    @pytest.mark.parametrize("horizon, blocks", [(1100, 3), (540, 2)])
    def test_a_learner_run_reads_theta_twice_a_block(self, monkeypatch, horizon, blocks):
        """Once a block in the totals pass and once in the main pass,
        whose reads take the schedule's θ: the last block of ``540`` is a
        short chunk read by jumps, the others are drawn."""
        calls = self._calls(monkeypatch, "theta_block", TraceTable)
        config = ExperimentConfig(
            rates=RateSet.of([1.0, 1.5, 2.0, 3.0]), theta=_SHORT_THETA, horizon=horizon,
            seeds=(1, 2, 3), policies=(PolicySpec("kl-ucb"), PolicySpec("static")),
        )
        run_experiment(config)
        steps = [(n0, min(n0 + 512, horizon)) for n0 in range(0, horizon, 512)]
        assert len(steps) == blocks
        assert [args[1:] for args in calls] == steps + steps

    def test_memory_check_covers_a_short_chunk_run(self, monkeypatch):
        """One tile of 8,192 lanes over a short chunk, read by jumps: the
        check asks for at least the run's traced peak."""
        config = ExperimentConfig(
            rates=RateSet.of([1.0, 1.5, 2.0, 3.0]), theta=_SHORT_THETA, horizon=32,
            seeds=tuple(range(1, 8193)), policies=(PolicySpec("kl-ucb"),),
        )
        asked = _memory_asked(monkeypatch, config)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert asked >= peak


class TestLaneIndependence:
    """A lane's result does not depend on the other lanes in its batch."""

    def test_time_ledger_lane_alone_equals_its_batch_lane(self):
        model = demo_model()
        config = ExperimentConfig(
            rates=model.rates, theta=np.array(model.theta), horizon=40, seeds=tuple(range(1, 21)),
            accounting="both",
            policies=(
                PolicySpec("kl-ucb"), PolicySpec("crs-t"), PolicySpec("kl-ucb-u"),
                PolicySpec("oracle"), PolicySpec("static"),
            ),
        )
        batch = run_experiment(config)
        # Lanes 8 and 20 are the ones whose kl-ucb-u airtime a matrix
        # product over the batch rounded differently from the lane alone.
        for seed in (8, 20):
            lane = config.seeds.index(seed)
            alone = run_experiment(dataclasses.replace(config, seeds=(seed,)))
            for pol in batch.policies:
                one = alone.policy(pol.label)
                for name in _RESULT_FIELDS:
                    if name == "decisions":
                        continue  # lane 0's log only
                    assert_same_bits(getattr(one, name)[0], getattr(pol, name)[lane])

    def test_kl_ucb_grid_lane_alone_equals_its_batch_lane(self, monkeypatch):
        # Criterion 10's 2x2 table at 30 lanes: a kl-ucb request is its
        # (successes, pulls) grid while that has fewer than 30 x 4 elements,
        # up to step 13 unwindowed and always with a window.  Window 3 is
        # shorter than the pairs, so evicted pairs fall back to 0 pulls.
        config = ExperimentConfig(
            rates=RateSet.of([1.0, 2.0]), theta=np.array([[0.85, 0.5], [0.6, 0.25]]),
            horizon=40, seeds=tuple(range(1, 31)),
            policies=(PolicySpec("kl-ucb"), PolicySpec("kl-ucb", window=8),
                      PolicySpec("kl-ucb", window=3)),
        )
        sizes = []
        solve = policies._solve_trusted

        def spy(p, t, f, upper):
            sizes.append(p.size)
            return solve(p, t, f, upper)

        monkeypatch.setattr(policies, "_solve_trusted", spy)
        batch = run_experiment(config)

        def request(top):
            return min((top + 1) * (top + 2) // 2, 30 * 4)

        assert sizes == [
            request(n) + request(min(n, 8)) + request(min(n, 3)) for n in range(4, 40)
        ]
        for seed in (1, 7, 30):
            lane = config.seeds.index(seed)
            alone = run_experiment(dataclasses.replace(config, seeds=(seed,)))
            for pol in batch.policies:
                one = alone.policy(pol.label)
                for name in _RESULT_FIELDS:
                    if name == "decisions" or getattr(pol, name) is None:
                        continue  # lane 0's log only; no time accounting
                    assert_same_bits(getattr(one, name)[0], getattr(pol, name)[lane])

    def test_short_chunk_lane_alone_equals_its_lane_in_tiles(self, monkeypatch):
        """Tiles of three lanes over a run of one short chunk, where the
        learners' reads jump to their cells, with seeds of one, two and
        three words."""
        monkeypatch.setattr(harness, "_LANE_TILE", 3)
        config = ExperimentConfig(
            rates=RateSet.of([1.0, 1.5, 2.0, 3.0]), theta=_SHORT_THETA, horizon=30,
            seeds=(1, 2**32, 2**64 + 3, 5, 9, 2**40 + 1, 12),
            policies=(PolicySpec("kl-ucb"), PolicySpec("crs-t"), PolicySpec("oracle")),
        )
        batch = run_experiment(config)
        for lane, seed in enumerate(config.seeds):
            alone = run_experiment(dataclasses.replace(config, seeds=(seed,)))
            for pol in batch.policies:
                one = alone.policy(pol.label)
                for name, x in _result_lanes(pol):
                    assert_same_bits(getattr(one, name)[0], x[lane])

    def test_airtime_of_a_row_does_not_depend_on_its_stack(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 300, size=(2000, 40))
        inv_r = 1.0 / np.tile(demo_model().rates.as_array(), 5)
        alone = np.array([_flat_sum(row, inv_r) for row in rows])
        assert_same_bits(alone, [weighted_sum_reference(row, inv_r) for row in rows.tolist()])
        for size in (2, 3, 7, 64, 333, 2000):
            for shift in (0, size // 2):
                stack = np.roll(rows, shift, axis=0)
                for a in range(0, len(rows), size):
                    assert_same_bits(
                        _flat_sum(stack[a : a + size], inv_r), np.roll(alone, shift)[a : a + size]
                    )
        wide = np.zeros((2000, 80), dtype=np.int64)
        wide[:, ::2] = rows
        assert_same_bits(_flat_sum(wide[:, ::2], inv_r), alone)
        assert_same_bits(_flat_sum(np.asfortranarray(rows), inv_r), alone)


def _lock_step_configs():
    model = demo_model()
    yield "demo-table", dict(
        rates=model.rates, theta=np.array(model.theta), horizon=600, seeds=(1, 2, 3, 4),
        policies=(PolicySpec("kl-ucb"), PolicySpec("kl-ucb-u")),
    )
    rates = RateSet.of([1.0, 2.0, 3.5, 5.0])
    drift = SyntheticDriftSpec(rates=rates, channels=3, horizon=700, step_std=0.03, seed=5)
    yield "synth-drift", dict(
        rates=rates, drift=drift, horizon=700, seeds=(2, 9, 2**32 + 1),
        policies=(
            PolicySpec("kl-ucb-u", window=200), PolicySpec("crs-t"),
            PolicySpec("kl-ucb-u", strict=True),
        ),
    )
    yield "both-with-baselines", dict(
        rates=RateSet.of([0.5, 1.0, 1.3]), theta=np.array([[0.9, 0.6, 0.4], [0.95, 0.7, 0.55]]),
        horizon=500, seeds=(1, 2, 3), accounting="both", checkpoints=(300,),
        policies=(
            PolicySpec("oracle"), PolicySpec("kl-ucb"), PolicySpec("crs-t"),
            PolicySpec("static"), PolicySpec("kl-ucb-u"),
        ),
    )
    # Windows shorter than the horizon, so each windowed learner drops its
    # oldest step from step 60, 90 or 150 on, beside learners that never do.
    yield "windowed-beside-unwindowed", dict(
        rates=model.rates, theta=np.array(model.theta), horizon=400, seeds=(3, 5),
        policies=(
            PolicySpec("kl-ucb", window=90), PolicySpec("kl-ucb-u"), PolicySpec("crs-t", window=60),
            PolicySpec("kl-ucb"), PolicySpec("kl-ucb-u", window=150), PolicySpec("oracle"),
        ),
    )
    # Criterion 10's 2x2 table at 40 lanes: the kl-ucb requests are their
    # (successes, pulls) grids, laid end to end with element requests.
    yield "wide-kl-ucb-beside-others", dict(
        rates=RateSet.of([1.0, 2.0]), theta=np.array([[0.85, 0.5], [0.6, 0.25]]),
        horizon=30, seeds=tuple(range(1, 41)),
        policies=(
            PolicySpec("kl-ucb"), PolicySpec("crs-t"), PolicySpec("kl-ucb", window=5),
            PolicySpec("kl-ucb-u"),
        ),
    )


class TestLockStep:
    """Policies stepped together, sharing each step's solver call, give
    exactly the results each gives when it runs alone."""

    @pytest.mark.parametrize(
        "kw", [pytest.param(kw, id=name) for name, kw in _lock_step_configs()]
    )
    def test_each_policy_matches_its_solo_run(self, kw):
        config = ExperimentConfig(**kw)
        together = run_experiment(config)
        for spec in config.policies:
            solo = run_experiment(dataclasses.replace(config, policies=(spec,)))
            assert solo.slots == together.slots
            got, ref = together.policy(spec.label), solo.policy(spec.label)
            assert (got.spec, got.label, got.checkpoints) == (ref.spec, ref.label, ref.checkpoints)
            for name in _RESULT_FIELDS:
                if getattr(ref, name) is None:
                    assert getattr(got, name) is None, (spec.label, name)
                else:
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), (spec.label, name)
            np.testing.assert_array_equal(solo.best_flats, together.best_flats)
            assert (solo.oracle_reward, solo.static_flat, solo.static_reward) == (
                together.oracle_reward, together.static_flat, together.static_reward,
            )


# Seven lanes, so tiles of three lanes make tiles of 3, 3 and 1; two seeds
# take two 32-bit words.
_TILED_SEEDS = (1, 2**32, 5, 9, 2**40 + 3, 12, 7)
_TILED_POLICIES = (
    PolicySpec("kl-ucb"), PolicySpec("kl-ucb-u", strict=True), PolicySpec("crs-t"),
    PolicySpec("kl-ucb-u", window=40), PolicySpec("oracle"), PolicySpec("static"),
)


def _result_lanes(result):
    """``(name, array)`` of each per-lane array of ``result``: every result
    field but lane 0's decision log and the unset time fields."""
    return [
        (name, getattr(result, name))
        for name in _RESULT_FIELDS
        if name != "decisions" and getattr(result, name) is not None
    ]


def _tiled_configs():
    # Time budget 583 at rates up to 1.0: 583 slots over blocks [0, 512) and
    # [512, 583), and ledgers that freeze inside them.
    yield "both-freezing-inside-blocks", dict(
        rates=RateSet.of([0.55, 0.8, 1.0]), theta=np.array([[0.95, 0.6, 0.4], [0.9, 0.75, 0.5]]),
        horizon=583, accounting="both",
    )
    # The best pair moves at step 300, inside the first block, so static
    # and oracle keep a ledger each.
    t0, t1 = np.array([[0.9, 0.2], [0.1, 0.1]]), np.array([[0.1, 0.1], [0.9, 0.2]])
    yield "trace-segment-inside-a-block", dict(
        rates=RateSet.of([1.0, 2.0]), horizon=700,
        trace=TraceTable(starts=(0, 300), tables=(t0, t1), horizon=700),
    )


class TestLaneTiles:
    """The main pass steps at most ``harness._LANE_TILE`` lanes at a time;
    a run in tiles equals a run of all its lanes in one tile."""

    @pytest.mark.parametrize("kw", [pytest.param(kw, id=name) for name, kw in _tiled_configs()])
    def test_tiles_of_three_lanes_equal_one_tile(self, tmp_path, monkeypatch, kw):
        config = ExperimentConfig(policies=_TILED_POLICIES, seeds=_TILED_SEEDS, **kw)
        whole = run_experiment(config)
        files = emit_outputs(whole, tmp_path / "whole")
        tiles = []
        simulate = harness._simulate

        def spy(run, config, seeds, *args):
            tiles.append(seeds)
            return simulate(run, config, seeds, *args)

        monkeypatch.setattr(harness, "_simulate", spy)
        monkeypatch.setattr(harness, "_LANE_TILE", 3)
        tiled = run_experiment(config)
        assert tiles == [_TILED_SEEDS[:3], _TILED_SEEDS[3:6], _TILED_SEEDS[6:]]
        for got, want in zip(tiled.policies, whole.policies, strict=True):
            for f in dataclasses.fields(want):
                x, y = getattr(got, f.name), getattr(want, f.name)
                if not isinstance(y, np.ndarray):
                    assert x == y, (want.label, f.name)
                    continue
                assert np.array_equal(x, y), (want.label, f.name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert np.array_equal(tiled.best_flats, whole.best_flats)
        assert (tiled.oracle_reward, tiled.static_reward, tiled.static_flat) == (
            whole.oracle_reward, whole.static_reward, whole.static_flat,
        )
        # No two results share an array, as in a run of one tile.
        arrays = [x for p in tiled.policies for _, x in _result_lanes(p)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])
        emitted = emit_outputs(tiled, tmp_path / "tiled")
        assert sorted(emitted) == sorted(files)
        for name, path in emitted.items():
            assert path.read_bytes() == files[name].read_bytes(), name
        if config.accounting == "both":
            assert len(files) == 4
            packets = {int(n) for p in tiled.policies for n in p.packet_counts.sum(axis=1)}
            assert any(n % 512 not in (0, 511) for n in packets)
            assert min(packets) < tiled.slots

    @pytest.mark.parametrize(
        "policies", [_TILED_POLICIES, _TILED_POLICIES[-2:]], ids=["learners", "baselines"]
    )
    def test_each_tape_holds_one_tile_of_seeds(self, monkeypatch, policies):
        """Every ``OutcomeTape`` a run of several tiles builds holds one
        tile's seeds, at most ``_LANE_TILE``: a tape draws all its lanes in
        one pass and keeps a batch of seed states for them."""
        built, tape_init = [], OutcomeTape.__init__

        def spy(tape, env, seeds):
            tape_init(tape, env, seeds)
            built.append(tape.seeds)

        monkeypatch.setattr(OutcomeTape, "__init__", spy)
        monkeypatch.setattr(harness, "_LANE_TILE", 3)
        run_experiment(config_2x2(policies=policies, seeds=_TILED_SEEDS, horizon=600))
        assert built == [_TILED_SEEDS[:3], _TILED_SEEDS[3:6], _TILED_SEEDS[6:]]

    def test_a_run_of_four_tiles_peaks_near_one_tiles_block_phase(self, monkeypatch):
        """A run's traced peak grows with its result arrays, not with its
        block arrays: four tiles of lanes peak below their results plus 1.5
        times the peak of a run of one tile, its own results included."""
        monkeypatch.setattr(harness, "_LANE_TILE", 1024)
        config = config_2x2(policies=(PolicySpec("kl-ucb"), PolicySpec("oracle")), horizon=520)

        def traced(seeds):
            tracemalloc.start()
            try:
                result = run_experiment(dataclasses.replace(config, seeds=seeds))
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, one = traced(tuple(range(1, 1025)))
        result, four = traced(tuple(range(1, 4097)))
        lanes = sum(x.nbytes for p in result.policies for _, x in _result_lanes(p))
        assert four <= lanes + 1.5 * one

    def test_memory_check_counts_one_tiles_block_arrays(self, monkeypatch):
        """Past one tile, a lane adds only its result tables to what the
        memory check asks for: a learner's and a baseline's int64 pulls of
        4 pairs and float64 regret at 11 checkpoints."""
        T = harness._LANE_TILE
        config = config_2x2(policies=(PolicySpec("kl-ucb"), PolicySpec("oracle")), horizon=600)
        asked = [
            _memory_asked(monkeypatch, dataclasses.replace(config, seeds=tuple(range(S))))
            for S in (T + 1, 2 * T, 5 * T)
        ]
        table = 2 * 8 * (4 + 11)
        assert asked[1] - asked[0] == (T - 1) * table
        assert asked[2] - asked[1] == 3 * T * table


class TestTimeAccounting:
    def test_slot_and_time_regret_coincide_for_unit_rate(self):
        """One rate equal to 1 makes both ledgers count the same thing;
        with dyadic probabilities the float sums agree exactly."""
        config = ExperimentConfig(
            rates=RateSet.of([1.0]),
            policies=(PolicySpec("kl-ucb"), PolicySpec("static")),
            horizon=64,
            seeds=tuple(range(1, 13)),
            theta=np.array([[0.5], [0.25]]),
            accounting="both",
        )
        result = run_experiment(config)
        assert result.slots == 64
        assert result.time_horizon == 64.0
        for pol in result.policies:
            np.testing.assert_array_equal(pol.time_regret, pol.regret_at(64))
            np.testing.assert_array_equal(pol.time_used, np.full(12, 64.0))

    def test_budget_invariant_and_freeze(self):
        # Rate 1/2 packets cost 2 time units: exactly 50 fit in a budget of
        # 100, and the ledger must stop there while slots keep running.
        config = ExperimentConfig(
            rates=RateSet.of([0.5, 1.0]),
            policies=(PolicySpec("static"),),
            horizon=100,
            seeds=(1, 2, 3),
            theta=np.array([[0.9, 0.3]]),
            accounting="original",
        )
        result = run_experiment(config)
        assert result.slots == 100
        pol = result.policy("static")
        np.testing.assert_array_equal(pol.packet_counts, [[50, 0]] * 3)
        np.testing.assert_array_equal(pol.time_used, [100.0] * 3)
        np.testing.assert_allclose(pol.time_regret, 0.0, atol=1e-12)

    def test_checkpoint_grid_includes_slot_low(self):
        config = ExperimentConfig(
            rates=RateSet.of([0.5, 1.0]),
            policies=(PolicySpec("kl-ucb"),),
            horizon=100,
            seeds=(1,),
            theta=np.array([[0.9, 0.3]]),
            accounting="both",
        )
        result = run_experiment(config)
        assert 50 in result.checkpoints  # floor(T * r_min)
        assert result.checkpoints[-1] == 100  # ceil(T * r_max)

    def test_accounting_check_report(self):
        config = ExperimentConfig(
            rates=RateSet.of([0.5, 1.0]),
            policies=(PolicySpec("kl-ucb"), PolicySpec("static")),
            horizon=128,
            seeds=tuple(range(1, 21)),
            theta=np.array([[0.9, 0.3]]),
            accounting="both",
        )
        result = run_experiment(config)
        report = accounting_check(result)
        assert report.slot_low == 64
        assert report.slot_high == 128
        assert {e.label for e in report.entries} == {"kl-ucb", "static"}
        for entry in report.entries:
            assert entry.budget_ok
            assert entry.max_time_used <= 128.0
            # Lower side of the sandwich holds whenever no rate exceeds 1.
            assert entry.lower_ok

    def test_accounting_check_requires_time_mode(self):
        result = run_experiment(config_2x2())
        with pytest.raises(ValueError, match="time accounting"):
            accounting_check(result)


class TestEmitOutputs:
    def test_files_and_determinism(self, tmp_path):
        config = config_2x2(seeds=(1, 2, 3), horizon=64)
        result = run_experiment(config)
        paths = emit_outputs(result, tmp_path / "a")
        assert set(paths) == {"regret", "decisions", "summary", "bounds"}
        again = emit_outputs(run_experiment(config), tmp_path / "b")
        for name in paths:
            assert paths[name].read_bytes() == again[name].read_bytes()

    def test_regret_csv_layout(self, tmp_path):
        result = run_experiment(config_2x2(seeds=(1, 2), horizon=64))
        paths = emit_outputs(result, tmp_path)
        lines = paths["regret"].read_text().strip().splitlines()
        assert lines[0] == "checkpoint,policy,mean,stddev,seed_1,seed_2"
        # Policies are sorted by label; 7 checkpoints each (64 = 2**6).
        assert len(lines) == 1 + 3 * 7
        assert lines[1].split(",")[1] == "kl-ucb"

    def test_decisions_csv_layout(self, tmp_path):
        result = run_experiment(config_2x2(seeds=(1,), horizon=64))
        paths = emit_outputs(result, tmp_path)
        lines = paths["decisions"].read_text().strip().splitlines()
        assert lines[0] == "step,policy,channel,rate_index,best_channel,best_rate_index"
        assert len(lines) == 1 + 3 * 64
        assert lines[1] == "0,kl-ucb,1,1,1,2"

    def test_summary_contents(self, tmp_path):
        result = run_experiment(config_2x2(seeds=(1, 2), horizon=64))
        paths = emit_outputs(result, tmp_path)
        summary = json.loads(paths["summary"].read_text())
        assert summary["slots"] == 64
        assert summary["oracle"]["efficiency"] == 1.0
        assert summary["static"]["pair"] == [1, 2]
        assert set(summary["policies"]) == {"kl-ucb", "oracle", "static"}
        entry = summary["policies"]["kl-ucb"]
        assert entry["final_regret_mean"] >= 0
        assert 0 < entry["efficiency_mean"] <= 1

    @pytest.mark.parametrize(
        "accounting, horizon, slots",
        [("alternative", 5, 5), ("both", 4, 8)],  # time budget 4 at rate 2: ceil(4 * 2) slots
    )
    def test_a_checkpoint_past_the_last_slot_is_dropped(self, tmp_path, accounting, horizon, slots):
        config = config_2x2(seeds=(1, 2), horizon=horizon, accounting=accounting, checkpoints=(3, 9))
        paths = emit_outputs(run_experiment(config), tmp_path)
        rows = paths["regret"].read_text().splitlines()[1:]
        assert {int(row.split(",")[0]) for row in rows} == {1, 2, 3, 4, slots}
        summary = json.loads(paths["summary"].read_text())
        assert summary["slots"] == slots and summary["checkpoints"] == [1, 2, 3, 4, slots]
        assert summary["config"]["checkpoints"] == [3, 9]  # the echo keeps what was asked

    def test_no_bounds_file_for_trace_source(self, tmp_path):
        trace = TraceTable(starts=(0,), tables=(np.full((2, 2), 0.5),), horizon=64)
        config = config_2x2(theta=None, trace=trace, horizon=64, seeds=(1,))
        paths = emit_outputs(run_experiment(config), tmp_path)
        assert "bounds" not in paths
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize("occupancy", [None, [0.25, 0.0]])
    def test_a_theta_table_and_its_one_segment_trace_write_the_same_bytes(self, tmp_path, occupancy):
        theta = [[0.9, 0.6], [0.5, 0.3]]
        kinds = ("oracle", "static", "kl-ucb", "kl-ucb-u", "crs-t")
        doc = {"rates": [1.0, 2.0], "policies": [{"kind": k} for k in kinds], "horizon": 600,
               "seeds": [1, 2, 3]}
        table = ExperimentConfig.from_json_dict(
            {**doc, "theta": theta, **({"occupancy": occupancy} if occupancy else {})}
        )
        TraceTable((0,), table.model().effective_theta()[None]).to_csv(tmp_path / "trace.csv")
        trace = ExperimentConfig.from_json_dict({**doc, "trace_csv": "trace.csv"}, tmp_path)
        want = emit_outputs(run_experiment(table), tmp_path / "table")
        got = emit_outputs(run_experiment(trace), tmp_path / "trace")
        for name in ("regret", "decisions"):
            assert got[name].read_bytes() == want[name].read_bytes()

    def test_bounds_file_parses(self, tmp_path):
        result = run_experiment(config_2x2(seeds=(1,), horizon=64))
        paths = emit_outputs(result, tmp_path)
        bounds = json.loads(paths["bounds"].read_text())
        assert bounds["c_I"]["defined"]


# Slot counts on either side of a change in the step's digit count, of a
# chunk edge and of the encoder's table of four-digit endings (10^4).
_SLOT_EDGES = (
    1, 2, 9, 10, 11, 99, 100, 101, 2499, 2500, 2501, 5001, 9999, 10000, 10001, 12501, 100_001
)


def _decisions_reference(logs, best_flats, channels: int, n_rates: int) -> bytes:
    """decisions.csv's rows written one f-string per row, as emit_outputs
    wrote them before the byte encoder."""
    pair_text = [f"{c},{k}" for c in range(1, channels + 1) for k in range(1, n_rates + 1)]
    rows = (
        f"{n},{label},{pair_text[d]},{pair_text[b]}\n"
        for label, decisions in logs
        for n, d, b in zip(range(len(best_flats)), decisions.tolist(), best_flats.tolist())
    )
    return "".join(rows).encode()


@st.composite
def _policy_labels(draw):
    kind = draw(st.sampled_from(sorted(policies.POLICY_KINDS)))
    learner = policies.POLICY_KINDS[kind] is not None
    window = draw(st.none() | st.integers(1, 10**6)) if learner else None
    strict = kind == "kl-ucb-u" and draw(st.booleans())
    return PolicySpec(kind, window, strict).label


class TestDecisionsEncoder:
    """decisions.csv's chunked byte encoder against per-row formatting."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_formatting(self, data):
        rows = data.draw(st.sampled_from([1, 2, 16, 625, harness._EMIT_ROWS]), "chunk rows")
        # One- and two-row chunks stop at 10^4 + 1 slots, to keep the test short.
        edges = [s for s in _SLOT_EDGES if rows >= 16 or s <= 10_001]
        slots = data.draw(st.sampled_from(edges) | st.integers(1, 400), "slots")
        channels, n_rates = data.draw(st.integers(1, 12), "channels"), data.draw(st.integers(1, 12))
        labels = data.draw(st.lists(_policy_labels(), min_size=1, max_size=3, unique=True))
        pairs = channels * n_rates
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "array seed"))
        dtype = np.min_scalar_type(pairs - 1)
        best = rng.integers(0, pairs, slots).astype(dtype)
        best[-1] = pairs - 1  # the widest pair text
        logs = [(label, rng.integers(0, pairs, slots).astype(dtype)) for label in labels]
        fh = io.BytesIO()
        with mock.patch.object(harness, "_EMIT_ROWS", rows):
            harness._write_decisions(fh, logs, best, channels, n_rates)
        assert fh.getvalue() == _decisions_reference(logs, best, channels, n_rates)

    def test_emitted_file_matches_per_row_formatting(self, tmp_path):
        learner = PolicySpec("kl-ucb-u", window=50, strict=True)
        specs = (learner, PolicySpec("static"), PolicySpec("oracle"))
        result = run_experiment(config_2x2(seeds=(1,), horizon=2_600, policies=specs))
        logs = [(p.label, p.decisions) for p in sorted(result.policies, key=lambda p: p.label)]
        text = emit_outputs(result, tmp_path)["decisions"].read_bytes()
        head = b"step,policy,channel,rate_index,best_channel,best_rate_index\n"
        assert text == head + _decisions_reference(logs, result.best_flats, 2, 2)


_SPREAD = np.random.default_rng(5).normal(size=500) * np.logspace(-250, 250, 500)


class TestFloatTexts:
    """regret.csv's per-seed values: each distinct value is formatted once."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(_SPREAD, id="distinct"),
            pytest.param(np.full(300, 2.75), id="equal"),
            pytest.param(np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5, -1.5]), id="signed-zeros"),
            pytest.param(np.array([1e-320, np.inf, -np.inf, np.nan, 1e-320]), id="special"),
            pytest.param(np.array([-0.0]), id="single"),
            pytest.param(np.array([0.0, -0.0] * 40 + [0.25]), id="zeros-beside-zeros"),
        ],
    )
    def test_matches_repr_of_each_value(self, values):
        assert _float_texts(values) == _repr_texts(values)

    def test_strided_column(self):
        table = np.arange(12.0).reshape(4, 3) / 7.0
        assert _float_texts(table[:, 1]) == _repr_texts(table[:, 1])
        table[::2, 1] = -0.0
        table[1::2, 1] = 0.0
        assert _float_texts(table[:, 1]) == _repr_texts(table[:, 1])
        column = np.repeat(_SPREAD[:60], 3).reshape(-1, 6)[::2, 5]
        assert _float_texts(column) == _repr_texts(column)


def _repr_texts(values: np.ndarray) -> bytes:
    return ",".join(map(repr, values.tolist())).encode()


def _regret_reference(policies, checkpoints, seeds) -> bytes:
    """regret.csv written one whole row at a time, with the seed names from
    ``map(str)``, as emit_outputs wrote it before the lane-tile encoder."""
    seed_texts = list(map(str, seeds))
    lines = ["checkpoint,policy,mean,stddev,seed_" + ",seed_".join(seed_texts) + "\n"]
    for pol in sorted(policies, key=lambda p: p.label):
        means, stds = pol.mean_regret.tolist(), pol.stddev_regret.tolist()
        for i, cp in enumerate(checkpoints):
            lanes = ",".join(map(repr, pol.trajectories[:, i].tolist()))
            lines.append(f"{cp},{pol.label},{means[i]!r},{stds[i]!r},{lanes}\n")
    return "".join(lines).encode()


def _summary_reference(written: bytes, seeds) -> bytes:
    """summary.json's other entries as written, re-encoded by one json.dumps
    with the seed list spliced in from ``map(str)``, as emit_outputs wrote
    it before the lane-tile encoder."""
    doc = json.loads(written)
    assert doc["config"]["seeds"] == list(seeds)
    doc["config"]["seeds"] = "seeds"
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    listed = "[\n      " + ",\n      ".join(map(str, seeds)) + "\n    ]"
    return (text.replace('"seeds": "seeds"', f'"seeds": {listed}', 1) + "\n").encode()


def _hand_built(seeds: tuple, tables: list[np.ndarray]) -> ExperimentResult:
    """A result holding ``tables`` as the regret of one policy each, over
    checkpoints 1, 2, ...; the other per-lane fields are constants."""
    lanes, cols = tables[0].shape
    specs = tuple(PolicySpec(k) for k in ("static", "kl-ucb", "oracle", "crs-t")[: len(tables)])
    checkpoints = tuple(range(1, cols + 1))
    config = config_2x2(seeds=seeds, horizon=max(4, cols), policies=specs)
    half = np.full(lanes, 0.5)
    decisions = np.zeros(cols, dtype=np.uint8)
    pols = tuple(
        PolicyRunResult(spec, spec.label, checkpoints, table, None, half, half, decisions)
        for spec, table in zip(specs, tables)
    )
    return ExperimentResult(config, cols, None, checkpoints, pols, 1.0, 0.75, 1, decisions)


# Values that share texts or bits, or have special texts.
_POOL = (0.0, -0.0, 0.5, 1.5, -2.25, 0.1 + 0.2, 1e-320, 1e30, np.inf, -np.inf, np.nan)


@st.composite
def _regret_tables(draw, lanes: int, cols: int) -> np.ndarray:
    """A ``(lanes, cols)`` table whose columns are lane-constant, drawn from
    ``_POOL`` (repeated values, -0.0 beside 0.0, inf and nan) or spread out.
    The last column is finite, as summary.json's final regret must be."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), "array seed"))
    table = np.empty((lanes, cols))
    for i in range(cols):
        pool = np.array(_POOL if i < cols - 1 else _POOL[:-3])
        kind = draw(st.sampled_from(["constant", "pool", "spread"]), "column kind")
        if kind == "constant":
            table[:, i] = draw(st.sampled_from(pool.tolist()), "value")
        elif kind == "pool":
            table[:, i] = rng.choice(pool, lanes)
        else:
            table[:, i] = rng.normal(size=lanes) * np.logspace(-20, 20, lanes)
    return table


_SEEDS = st.sampled_from([0, 2**64, 2**64 + 1, 10**3999, 10**3999 + 7]) | st.integers(0, 10**20)


class TestStreamedRegretAndSeeds:
    """regret.csv and summary.json's seed list, written a lane tile at a
    time, against whole rows and the ``map(str)`` splice."""

    @staticmethod
    def _assert_matches_reference(result: ExperimentResult, chunk: int, out) -> None:
        with mock.patch.object(harness, "_LANE_TILE", chunk), np.errstate(all="ignore"):
            paths = emit_outputs(result, out)
            want = _regret_reference(result.policies, result.checkpoints, result.config.seeds)
        assert paths["regret"].read_bytes() == want
        summary = paths["summary"].read_bytes()
        assert summary == _summary_reference(summary, result.config.seeds)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_whole_rows_and_the_map_str_splice(self, data, tmp_path_factory):
        lanes = data.draw(st.integers(1, 12), "lanes")
        cols = data.draw(st.integers(1, 4), "checkpoints")
        seeds = data.draw(st.lists(_SEEDS, min_size=lanes, max_size=lanes, unique=True), "seeds")
        tables = [data.draw(_regret_tables(lanes, cols)) for _ in range(data.draw(st.integers(1, 3)))]
        chunk = data.draw(st.sampled_from([c for c in (1, 2, 3, lanes - 1, lanes + 1) if c >= 1]))
        result = _hand_built(tuple(seeds), tables)
        self._assert_matches_reference(result, chunk, tmp_path_factory.mktemp("emit"))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "seeds", [(10**3999, 0, 2**64, 7), (2**64,), (0,)], ids=["long-and-zero", "one-wide", "one"]
    )
    def test_edge_seeds_at_every_chunk(self, tmp_path, seeds, chunk):
        table = np.array([[0.0, -0.0, np.inf, 1.5], [-0.0, -0.0, np.nan, 1.5]] * 2)[: len(seeds)]
        result = _hand_built(seeds, [table, np.abs(table[:, ::-1])])
        self._assert_matches_reference(result, chunk, tmp_path)

    def test_emission_peak_is_one_table_and_a_few_tiles_of_text(self, tmp_path):
        """Over three lane tiles and one more lane, every value distinct and
        every seed 13 digits long, emission's traced peak above the result
        stays within one policy's (lanes, checkpoints) float64 table (the
        stddev's temporary) plus 8 times one tile's regret text.  Whole rows
        and whole seed lists take more than twice that."""
        T = harness._LANE_TILE
        lanes = 3 * T + 1
        table = np.random.default_rng(3).random((lanes, 4))
        seeds = tuple(range(10**12, 10**12 + lanes))
        result = _hand_built(seeds, [np.zeros((lanes, 4)), table])
        tile_text = len(_float_texts(table[:T, 0]))
        tracemalloc.start()
        try:
            emit_outputs(result, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 8 * tile_text
