"""Environment tests: schedules, outcome purity, traces, drift, tapes."""

from __future__ import annotations

import numpy as np
import pytest

from chanrate import (
    DriftEnvironment,
    LinkModel,
    OutcomeTape,
    RateSet,
    StationaryEnvironment,
    SyntheticDriftSpec,
    TraceEnvironment,
    TraceTable,
    accelerate,
    drift_to_trace,
)
from chanrate.environments import _EXP_MAX, _expit, _seed_states

from _oracles import (
    TAPE_TAG,
    assert_same_bits,
    reference_draw,
    reference_outcomes,
    trace_csv_reference,
)


@pytest.fixture()
def swap_trace():
    # Two segments; the better channel flips at step 100.
    t0 = np.array([[0.9, 0.2], [0.4, 0.1]])
    t1 = np.array([[0.2, 0.1], [0.9, 0.3]])
    return TraceTable(starts=(0, 100), tables=(t0, t1), horizon=200)


class TestStationary:
    def test_schedule_is_constant(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        np.testing.assert_array_equal(env.theta_at(0), env.theta_at(999))
        assert env.horizon is None

    def test_theta_block_broadcasts(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        block = env.theta_block(10, 20)
        assert block.shape == (10, 2, 2)
        np.testing.assert_array_equal(block[3], tiny_model.theta)

    def test_occupancy_feeds_through(self):
        model = LinkModel(
            RateSet.of([1.0]), np.array([[0.8], [0.8]]), occupancy=np.array([0.5, 0.0])
        )
        env = StationaryEnvironment(model)
        np.testing.assert_allclose(env.theta_at(0), [[0.4], [0.8]])

    def test_draw_is_pure(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        first = [reference_draw(env, 3, (1, 1), n) for n in range(100)]
        second = [reference_draw(env, 3, (1, 1), n) for n in range(100)]
        assert first == second

    def test_draw_mean_tracks_probability(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        n = 4096
        mean = sum(reference_draw(env, 70, (2, 1), i) for i in range(n)) / n
        # theta = 0.5; a 6-sigma band at this sample size is +-0.047.
        assert abs(mean - 0.5) < 0.05

    def test_with_seed_changes_outcomes_not_schedule(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        draws_1 = [reference_draw(env, 1, (1, 1), n) for n in range(200)]
        draws_2 = [reference_draw(env, 2, (1, 1), n) for n in range(200)]
        assert draws_1 != draws_2


class TestTraceTable:
    def test_validation(self):
        tab = np.full((1, 2), 0.5)
        with pytest.raises(ValueError, match="start at step 0"):
            TraceTable(starts=(5,), tables=(tab,))
        with pytest.raises(ValueError, match="strictly increasing"):
            TraceTable(starts=(0, 0), tables=(tab, tab))
        with pytest.raises(ValueError, match="one probability table"):
            TraceTable(starts=(0, 1), tables=(tab,))
        with pytest.raises(ValueError, match="share one"):
            TraceTable(starts=(0, 1), tables=(tab, np.full((2, 2), 0.5)))
        with pytest.raises(ValueError, match="exceed the last segment"):
            TraceTable(starts=(0, 10), tables=(tab, tab), horizon=10)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, 1.5, float("inf")])
    def test_probabilities_outside_unit_interval_name_their_segment(self, bad):
        tab = np.full((2, 2), 0.5)
        worse = tab.copy()
        worse[1, 0] = bad
        with pytest.raises(
            ValueError, match=rf"segment 2 \(from step 10\) has {bad!r} at channel 2, rate 1"
        ):
            TraceTable(starts=(0, 10, 20), tables=(tab, worse, tab))

    def test_segment_lookup(self, swap_trace):
        assert swap_trace.segment_index(0) == 0
        assert swap_trace.segment_index(99) == 0
        assert swap_trace.segment_index(100) == 1
        assert swap_trace.theta_at(99)[0, 0] == 0.9
        assert swap_trace.theta_at(100)[0, 0] == 0.2

    def test_csv_round_trip(self, swap_trace, tmp_path):
        path = tmp_path / "trace.csv"
        swap_trace.to_csv(path)
        loaded = TraceTable.from_csv(path, horizon=200)
        assert loaded.starts == swap_trace.starts
        assert loaded.horizon == 200
        for a, b in zip(loaded.tables, swap_trace.tables):
            np.testing.assert_array_equal(a, b)

    def test_csv_is_sparse_and_inherits(self, tmp_path):
        # Second segment only changes one cell; the CSV must carry only
        # that row and loading must inherit the rest.
        t0 = np.array([[0.5, 0.25]])
        t1 = np.array([[0.5, 0.75]])
        trace = TraceTable(starts=(0, 10), tables=(t0, t1))
        path = tmp_path / "sparse.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 + 1  # header, full first segment, one change
        loaded = TraceTable.from_csv(path)
        np.testing.assert_array_equal(loaded.tables[1], t1)

    def test_csv_rejects_incomplete_first_segment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "start_step,channel,rate_index,theta\n0,1,1,0.5\n0,2,2,0.5\n"
        )
        with pytest.raises(ValueError, match="leaves channel 1, rate 2 unspecified"):
            TraceTable.from_csv(path)

    def test_csv_rejects_nan_in_a_later_segment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "start_step,channel,rate_index,theta\n0,1,1,0.5\n0,1,2,0.5\n7,1,2,nan\n"
        )
        with pytest.raises(ValueError, match=r"segment 2 \(from step 7\) has nan at channel 1, rate 2"):
            TraceTable.from_csv(path)

    def test_csv_bytes_match_a_per_cell_writer(self, tmp_path):
        # Many repeated cells, both zeros (equal, so a flip is no change)
        # and more segments than one comparison pass takes.
        rng = np.random.default_rng(5)
        values = np.array([0.0, -0.0, 0.25, 1.0, 0.1, 1 / 3])
        tables = tuple(values[rng.integers(0, 6, size=(2, 3))] for _ in range(1300))
        starts = tuple(range(0, 3 * 1300, 3))
        trace = TraceTable(starts=starts, tables=tables)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_bytes() == trace_csv_reference(trace).encode()
        again = TraceTable.from_csv(path)
        assert again.starts == starts
        assert np.array_equal(np.stack(again.tables), np.stack(tables))

    def test_csv_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,channel,rate_index,theta\n0,1,1,0.5\n")
        with pytest.raises(ValueError, match="columns"):
            TraceTable.from_csv(path)


class TestTraceEnvironment:
    def test_theta_block_matches_pointwise_across_segments(self):
        rng = np.random.default_rng(3)
        starts = (0, 3, 4, 100, 512, 517, 600)
        tables = tuple(rng.random((2, 3)) for _ in starts)
        env = TraceEnvironment(TraceTable(starts, tables, horizon=1000), RateSet.of([1.0, 2.0, 3.0]))
        for start, stop in ((0, 512), (2, 5), (3, 4), (99, 101), (500, 700), (599, 1000)):
            block = env.theta_block(start, stop)
            expected = np.stack([env.theta_at(n) for n in range(start, stop)])
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="beyond horizon"):
            env.theta_block(990, 1001)

    def test_horizon_enforced(self, swap_trace):
        env = TraceEnvironment(swap_trace, RateSet.of([1.0, 2.0]))
        env.theta_at(199)
        with pytest.raises(ValueError, match="step 200 beyond horizon 200"):
            env.theta_at(200)

    def test_rate_width_must_match(self, swap_trace):
        with pytest.raises(ValueError, match="rate count"):
            TraceEnvironment(swap_trace, RateSet.of([1.0]))


class TestAccelerate:
    def make(self):
        return TraceTable(
            starts=(0, 7, 20, 33),
            tables=tuple(np.full((1, 1), v) for v in (0.1, 0.2, 0.3, 0.4)),
            horizon=40,
        )

    def test_identity_factor(self):
        t = self.make()
        out = accelerate(t, 1)
        assert out.starts == t.starts
        assert out.horizon == t.horizon

    def test_divides_starts_and_horizon(self):
        out = accelerate(self.make(), 2)
        assert out.starts == (0, 3, 10, 16)
        assert out.horizon == 20

    def test_colliding_segments_keep_latest(self):
        out = accelerate(self.make(), 13)
        assert out.starts == (0, 1, 2)
        assert [tab[0, 0] for tab in out.tables] == [0.2, 0.3, 0.4]
        assert out.horizon == 3

    def test_composition(self):
        t = self.make()
        ab = accelerate(accelerate(t, 2), 3)
        direct = accelerate(t, 6)
        assert ab.starts == direct.starts
        assert ab.horizon == direct.horizon
        for x, y in zip(ab.tables, direct.tables):
            np.testing.assert_array_equal(x, y)

    def test_extreme_factor_clamps_to_one_step(self):
        out = accelerate(self.make(), 1000)
        assert out.starts == (0,)
        assert out.horizon == 1
        assert out.tables[0][0, 0] == 0.4  # latest segment wins the merge


class TestSyntheticDrift:
    def spec(self, **kw):
        base = dict(
            rates=RateSet.of([1.0, 2.0, 4.0]),
            channels=3,
            horizon=400,
            step_std=0.02,
            seed=9,
        )
        base.update(kw)
        return SyntheticDriftSpec(**base)

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            self.spec(horizon=0)
        with pytest.raises(ValueError, match="step_std"):
            self.spec(step_std=-0.1)
        with pytest.raises(ValueError, match="softness"):
            self.spec(softness=0.0)
        with pytest.raises(ValueError, match="one threshold per rate"):
            self.spec(thresholds=(0.2, 0.4))
        with pytest.raises(ValueError, match="strictly increasing"):
            self.spec(thresholds=(0.4, 0.4, 0.5))

    def test_default_thresholds_spread_evenly(self):
        spec = self.spec(latent_lo=0.0, latent_hi=1.0)
        np.testing.assert_allclose(spec.threshold_array(), [0.25, 0.5, 0.75])

    def test_json_round_trip(self):
        spec = self.spec(thresholds=(0.1, 0.5, 0.9))
        again = SyntheticDriftSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_unknown_keys_rejected(self):
        data = self.spec().to_json_dict()
        data["velocity"] = 1
        with pytest.raises(ValueError, match="unknown drift spec keys"):
            SyntheticDriftSpec.from_json_dict(data)

    def test_rows_nonincreasing_in_rate(self):
        env = DriftEnvironment(self.spec())
        for step in (0, 57, 399):
            th = env.theta_at(step)
            assert np.all(np.diff(th, axis=1) <= 0)
            assert np.all((th > 0) & (th < 1))

    def test_zero_step_std_is_stationary(self):
        env = DriftEnvironment(self.spec(step_std=0.0))
        np.testing.assert_array_equal(env.theta_at(0), env.theta_at(399))

    def test_latent_stays_in_range(self):
        env = DriftEnvironment(self.spec(step_std=0.3))
        for step in range(0, 400, 7):
            lat = env.latent_at(step)
            assert np.all((lat >= 0.0) & (lat <= 1.0))

    def test_same_spec_same_path(self):
        a = DriftEnvironment(self.spec())
        b = DriftEnvironment(self.spec())
        np.testing.assert_array_equal(a.theta_at(250), b.theta_at(250))

    def test_theta_block_matches_pointwise(self):
        env = DriftEnvironment(self.spec())
        block = env.theta_block(40, 60)
        for i, step in enumerate(range(40, 60)):
            np.testing.assert_array_equal(block[i], env.theta_at(step))

    @pytest.mark.parametrize("softness", [0.08, 1e-4, 1e-300])
    def test_theta_matches_scipy_expit_bitwise(self, softness):
        expit = pytest.importorskip("scipy.special").expit
        rates = RateSet.of([1.0 + k for k in range(8)])
        spec = self.spec(rates=rates, channels=5, horizon=512, step_std=0.05, softness=softness)
        env = DriftEnvironment(spec)
        latent = np.stack([env.latent_at(n) for n in range(spec.horizon)])
        z = (latent[:, :, None] - spec.threshold_array()) / softness
        if softness == 1e-4:
            # exp(-z) overflows on some elements and is finite but huge on others.
            assert (-z > 745.0).any() and ((-z > 709.0) & (-z < 745.0)).any()
        want = expit(z)
        assert_same_bits(env.theta_block(0, spec.horizon), want)
        for n in (0, 1, 255, 511):
            assert_same_bits(env.theta_at(n), want[n])

    def test_expit_port_at_overflow_edges(self):
        expit = pytest.importorskip("scipy.special").expit
        # exp(-z) is finite down to z = -_EXP_MAX and overflows below it.
        below = np.nextafter(-_EXP_MAX, -np.inf)
        z = np.array(
            [0.0, -0.0, 1.0, -1.0, 36.0, -37.0, 709.0, -709.0, 745.0, -745.0, -746.0, _EXP_MAX,
             -_EXP_MAX, np.nextafter(-_EXP_MAX, 0.0), below, -1e300, 1e300, -np.inf, np.inf, np.nan]
        )
        assert_same_bits(_expit(z), expit(z))
        assert _expit(np.array([-_EXP_MAX]))[0] > 0.0 and _expit(np.array([below]))[0] == 0.0

    def test_drift_to_trace_exact_at_unit_sampling(self):
        spec = self.spec(horizon=1100)
        trace = drift_to_trace(spec, sample_every=1)
        env = DriftEnvironment(spec)
        assert trace.horizon == 1100
        for step in range(1100):
            assert_same_bits(trace.theta_at(step), env.theta_at(step))

    def test_drift_to_trace_holds_between_samples(self):
        spec = self.spec(horizon=1600)
        trace = drift_to_trace(spec, sample_every=3)
        env = DriftEnvironment(spec)
        assert trace.starts == tuple(range(0, 1600, 3))
        for step in range(1600):
            assert_same_bits(trace.theta_at(step), env.theta_at(step - step % 3))


class TestOutcomeTape:
    def test_matches_scalar_draws_across_chunk_boundary(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        tape = OutcomeTape(env, seeds=(1, 2))
        block = tape.block(500, 530)  # spans the 512-step chunk edge
        for si, seed in enumerate((1, 2)):
            for n in range(500, 530):
                for c in (1, 2):
                    for k in (1, 2):
                        assert block[si, n - 500, c - 1, k - 1] == reference_draw(env, seed, (c, k), n)

    def test_trace_schedule_respected(self, swap_trace):
        rates = RateSet.of([1.0, 2.0])
        env = TraceEnvironment(swap_trace, rates)
        tape = OutcomeTape(env, seeds=(4,))
        block = tape.block(90, 110)
        for n in range(90, 110):
            assert block[0, n - 90, 0, 0] == reference_draw(env, 4, (1, 1), n)

    def test_validation(self, tiny_model):
        env = StationaryEnvironment(tiny_model)
        with pytest.raises(ValueError, match="distinct"):
            OutcomeTape(env, seeds=(1, 1))
        with pytest.raises(ValueError, match="at least one seed"):
            OutcomeTape(env, seeds=())
        tape = OutcomeTape(env, seeds=(1,))
        with pytest.raises(ValueError, match="stop"):
            tape.block(10, 10)


# Seeds whose entropy rows have one, two and three words, and 0 (one word).
MIXED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)


class TestOutcomeTapeAgainstReference:
    @pytest.fixture()
    def env(self):
        theta = np.array([[0.9, 0.55, 0.2], [0.6, 0.4, 0.05]])
        return StationaryEnvironment(LinkModel(RateSet.of([1.0, 2.0, 3.0]), theta))

    @pytest.mark.parametrize(
        "start, stop",
        [
            (0, 512),  # one whole chunk
            (512, 1024),  # chunk-aligned, not the first chunk
            (0, 7),  # a short prefix
            (90, 110),  # unaligned inside one chunk
            (500, 530),  # across the 512 edge
            (300, 1100),  # across two edges
            (2**41, 2**41 + 9),  # block index 2^32: a two-word block entropy
            (2**41 - 4, 2**41 + 4),  # block index 2^32 - 1 into 2^32
        ],
    )
    def test_block_matches_reference_bitwise(self, env, start, stop):
        block = OutcomeTape(env, MIXED_SEEDS).block(start, stop)
        assert block.dtype == np.uint8
        assert block.shape == (len(MIXED_SEEDS), stop - start, 2, 3)
        for i, seed in enumerate(MIXED_SEEDS):
            np.testing.assert_array_equal(block[i], reference_outcomes(env, seed, start, stop))

    def test_trace_block_matches_reference_bitwise(self):
        rng = np.random.default_rng(11)
        starts = (0, 260, 511, 513)
        trace = TraceTable(starts, tuple(rng.random((2, 2)) for _ in starts), horizon=700)
        env = TraceEnvironment(trace, RateSet.of([1.0, 2.0]))
        block = OutcomeTape(env, MIXED_SEEDS).block(250, 600)
        for i, seed in enumerate(MIXED_SEEDS):
            np.testing.assert_array_equal(block[i], reference_outcomes(env, seed, 250, 600))

    def test_lanes_are_independent(self, env):
        full = OutcomeTape(env, MIXED_SEEDS).block(500, 530)
        for i, seed in enumerate(MIXED_SEEDS):
            alone = OutcomeTape(env, (seed,)).block(500, 530)
            assert alone[0].tobytes() == full[i].tobytes()
        order = [3, 0, 4, 2, 1]
        permuted = OutcomeTape(env, [MIXED_SEEDS[i] for i in order]).block(500, 530)
        assert permuted.tobytes() == full[order].tobytes()
        added = OutcomeTape(env, (*MIXED_SEEDS, 2**40 + 5)).block(500, 530)
        assert added[:-1].tobytes() == full.tobytes()

    def test_hash_matches_seed_sequence(self):
        rng = np.random.default_rng(5)
        for length in range(1, 8):  # below, at and above the 4-word pool
            rows = rng.integers(0, 2**32, size=(6, length), dtype=np.uint32)
            rows[0] = 0
            rows[1] = 2**32 - 1
            rows[:, 0] = TAPE_TAG
            states = _seed_states(rows)
            assert states.dtype == np.uint64 and states.shape == (6, 4)
            for row, state in zip(rows, states):
                expected = np.random.SeedSequence([int(w) for w in row]).generate_state(
                    4, np.uint64
                )
                np.testing.assert_array_equal(state, expected)

    def test_bulk_seed_validation(self, env):
        for bad in (-1, True, 2.0, "3"):
            with pytest.raises(ValueError, match=f"nonnegative integer, got {bad!r}"):
                OutcomeTape(env, seeds=(1, bad, 2))
        tape = OutcomeTape(env, seeds=(np.int64(3), 4))
        assert tape.seeds == (3, 4) and all(type(s) is int for s in tape.seeds)
