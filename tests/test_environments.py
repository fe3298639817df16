"""Environment tests: schedules, outcome purity, traces, drift, tapes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from chanrate import environments
from chanrate.environments import _EXP_MAX, _expit, _pcg64_random, _seed_states

from _oracles import (
    TAPE_TAG,
    assert_same_bits,
    pcg64_doubles,
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

    def test_probabilities_are_held_once(self):
        rates = RateSet.of([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        spec = SyntheticDriftSpec(rates=rates, channels=5, horizon=20_000, step_std=0.05)
        trace = drift_to_trace(spec)
        data = trace.probabilities
        assert data.shape == (20_000, 5, 8) and not data.flags.writeable
        assert all(tab.base is data for tab in trace.tables)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            again = TraceTable(trace.starts, data, trace.horizon)
            table_growth = tracemalloc.get_traced_memory()[0] - before
            before = tracemalloc.get_traced_memory()[0]
            env = TraceEnvironment(again, rates)
            env_growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # A stacked array is taken as it is: only a view per segment is new.
        assert again.probabilities is data
        assert table_growth < 20_000 * 150
        # The environment adds the segment starts as an int64 array and no
        # copy of the 6.4 MB of probabilities.
        assert env_growth < 20_000 * 8 + 4096
        assert env.theta_block(9_990, 10_010).tobytes() == data[9_990:10_010].tobytes()

    def test_tables_are_stacked_into_one_array(self, swap_trace):
        assert swap_trace.probabilities.shape == (2, 2, 2)
        assert swap_trace.tables[1].base is swap_trace.probabilities
        assert swap_trace.tables[1].tolist() == [[0.2, 0.1], [0.9, 0.3]]
        with pytest.raises(ValueError, match="read-only"):
            swap_trace.tables[0][0, 0] = 0.5


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

# Rows of the longest chunk prefix of 2 x 3 cells that block emulates.
EDGE = environments._EMULATE_MAX_DRAWS // 6


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

    @pytest.fixture()
    def emulated_chunks(self, monkeypatch):
        """Records (skip, count) of every tile of every emulated chunk."""
        calls = []

        def spy(states, skip, count):
            calls.append((skip, count))
            return _pcg64_random(states, skip, count)

        monkeypatch.setattr(environments, "_pcg64_random", spy)
        return calls

    @pytest.mark.parametrize(
        "start, stop, emulated",
        [
            (0, EDGE, [(0, 6 * EDGE)]),  # at the constant
            (0, EDGE + 1, []),  # one row over it
            (EDGE - 5, EDGE, [(6 * (EDGE - 5), 30)]),  # unaligned start
            (10, EDGE + 1, []),
            (510, 512 + EDGE, [(0, 6 * EDGE)]),  # chunk edge: generator, then emulated
            (512 + 3, 512 + 9, [(18, 36)]),
            (2**41 + 3, 2**41 + EDGE, [(18, 6 * (EDGE - 3))]),  # block index 2^32
            (2**41 - 4, 2**41 + 4, [(0, 24)]),  # block index 2^32 - 1 into 2^32
        ],
    )
    def test_both_draw_paths_match_reference(self, env, emulated_chunks, start, stop, emulated):
        """A chunk of at most _EMULATE_MAX_DRAWS draws per lane steps PCG64
        across lanes; a longer one runs numpy's generator per lane."""
        block = OutcomeTape(env, MIXED_SEEDS).block(start, stop)
        for i, seed in enumerate(MIXED_SEEDS):
            np.testing.assert_array_equal(block[i], reference_outcomes(env, seed, start, stop))
        # MIXED_SEEDS fall in three groups by entropy length, one call each.
        assert emulated_chunks == [call for call in emulated for _ in range(3)]

    @pytest.mark.parametrize("seeds", [MIXED_SEEDS, (7, 3, 9, 1, 4)])
    def test_lane_tiles_reassemble(self, env, monkeypatch, seeds):
        """Tiles narrower than a group, in multi-word groups (a fancy index)
        and in one group of one-word seeds (a slice)."""
        want = OutcomeTape(env, seeds).block(505, 520)
        monkeypatch.setattr(environments, "_PCG_TILE", 2)
        assert OutcomeTape(env, seeds).block(505, 520).tobytes() == want.tobytes()
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(want[i], reference_outcomes(env, seed, 505, 520))

    def test_lane_alone_equals_its_lane_in_a_wide_batch(self, env, emulated_chunks):
        rng = np.random.default_rng(8)
        seeds = [int(s) for s in rng.choice(2**40, size=9_000, replace=False)]
        seeds[:3] = [0, 2**32 - 1, 2**64 + 3]  # one-, two- and three-word entropy
        tape = OutcomeTape(env, seeds)
        short = tape.block(0, 7)  # 42 draws per lane: emulated, in lane tiles
        tiles = len(emulated_chunks)
        assert tiles >= 4  # three groups, the widest in two tiles
        long = tape.block(0, 3 * EDGE)  # per-lane generator
        assert len(emulated_chunks) == tiles
        assert short.tobytes() == long[:, :7].tobytes()
        for lane in (0, 1, 2, 3, 4_000, environments._PCG_TILE, len(seeds) - 1):
            alone = OutcomeTape(env, (seeds[lane],)).block(0, 7)
            assert alone[0].tobytes() == short[lane].tobytes()

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


# Seeds of one-, two- and three-word entropy at the word edges.
CELL_SEEDS = (0, 2**32 - 1, 2**32, 2**40, 2**70 + 3)


def _stationary(channels: int, n_rates: int) -> StationaryEnvironment:
    theta = np.random.default_rng(channels * n_rates).random((channels, n_rates))
    return StationaryEnvironment(LinkModel(RateSet.of(list(range(1, n_rates + 1))), theta))


def _block_cells(tape: OutcomeTape, start: int, stop: int, flats) -> np.ndarray:
    """``block(start, stop)`` read at one flat cell a step."""
    block = tape.block(start, stop)
    steps = np.arange(stop - start)
    return block.reshape(*block.shape[:2], -1)[:, steps, flats]


class TestOutcomeTapeCells:
    """``cells`` jumps to each cell it reads; the bits are ``block``'s."""

    @pytest.fixture(params=[(1, 1), (5, 8)], ids=["P=1", "P=40"])
    def env(self, request):
        return _stationary(*request.param)

    @pytest.mark.parametrize(
        "start, stop",
        [
            (0, 1),  # the first draw of a chunk
            (0, 512),  # one whole chunk
            (90, 110),  # unaligned inside one chunk
            (511, 513),  # the last row of one chunk, the first of the next
            (300, 1100),  # across two edges
            (2**41 - 9, 2**41 - 1),  # block index 2^32 - 1
            (2**41, 2**41 + 5),  # block index 2^32: a two-word block entropy
            (2**41 - 4, 2**41 + 4),  # block index 2^32 - 1 into 2^32
        ],
    )
    @pytest.mark.parametrize("which", ["random", "first", "last"])
    def test_matches_block_bitwise(self, env, start, stop, which):
        P = env.channels * env.n_rates
        flats = {
            "random": np.random.default_rng(start).integers(0, P, stop - start),
            "first": np.zeros(stop - start, dtype=int),
            "last": np.full(stop - start, P - 1),
        }[which]
        tape = OutcomeTape(env, CELL_SEEDS)
        got = tape.cells(start, stop, flats)
        assert got.dtype == np.uint8 and got.shape == (len(CELL_SEEDS), stop - start)
        np.testing.assert_array_equal(got, _block_cells(tape, start, stop, flats))

    def test_trace_schedule_respected(self):
        rng = np.random.default_rng(3)
        starts = (0, 260, 511, 513)
        trace = TraceTable(starts, tuple(rng.random((2, 3)) for _ in starts), horizon=700)
        tape = OutcomeTape(TraceEnvironment(trace, RateSet.of([1.0, 2.0, 3.0])), CELL_SEEDS)
        flats = rng.integers(0, 6, 450)
        np.testing.assert_array_equal(tape.cells(250, 700, flats), _block_cells(tape, 250, 700, flats))

    @pytest.mark.parametrize("seeds", [CELL_SEEDS, (7, 3, 9, 1, 4)])
    def test_lane_tiles_reassemble(self, env, monkeypatch, seeds):
        """Tiles of one lane and of two, in multi-word groups (a fancy
        index) and in one group of one-word seeds (a slice)."""
        flats = np.arange(25) % (env.channels * env.n_rates)
        want = OutcomeTape(env, seeds).cells(500, 525, flats)
        for tile in (1, 2 * 25):
            monkeypatch.setattr(environments, "_CELL_TILE", tile)
            assert OutcomeTape(env, seeds).cells(500, 525, flats).tobytes() == want.tobytes()
        np.testing.assert_array_equal(want, _block_cells(OutcomeTape(env, seeds), 500, 525, flats))

    def test_validation(self, env):
        tape = OutcomeTape(env, (1,))
        P = env.channels * env.n_rates
        with pytest.raises(ValueError, match="stop"):
            tape.cells(10, 10, [])
        with pytest.raises(ValueError, match="one flat cell a step"):
            tape.cells(10, 12, [0])
        for bad in (-1, P):
            with pytest.raises(ValueError, match=r"flat cells must lie in \[0, "):
                tape.cells(10, 12, [0, bad])


_CELL_ENV = _stationary(2, 3)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_cells_match_block_on_random_spans(data):
    start = data.draw(st.integers(0, 3 * 512) | st.integers(2**41 - 300, 2**41 + 300), "start")
    stop = start + data.draw(st.integers(1, 200), "steps")
    flats = data.draw(st.lists(st.integers(0, 5), min_size=stop - start, max_size=stop - start))
    seeds = data.draw(st.lists(st.sampled_from(CELL_SEEDS), min_size=1, max_size=3, unique=True))
    tape = OutcomeTape(_CELL_ENV, seeds)
    np.testing.assert_array_equal(tape.cells(start, stop, flats), _block_cells(tape, start, stop, flats))


# Edge seed states for the emulated generator, as (s0, s1, s2, s3) words:
# initstate = s0:s1 and inc = (s2:s3) << 1 | 1.
ALL_ONES = 2**64 - 1
PCG_EDGE_STATES = [
    (0, 0, 0, 0),  # state 0, inc 1
    (0, ALL_ONES, 0, 0),  # low word all ones: the seeding add carries into the high word
    (0, ALL_ONES, 0, ALL_ONES),  # low words of state and inc all ones
    (ALL_ONES, ALL_ONES, ALL_ONES, ALL_ONES),
    (0, 0, 2**62, 0),  # the top bit of inc set
    (0, 0, 2**63, 0),  # a bit shifted out of inc
    (0, 0xFFFFFFFF, 0, 0xFFFFFFFF),  # a low limb all ones
    (2**63, 2**63, 2**63, 2**63),
]


class TestPcg64Emulation:
    def test_random_states_match_numpy_bitwise(self):
        rng = np.random.default_rng(21)
        states = rng.integers(0, 2**64, size=(1_000, 4), dtype=np.uint64, endpoint=False)
        got = np.array([d.copy() for d in _pcg64_random(states, 0, 40)]).T
        assert got.shape == (1_000, 40)
        for row, draws in zip(states, got):
            assert_same_bits(draws, pcg64_doubles(row, 40))

    @pytest.mark.parametrize("state", PCG_EDGE_STATES)
    def test_edge_states_match_numpy_bitwise(self, state):
        states = np.array([state], dtype=np.uint64)
        got = [d[0] for d in _pcg64_random(states, 0, 600)]
        assert_same_bits(got, pcg64_doubles(state, 600))

    @pytest.mark.parametrize("skip, count", [(0, 1), (1, 1), (5, 3), (300, 24)])
    def test_skip_starts_later_in_the_stream(self, skip, count):
        states = np.array(PCG_EDGE_STATES, dtype=np.uint64)
        got = np.array([d.copy() for d in _pcg64_random(states, skip, count)]).T
        for row, draws in zip(states, got):
            assert_same_bits(draws, pcg64_doubles(row, skip + count)[skip:])
