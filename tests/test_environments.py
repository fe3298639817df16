"""Environment tests: schedules, outcome purity, traces, drift, tapes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanrate import environments
from chanrate.environments import (
    _EXP_MAX,
    DriftEnvironment,
    Environment,
    OutcomeTape,
    SyntheticDriftSpec,
    TraceTable,
    _add128,
    _expit,
    _mul128,
    _pcg64_random,
    _seed_states,
    drift_to_trace,
)
from chanrate.harness import ExperimentConfig, PolicySpec, run_experiment
from chanrate.model import LinkModel, RateSet

from _oracles import (
    TAPE_TAG,
    assert_same_bits,
    drift_latent_reference,
    pcg64_doubles,
    reference_draw,
    reference_outcomes,
    trace_csv_reference,
    trace_theta_reference,
)


def stationary(model: LinkModel) -> TraceTable:
    """A link model's table as runs read it: a trace of one segment with
    no horizon."""
    return TraceTable((0,), model.effective_theta()[None])


@pytest.fixture()
def swap_trace():
    # Two segments; the better channel flips at step 100.
    t0 = np.array([[0.9, 0.2], [0.4, 0.1]])
    t1 = np.array([[0.2, 0.1], [0.9, 0.3]])
    return TraceTable(starts=(0, 100), tables=(t0, t1), horizon=200)


class TestStationary:
    def test_schedule_is_constant(self, tiny_model):
        env = stationary(tiny_model)
        np.testing.assert_array_equal(env.theta_block(0, 1000), np.stack([tiny_model.theta] * 1000))
        # No horizon: any step is valid.
        np.testing.assert_array_equal(env.theta_block(10**12, 10**12 + 1)[0], tiny_model.theta)

    def test_theta_block_broadcasts(self, tiny_model):
        env = stationary(tiny_model)
        block = env.theta_block(10, 20)
        assert block.shape == (10, 2, 2)
        np.testing.assert_array_equal(block[3], tiny_model.theta)

    def test_occupancy_feeds_through(self):
        model = LinkModel(
            RateSet.of([1.0]), np.array([[0.8], [0.8]]), occupancy=np.array([0.5, 0.0])
        )
        env = stationary(model)
        np.testing.assert_allclose(env.theta_block(0, 1)[0], [[0.4], [0.8]])

    def test_draw_is_pure(self, tiny_model):
        env = stationary(tiny_model)
        first = [reference_draw(env, 3, (1, 1), n) for n in range(100)]
        second = [reference_draw(env, 3, (1, 1), n) for n in range(100)]
        assert first == second

    def test_draw_mean_tracks_probability(self, tiny_model):
        env = stationary(tiny_model)
        n = 4096
        mean = sum(reference_draw(env, 70, (2, 1), i) for i in range(n)) / n
        # theta = 0.5; a 6-sigma band at this sample size is +-0.047.
        assert abs(mean - 0.5) < 0.05

    def test_with_seed_changes_outcomes_not_schedule(self, tiny_model):
        env = stationary(tiny_model)
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

    @pytest.mark.parametrize("start", [2**63, 10**30, -(2**63) - 1])
    def test_start_beyond_int64_names_its_segment(self, start):
        tab = np.full((1, 2), 0.5)
        with pytest.raises(ValueError, match=rf"segment 2 starts at step {start}, beyond int64"):
            TraceTable(starts=(0, start), tables=(tab, tab))

    def test_csv_cell_named_twice_keeps_the_later_row(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text(
            "start_step,channel,rate_index,theta\n"
            "0,1,1,0.5\n0,1,2,0.25\n0,1,1,0.75\n5,1,2,0.1\n5,1,2,0.2\n"
        )
        trace = TraceTable.from_csv(path)
        assert trace.tables.tolist() == [[[0.75, 0.25]], [[0.75, 0.2]]]

    def test_segment_lookup(self, swap_trace):
        block = swap_trace.theta_block(0, 200)
        assert block[99, 0, 0] == 0.9
        assert block[100, 0, 0] == 0.2
        for n in range(200):
            assert_same_bits(block[n], trace_theta_reference(swap_trace, n))

    def test_csv_round_trip(self, swap_trace, tmp_path):
        path = tmp_path / "trace.csv"
        swap_trace.to_csv(path)
        loaded = TraceTable.from_csv(path, horizon=200)
        assert loaded.starts.tolist() == swap_trace.starts.tolist()
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

    def test_csv_with_a_huge_index_is_rejected_in_memory_of_the_file_size(self, tmp_path):
        # A table of 10^7 channels would take 10 MB even as one byte a cell.
        path = tmp_path / "bad.csv"
        path.write_text("start_step,channel,rate_index,theta\n0,1,1,0.5\n0,10000000,1,0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="leaves channel 2, rate 1 unspecified"):
                TraceTable.from_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
        assert again.starts.tolist() == list(starts)
        assert np.array_equal(again.tables, np.stack(tables))

    def test_csv_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,channel,rate_index,theta\n0,1,1,0.5\n")
        with pytest.raises(ValueError, match="columns"):
            TraceTable.from_csv(path)


def test_every_schedule_is_an_environment():
    """A tracer that wraps ``theta_block`` on each subclass of
    ``Environment`` that defines it sees every schedule: only the base
    defines it, checks the steps and calls the schedule's own
    ``_theta_block``.  The base holds no state of its own."""
    defining = {
        cls for cls in vars(environments).values()
        if isinstance(cls, type) and "theta_block" in cls.__dict__
    }
    assert defining == {Environment}
    assert set(Environment.__subclasses__()) == {TraceTable, DriftEnvironment}
    assert all("_theta_block" in cls.__dict__ for cls in (TraceTable, DriftEnvironment))
    assert "__init__" not in Environment.__dict__


@pytest.mark.parametrize(
    "env",
    [
        TraceTable((0, 50), (np.full((2, 2), 0.3), np.full((2, 2), 0.6)), horizon=200),
        DriftEnvironment(SyntheticDriftSpec(RateSet.of([1.0, 2.0]), channels=2, horizon=200, step_std=0.01)),
    ],
    ids=["trace", "drift"],
)
def test_every_schedule_checks_a_blocks_steps(env):
    assert env.theta_block(199, 200).shape == (1, 2, 2)
    with pytest.raises(ValueError, match="step must be >= 0, got -1"):
        env.theta_block(-1, 3)
    with pytest.raises(ValueError, match="step 200 beyond horizon 200"):
        env.theta_block(150, 201)


class TestTraceSchedule:
    def test_theta_block_matches_pointwise_across_segments(self):
        rng = np.random.default_rng(3)
        starts = (0, 3, 4, 100, 512, 517, 600)
        tables = tuple(rng.random((2, 3)) for _ in starts)
        trace = TraceTable(starts, tables, horizon=1000)
        for start, stop in ((0, 512), (2, 5), (3, 4), (99, 101), (500, 700), (599, 1000)):
            block = trace.theta_block(start, stop)
            expected = np.stack([trace_theta_reference(trace, n) for n in range(start, stop)])
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="beyond horizon"):
            trace.theta_block(990, 1001)

    def test_horizon_enforced(self, swap_trace):
        swap_trace.theta_block(199, 200)
        with pytest.raises(ValueError, match="step 200 beyond horizon 200"):
            swap_trace.theta_block(200, 201)

    @pytest.mark.parametrize("shape", [(1, 0, 3), (1, 2, 0)])
    def test_a_table_needs_a_channel_and_a_rate(self, shape):
        with pytest.raises(ValueError, match=r"\(C, K\) shape, with C, K >= 1"):
            TraceTable((0,), np.zeros(shape))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.integers(1, 40), max_size=6),
        span=st.tuples(st.integers(0, 300), st.integers(0, 300)),
    )
    def test_theta_block_matches_reference_and_views_one_segment(self, gaps, span):
        starts = np.cumsum([0, *gaps])
        tables = np.random.default_rng(len(gaps)).random((len(starts), 2, 3))
        trace = TraceTable(starts, tables)
        start, stop = min(span), max(span)
        block = trace.theta_block(start, stop)
        assert block.shape == (stop - start, 2, 3)
        for n in range(start, stop):
            assert_same_bits(block[n - start], trace_theta_reference(trace, n))
        segment = np.searchsorted(starts, start, side="right") - 1
        if start < stop <= np.append(starts, np.inf)[segment + 1]:
            # Inside one segment: a read-only view of its table, no copy.
            assert np.shares_memory(block, trace.tables) and not block.flags.writeable

    def test_probabilities_are_held_once(self):
        # Two arrays are taken as they are: 10^5 segments add no object per
        # segment and no copy of the 3.2 MB of probabilities.
        starts = np.arange(0, 300_000, 3)
        tables = np.random.default_rng(2).random((100_000, 2, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = TraceTable(starts, tables, horizon=300_000)
            table_growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.starts is starts and trace.tables is tables
        assert table_growth < 64 << 10
        block = trace.theta_block(149_990, 150_010)
        want = np.stack([trace_theta_reference(trace, n) for n in range(149_990, 150_010)])
        assert block.tobytes() == want.tobytes()

    def test_tables_are_stacked_into_one_array(self, swap_trace):
        assert swap_trace.starts.dtype == np.int64 and swap_trace.starts.tolist() == [0, 100]
        assert swap_trace.tables.dtype == float and swap_trace.tables.shape == (2, 2, 2)
        assert swap_trace.tables[1].tolist() == [[0.2, 0.1], [0.9, 0.3]]
        for field in (swap_trace.starts, swap_trace.tables):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0
        # An array of the right type is taken as it is, and made read-only.
        tables = np.full((1, 2, 2), 0.5)
        assert TraceTable([0], tables).tables is tables and not tables.flags.writeable


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
        th = DriftEnvironment(self.spec()).theta_block(0, 400)
        assert np.all(np.diff(th, axis=2) <= 0)
        assert np.all((th > 0) & (th < 1))

    def test_zero_step_std_is_stationary(self):
        th = DriftEnvironment(self.spec(step_std=0.0)).theta_block(0, 400)
        np.testing.assert_array_equal(th, np.broadcast_to(th[0], th.shape))

    def test_latent_stays_in_range(self):
        spec = self.spec(step_std=0.3)
        latent = drift_latent_reference(spec)
        assert np.all((latent >= 0.0) & (latent <= 1.0))
        # The environment walks that same path.
        z = (latent[:, :, None] - spec.threshold_array()) / spec.softness
        assert_same_bits(DriftEnvironment(spec).theta_block(0, spec.horizon), _expit(z))

    @pytest.mark.parametrize("step_std", [0.01, 0.3])
    def test_construction_holds_the_path_and_little_more(self, step_std):
        # The walk is summed and reflected inside the array of its steps:
        # beyond that 4 MB path, construction holds only a bool mask of it.
        spec = self.spec(channels=5, horizon=10**5, step_std=step_std)
        tracemalloc.start()
        try:
            env = DriftEnvironment(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * spec.nbytes()
        assert_same_bits(env._latent, drift_latent_reference(spec))

    def test_same_spec_same_path(self):
        a = DriftEnvironment(self.spec())
        b = DriftEnvironment(self.spec())
        assert a.theta_block(0, 400).tobytes() == b.theta_block(0, 400).tobytes()

    def test_last_block_is_handed_back_read_only(self):
        env = DriftEnvironment(self.spec())
        block = env.theta_block(40, 60)
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0, 0] = 0.5
        assert env.theta_block(40, 60) is block
        assert_same_bits(env.theta_block(40, 61)[:20], block)
        assert env.theta_block(40, 60) is not block  # only the last block is kept

    @pytest.mark.parametrize("horizon, computed", [(500, 1), (1100, 6)])
    def test_a_learning_run_computes_theta_once_a_pass(self, monkeypatch, horizon, computed):
        # The totals pass, the main pass and the outcome tape each read a
        # block: one computation for a run of one block, two a block else.
        calls = []
        theta = DriftEnvironment._theta

        def counted(env, steps):
            calls.append(steps)
            return theta(env, steps)

        monkeypatch.setattr(DriftEnvironment, "_theta", counted)
        spec = self.spec(horizon=horizon)
        config = ExperimentConfig(
            rates=spec.rates, drift=spec, horizon=horizon, seeds=(1, 2),
            policies=(PolicySpec("kl-ucb-u", window=50), PolicySpec("crs-t")),
        )
        run_experiment(config)
        assert len(calls) == computed

    def test_theta_block_matches_pointwise(self):
        env = DriftEnvironment(self.spec())
        block = env.theta_block(40, 60)
        for i, step in enumerate(range(40, 60)):
            assert_same_bits(block[i], env.theta_block(step, step + 1)[0])

    @pytest.mark.parametrize("softness", [0.08, 1e-4, 1e-300])
    def test_theta_matches_scipy_expit_bitwise(self, softness):
        expit = pytest.importorskip("scipy.special").expit
        rates = RateSet.of([1.0 + k for k in range(8)])
        spec = self.spec(rates=rates, channels=5, horizon=512, step_std=0.05, softness=softness)
        env = DriftEnvironment(spec)
        latent = drift_latent_reference(spec)
        z = (latent[:, :, None] - spec.threshold_array()) / softness
        if softness == 1e-4:
            # exp(-z) overflows on some elements and is finite but huge on others.
            assert (-z > 745.0).any() and ((-z > 709.0) & (-z < 745.0)).any()
        want = expit(z)
        assert_same_bits(env.theta_block(0, spec.horizon), want)
        for n in (0, 1, 255, 511):
            assert_same_bits(env.theta_block(n, n + 1)[0], want[n])

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
        assert trace.horizon == 1100
        want = DriftEnvironment(spec).theta_block(0, 1100)
        assert_same_bits(trace.theta_block(0, 1100), want)

    @pytest.mark.parametrize("step_std", [0.02, 0.0])
    @pytest.mark.parametrize("sample_every", [1, 3, 1600])
    def test_nbytes_counts_the_latent_path_and_the_trace_arrays(self, step_std, sample_every):
        spec = self.spec(horizon=1600, step_std=step_std)
        latent = 8 * 1600 * 3 if step_std else 0
        assert spec.nbytes() == latent
        segments = -(-1600 // sample_every)
        assert spec.nbytes(sample_every) == latent + 8 * segments * (1 + 3 * 3)
        trace = drift_to_trace(spec, sample_every)
        assert trace.starts.nbytes + trace.tables.nbytes == 8 * segments * (1 + 3 * 3)

    def test_drift_to_trace_holds_between_samples(self):
        spec = self.spec(horizon=1600)
        trace = drift_to_trace(spec, sample_every=3)
        assert trace.starts.tolist() == list(range(0, 1600, 3))
        steps = np.arange(1600)
        want = DriftEnvironment(spec).theta_block(0, 1600)[steps - steps % 3]
        assert_same_bits(trace.theta_block(0, 1600), want)


class TestOutcomeTape:
    def test_matches_scalar_draws_across_chunk_boundary(self, tiny_model):
        env = stationary(tiny_model)
        tape = OutcomeTape(env, seeds=(1, 2))
        block = tape.block(500, 530)  # spans the 512-step chunk edge
        for si, seed in enumerate((1, 2)):
            for n in range(500, 530):
                for c in (1, 2):
                    for k in (1, 2):
                        assert block[si, n - 500, c - 1, k - 1] == reference_draw(env, seed, (c, k), n)

    def test_trace_schedule_respected(self, swap_trace):
        tape = OutcomeTape(swap_trace, seeds=(4,))
        block = tape.block(90, 110)
        for n in range(90, 110):
            assert block[0, n - 90, 0, 0] == reference_draw(swap_trace, 4, (1, 1), n)

    def test_validation(self, tiny_model):
        env = stationary(tiny_model)
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
        return stationary(LinkModel(RateSet.of([1.0, 2.0, 3.0]), theta))

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
        block = OutcomeTape(trace, MIXED_SEEDS).block(250, 600)
        for i, seed in enumerate(MIXED_SEEDS):
            np.testing.assert_array_equal(block[i], reference_outcomes(trace, seed, 250, 600))

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
        # One call a chunk for all lanes, whatever their entropy lengths.
        assert emulated_chunks == emulated

    def test_lane_alone_equals_its_lane_in_a_wide_batch(self, env, emulated_chunks):
        rng = np.random.default_rng(8)
        seeds = [int(s) for s in rng.choice(2**40, size=9_000, replace=False)]
        seeds[:3] = [0, 2**32 - 1, 2**64 + 3]  # one-, two- and three-word entropy
        tape = OutcomeTape(env, seeds)
        short = tape.block(0, 7)  # 42 draws per lane: emulated
        assert emulated_chunks == [(0, 42)]  # 9,000 lanes in one pass
        long = tape.block(0, 3 * EDGE)  # per-lane generator
        assert emulated_chunks == [(0, 42)]
        assert short.tobytes() == long[:, :7].tobytes()
        for lane in (0, 1, 2, 3, 4_000, 8_192, len(seeds) - 1):
            alone = OutcomeTape(env, (seeds[lane],)).block(0, 7)
            assert alone[0].tobytes() == short[lane].tobytes()

    def test_hash_matches_seed_sequence(self):
        rng = np.random.default_rng(5)
        for length in range(1, 8):  # below, at and above the 4-word pool
            rows = rng.integers(0, 2**32, size=(6, length), dtype=np.uint32)
            rows[0] = 0
            rows[1] = 2**32 - 1
            rows[:, 0] = TAPE_TAG
            states = _seed_states(rows, np.full(6, length))
            assert states.dtype == np.uint64 and states.shape == (6, 4)
            for row, state in zip(rows, states):
                expected = np.random.SeedSequence([int(w) for w in row]).generate_state(
                    4, np.uint64
                )
                np.testing.assert_array_equal(state, expected)
        # Rows of lengths 1 to 9 in one array, each zero-padded past its
        # length: only a row's own words are hashed.
        lengths = np.concatenate([np.arange(1, 10), rng.integers(1, 10, 30)])
        rows = rng.integers(1, 2**32, size=(len(lengths), 9), dtype=np.uint32)
        rows[np.arange(9) >= lengths[:, None]] = 0
        rows[-1, : lengths[-1]] = 0  # a row of zero words
        states = _seed_states(rows, lengths)
        for row, length, state in zip(rows, lengths, states):
            expected = np.random.SeedSequence(row[:length].tolist()).generate_state(4, np.uint64)
            np.testing.assert_array_equal(state, expected)

    @pytest.mark.parametrize(
        "start, stop, read",
        [(505, 520, "block"), (0, 3 * EDGE, "block"), (300, 1100, "cells")],
        ids=["stepped", "generator", "cells"],
    )
    def test_wider_seeds_leave_the_other_lanes_alone(self, env, start, stop, read):
        """Seeds of three and four words widen every lane's entropy row; a
        one-word lane's padding must not be hashed as its own words."""
        flats = np.random.default_rng(start).integers(0, 6, stop - start)

        def outcomes(seeds):
            tape = OutcomeTape(env, seeds)
            if read == "block":
                return tape.block(start, stop)
            return tape.cells(start, stop, flats, env.theta_block(start, stop))

        seeds, wider = (7, 3, 2**32 - 1, 0), (2**64 + 3, 2**96 + 7)
        alone, wide = outcomes(seeds), outcomes((*seeds, *wider))
        assert wide[: len(seeds)].tobytes() == alone.tobytes()
        for i, seed in enumerate(wider, len(seeds)):
            assert wide[i].tobytes() == outcomes((seed,))[0].tobytes()

    def test_bulk_seed_validation(self, env):
        for bad in (-1, True, 2.0, "3"):
            with pytest.raises(ValueError, match=f"nonnegative integer, got {bad!r}"):
                OutcomeTape(env, seeds=(1, bad, 2))
        tape = OutcomeTape(env, seeds=(np.int64(3), 4))
        assert tape.seeds == (3, 4) and all(type(s) is int for s in tape.seeds)

    @pytest.mark.parametrize(
        "seeds",
        [(0, 2**32 - 1), (0, 2**32 - 1, 2**32, 2**64 - 1), (2**64 - 1,), (2**32, 5)],
        ids=["one-word", "word-edges", "largest-two-word", "two-then-one"],
    )
    def test_prefix_below_2_64_equals_the_padded_word_lists(self, env, seeds):
        """Seeds below 2**64 build their prefix in uint64 array arithmetic:
        bit for bit the zero-padded ``[tag, *words(seed)]`` rows, and each
        row's int64 length."""
        tape = OutcomeTape(env, seeds)
        rows = [[TAPE_TAG, *environments._words(s)] for s in seeds]
        prefix, lengths = environments._padded(rows)
        assert (tape._prefix.dtype, tape._prefix.shape) == (prefix.dtype, prefix.shape)
        assert tape._prefix.tobytes() == prefix.tobytes()
        assert (tape._prefix_len.dtype, tape._prefix_len.tolist()) == (np.int64, lengths.tolist())


# Seeds of one-, two- and three-word entropy at the word edges.
CELL_SEEDS = (0, 2**32 - 1, 2**32, 2**40, 2**70 + 3)


def _stationary(channels: int, n_rates: int) -> TraceTable:
    theta = np.random.default_rng(channels * n_rates).random((channels, n_rates))
    return stationary(LinkModel(RateSet.of(list(range(1, n_rates + 1))), theta))


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
        got = tape.cells(start, stop, flats, env.theta_block(start, stop))
        assert got.dtype == np.uint8 and got.shape == (len(CELL_SEEDS), stop - start)
        np.testing.assert_array_equal(got, _block_cells(tape, start, stop, flats))

    def test_trace_schedule_respected(self):
        rng = np.random.default_rng(3)
        starts = (0, 260, 511, 513)
        trace = TraceTable(starts, tuple(rng.random((2, 3)) for _ in starts), horizon=700)
        tape = OutcomeTape(trace, CELL_SEEDS)
        flats = rng.integers(0, 6, 450)
        got = tape.cells(250, 700, flats, trace.theta_block(250, 700))
        np.testing.assert_array_equal(got, _block_cells(tape, 250, 700, flats))

    @pytest.mark.parametrize("seeds", [CELL_SEEDS, (7, 3, 9, 1, 4)])
    def test_lane_tiles_reassemble(self, env, monkeypatch, seeds):
        """Tiles of one lane and of two, with seeds of mixed word counts and
        of one word."""
        flats = np.arange(25) % (env.channels * env.n_rates)
        theta = env.theta_block(500, 525)
        want = OutcomeTape(env, seeds).cells(500, 525, flats, theta)
        for tile in (1, 2 * 25):
            monkeypatch.setattr(environments, "_CELL_TILE", tile)
            assert OutcomeTape(env, seeds).cells(500, 525, flats, theta).tobytes() == want.tobytes()
        np.testing.assert_array_equal(want, _block_cells(OutcomeTape(env, seeds), 500, 525, flats))

    def test_validation(self, env):
        tape = OutcomeTape(env, (1,))
        P = env.channels * env.n_rates
        with pytest.raises(ValueError, match="stop"):
            tape.cells(10, 10, [], env.theta_block(10, 10))
        with pytest.raises(ValueError, match="one flat cell a step"):
            tape.cells(10, 12, [0], env.theta_block(10, 12))
        for bad in (-1, P):
            with pytest.raises(ValueError, match=r"flat cells must lie in \[0, "):
                tape.cells(10, 12, [0, bad], env.theta_block(10, 12))
        with pytest.raises(ValueError, match=rf"need 2 x {P} probabilities"):
            tape.cells(10, 12, [0, 0], env.theta_block(10, 13))


class TestOutcomeTapeReader:
    """``reader`` reads a learner's picked cells step by step, by jumps in
    a short chunk and by a take from a drawn block otherwise; the bits are
    ``block``'s."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 4)], ids=["P=1", "P=8"])
    @pytest.mark.parametrize(
        "start, stop",
        [
            (0, 1),  # the first row of a chunk
            (0, 32),  # 32 rows of 8 cells: at _EMULATE_MAX_DRAWS
            (512 + 5, 512 + 30),  # unaligned, not the first chunk
            (2**41 + 3, 2**41 + 20),  # block index 2^32: a two-word block entropy
            (0, 300),  # a long chunk
            (1000, 1024),  # the end of a long chunk
        ],
    )
    @pytest.mark.parametrize("reads", [1, 4, 5])
    def test_matches_block_bitwise(self, shape, start, stop, reads):
        env = _stationary(*shape)
        P, S = env.channels * env.n_rates, len(CELL_SEEDS)
        flats = np.random.default_rng(stop).integers(0, P, (stop - start, reads, S))
        block = OutcomeTape(env, CELL_SEEDS).block(start, stop).reshape(S, stop - start, P)
        read = OutcomeTape(env, CELL_SEEDS).reader(start, stop, env.theta_block(start, stop), reads)
        out = np.empty((reads, S), dtype=np.uint8)
        for i, f in enumerate(flats):
            read(i, f.astype(np.uint8), out)
            np.testing.assert_array_equal(out, block[np.arange(S), i, f])

    @pytest.mark.parametrize(
        "shape, stop, reads, drawn",
        [
            ((2, 4), 32, 4, False),  # 256 draws, 2 x 4 reads <= 8 pairs: jumps
            ((2, 4), 32, 5, True),  # more reads than half the pairs: stepped
            ((2, 4), 33, 1, True),  # 264 draws: numpy's generator
            ((1, 2), 100, 1, False),
            ((1, 2), 100, 2, True),
            ((1, 1), 200, 1, True),
        ],
    )
    def test_jumps_only_where_it_pays(self, monkeypatch, shape, stop, reads, drawn):
        calls, draw = [], OutcomeTape._block
        monkeypatch.setattr(OutcomeTape, "_block", lambda *a: calls.append(a[1:3]) or draw(*a))
        env = _stationary(*shape)
        OutcomeTape(env, CELL_SEEDS).reader(0, stop, env.theta_block(0, stop), reads)
        assert calls == ([(0, stop)] if drawn else [])

    def test_steps_lie_in_one_chunk(self):
        env = _stationary(2, 3)
        tape = OutcomeTape(env, (1,))
        for start, stop in [(500, 520), (10, 10)]:
            with pytest.raises(ValueError, match="one chunk"):
                tape.reader(start, stop, env.theta_block(start, max(start + 1, stop)), 1)

    def test_jump_tables_are_built_once_and_read_only(self):
        rows, cells = environments._jump_tables(6)
        assert environments._jump_tables(6)[0] is rows
        assert not rows.flags.writeable and not cells.flags.writeable


class TestOutcomeTapeCaches:
    """The seed-state batches and the reused jump constants change no bit:
    whatever a tape was asked before, it answers as a fresh tape does."""

    @pytest.fixture()
    def env(self):
        return _stationary(2, 3)

    @staticmethod
    def _cells_args(env, start, stop, flats):
        return start, stop, flats, env.theta_block(start, stop)

    def test_out_of_order_and_repeated_calls_match_a_fresh_tape(self, env):
        tape = OutcomeTape(env, CELL_SEEDS)
        rng = np.random.default_rng(4)
        spans = [(0, 512), (1100, 1300), (500, 530), (0, 7), (2000, 2600), (600, 1030), (500, 530)]
        spans += [(2**41 - 3, 2**41 + 3), (5, 9), (2**41 - 600, 2**41 - 1), (1023, 1025)]
        for start, stop in spans:
            fresh = OutcomeTape(env, CELL_SEEDS)
            assert tape.block(start, stop).tobytes() == fresh.block(start, stop).tobytes()
            flats = rng.integers(0, 6, stop - start)
            args = self._cells_args(env, start, stop, flats)
            want = OutcomeTape(env, CELL_SEEDS).cells(*args)
            assert tape.cells(*args).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "seeds",
        [CELL_SEEDS, (7, 3, 9, 1, 4), (5, 2**96 + 7, 2**64 + 3)],
        ids=["mixed", "one-word", "four-word"],
    )
    @pytest.mark.parametrize("first", [0, 2**32 - 3, 2**32 - 1, 2**64 - 2, 2**96 - 2])
    def test_a_batch_hashes_each_chunk_as_seed_sequence(self, env, seeds, first):
        """A batch across chunk index 2**32 (2**64, 2**96), where the
        chunk's entropy gains a word, with seeds of one to four words."""
        states = OutcomeTape(env, seeds)._hash_chunks(first, 5)
        assert states.shape == (5, len(seeds), 4)
        for i, chunk in enumerate(range(first, first + 5)):
            for seed, state in zip(seeds, states[i]):
                entropy = [TAPE_TAG, seed, chunk]
                want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
                np.testing.assert_array_equal(state, want)

    @pytest.mark.parametrize("seeds", [CELL_SEEDS, MIXED_SEEDS], ids=["cell", "mixed"])
    def test_one_hash_a_batch_whatever_the_word_counts(self, env, monkeypatch, seeds):
        calls = []
        monkeypatch.setattr(
            environments,
            "_seed_states",
            lambda e, lengths=None: calls.append(e.shape) or _seed_states(e, lengths),
        )
        # One row per lane and chunk, [tag, *seed, *chunk] padded to the
        # longest: three-word seeds, and a chunk of one word below 2**32
        # and of two from it on.
        tape = OutcomeTape(env, seeds)
        tape._hash_chunks(7, 4)
        assert calls == [(4 * len(seeds), 5)]
        calls.clear()
        tape._hash_chunks(2**32 - 2, 4)
        assert calls == [(4 * len(seeds), 6)]

    def test_a_forward_walk_hashes_doubling_batches(self, env, monkeypatch):
        rows = []
        monkeypatch.setattr(
            environments, "_seed_states", lambda e, *a: rows.append(len(e)) or _seed_states(e, *a)
        )
        tape = OutcomeTape(env, (7, 3, 9, 1, 4))
        for b in range(20):
            tape.block(512 * b, 512 * b + 3)
        assert rows == [5 * n for n in (1, 2, 4, 8, 16)]

    @pytest.mark.parametrize("bound", [5 * 3, 5 * 2, 5 * 2 - 1, 1])
    def test_held_states_stay_within_the_bound(self, env, monkeypatch, bound):
        """At most ``_STATE_BATCH`` lane-chunks are hashed or held, and one
        chunk at a bound under two chunks' lanes."""
        rows = []
        monkeypatch.setattr(environments, "_STATE_BATCH", bound)
        monkeypatch.setattr(
            environments, "_seed_states", lambda e, *a: rows.append(len(e)) or _seed_states(e, *a)
        )
        seeds = (7, 3, 9, 1, 4)
        tape = OutcomeTape(env, seeds)
        chunks = max(1, bound // len(seeds))
        for start, stop in [(0, 9), (512, 530), (1030, 1600), (2100, 2103), (0, 2)] * 2:
            args = self._cells_args(env, start, stop, np.arange(stop - start) % 6)
            assert tape.cells(*args).tobytes() == OutcomeTape(env, seeds).cells(*args).tobytes()
            assert tape._held[1].shape[0] <= chunks
        assert max(rows) == len(seeds) * chunks

    def test_jump_constants_are_reused_only_for_the_same_cells(self, env):
        tape = OutcomeTape(env, CELL_SEEDS)
        one, other = np.full(512, 4), np.arange(512) % 6
        calls = [(0, 512, one), (512, 1024, one), (1024, 1536, other), (1536, 2048, one)]
        calls += [(2048, 2100, one[:52]), (2100, 2152, one[:52]), (2560, 2612, one[:52])]
        jumps = []
        for start, stop, flats in calls:
            args = self._cells_args(env, start, stop, flats)
            want = OutcomeTape(env, CELL_SEEDS).cells(*args)
            assert tape.cells(*args).tobytes() == want.tobytes()
            jumps.append(tape._last_jump[2])
        reused = [a is b for a, b in zip(jumps, jumps[1:])]
        # Same cells from row 0, new cells, back to the first, a short block,
        # the same cells from another row, then from row 0 again.
        assert reused == [True, False, False, False, False, False]
        assert jumps[6] is not jumps[4] and np.array_equal(jumps[6], jumps[4])


# Probabilities whose outcome is known (1.0, 0.0 and -0.0) and drawn ones.
_KNOWN_MIX = (0.0, -0.0, 1.0, 0.3, 0.999)


def _mixed_trace(tables) -> TraceTable:
    """A trace of the ``(segments, 2, 3)`` tables, a segment per 300 steps
    from 0 and from step 2**41 - 450 on, so spans near either edge cross
    segments."""
    tables = np.asarray(tables, dtype=float)
    half = len(tables) // 2
    starts = [300 * i for i in range(half)]
    starts += [2**41 - 450 + 300 * i for i in range(len(tables) - half)]
    return TraceTable(starts, tables)


class TestOutcomeTapeKnownCells:
    """A cell of probability 0 or 1 has a known outcome, since a draw lies
    in [0, 1): ``cells`` writes it without a draw, and draws the rest."""

    @pytest.fixture()
    def env(self):
        # Cells 0-2 known (1, 0, -0), 3-5 drawn, in every segment.
        return _mixed_trace([[[1.0, 0.0, -0.0], [0.3, 0.5, 0.999]]] * 4)

    @staticmethod
    def _spy(monkeypatch, name) -> list:
        calls, fn = [], getattr(environments, name)
        monkeypatch.setattr(environments, name, lambda *a: calls.append(a) or fn(*a))
        return calls

    def test_an_all_known_call_draws_nothing(self, env, monkeypatch):
        hashed, drawn = self._spy(monkeypatch, "_seed_states"), self._spy(monkeypatch, "_pcg64_at")
        tape = OutcomeTape(env, CELL_SEEDS)
        flats = np.arange(1100) % 3
        got = tape.cells(300, 1400, flats, env.theta_block(300, 1400))
        assert hashed == [] and drawn == []
        np.testing.assert_array_equal(got, np.broadcast_to(flats == 0, got.shape))
        assert got.dtype == np.uint8

    def test_a_mixed_call_draws_only_its_unknown_steps(self, env, monkeypatch):
        drawn = self._spy(monkeypatch, "_pcg64_at")
        monkeypatch.setattr(environments, "_CELL_TILE", 10**6)  # one call per chunk
        tape = OutcomeTape(env, (7, 3, 9))
        start, stop = 400, 1700
        flats = np.random.default_rng(5).integers(0, 6, stop - start)
        flats[512 - start : 1024 - start] %= 3  # chunk 1 all known
        got = tape.cells(start, stop, flats, env.theta_block(start, stop))
        unknown = np.flatnonzero(flats >= 3)
        per_chunk = np.bincount((start + unknown) // 512).tolist()
        assert per_chunk[1] == 0 and len(per_chunk) == 4
        assert [a[1].shape[1] for a in drawn] == [n for n in per_chunk if n]
        # Each draw's jump constants are those of its own step.
        jump = np.concatenate([a[1] for a in drawn], axis=1)
        full = OutcomeTape(env, (7, 3, 9))._jump((start + unknown) % 512, flats[unknown])
        np.testing.assert_array_equal(jump, full)
        np.testing.assert_array_equal(got, _block_cells(tape, start, stop, flats))

    def test_jump_constants_are_reused_only_at_the_same_rows(self, env):
        """The drawn cells of two calls can agree while their rows differ."""
        tape = OutcomeTape(env, CELL_SEEDS)
        calls = [(0, [3, 0, 1]), (512, [3, 0, 1]), (1024, [0, 3, 1]), (1536, [3, 1, 2])]
        jumps = []
        for start, flats in calls:
            args = (start, start + 3, np.array(flats), env.theta_block(start, start + 3))
            want = OutcomeTape(env, CELL_SEEDS).cells(*args)
            assert tape.cells(*args).tobytes() == want.tobytes()
            jumps.append(tape._last_jump[2])
        assert [a is b for a, b in zip(jumps, jumps[1:])] == [True, False, False]
        assert np.array_equal(jumps[3], jumps[0])

    def test_out_of_order_and_repeated_calls_match_a_fresh_tape(self, env):
        tape = OutcomeTape(env, CELL_SEEDS)
        rng = np.random.default_rng(6)
        spans = [(0, 512), (1100, 1300), (500, 530), (0, 7), (500, 530), (600, 1030)]
        spans += [(2**41 - 3, 2**41 + 3), (5, 9), (2**41 - 600, 2**41 - 1), (1023, 1025)]
        for start, stop in spans:
            for flats in (rng.integers(0, 6, stop - start), rng.integers(0, 3, stop - start)):
                args = (start, stop, flats, env.theta_block(start, stop))
                want = OutcomeTape(env, CELL_SEEDS).cells(*args)
                assert tape.cells(*args).tobytes() == want.tobytes()
                np.testing.assert_array_equal(want, _block_cells(tape, start, stop, flats))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_cells_of_known_and_drawn_cells_match_block(data):
    """Tables mixing 0.0, -0.0, 1.0 and interior values, over spans across
    the chunk edges at 512 and at 2**41."""
    tables = data.draw(
        st.lists(st.sampled_from(_KNOWN_MIX), min_size=4 * 6, max_size=4 * 6), "tables"
    )
    env = _mixed_trace(np.reshape(tables, (4, 2, 3)))
    start = data.draw(
        st.integers(0, 3 * 512) | st.integers(509, 515) | st.integers(2**41 - 300, 2**41 + 300),
        "start",
    )
    stop = start + data.draw(st.integers(1, 200), "steps")
    flats = data.draw(st.lists(st.integers(0, 5), min_size=stop - start, max_size=stop - start))
    seeds = data.draw(st.lists(st.sampled_from(CELL_SEEDS), min_size=1, max_size=3, unique=True))
    tape = OutcomeTape(env, seeds)
    got = tape.cells(start, stop, flats, env.theta_block(start, stop))
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, _block_cells(tape, start, stop, flats))


_CELL_ENV = _stationary(2, 3)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_cells_match_block_on_random_spans(data):
    start = data.draw(st.integers(0, 3 * 512) | st.integers(2**41 - 300, 2**41 + 300), "start")
    stop = start + data.draw(st.integers(1, 200), "steps")
    flats = data.draw(st.lists(st.integers(0, 5), min_size=stop - start, max_size=stop - start))
    seeds = data.draw(st.lists(st.sampled_from(CELL_SEEDS), min_size=1, max_size=3, unique=True))
    tape = OutcomeTape(_CELL_ENV, seeds)
    got = tape.cells(start, stop, flats, _CELL_ENV.theta_block(start, stop))
    np.testing.assert_array_equal(got, _block_cells(tape, start, stop, flats))


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


# Edge 64-bit words for the 128-bit kernel: limbs all ones or zero, single
# bits at the limb boundary and the top, and PCG64's multiplier words.
EDGE_WORDS = [
    0,
    1,
    2**32 - 1,  # low limb all ones: a carry into the high limb
    2**32,
    2**64 - 2**32,  # high limb all ones
    2**63,
    ALL_ONES,
    0xFFFFFFFF00000001,
    environments._PCG_MULT >> 64,
    environments._PCG_MULT & ALL_ONES,
]


def _words128(values, shape):
    """The high and low uint64 words of 128-bit ``values``, each reshaped."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64).reshape(shape)
    lo = np.array([v & ALL_ONES for v in values], dtype=np.uint64).reshape(shape)
    return hi, lo


def _assert_words_equal(hi, lo, want):
    got = [int(h) << 64 | int(w) for h, w in zip(hi.ravel().tolist(), lo.ravel().tolist())]
    assert got == [v % 2**128 for v in want]


def _out(rows: int, *operands) -> tuple[np.ndarray, ...]:
    """``rows`` fresh uint64 arrays of the operands' broadcast shape."""
    return tuple(np.empty((rows, *np.broadcast_shapes(*map(np.shape, operands))), np.uint64))


class TestKernel128:
    """The 128-bit product and sum both PCG64 paths run, against Python
    ints mod 2**128.  The multiplier may be a pair of uint64 scalars; every
    other operand is an array, since numpy warns on uint64 scalar
    overflow."""

    EDGE_VALUES = [hi << 64 | lo for hi in EDGE_WORDS for lo in EDGE_WORDS]

    def test_edge_words(self):
        n = len(self.EDGE_VALUES)
        a, b = _words128(self.EDGE_VALUES, (n, 1)), _words128(self.EDGE_VALUES, (1, n))
        pairs = [(x, y) for x in self.EDGE_VALUES for y in self.EDGE_VALUES]
        _assert_words_equal(*_mul128(*a, *b, _out(5, *a, *b)), [x * y for x, y in pairs])
        _assert_words_equal(*_add128(*a, *b, _out(3, *a, *b)), [x + y for x, y in pairs])

    def test_a_scalar_factor_broadcasts(self):
        a = _words128(self.EDGE_VALUES, -1)
        mult = environments._PCG_MULT_HI, environments._PCG_MULT_LO
        assert all(type(w) is np.uint64 for w in mult)
        _assert_words_equal(
            *_mul128(*a, *mult, _out(5, *a)), [x * environments._PCG_MULT for x in self.EDGE_VALUES]
        )

    def test_results_may_overwrite_the_first_operand(self):
        n = len(self.EDGE_VALUES)
        a, b = _words128(self.EDGE_VALUES, -1), _words128(self.EDGE_VALUES[::-1], -1)
        want = [x * y for x, y in zip(self.EDGE_VALUES, self.EDGE_VALUES[::-1])]
        hi, lo = (w.copy() for w in a)
        got = _mul128(hi, lo, *b, (hi, lo, *_out(3, lo)))
        assert got[0] is hi and got[1] is lo
        _assert_words_equal(hi, lo, want)
        got = _add128(hi, lo, *b, (hi, lo, np.empty(n, np.uint64)))
        assert got[0] is hi and got[1] is lo
        _assert_words_equal(hi, lo, [x + y for x, y in zip(want, self.EDGE_VALUES[::-1])])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2**128 - 1)] * 2), min_size=1, max_size=8))
    def test_random_values(self, pairs):
        a, b = (_words128(side, -1) for side in zip(*pairs))
        _assert_words_equal(*_mul128(*a, *b, _out(5, *a)), [x * y for x, y in pairs])
        _assert_words_equal(*_add128(*a, *b, _out(3, *a)), [x + y for x, y in pairs])


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
