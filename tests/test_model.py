"""Link model layer: rate sets, probability tables, optima, file formats."""

from __future__ import annotations

import numpy as np
import pytest

from chanrate.model import (
    DecisionPair,
    LinkModel,
    RateSet,
    _echo,
    compute_optima,
    flat_to_pair,
    load_rates_json,
    load_theta_csv,
    pair_to_flat,
    throughput_matrix,
)

from _oracles import write_theta_csv


class TestPairIndexing:
    def test_round_trip_all_pairs(self):
        for n_rates in (1, 3, 8):
            for flat in range(5 * n_rates):
                pair = flat_to_pair(flat, n_rates)
                assert pair_to_flat(pair, n_rates) == flat

    def test_row_major_order(self):
        assert pair_to_flat((1, 1), 4) == 0
        assert pair_to_flat((1, 4), 4) == 3
        assert pair_to_flat((2, 1), 4) == 4
        assert flat_to_pair(5, 4) == DecisionPair(2, 2)

    def test_named_fields(self):
        pair = flat_to_pair(7, 3)
        assert pair.channel == 3
        assert pair.rate_index == 2


class TestEcho:
    """Error messages echo a value through ``_echo``: its ``repr`` when
    short, and at most ``_ECHO_MAX`` characters however long or deep."""

    @pytest.mark.parametrize(
        "value",
        [{"b": 1, "a": [2, "x"]}, {}, [], "0..2", "", 3, -2**64, 0.1, float("nan"), None, True,
         [[0.9, 0.6], [0.5, 0.3]], {"kind": {"window": [1, {"strict": False}]}}],
    )
    def test_a_short_value_reads_as_its_repr(self, value):
        assert _echo(value) == repr(value)

    @pytest.mark.parametrize(
        "value",
        [
            "x" * 5000,
            10**3000,
            [[[[[[[]]]]]]] * 50,
            [["y" * 500] * 50] * 50,
            {str(i): i for i in range(999)},
        ],
        ids=["string", "int", "deep", "wide", "dict"],
    )
    def test_a_long_value_is_cut_short(self, value):
        text = _echo(value)
        assert len(text) <= 100 and "..." in text
        assert text[0] == repr(value)[0] and text[-1] == repr(value)[-1]


class TestRateSet:
    def test_accepts_increasing_positive(self):
        rs = RateSet.of([6, 13, 19.5])
        assert len(rs) == 3
        assert rs.rate(1) == 6.0
        assert rs.rate(3) == 19.5
        assert list(rs) == [6.0, 13.0, 19.5]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least one rate"):
            RateSet.of([])
        with pytest.raises(ValueError, match="positive"):
            RateSet.of([0.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSet.of([1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSet.of([2.0, 1.0])

    def test_rate_index_is_one_based(self):
        rs = RateSet.of([1.0, 2.0])
        with pytest.raises(IndexError):
            rs.rate(0)
        with pytest.raises(IndexError):
            rs.rate(3)


class TestLinkModel:
    def test_shape_and_range_validation(self):
        rs = RateSet.of([1.0, 2.0])
        with pytest.raises(ValueError, match="2-D"):
            LinkModel(rs, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="rate columns"):
            LinkModel(rs, np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            LinkModel(rs, np.array([[0.5, 1.5]]))

    def test_occupancy_validation(self):
        rs = RateSet.of([1.0])
        with pytest.raises(ValueError, match="one entry per channel"):
            LinkModel(rs, np.array([[0.5], [0.5]]), occupancy=np.array([0.1]))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            LinkModel(rs, np.array([[0.5]]), occupancy=np.array([1.2]))

    def test_effective_theta_scales_by_occupancy(self):
        model = LinkModel(
            RateSet.of([1.0, 2.0]),
            np.array([[0.8, 0.4], [0.6, 0.2]]),
            occupancy=np.array([0.5, 0.0]),
        )
        np.testing.assert_allclose(
            model.effective_theta(), [[0.4, 0.2], [0.6, 0.2]]
        )
        # Occupancy scales throughput identically.
        np.testing.assert_allclose(
            throughput_matrix(model), [[0.4, 0.4], [0.6, 0.4]]
        )

    def test_theta_is_frozen(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.theta[0, 0] = 0.5

    def test_pairs_enumeration(self, tiny_model):
        flats = range(tiny_model.channels * tiny_model.n_rates)
        assert [flat_to_pair(j, tiny_model.n_rates) for j in flats] == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestOptima:
    def test_tiny_model(self, tiny_model):
        opt = compute_optima(tiny_model)
        assert opt.best == (1, 2)
        assert opt.mu_star == 1.2
        assert opt.unique_global

    def test_demo_best_pair(self, demo):
        """The bundled table peaks at channel 2, rate index 6 (52 Mbit/s)."""
        opt = compute_optima(demo)
        assert opt.best == DecisionPair(2, 6)
        assert opt.mu_star == 52.0
        assert demo.rates.rate(opt.best.rate_index) == 52.0
        assert opt.unique_global

    def test_demo_per_channel(self, demo):
        opt = compute_optima(demo)
        assert opt.best_rate_by_channel == (5, 6, 5, 1, 3)
        assert tuple(opt.mu.max(axis=1)) == (39.0, 52.0, 39.0, 0.0, 0.8 * 19.5)
        # Channel 4 is dead: every rate ties at zero throughput.
        assert opt.unique_per_channel == (True, True, True, False, True)

    def test_demo_viable_rates(self, demo):
        opt = compute_optima(demo)
        assert opt.viable_rates == (6, 7, 8)
        assert opt.viable_adjacent == (7,)
        # Channel 1 peaks at rate 5, so rate 4 is not viable there and 6 is.
        assert opt.viable_adjacent_by_channel[0] == (6,)
        # Dead channel: every rate exceeds its zero peak.
        assert opt.viable_adjacent_by_channel[3] == (2,)

    def test_empty_viable_set_encoding(self):
        # Best throughput above the top rate is impossible, but a channel
        # peak can exceed every *other* channel's rates when occupancy bites.
        model = LinkModel(RateSet.of([1.0]), np.array([[1.0], [0.3]]))
        opt = compute_optima(model)
        assert opt.viable_rates == (1,)
        assert opt.viable_adjacent_by_channel == ((), ())

    def test_tie_detection_is_exact(self):
        model = LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.8, 0.4]]))
        opt = compute_optima(model)
        assert not opt.unique_global
        assert opt.best == (1, 1)  # lexicographically smallest of the tie


class TestFileFormats:
    def test_theta_csv_round_trip(self, tmp_path, demo):
        path = tmp_path / "theta.csv"
        write_theta_csv(path, demo.theta, rates=demo.rates)
        loaded = load_theta_csv(path)
        np.testing.assert_array_equal(loaded, demo.theta)

    def test_theta_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chan,r1\n1,0.5\n")
        with pytest.raises(ValueError, match="first header column"):
            load_theta_csv(path)

    def test_theta_csv_rejects_out_of_order_channels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,r1\n2,0.5\n")
        with pytest.raises(ValueError, match="channel ids must run 1..C"):
            load_theta_csv(path)

    def test_theta_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,r1,r2\n1,0.5\n")
        with pytest.raises(ValueError, match="expected 3 columns"):
            load_theta_csv(path)

    def test_rates_json_list_form(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text("[1.0, 2.0, 4.0]")
        rates, occ = load_rates_json(path)
        assert rates.values == (1.0, 2.0, 4.0)
        assert occ is None

    def test_rates_json_object_form(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text('{"rates": [1.0, 2.0], "occupancy": [0.1, 0.0, 0.3]}')
        rates, occ = load_rates_json(path)
        assert rates.values == (1.0, 2.0)
        np.testing.assert_allclose(occ, [0.1, 0.0, 0.3])

    def test_rates_json_missing_key(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text('{"occupancy": [0.1]}')
        with pytest.raises(ValueError, match="missing 'rates'"):
            load_rates_json(path)
