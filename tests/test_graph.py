"""Neighborhood graph construction and structural property checkers."""

from __future__ import annotations

import numpy as np
import pytest

from chanrate.graph import build_graph, check_graphically_unimodal, check_monotone, check_unimodal
from chanrate.model import DegenerateOptimumError, LinkModel, RateSet, throughput_matrix

from _oracles import increasing_path_exists


class TestBuildGraph:
    def test_neighbor_order(self):
        g = build_graph(channels=3, n_rates=3)
        # Interior vertex (2, 2): rate neighbors first, then other channels
        # ascending, each contributing same-rate and next-rate vertices.
        assert g.neighbors((2, 2)) == (
            (2, 1),
            (2, 3),
            (1, 2),
            (1, 3),
            (3, 2),
            (3, 3),
        )

    def test_interior_degree_is_twice_channels(self):
        for C in (1, 2, 4):
            g = build_graph(C, 5)
            assert g.gamma == 2 * C
            assert len(g.neighbors((1, 2))) == 2 * C

    def test_edge_vertices_lose_out_of_range_rates(self):
        g = build_graph(2, 4)
        assert len(g.neighbors((1, 1))) == 1 + 2  # no lower rate on own channel
        assert len(g.neighbors((1, 4))) == 1 + 1  # top rate: no higher anywhere

    def test_single_rate_graph(self):
        g = build_graph(3, 1)
        assert g.gamma == 2
        assert g.neighbors((1, 1)) == ((2, 1), (3, 1))

    def test_single_vertex_graph(self):
        g = build_graph(1, 1)
        assert g.gamma == 0
        assert g.neighbors((1, 1)) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            build_graph(0, 3)


class TestMonotone:
    def test_demo_rows_all_monotone(self, demo):
        assert check_monotone(demo) == (True, True, True, True, True)

    def test_detects_increase(self):
        model = LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.4, 0.5], [0.5, 0.4]]))
        assert check_monotone(model) == (False, True)

    def test_occupancy_does_not_change_monotonicity(self, demo):
        scaled = LinkModel(demo.rates, demo.theta, occupancy=np.full(5, 0.25))
        assert check_monotone(scaled) == check_monotone(demo)


class TestUnimodal:
    def test_demo_flags(self, demo):
        report = check_unimodal(demo)
        # Only channel 2 rises and falls strictly; the others plateau at
        # zero throughput once the high rates stop succeeding.
        assert report.strict == (False, True, False, False, False)
        assert report.relaxed == (True, True, True, True, True)

    def test_strict_implies_relaxed(self):
        rng = np.random.default_rng(19)
        rates = RateSet.of([1.0, 2.0, 3.0, 4.0])
        for _ in range(200):
            model = LinkModel(rates, rng.uniform(0, 1, (3, 4)))
            report = check_unimodal(model)
            for s, r in zip(report.strict, report.relaxed):
                assert r or not s

    def test_interior_plateau_fails_both(self):
        model = LinkModel(RateSet.of([1.0, 2.0, 4.0]), np.array([[0.8, 0.4, 0.1]]))
        report = check_unimodal(model)  # throughput 0.8, 0.8, 0.4
        assert report.strict == (False,)
        assert report.relaxed == (False,)

    def test_all_zero_row_is_relaxed_only(self):
        model = LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.0, 0.0]]))
        report = check_unimodal(model)
        assert report.strict == (False,)
        assert report.relaxed == (True,)


class TestGraphicallyUnimodal:
    def test_demo_is_unimodal(self, demo):
        report = check_graphically_unimodal(demo)
        assert report.unimodal
        assert report.best == (2, 6)
        assert report.witness is None

    def test_witness_on_local_trap(self):
        # Single channel with a throughput valley: (1, 1) has no strictly
        # better neighbor but is not the best pair.
        model = LinkModel(RateSet.of([1.0, 2.0, 4.0]), np.array([[1.0, 0.25, 0.75]]))
        report = check_graphically_unimodal(model)
        assert not report.unimodal
        assert report.witness == (1, 1)

    def test_tied_optimum_raises(self):
        model = LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.8, 0.4]]))
        with pytest.raises(DegenerateOptimumError, match="unique best pair"):
            check_graphically_unimodal(model)

    def test_graph_shape_mismatch(self, tiny_model):
        with pytest.raises(ValueError, match="does not match"):
            check_graphically_unimodal(tiny_model, build_graph(3, 3))

    def test_agrees_with_path_search(self):
        """Local scan equals reachability: ascent paths exist from everywhere
        exactly when no non-best vertex is a local maximum."""
        rng = np.random.default_rng(23)
        rates = RateSet.of([1.0, 1.5, 2.5])
        agree = disagree_possible = 0
        for _ in range(300):
            model = LinkModel(rates, rng.uniform(0.05, 0.95, (2, 3)))
            mu = throughput_matrix(model)
            if np.count_nonzero(mu == mu.max()) != 1:
                continue
            graph = build_graph(2, 3)
            report = check_graphically_unimodal(model, graph)
            best = tuple(report.best)
            via_paths = all(
                increasing_path_exists(mu, (c, k), best, lambda c, k: graph.neighbors((c, k)))
                for c in (1, 2)
                for k in (1, 2, 3)
            )
            assert report.unimodal == via_paths
            agree += 1
            disagree_possible += int(not report.unimodal)
        assert agree >= 290
        assert disagree_possible > 0  # the sample must exercise both verdicts
