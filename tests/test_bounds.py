"""Performance-constant computations checked against hand-built references.

Expected values are recomputed inside each test from the closed-form
divergence oracle, so these tests fail if either the bound formulas or the
divergence implementation drifts.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from chanrate.bounds import c_GU, c_I, c_U_prime, compute_bound_report, crst_constants
from chanrate.graph import check_graphically_unimodal
from chanrate.model import LinkModel, RateSet, throughput_matrix

from _oracles import bound_sum_structure_blind, kl_closed_form


@pytest.fixture()
def two_by_two():
    # Unique best (1, 2); channel 2 peaks at rate 1.  Small enough that
    # every bound term can be written out by hand.
    return LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.9, 0.6], [0.8, 0.2]]))


class TestStructureBlind:
    def test_demo_frozen_value(self, demo):
        out = c_I(demo)
        assert out.defined
        assert abs(out.value - 348.12702928605046) < 1e-9

    def test_matches_independent_summation(self, demo, two_by_two):
        for model in (demo, two_by_two):
            want = bound_sum_structure_blind(
                model.effective_theta(), model.rates.as_array()
            )
            got = c_I(model)
            assert got.defined and want is not None
            np.testing.assert_allclose(got.value, want, rtol=1e-12)

    def test_only_viable_rates_contribute(self, demo):
        out = c_I(demo)
        # Viable rates for the bundled table are indices 6..8.
        assert all(t.pair.rate_index >= 6 for t in out.terms)
        assert all(t.pair != (2, 6) for t in out.terms)

    def test_terms_sum_to_value(self, two_by_two):
        out = c_I(two_by_two)
        assert out.value == math.fsum(t.value for t in out.terms)

    def test_infinite_divergence_contributes_zero(self, demo):
        # Rate index 6 equals the best throughput, so off the best channel
        # those pairs would need success probability exactly 1 to look
        # optimal: infinite divergence, zero share of the constant.
        out = c_I(demo)
        inf_terms = [t for t in out.terms if math.isinf(t.divergence)]
        assert {tuple(t.pair) for t in inf_terms} == {(1, 6), (3, 6), (4, 6), (5, 6)}
        assert all(t.value == 0.0 for t in inf_terms)

    def test_undefined_on_tied_optimum(self):
        model = LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.8, 0.4]]))
        out = c_I(model)
        assert not out.defined
        assert out.reason == "best pair not unique"


class TestChannelUnimodalBound:
    def test_demo_undefined_dead_channel(self, demo):
        out = c_U_prime(demo)
        assert not out.defined
        assert out.reason == "degenerate channel 4"

    def test_two_by_two_value(self, two_by_two):
        # Separations: channel 1 (1.2 - 0.9)/2, channel 2 (0.8 - 0.4)/2.
        # Best channel contributes nothing (no viable adjacent rate);
        # channel 2 contributes its peak and the viable higher rate.
        want = 0.4 / kl_closed_form(0.8, 0.6) + 0.8 / kl_closed_form(0.2, 0.3)
        out = c_U_prime(two_by_two)
        assert out.defined
        np.testing.assert_allclose(out.value, want, rtol=1e-12)
        assert [tuple(t.pair) for t in out.terms] == [(2, 1), (2, 2)]

    def test_invariant_to_dominated_low_rate(self, two_by_two):
        """Appending a rate below every channel peak with zero success
        probability must not move any of the constants."""
        extended = LinkModel(
            RateSet.of([0.5, 1.0, 2.0]),
            np.array([[0.0, 0.9, 0.6], [0.0, 0.8, 0.2]]),
        )
        assert c_U_prime(extended).value == c_U_prime(two_by_two).value
        assert c_I(extended).value == c_I(two_by_two).value
        assert c_GU(extended).value == c_GU(two_by_two).value


class TestGraphStructuredBound:
    def test_demo_frozen_value(self, demo):
        out = c_GU(demo)
        assert out.defined
        assert abs(out.value - 179.17653475197835) < 1e-9

    def test_two_by_two_single_term(self, two_by_two):
        # Only (2, 2) is both a neighbor of the best pair and viable.
        out = c_GU(two_by_two)
        want = 0.8 / kl_closed_form(0.2, 0.6)
        np.testing.assert_allclose(out.value, want, rtol=1e-12)
        assert [tuple(t.pair) for t in out.terms] == [(2, 2)]

    def test_neighbor_terms_are_subset_of_structure_blind(self, demo):
        blind = {tuple(t.pair): t.value for t in c_I(demo).terms}
        for t in c_GU(demo).terms:
            assert blind[tuple(t.pair)] == t.value
        assert c_GU(demo).value <= c_I(demo).value

    def test_undefined_reasons(self):
        tied = LinkModel(RateSet.of([1.0, 2.0]), np.array([[0.8, 0.4]]))
        assert c_GU(tied).reason == "best pair not unique"
        trap = LinkModel(RateSet.of([1.0, 2.0, 4.0]), np.array([[1.0, 0.25, 0.75]]))
        out = c_GU(trap)
        assert not out.defined
        assert out.reason.startswith("not graphically unimodal")
        assert "channel 1, rate 1" in out.reason

    def test_never_exceeds_structure_blind_on_random_instances(self):
        rng = np.random.default_rng(53)
        rates = RateSet.of([1.0, 1.5, 2.5])
        checked = 0
        while checked < 50:
            model = LinkModel(rates, rng.uniform(0.05, 0.95, (3, 3)))
            mu = throughput_matrix(model)
            if np.count_nonzero(mu == mu.max()) != 1:
                continue
            if not check_graphically_unimodal(model).unimodal:
                continue
            blind, graph = c_I(model), c_GU(model)
            if not (blind.defined and graph.defined):
                continue
            assert graph.value <= blind.value
            checked += 1


class TestCrsTConstants:
    def test_demo_is_degenerate(self, demo):
        out = crst_constants(demo)
        assert out.min_gap == 0.0
        assert out.degenerate
        assert not out.unique_per_channel  # the dead channel ties everywhere
        assert math.isinf(out.value)

    def test_single_channel_worked_example(self):
        model = LinkModel(RateSet.of([1.0, 2.0, 4.0]), np.array([[0.9, 0.9, 0.25]]))
        out = crst_constants(model)
        # Throughputs 0.9, 1.8, 1.0: midpoint between peak and best neighbor
        # is 1.4, adjacent gaps are 0.9 and 0.8.
        assert out.min_gap == pytest.approx(0.8)
        assert not out.degenerate
        assert out.midpoints == (1.4,)
        tau = min(kl_closed_form(0.9, 0.7), kl_closed_form(0.25, 0.35))
        np.testing.assert_allclose(out.separations[0], tau, rtol=1e-12)
        np.testing.assert_allclose(out.value, 1.7 / tau, rtol=1e-12)

    def test_single_rate_has_no_midpoint(self):
        model = LinkModel(RateSet.of([1.0]), np.array([[0.9], [0.4]]))
        out = crst_constants(model)
        assert all(math.isnan(m) for m in out.midpoints)
        # Off-best channel still carries its optimality separation.
        assert out.separations[0] == math.inf
        np.testing.assert_allclose(
            out.separations[1], kl_closed_form(0.4, 0.9), rtol=1e-12
        )


class TestReportSerialization:
    def test_report_round_trips_through_json(self, demo):
        report = compute_bound_report(demo)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert set(data) == {"c_I", "c_U_prime", "c_GU", "crst", "c_U"}
        assert data["c_I"]["defined"]
        assert data["c_I"]["value"] == pytest.approx(348.12702928605046)
        assert data["c_U_prime"] == {
            "defined": False,
            "reason": "degenerate channel 4",
        }
        assert data["crst"]["value"] == "inf"
        assert data["c_U"]["computed"] is False

    def test_infinite_divergence_encodes_as_null(self, demo):
        data = c_I(demo).to_json_dict()
        divs = {
            (t["channel"], t["rate_index"]): t["divergence"] for t in data["terms"]
        }
        assert divs[(1, 6)] is None
        assert divs[(1, 7)] is not None
