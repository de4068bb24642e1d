"""Pod-count integration tests: clamping, ceilings, floors, and fuzzing.

integrate_step is pure arithmetic, so most of this file is hand-worked
examples plus a hypothesis fuzz that re-states the update rule independently.
"""
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_phpa.autoscaler import ScalingBounds, integrate_step, predict_demand
from graph_phpa.errors import ShapeError, ValidationError
from graph_phpa.forecast_lstm import LstmConfig, LstmLayer, LstmModel
from graph_phpa.predict_gcn import GcnConfig, GcnModel, ServiceGraph
from graph_phpa.tensor import MinMaxScaler, Rng, glorot_init


class Step(NamedTuple):
    r_new: float
    n_new: int
    delta: int


def step_one(r_cur, n_cur, predicted, bounds) -> Step:
    r_new, n_new = integrate_step(r_cur, n_cur, predicted, bounds)
    return Step(r_new, n_new, n_new - n_cur)


BOUNDS = ScalingBounds(r_lb=1.0, r_ub=10.0, pod_capacity=0.5, max_pods=10)


class TestIntegrateStep:
    def test_worked_example_adds_one_pod(self):
        # Demand rises from 2.0 to 2.5 vCPU with half-vCPU pods: one more pod.
        d = step_one(2.0, 4, 2.5, BOUNDS)
        assert d.n_new == 5
        assert d.delta == 1
        assert d.r_new == 2.5

    def test_rise_is_capped_at_max_pods(self):
        b = ScalingBounds(r_lb=1.0, r_ub=10.0, pod_capacity=1.0, max_pods=3)
        d = step_one(1.0, 1, 3.2, b)
        assert d.n_new == 3  # needs ceil(2.2)=3 more, cap stops it at 3 total

    def test_fall_releases_pods(self):
        d = step_one(5.0, 10, 2.0, BOUNDS)
        # Drop of 3.0 vCPU at 0.5 per pod: release 6.
        assert d.n_new == 4
        assert d.delta == -6

    def test_fall_never_goes_below_one(self):
        d = step_one(5.0, 2, 1.0, BOUNDS)
        assert d.n_new == 1

    def test_equal_demand_changes_nothing(self):
        d = step_one(3.0, 6, 3.0, BOUNDS)
        assert d.n_new == 6
        assert d.delta == 0

    def test_prediction_clamped_to_upper_bound(self):
        d = step_one(2.0, 4, 99.0, BOUNDS)
        assert d.r_new == 10.0
        assert d.n_new == min(4 + math.ceil(8.0 / 0.5), 10)

    def test_prediction_clamped_to_lower_bound(self):
        d = step_one(2.0, 4, 0.0, BOUNDS)
        assert d.r_new == 1.0
        assert d.n_new == 2  # shed ceil(1.0/0.5) = 2 pods

    def test_exact_pod_boundary_needs_no_extra(self):
        # A rise of exactly one capacity adds exactly one pod, not two.
        d = step_one(2.0, 4, 2.5, ScalingBounds(1.0, 10.0, 0.5, max_pods=10))
        assert d.delta == 1
        d = step_one(2.0, 4, 3.0, ScalingBounds(1.0, 10.0, 0.5, max_pods=10))
        assert d.delta == 2

    def test_fractional_rise_rounds_up(self):
        d = step_one(2.0, 4, 2.01, BOUNDS)
        assert d.delta == 1

    def test_multiple_services_decided_independently(self):
        # Each service steps under its own bounds; a policy calls the rule per column.
        bounds = [BOUNDS, ScalingBounds(1.0, 4.0, 1.0, max_pods=4)]
        out = list(map(step_one, [2.0, 2.0], [4, 2], [2.5, 1.0], bounds))
        assert out[0].delta == 1
        assert out[1].delta == -1

    def test_monotone_in_prediction(self):
        # More predicted demand can never mean fewer pods.
        lows = [step_one(3.0, 6, p, BOUNDS).n_new for p in np.linspace(0.0, 12.0, 60)]
        assert lows == sorted(lows)

    def test_non_finite_prediction_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            step_one(2.0, 4, float("nan"), BOUNDS)

    def test_pod_count_precondition(self):
        with pytest.raises(ValidationError, match="pod count"):
            step_one(2.0, 0, 2.5, BOUNDS)
        with pytest.raises(ValidationError, match="pod count"):
            step_one(2.0, 11, 2.5, BOUNDS)

    def test_allocation_precondition(self):
        with pytest.raises(ValidationError, match="allocation"):
            step_one(0.5, 1, 2.5, BOUNDS)
        with pytest.raises(ValidationError, match="allocation"):
            step_one(10.5, 10, 2.5, BOUNDS)

    @settings(max_examples=1000)
    @given(data=st.data())
    def test_fuzz_respects_the_update_rule(self, data):
        r_lb = data.draw(st.floats(0.1, 4.0), label="r_lb")
        r_ub = r_lb + data.draw(st.floats(0.0, 12.0), label="band")
        v_p = data.draw(st.floats(0.05, 3.0), label="pod_capacity")
        q = data.draw(st.integers(1, 30), label="max_pods")
        b = ScalingBounds(r_lb, r_ub, v_p, max_pods=q)
        n_cur = data.draw(st.integers(1, q), label="n_cur")
        r_cur = data.draw(st.floats(r_lb, r_ub), label="r_cur")
        predicted = data.draw(st.floats(-5.0, r_ub + 8.0), label="predicted")

        d = step_one(r_cur, n_cur, predicted, b)

        # Restate the rule from scratch.
        r_new = min(max(predicted, r_lb), r_ub)
        assert d.r_new == r_new
        if r_new > r_cur:
            expect = min(n_cur + math.ceil((r_new - r_cur) / v_p), q)
        elif r_new < r_cur:
            expect = min(max(n_cur - math.ceil((r_cur - r_new) / v_p), 1), q)
        else:
            expect = n_cur
        assert d.n_new == expect
        assert 1 <= d.n_new <= q


class TestScalingBounds:
    def test_rejects_zero_lower_bound(self):
        with pytest.raises(ValidationError):
            ScalingBounds(0.0, 1.0, 1.0, max_pods=1)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValidationError):
            ScalingBounds(2.0, 1.0, 1.0, max_pods=1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError):
            ScalingBounds(1.0, 2.0, 0.0, max_pods=1)

    def test_rejects_zero_max_pods(self):
        with pytest.raises(ValidationError):
            ScalingBounds(1.0, 2.0, 1.0, max_pods=0)


def constant_forecaster(k: int, constant_scaled: float) -> LstmModel:
    """Zero-weight model that always emits tanh(bias), squashed by a scaler.

    Gives predict_demand a forecaster with a closed-form output so the whole
    pipeline can be checked by hand.
    """
    hidden = 2
    zeros = LstmLayer(np.zeros((1, 4 * hidden)), np.zeros((hidden, 4 * hidden)),
                      np.zeros(4 * hidden))
    bias = math.atanh(constant_scaled)
    return LstmModel(LstmConfig(window=k, hidden_units=hidden), [zeros],
                     np.zeros((hidden, 1)), bias, MinMaxScaler(-1.0, 1.0, -1.0, 1.0))


def grid(a, b) -> np.ndarray:
    """A (T, 2) rate grid from the columns of services a and b."""
    return np.column_stack([a, b]).astype(np.float64)


class TestRunPolicyStep:
    """One policy step: predict_demand's row for the window ending now, then
    integrate_step."""

    def setup_method(self):
        self.graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        self.k = 3
        # Identity-ish GCN: single linear layer reading only the forecast slot.
        w = np.zeros((self.k, 1))
        w[-1, 0] = 2.0  # a_hat halves everything on K2, so 2 undoes it
        unit = MinMaxScaler(0.0, 1.0, 0.0, 1.0)
        self.gcn = GcnModel(GcnConfig(window=self.k, hidden=(), epochs=1),
                            ("a", "b"), [w], unit, (unit, unit))
        self.bounds = {"a": ScalingBounds(1.0, 8.0, 1.0, max_pods=8),
                       "b": ScalingBounds(1.0, 8.0, 1.0, max_pods=8)}

    def step(self, models, history, current_r, current_n):
        """(step per service, forecasts, demand), each keyed by service."""
        forecasts, demand = predict_demand(models, self.gcn, self.graph, history)
        forecasts = dict(zip(self.graph.nodes, forecasts[-1].tolist()))
        demand = dict(zip(self.graph.nodes, demand[-1].tolist()))
        steps = {s: step_one(current_r[s], current_n[s], demand[s], self.bounds[s])
                 for s in self.graph.nodes}
        return steps, forecasts, demand

    def test_pipeline_arithmetic_by_hand(self):
        # Both forecasters emit 0.6; the GCN sees features [h1, h2, 0.6] per
        # node and outputs 2 * mean-of-neighbors(0.6) = 0.6 + 0.6 halves = 0.6
        # ... on K2 a_hat is all 0.5, so out = 0.5*(0.6+0.6)*2 = 1.2.
        models = {"a": constant_forecaster(self.k, 0.6),
                  "b": constant_forecaster(self.k, 0.6)}
        history = grid([0.4, 0.5, 0.6, 0.7], [0.1, 0.2, 0.3, 0.4])
        decisions, forecasts, demand = self.step(models, history,
                                                 {"a": 1.0, "b": 1.0}, {"a": 1, "b": 1})
        assert forecasts == {"a": pytest.approx(0.6), "b": pytest.approx(0.6)}
        assert demand["a"] == pytest.approx(1.2)
        assert demand["b"] == pytest.approx(1.2)
        # Carried allocation 1.0 vCPU; demand 1.2 needs one more pod.
        assert decisions["a"].n_new == 2
        assert decisions["b"].n_new == 2

    def test_carried_allocation_not_rederived_from_pods(self):
        # Demand 1.2 with carried state already at 1.2: no move, whatever the
        # pod count says. Re-deriving allocation as pods * capacity here would
        # remove a pod and re-add it forever around the fractional demand.
        models = {"a": constant_forecaster(self.k, 0.6),
                  "b": constant_forecaster(self.k, 0.6)}
        history = grid([0.4, 0.5, 0.6, 0.7], [0.1, 0.2, 0.3, 0.4])
        decisions, _, _ = self.step(models, history, {"a": 1.2, "b": 1.2}, {"a": 2, "b": 2})
        assert decisions["a"].delta == 0
        assert decisions["b"].delta == 0
        assert decisions["a"].r_new == pytest.approx(1.2)

    def test_negative_forecast_clamped_to_zero(self):
        models = {"a": constant_forecaster(self.k, -0.9),
                  "b": constant_forecaster(self.k, -0.9)}
        history = np.ones((5, 2))
        forecasts, demand = predict_demand(models, self.gcn, self.graph, history)
        # Every window's forecast is clamped, not only the latest one.
        np.testing.assert_array_equal(forecasts, np.zeros((3, 2)))
        # Zero forecast, zero features in the demand slot: clamp to r_lb, stay put.
        np.testing.assert_array_equal(demand, np.zeros((3, 2)))
        decisions, _, _ = self.step(models, history, {"a": 1.0, "b": 1.0}, {"a": 1, "b": 1})
        assert decisions["a"].r_new == 1.0 and decisions["a"].delta == 0

    def test_uses_only_last_k_history(self):
        models = {"a": constant_forecaster(self.k, 0.5),
                  "b": constant_forecaster(self.k, 0.5)}
        short = grid([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
        long = grid([99.0] * 40 + [0.7, 0.8, 0.9], [99.0] * 40 + [0.7, 0.8, 0.9])
        out_short = self.step(models, short, {"a": 1.0, "b": 1.0}, {"a": 1, "b": 1})
        out_long = self.step(models, long, {"a": 1.0, "b": 1.0}, {"a": 1, "b": 1})
        assert out_short[2] == out_long[2]
        assert len(predict_demand(models, self.gcn, self.graph, short)[1]) == 1
        assert len(predict_demand(models, self.gcn, self.graph, long)[1]) == 41

    def test_history_too_short_rejected(self):
        models = {"a": constant_forecaster(self.k, 0.5),
                  "b": constant_forecaster(self.k, 0.5)}
        with pytest.raises(ShapeError, match="history"):
            predict_demand(models, self.gcn, self.graph, grid([1.0], [1.0]))
        # One column per service of the graph, no more and no fewer.
        for history in (np.ones((4, 3)), np.ones((4, 1)), np.ones(4)):
            with pytest.raises(ShapeError, match="history"):
                predict_demand(models, self.gcn, self.graph, history)

    def test_missing_forecaster_rejected(self):
        models = {"a": constant_forecaster(self.k, 0.5)}
        history = np.ones((4, 2))
        with pytest.raises(ValidationError, match="no forecaster"):
            predict_demand(models, self.gcn, self.graph, history)

    def test_does_not_mutate_inputs(self):
        models = {"a": constant_forecaster(self.k, 0.5),
                  "b": constant_forecaster(self.k, 0.5)}
        history = grid([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
        current_r = {"a": 2.0, "b": 3.0}
        current_n = {"a": 2, "b": 3}
        snapshot = history.copy()
        self.step(models, history, current_r, current_n)
        np.testing.assert_array_equal(history, snapshot)
        assert current_r == {"a": 2.0, "b": 3.0}
        assert current_n == {"a": 2, "b": 3}


def random_pipeline(seed: int, k: int):
    """Random forecasters and a two-layer graph predictor on a three-node chain."""
    rng = Rng(seed)
    graph = ServiceGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    hidden = 5
    models = {}
    for i, service in enumerate(graph.nodes):
        r = rng.child(i)
        layer = LstmLayer(r.normal(0.0, 0.5, (1, 4 * hidden)),
                          r.normal(0.0, 0.5, (hidden, 4 * hidden)),
                          r.normal(0.0, 0.1, (4 * hidden,)))
        models[service] = LstmModel(LstmConfig(window=k, hidden_units=hidden), [layer],
                                    r.normal(0.0, 0.5, (hidden, 1)), 0.1,
                                    MinMaxScaler(0.0, 400.0))
    weights = [glorot_init(k, 6, rng), glorot_init(6, 1, rng)]
    gcn = GcnModel(GcnConfig(window=k, hidden=(6,), epochs=1), graph.nodes, weights,
                   MinMaxScaler(0.0, 400.0, 0.0, 1.0),
                   tuple(MinMaxScaler(0.0, 5.0, 0.0, 1.0) for _ in graph.nodes))
    return models, gcn, graph


class TestPredictDemandBatch:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(2, 6), extra=st.integers(0, 30),
           data=st.data())
    def test_each_row_matches_its_batch_of_one(self, seed, k, extra, data):
        models, gcn, graph = random_pipeline(seed, k)
        rates = st.lists(st.floats(0.0, 500.0), min_size=k + extra, max_size=k + extra)
        history = np.column_stack([data.draw(rates, label=s) for s in graph.nodes])
        forecasts, demand = predict_demand(models, gcn, graph, history)
        assert forecasts.shape == demand.shape == (extra + 1, graph.size)
        for j in range(extra + 1):
            one_forecast, one_demand = predict_demand(models, gcn, graph, history[j:j + k])
            for batched, single in ((forecasts[j], one_forecast[0]),
                                    (demand[j], one_demand[0])):
                scale = max(np.abs(single).max(), 1e-300)
                np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12 * scale)
