"""Pod sizing tests: clamping, ceilings, floors, and fuzzing; and the one
path from request rates to the graph predictor's features, in training and
in replay.

size_pods is pure arithmetic, so most of this file is hand-worked examples
plus hypothesis fuzzes that re-state the sizing rule independently.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graph_phpa import autoscaler
from graph_phpa.autoscaler import (ScalingBounds, build_resource_dataset, forecast_features,
                                   predict_demand, size_pods)
from graph_phpa.errors import EmptyDatasetError, ShapeError, ValidationError
from graph_phpa.forecast_lstm import LstmConfig, LstmModel, make_windows
from graph_phpa.predict_gcn import GcnConfig, GcnModel, ServiceGraph, predict_resource
from graph_phpa.tensor import MinMaxScaler, Rng, glorot_init
from conftest import forecast_rates, traced_peak
from oracles import (assert_bitwise_equal, resource_dataset_oracle, size_pods_oracle,
                     windowed_max_oracle)


def size_one(predicted, bounds) -> tuple[float, int]:
    """One service's (allocation, pods) through size_pods, as Python numbers."""
    allocation, pods = size_pods([[predicted]], [bounds])
    return allocation.item(), pods.item()


BOUNDS = ScalingBounds(r_lb=1.0, r_ub=10.0, pod_capacity=0.5, max_pods=10)


@st.composite
def scaling_bounds(draw):
    r_lb = draw(st.floats(0.1, 4.0), label="r_lb")
    r_ub = r_lb + draw(st.floats(0.0, 12.0), label="band")
    return ScalingBounds(r_lb, r_ub, draw(st.floats(0.05, 3.0), label="pod_capacity"),
                         max_pods=draw(st.integers(1, 30), label="max_pods"))


class TestIntegrateStep:
    """The pod sizing step, size_pods: each minute's pods follow from its own
    predicted demand."""

    def test_worked_example_adds_one_pod(self):
        # 2.5 vCPU at half a vCPU per pod is 5 pods, one more than 2.0 vCPU's 4.
        assert size_one(2.0, BOUNDS) == (2.0, 4)
        assert size_one(2.5, BOUNDS) == (2.5, 5)

    def test_rise_is_capped_at_max_pods(self):
        b = ScalingBounds(r_lb=1.0, r_ub=10.0, pod_capacity=1.0, max_pods=3)
        assert size_one(3.2, b) == (3.2, 3)  # needs ceil(3.2) = 4, the cap stops it at 3

    def test_fall_releases_pods(self):
        # 5.0 vCPU takes 10 half-vCPU pods; 2.0 vCPU the minute after takes 4.
        allocation, pods = size_pods([[5.0], [2.0]], [BOUNDS])
        assert allocation.tolist() == [[5.0], [2.0]]
        assert pods.tolist() == [[10], [4]]

    def test_fall_never_goes_below_one(self):
        # A floor so small that the allocation over the capacity rounds to 0.0.
        b = ScalingBounds(r_lb=5e-324, r_ub=1.0, pod_capacity=2.0, max_pods=4)
        assert size_one(0.0, b) == (5e-324, 1)

    def test_equal_demand_changes_nothing(self):
        # Equal predictions give equal pods, whatever came before them.
        _, pods = size_pods([[3.0], [7.0], [3.0], [3.0]], [BOUNDS])
        assert pods.ravel().tolist() == [6, 10, 6, 6]

    def test_prediction_clamped_to_upper_bound(self):
        assert size_one(99.0, BOUNDS) == (10.0, 10)

    def test_prediction_clamped_to_lower_bound(self):
        assert size_one(0.0, BOUNDS) == (1.0, 2)  # r_lb 1.0 at 0.5 per pod
        assert size_one(-3.0, BOUNDS) == (1.0, 2)

    def test_exact_pod_boundary_needs_no_extra(self):
        # An allocation of exactly n capacities takes exactly n pods, not n + 1.
        assert size_one(2.5, BOUNDS)[1] == 5
        assert size_one(3.0, BOUNDS)[1] == 6

    def test_fractional_rise_rounds_up(self):
        assert size_one(2.01, BOUNDS)[1] == 5

    def test_multiple_services_decided_independently(self):
        # Column j is sized under bounds[j].
        bounds = [BOUNDS, ScalingBounds(1.0, 4.0, 1.0, max_pods=4)]
        allocation, pods = size_pods(np.array([[2.5, 1.0], [2.5, 9.0]]), bounds)
        assert allocation.tolist() == [[2.5, 1.0], [2.5, 4.0]]
        assert pods.tolist() == [[5, 1], [5, 4]]
        assert allocation.dtype == np.float64 and pods.dtype == np.int64

    def test_monotone_in_prediction(self):
        # More predicted demand can never mean fewer pods.
        _, pods = size_pods(np.linspace(0.0, 12.0, 60)[:, None], [BOUNDS])
        assert pods.ravel().tolist() == sorted(pods.ravel().tolist())

    def test_non_finite_prediction_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match=r"at \(1, 0\) is not finite"):
                size_pods([[2.0], [bad]], [BOUNDS])

    def test_one_column_per_bounds_entry(self):
        for shape in ((3, 2), (4,), ()):
            with pytest.raises(ShapeError, match="one column per bounds entry"):
                size_pods(np.ones(shape), [BOUNDS] * 3)

    @settings(max_examples=1000)
    @given(bounds=scaling_bounds(), predicted=st.floats(-5.0, 50.0))
    def test_fuzz_respects_the_update_rule(self, bounds, predicted):
        assert size_one(predicted, bounds) == size_pods_oracle(predicted, bounds)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bounds=st.lists(scaling_bounds(), min_size=1, max_size=5),
           rows=st.integers(0, 6))
    def test_pods_cover_the_allocation_within_the_limits(self, data, bounds, rows):
        predicted = data.draw(hnp.arrays(np.float64, (rows, len(bounds)),
                                         elements=st.floats(-5.0, 60.0)), label="predicted")
        allocation, pods = size_pods(predicted, bounds)
        assert allocation.shape == pods.shape == predicted.shape
        for j, b in enumerate(bounds):
            assert np.all((b.r_lb <= allocation[:, j]) & (allocation[:, j] <= b.r_ub))
            assert np.all((1 <= pods[:, j]) & (pods[:, j] <= b.max_pods))
            for a, n in zip(allocation[:, j].tolist(), pods[:, j].tolist()):
                need = math.ceil(a / b.pod_capacity)
                if 1 <= need <= b.max_pods:  # neither clip binds
                    assert n == need


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


def constant_forecaster(k: int, constant_scaled: float, services=("a", "b")) -> LstmModel:
    """Zero-weight model that always emits tanh(bias), squashed by an
    identity scaler for each of services.

    Gives predict_demand a forecaster with a closed-form output so the whole
    pipeline can be checked by hand.
    """
    hidden = 2
    bias = math.atanh(constant_scaled)
    return LstmModel(LstmConfig(window=k, hidden_units=hidden), np.zeros((1, 4 * hidden)),
                     np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden),
                     np.zeros((hidden, 1)), bias,
                     {s: MinMaxScaler(-1.0, 1.0, -1.0, 1.0) for s in services}, services[0])


def grid(a, b) -> np.ndarray:
    """A (T, 2) rate grid from the columns of services a and b."""
    return np.column_stack([a, b]).astype(np.float64)


class TestRunPolicyStep:
    """One policy step: predict_demand's row for the window ending now, then
    size_pods."""

    def setup_method(self):
        self.graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        self.k = 3
        # Identity-ish GCN: single linear layer reading only the forecast slot.
        w = np.zeros((self.k, 1))
        w[-1, 0] = 2.0  # a_hat halves everything on K2, so 2 undoes it
        unit = MinMaxScaler(0.0, 1.0, 0.0, 1.0)
        self.gcn = GcnModel(GcnConfig(hidden=(), epochs=1), self.graph, [w], unit,
                            (unit, unit))
        self.bounds = {"a": ScalingBounds(1.0, 8.0, 1.0, max_pods=8),
                       "b": ScalingBounds(1.0, 8.0, 1.0, max_pods=8)}

    def step(self, lstm, history):
        """((allocation, pods) per service, forecasts, demand), each keyed by service."""
        forecasts, demand = predict_demand(lstm, self.gcn, history)
        allocation, pods = size_pods(demand[-1], [self.bounds[s] for s in self.graph.nodes])
        sizes = dict(zip(self.graph.nodes, zip(allocation.tolist(), pods.tolist())))
        return (sizes, dict(zip(self.graph.nodes, forecasts[-1].tolist())),
                dict(zip(self.graph.nodes, demand[-1].tolist())))

    def test_pipeline_arithmetic_by_hand(self):
        # Both forecasters emit 0.6; the GCN sees features [h1, h2, 0.6] per
        # node and outputs 2 * mean-of-neighbors(0.6) = 0.6 + 0.6 halves = 0.6
        # ... on K2 a_hat is all 0.5, so out = 0.5*(0.6+0.6)*2 = 1.2.
        lstm = constant_forecaster(self.k, 0.6)
        history = grid([0.4, 0.5, 0.6, 0.7], [0.1, 0.2, 0.3, 0.4])
        sizes, forecasts, demand = self.step(lstm, history)
        assert forecasts == {"a": pytest.approx(0.6), "b": pytest.approx(0.6)}
        assert demand["a"] == pytest.approx(1.2)
        assert demand["b"] == pytest.approx(1.2)
        # Demand 1.2 vCPU at one vCPU per pod needs two pods.
        assert sizes["a"] == (pytest.approx(1.2), 2)
        assert sizes["b"] == (pytest.approx(1.2), 2)

    def test_negative_forecast_clamped_to_zero(self):
        lstm = constant_forecaster(self.k, -0.9)
        history = np.ones((5, 2))
        forecasts, demand = predict_demand(lstm, self.gcn, history)
        # Every window's forecast is clamped, not only the latest one.
        np.testing.assert_array_equal(forecasts, np.zeros((3, 2)))
        # Zero forecast, zero features in the demand slot: clamp to r_lb, one pod.
        np.testing.assert_array_equal(demand, np.zeros((3, 2)))
        sizes, _, _ = self.step(lstm, history)
        assert sizes == {"a": (1.0, 1), "b": (1.0, 1)}

    def test_uses_only_last_k_history(self):
        lstm = constant_forecaster(self.k, 0.5)
        short = grid([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
        long = grid([99.0] * 40 + [0.7, 0.8, 0.9], [99.0] * 40 + [0.7, 0.8, 0.9])
        out_short = self.step(lstm, short)
        out_long = self.step(lstm, long)
        assert out_short == out_long
        assert len(predict_demand(lstm, self.gcn, short)[1]) == 1
        assert len(predict_demand(lstm, self.gcn, long)[1]) == 41

    def test_history_too_short_rejected(self):
        lstm = constant_forecaster(self.k, 0.5)
        with pytest.raises(ShapeError, match="history"):
            predict_demand(lstm, self.gcn, grid([1.0], [1.0]))
        # One column per service of the graph, no more and no fewer.
        for history in (np.ones((4, 3)), np.ones((4, 1)), np.ones(4)):
            with pytest.raises(ShapeError, match="history"):
                predict_demand(lstm, self.gcn, history)

    def test_node_without_a_scaler_rejected(self):
        lstm = constant_forecaster(self.k, 0.5, services=("a",))
        history = np.ones((4, 2))
        with pytest.raises(ValidationError, match="no scaler for service 'b'"):
            predict_demand(lstm, self.gcn, history)

    def test_does_not_mutate_inputs(self):
        lstm = constant_forecaster(self.k, 0.5)
        history = grid([0.7, 0.8, 0.9], [0.7, 0.8, 0.9])
        snapshot = history.copy()
        self.step(lstm, history)
        np.testing.assert_array_equal(history, snapshot)
        predicted = np.array([[-1.0, 9.0], [2.5, 3.5]])
        size_pods(predicted, [self.bounds["a"], self.bounds["b"]])
        assert predicted.tolist() == [[-1.0, 9.0], [2.5, 3.5]]


CHAIN = ServiceGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
# The bundled storefront's graph; its models have 50 LSTM and 32 GCN hidden units.
STOREFRONT = ServiceGraph.from_edges(
    ["productpage", "details", "reviews", "ratings"],
    [("productpage", "details"), ("productpage", "reviews"), ("reviews", "ratings")])


def random_pipeline(seed: int, k: int, graph: ServiceGraph = CHAIN, hidden: int = 5,
                    gcn_hidden: int = 6, dtype=np.float32):
    """A random one-layer forecaster, computing in dtype, with a scaler per
    node, and a two-layer graph predictor on graph."""
    rng = Rng(seed)
    r = rng.child(0)
    scalers = {s: MinMaxScaler(0.0, 100.0 * (i + 2)) for i, s in enumerate(graph.nodes)}
    lstm = LstmModel(LstmConfig(window=k, hidden_units=hidden),
                     r.normal(0.0, 0.5, (1, 4 * hidden)),
                     r.normal(0.0, 0.5, (hidden, 4 * hidden)),
                     r.normal(0.0, 0.1, (4 * hidden,)),
                     r.normal(0.0, 0.5, (hidden, 1)), 0.1, scalers, graph.nodes[0],
                     dtype=dtype)
    weights = [glorot_init(k, gcn_hidden, rng), glorot_init(gcn_hidden, 1, rng)]
    gcn = GcnModel(GcnConfig(hidden=(gcn_hidden,), epochs=1), graph, weights,
                   MinMaxScaler(0.0, 400.0, 0.0, 1.0),
                   tuple(MinMaxScaler(0.0, 5.0, 0.0, 1.0) for _ in graph.nodes))
    return lstm, gcn, graph


# Relative agreement of a batched row with its batch of one. BLAS takes
# another path for one row than for many (gemv, not gemm), so the sums round
# in another order: at float64's rounding in float64, and at float32's, about
# 6e-8 relative per operation, in the float32 forecasters the package runs.
BATCH_OF_ONE_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


class TestPredictDemandBatch:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(2, 6), extra=st.integers(0, 30),
           data=st.data())
    def test_each_row_matches_its_batch_of_one(self, seed, k, extra, data):
        rates = st.lists(st.floats(0.0, 500.0), min_size=k + extra, max_size=k + extra)
        history = np.column_stack([data.draw(rates, label=s) for s in CHAIN.nodes])
        for dtype, rtol in BATCH_OF_ONE_RTOL.items():
            lstm, gcn, graph = random_pipeline(seed, k, dtype=dtype)
            forecasts, demand = predict_demand(lstm, gcn, history)
            assert forecasts.shape == demand.shape == (extra + 1, graph.size)
            for j in range(extra + 1):
                one_forecast, one_demand = predict_demand(lstm, gcn, history[j:j + k])
                for batched, single in ((forecasts[j], one_forecast[0]),
                                        (demand[j], one_demand[0])):
                    scale = max(np.abs(single).max(), 1e-300)
                    np.testing.assert_allclose(batched, single, rtol=rtol, atol=rtol * scale,
                                               err_msg=f"forecasters in {dtype.__name__}")

    def test_held_out_window_memory_is_bounded(self):
        # The bundled replay's held-out window: 720 minutes of 4 services, so
        # 711 windows of 10 through the bundled model shapes. With blocks of up
        # to 2 * BLOCK - 1 windows, the inference pool and the GCN layer
        # buffers peaked at 2.81 MB together.
        lstm, gcn, graph = random_pipeline(11, 10, STOREFRONT, hidden=50, gcn_hidden=32)
        rates = Rng(12).uniform(0.0, 400.0, (720, graph.size))
        peak = traced_peak(lambda: predict_demand(lstm, gcn, rates))
        assert peak < 2.2e6, f"predict_demand peaked at {peak / 1e6:.2f} MB"


class TestForecastFeatures:
    def test_predict_demand_predicts_from_the_features(self):
        lstm, gcn, graph = random_pipeline(13, 4)
        rates = Rng(14).uniform(0.0, 500.0, (9, graph.size))
        forecasts, features = forecast_features(lstm, graph, rates)
        assert features.shape == (6, graph.size, 4)
        # Window s is rates[s .. s+3]: its last three rates, then its forecast.
        for s in range(6):
            assert_bitwise_equal(features[s, :, :-1], rates[s + 1:s + 4].T)
        assert_bitwise_equal(features[..., -1], forecasts)
        want = predict_resource(gcn, features)
        got_forecasts, demand = predict_demand(lstm, gcn, rates)
        assert_bitwise_equal(got_forecasts, forecasts)
        assert_bitwise_equal(demand, want)


def column(*values) -> np.ndarray:
    """A one-node (T, 1) grid."""
    return np.array(values, dtype=np.float64)[:, None]


SOLO = ServiceGraph.from_edges(["a"], [])


class TestBuildResourceDataset:
    """The graph predictor's training set: forecast_features over every
    window of a segment but the last, and each window's peak usage."""

    def test_windowed_example_by_hand(self, monkeypatch):
        # k=3, T=5: samples at reference minutes t=2,3. Row layout per node is
        # [w[t-1], w[t], f[t+1]]; target is max r over [t-1 .. t+1]. The stub
        # forecasts each window's last rate plus one. The last window's
        # forecast minute, 5, lies past the segment, so it gives no sample.
        monkeypatch.setattr(autoscaler, "forecast_services",
                            lambda lstm, services, windows: [w[:, -1] + 1.0 for w in windows])
        lstm, _, graph = random_pipeline(0, 3, SOLO)
        x, y = build_resource_dataset(lstm, graph, column(10.0, 20.0, 30.0, 40.0, 50.0),
                                      column(1.0, 5.0, 2.0, 7.0, 3.0))
        assert x.shape == (2, 1, 3)
        np.testing.assert_array_equal(x[:, 0], [[20.0, 30.0, 31.0], [30.0, 40.0, 41.0]])
        np.testing.assert_array_equal(y[:, 0, 0], [7.0, 7.0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(2, 6), extra=st.integers(1, 40),
           storefront=st.booleans())
    @example(seed=0, k=10, extra=1, storefront=True)
    def test_matches_the_per_sample_loop_bit_for_bit(self, seed, k, extra, storefront):
        # The oracle's forecasts are the forecaster's for make_windows'
        # windows of each service, which leave out the last one: the same
        # rows in the same calls, so every float32 forecast keeps its bits.
        lstm, _, graph = random_pipeline(seed, k, STOREFRONT if storefront else CHAIN)
        rng = Rng(seed).child(1)
        rates = rng.uniform(0.0, 500.0, (k + extra, graph.size))
        usage = rng.uniform(0.0, 4.0, rates.shape)
        forecasts = np.column_stack([forecast_rates(lstm, make_windows(rates[:, j], k)[0], s)
                                     for j, s in enumerate(graph.nodes)])
        want_x, want_y = resource_dataset_oracle(rates, forecasts, usage, graph.nodes, k)
        x, y = build_resource_dataset(lstm, graph, rates, usage)
        assert len(x) == extra
        assert_bitwise_equal(x, want_x)
        assert_bitwise_equal(y, want_y)
        for j in range(graph.size):  # the k-minute peaks ending at minutes k .. T-1
            np.testing.assert_array_equal(y[:, j, 0],
                                          windowed_max_oracle(usage[:, j].tolist(), k)[1:])

    def test_k_plus_one_minutes_give_one_sample(self):
        lstm, _, graph = random_pipeline(3, 4)
        rates = Rng(4).uniform(0.0, 500.0, (5, graph.size))
        usage = rates / 100.0
        x, y = build_resource_dataset(lstm, graph, rates, usage)
        assert x.shape == (1, graph.size, 4) and y.shape == (1, graph.size, 1)
        assert_bitwise_equal(x, forecast_features(lstm, graph, rates[:4])[1])
        assert_bitwise_equal(y[0, :, 0], usage[1:].max(axis=0))

    @pytest.mark.parametrize("sample, node", [(0, 0), (4, 2), (5, 1)])
    def test_non_finite_forecast_names_its_service_and_minute(self, monkeypatch, sample,
                                                             node):
        forecast = autoscaler.forecast_services

        def poisoned(lstm, services, windows):
            out = [f.copy() for f in forecast(lstm, services, windows)]
            out[node][sample] = np.nan
            return out

        monkeypatch.setattr(autoscaler, "forecast_services", poisoned)
        lstm, _, graph = random_pipeline(5, 3)
        rates = Rng(6).uniform(0.0, 500.0, (9, graph.size))
        forecasts = np.column_stack(poisoned(lstm, graph.nodes, [
            make_windows(rates[:, j], 3)[0] for j in range(graph.size)]))
        with pytest.raises(ValidationError) as want:
            resource_dataset_oracle(rates, forecasts, rates, graph.nodes, 3)
        with pytest.raises(ValidationError) as got:
            build_resource_dataset(lstm, graph, rates, rates)
        assert str(got.value) == str(want.value) == (
            f"forecast for {graph.nodes[node]!r} at minute index {sample + 3} is not finite")

    def test_grids_of_one_shape_with_a_sample(self):
        lstm, _, graph = random_pipeline(7, 3)
        rates = np.ones((6, graph.size))
        for usage in (np.ones((5, 3)), np.ones((6, 2)), np.ones(6)):
            with pytest.raises(ShapeError, match="must be"):
                build_resource_dataset(lstm, graph, rates, usage)
        with pytest.raises(ShapeError, match="history"):
            build_resource_dataset(lstm, graph, np.ones((6, 2)), np.ones((6, 2)))
        with pytest.raises(EmptyDatasetError, match="3 minutes yield no samples for k=3"):
            build_resource_dataset(lstm, graph, rates[:3], rates[:3])
