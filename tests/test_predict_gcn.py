"""Resource predictor tests.

Forward propagation is checked against a dense loop-based reference built
straight from the layer rule act(A_hat H W), and the analytic gradients
against central finite differences. Structural properties (permutation
equivariance, regular-graph normalization) guard the adjacency handling.
The fit runs in float32; its kernel and training are held to the oracles in
oracles.py in float32 and in float64, each within its own tolerance.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_phpa.errors import (
    DivergenceError,
    EmptyDatasetError,
    ShapeError,
    ValidationError,
)
from graph_phpa.predict_gcn import (
    GcnConfig,
    GcnModel,
    ServiceGraph,
    _Batch,
    _loss_and_grads,
    build_resource_dataset,
    evaluate_gcn,
    gcn_forward,
    normalize_adjacency,
    predict_resource,
    scale_targets,
    train_gcn,
)
from graph_phpa.tensor import BLOCK, DTYPE, MinMaxScaler, Rng
from conftest import traced_peak
from oracles import (
    assert_bitwise_equal,
    finite_diff_gradient,
    gcn_forward_oracle,
    gcn_forward_scaled_oracle,
    gcn_loss_and_grads_oracle,
    normalized_adjacency_oracle,
    rel_err,
    resource_dataset_oracle,
    train_gcn_oracle,
    windowed_max_oracle,
)

UNIT = MinMaxScaler(0.0, 1.0, 0.0, 1.0)


def random_graph(rng: Rng, n: int) -> ServiceGraph:
    """Random connected-ish undirected graph over n nodes."""
    a = np.zeros((n, n))
    for i in range(1, n):
        j = int(rng.integers(0, i))  # spanning tree keeps it connected
        a[i, j] = a[j, i] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform(0.0, 1.0) < 0.3:
                a[i, j] = a[j, i] = 1.0
    return ServiceGraph(nodes=tuple(f"s{i}" for i in range(n)), adjacency=a)


def random_model(rng: Rng, nodes, window: int, hidden: tuple[int, ...]) -> GcnModel:
    config = GcnConfig(window=window, hidden=hidden, epochs=1)
    widths = config.widths
    weights = [rng.normal(0.0, 0.5, (widths[i], widths[i + 1]))
               for i in range(len(widths) - 1)]
    return GcnModel(config, tuple(nodes), weights, UNIT, (UNIT,) * len(tuple(nodes)))


def loss_and_grads(weights, a_hat, x, y):
    """The buffered kernel on one batch of scaled features, through buffers sized for it."""
    batch = _Batch.allocate(weights, len(x), x.shape[1])
    np.matmul(a_hat, x, out=batch.agg[0])
    batch.targets[...] = y
    grads = [np.full_like(w, np.nan) for w in weights]
    return _loss_and_grads(weights, a_hat, batch, grads), grads


class TestNormalizeAdjacency:
    def test_single_node_is_identity(self):
        np.testing.assert_array_equal(normalize_adjacency([[0.0]]), [[1.0]])

    def test_two_connected_nodes_all_half(self):
        out = normalize_adjacency([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_loop_oracle_on_random_graphs(self):
        rng = Rng(3)
        for trial in range(30):
            n = int(rng.integers(1, 8))
            graph = random_graph(rng.child(trial), n)
            expected = normalized_adjacency_oracle(graph.adjacency.tolist())
            np.testing.assert_allclose(graph.a_hat, expected, atol=1e-12)

    def test_regular_graph_entries_are_one_over_degree_plus_one(self):
        # Every node of a cycle has degree 2, so all nonzero entries are 1/3.
        n = 6
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
        out = normalize_adjacency(a)
        nz = out[out > 0]
        np.testing.assert_allclose(nz, 1.0 / 3.0)

    def test_row_sums_equal_one_only_for_regular_graphs(self):
        # Symmetric normalization is not a row-stochastic matrix in general.
        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 1.0
        rows = normalize_adjacency(star).sum(axis=1)
        assert rows[0] != pytest.approx(rows[1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            normalize_adjacency([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            normalize_adjacency(np.zeros((2, 3)))


class TestServiceGraph:
    def test_from_edges_round_trip(self):
        g = ServiceGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.nodes == ("a", "b", "c")
        np.testing.assert_array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_rejects_self_edge(self):
        with pytest.raises(ValidationError):
            ServiceGraph.from_edges(["a"], [("a", "a")])

    def test_rejects_unknown_edge_node(self):
        with pytest.raises(ValidationError):
            ServiceGraph.from_edges(["a"], [("a", "b")])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValidationError):
            ServiceGraph(nodes=("a", "a"), adjacency=np.zeros((2, 2)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            ServiceGraph(nodes=("a",), adjacency=np.ones((1, 1)))


class TestForwardAgainstOracle:
    def test_matches_dense_loop_reference(self):
        rng = Rng(17)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            depth = int(rng.integers(1, 4))
            hidden = tuple(int(rng.integers(1, 5)) for _ in range(depth - 1))
            graph = random_graph(rng.child(trial, 1), n)
            model = random_model(rng.child(trial, 2), graph.nodes, 3, hidden)
            x = rng.uniform(-1.0, 1.0, (n, 3))
            expected = gcn_forward_oracle(graph.adjacency.tolist(),
                                          [w.tolist() for w in model.weights],
                                          model.config.activations, x.tolist())
            out = gcn_forward(model, graph, x)
            assert out.shape == (n, 1)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identity_single_node_linear(self):
        # One isolated node: a_hat is [[1]], so output is x @ w exactly.
        graph = ServiceGraph.from_edges(["solo"], [])
        model = random_model(Rng(5), ("solo",), 4, ())
        x = np.array([[0.2, -0.3, 0.5, 0.1]])
        np.testing.assert_allclose(gcn_forward(model, graph, x), x @ model.weights[0],
                                   atol=1e-15)

    def test_relu_zeroes_negative_preactivations(self):
        graph = ServiceGraph.from_edges(["solo"], [])
        config = GcnConfig(window=2, hidden=(1,), epochs=1)
        model = GcnModel(config, ("solo",),
                         [np.array([[1.0], [0.0]]), np.array([[1.0]])], UNIT, (UNIT,))
        assert gcn_forward(model, graph, np.array([[-3.0, 9.9]]))[0, 0] == 0.0
        assert gcn_forward(model, graph, np.array([[2.0, 9.9]]))[0, 0] == 2.0

    def test_permutation_equivariance(self):
        # Relabeling nodes permutes outputs the same way; weights are shared,
        # so the network cannot depend on node order.
        rng = Rng(23)
        graph = random_graph(rng, 5)
        model = random_model(rng.child(1), graph.nodes, 3, (4,))
        x = rng.uniform(-1.0, 1.0, (5, 3))
        out = gcn_forward(model, graph, x)

        perm = rng.permutation(5)
        nodes_p = tuple(graph.nodes[i] for i in perm)
        adj_p = graph.adjacency[np.ix_(perm, perm)]
        graph_p = ServiceGraph(nodes=nodes_p, adjacency=adj_p)
        model_p = GcnModel(model.config, nodes_p, model.weights, UNIT, (UNIT,) * 5)
        out_p = gcn_forward(model_p, graph_p, x[perm])
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_neighbor_load_is_visible(self):
        # The defining behavior: a node with zero features still produces
        # output when its neighbor is loaded.
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        config = GcnConfig(window=2, hidden=(), epochs=1)
        model = GcnModel(config, ("a", "b"), [np.array([[1.0], [1.0]])], UNIT, (UNIT, UNIT))
        x = np.array([[3.0, 1.0], [0.0, 0.0]])
        out = gcn_forward(model, graph, x)
        assert out[1, 0] == pytest.approx(0.5 * 4.0)  # got everything via a_hat

    def test_node_mismatch_rejected(self):
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        model = random_model(Rng(1), ("x", "y"), 3, ())
        with pytest.raises(ValidationError):
            gcn_forward(model, graph, np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self):
        graph = ServiceGraph.from_edges(["a"], [])
        model = random_model(Rng(1), ("a",), 3, ())
        with pytest.raises(ShapeError):
            gcn_forward(model, graph, np.zeros((1, 4)))


class TestPredictResource:
    def test_applies_scalers_and_clamps(self):
        graph = ServiceGraph.from_edges(["solo"], [])
        config = GcnConfig(window=2, hidden=(), epochs=1)
        # Weight sums the two scaled features; scalers map [0,10] onto [0,1].
        scaler = MinMaxScaler(0.0, 10.0, 0.0, 1.0)
        model = GcnModel(config, ("solo",), [np.array([[1.0], [1.0]])], scaler, (scaler,))
        out = predict_resource(model, graph, np.array([[5.0, 5.0]]))
        # scaled features 0.5+0.5 -> 1.0 -> inverse -> 10.0
        np.testing.assert_allclose(out, [10.0])

        negative = GcnModel(config, ("solo",), [np.array([[-1.0], [-1.0]])],
                            scaler, (scaler,))
        np.testing.assert_array_equal(predict_resource(negative, graph,
                                                       np.array([[5.0, 5.0]])), [0.0])

    def test_matches_forward_plus_transforms(self):
        rng = Rng(29)
        graph = random_graph(rng, 4)
        model = random_model(rng.child(1), graph.nodes, 3, (4,))
        fs = MinMaxScaler(0.0, 300.0, 0.0, 1.0)
        ts = MinMaxScaler(0.0, 8.0, 0.0, 1.0)
        model.feature_scaler, model.target_scalers = fs, (ts,) * 4
        raw = rng.uniform(0.0, 300.0, (4, 3))
        manual = ts.inverse_transform(gcn_forward(model, graph, fs.transform(raw))[:, 0])
        np.testing.assert_allclose(predict_resource(model, graph, raw),
                                   np.maximum(manual, 0.0), atol=1e-12)


class TestGradients:
    def test_gradcheck_small_network(self):
        rng = Rng(31)
        graph = random_graph(rng, 4)
        config = GcnConfig(window=3, hidden=(3,), epochs=1)
        widths = config.widths
        weights = [rng.normal(0.0, 0.5, (widths[i], widths[i + 1]))
                   for i in range(len(widths) - 1)]
        x = rng.uniform(0.0, 1.0, (6, 4, 3))
        y = rng.uniform(0.0, 1.0, (6, 4, 1))
        _, grads = loss_and_grads(weights, graph.a_hat, x, y)
        for li in range(len(weights)):
            def f(p, li=li):
                saved = weights[li]
                weights[li] = p
                try:
                    loss, _ = loss_and_grads(weights, graph.a_hat, x, y)
                finally:
                    weights[li] = saved
                return loss
            numeric = finite_diff_gradient(f, weights[li], 1e-5)
            err = rel_err(grads[li].tolist(), numeric.tolist())
            assert err < 1e-4, f"weight {li}: rel err {err:.3e}"

    def test_loss_matches_mean_squared_error(self):
        rng = Rng(37)
        graph = random_graph(rng, 3)
        model = random_model(rng.child(1), graph.nodes, 2, (2,))
        x = rng.uniform(0.0, 1.0, (5, 3, 2))
        y = rng.uniform(0.0, 1.0, (5, 3, 1))
        loss, _ = loss_and_grads(model.weights, graph.a_hat, x, y)
        per_sample = np.array([gcn_forward(model, graph, xi) for xi in x])
        assert loss == pytest.approx(float(np.mean((per_sample - y) ** 2)), abs=1e-12)


def close(actual, expected, rtol):
    """Norm-relative closeness of two same-shaped arrays."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    return np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


# Graphs of 1-6 nodes, 0-2 hidden layers (widths up to 40, so past the 16
# inputs where BLAS kernels start to block rows differently) and batches
# around the sizes whose remainders take other BLAS paths.
kernel_cases = dict(n=st.integers(1, 6), hidden=st.lists(st.integers(1, 40), max_size=2),
                    window=st.integers(2, 12), seed=st.integers(0, 2**16))
BATCHES = (1, 2, 255, 256, 257)


class TestKernelAgainstOracle:
    """The kernel against the per-sample einsum kernel it replaced."""

    @given(batch=st.sampled_from(BATCHES), **kernel_cases)
    @settings(max_examples=60, deadline=None)
    def test_forward_and_loss_bitwise_gradients_to_rounding(self, n, hidden, window, seed,
                                                            batch):
        rng = Rng(seed)
        graph = random_graph(rng, n)
        model = random_model(rng.child(1), graph.nodes, window, tuple(hidden))
        x = rng.uniform(0.0, 1.0, (batch, n, window))
        y = rng.uniform(0.0, 1.0, (batch, n, 1))
        want_out, _ = gcn_forward_scaled_oracle(model.weights, model.config.activations,
                                                graph.a_hat, x)
        assert_bitwise_equal(gcn_forward(model, graph, x), want_out)
        assert_bitwise_equal(gcn_forward(model, graph, x[0]), want_out[0])

        want_loss, want_grads = gcn_loss_and_grads_oracle(model.weights, model.config.activations,
                                                          graph.a_hat, x, y)
        loss, grads = loss_and_grads(model.weights, graph.a_hat, x, y)
        assert_bitwise_equal(loss, want_loss)
        for got, want in zip(grads, want_grads):
            assert close(got, want, 1e-12)

    @given(batch=st.sampled_from(BATCHES), **kernel_cases)
    @settings(max_examples=40, deadline=None)
    def test_float32_loss_bitwise_gradients_to_rounding(self, n, hidden, window, seed, batch):
        # In float32 the one-GEMM gradients sum in another order than the
        # oracle's einsum: over 240 random cases they differed by at most
        # 1.3e-6, norm-relative.
        rng = Rng(seed)
        graph = random_graph(rng, n)
        model = random_model(rng.child(1), graph.nodes, window, tuple(hidden))
        weights = [w.astype(np.float32) for w in model.weights]
        a_hat = graph.a_hat.astype(np.float32)
        x = rng.uniform(0.0, 1.0, (batch, n, window)).astype(np.float32)
        y = rng.uniform(0.0, 1.0, (batch, n, 1)).astype(np.float32)
        want_loss, want_grads = gcn_loss_and_grads_oracle(weights, model.config.activations,
                                                          a_hat, x, y)
        loss, grads = loss_and_grads(weights, a_hat, x, y)
        assert_bitwise_equal(loss, want_loss)
        for got, want in zip(grads, want_grads):
            assert got.dtype == np.float32
            assert close(got, want, 1e-5)

    @given(samples=st.sampled_from((1, 3, 40, 257, 300)),
           batch_size=st.sampled_from(BATCHES + (64,)), **kernel_cases)
    @settings(max_examples=25, deadline=None)
    def test_training_matches_oracle_and_repeats(self, n, hidden, window, seed, samples,
                                                 batch_size):
        # Sample counts include ones that are no multiple of the batch size
        # and ones below it, so the last batch is short or the only one.
        rng = Rng(seed)
        graph = random_graph(rng, n)
        train = (rng.uniform(0.0, 50.0, (samples, n, window)),
                 rng.uniform(0.0, 4.0, (samples, n, 1)))
        config = GcnConfig(window=window, hidden=tuple(hidden), learning_rate=0.01,
                           epochs=3, batch_size=batch_size, seed=seed)
        model, history = train_gcn(train, graph, config, np.float64)
        want_weights, want_history = train_gcn_oracle(train, graph, config)
        for got, want in zip(model.weights, want_weights):
            assert close(got, want, 1e-10)
        assert close(history, want_history, 1e-10)

        again, again_history = train_gcn(train, graph, config, np.float64)
        assert again_history == history
        for got, want in zip(again.weights, model.weights):
            assert_bitwise_equal(got, want)

    @given(samples=st.sampled_from((1, 3, 40, 257, 300)),
           batch_size=st.sampled_from(BATCHES + (64,)), **kernel_cases)
    @example(n=2, hidden=[38, 12], window=2, seed=4, samples=300, batch_size=1)
    @settings(max_examples=25, deadline=None)
    def test_float32_training_matches_oracle_and_repeats(self, n, hidden, window, seed,
                                                         samples, batch_size):
        # The fit aggregates the input features in float64 and casts them, the
        # float32 oracle aggregates in float32, and the gradients sum in
        # another order. Over 300 random 3-epoch fits the weights differed by
        # at most 2.0e-6 and the histories by 6.8e-7, norm-relative.
        # The example is a draw where float32 cannot settle one matrix that
        # well. A hidden unit of its second layer stays dead until step 475,
        # then wakes with a pre-activation of 2.2e-5, a cancellation of terms
        # summing to 0.72, which float32 rounds by up to 0.4%. Its outgoing
        # weight has had no gradient, so Adam's second moment there is zero,
        # and sqrt(v_hat), about 3e-8, is comparable to epsilon: each step's
        # size follows the gradient's size, rounding included. The last matrix
        # ends 1.9e-4 from the oracle's; the float32 oracle itself ends 2.7e-5
        # from the float64 one. Where a matrix misses 1e-5, the oracle must
        # miss it too when its input aggregation is rounded as the fit's is,
        # and the fit must lie within that spread of the oracle so rounded.
        rng = Rng(seed)
        graph = random_graph(rng, n)
        train = (rng.uniform(0.0, 50.0, (samples, n, window)),
                 rng.uniform(0.0, 4.0, (samples, n, 1)))
        config = GcnConfig(window=window, hidden=tuple(hidden), learning_rate=0.01,
                           epochs=3, batch_size=batch_size, seed=seed)
        model, history = train_gcn(train, graph, config)
        want_weights, want_history = train_gcn_oracle(train, graph, config, np.float32)
        twin = None
        for li, (got, want) in enumerate(zip(model.weights, want_weights)):
            if not close(got, want, 1e-5):
                twin = twin or train_gcn_oracle(train, graph, config, np.float32,
                                                aggregate_in_float64=True)[0]
                spread = np.linalg.norm(twin[li] - want) / np.linalg.norm(want)
                assert spread > 1e-5 and close(got, twin[li], spread)
        assert close(history, want_history, 1e-5)

        again, again_history = train_gcn(train, graph, config)
        assert again_history == history
        for got, want in zip(again.weights, model.weights):
            assert_bitwise_equal(got, want)


class TestBlockedEvaluation:
    """Forward passes and evaluations walk blocks of samples through one set
    of buffers, yet equal the whole-array oracle."""

    @pytest.mark.parametrize("samples", [1, BLOCK, 3 * BLOCK - 1])
    @pytest.mark.parametrize("hidden", [(), (32,), (7, 5)])
    def test_forward_equals_the_whole_array_oracle(self, samples, hidden):
        rng = Rng(samples)
        graph = random_graph(rng, 4)
        model = random_model(rng.child(1), graph.nodes, 10, hidden)
        x = rng.uniform(0.0, 1.0, (samples, 4, 10))
        want, _ = gcn_forward_scaled_oracle(model.weights, model.config.activations,
                                            graph.a_hat, x)
        assert_bitwise_equal(gcn_forward(model, graph, x), want)

    @pytest.mark.parametrize("train_samples, batch_size, valid_samples",
                             [(1, 2, 2), (40, 8, 600), (300, 256, 2 * BLOCK + 3)])
    def test_validation_history_equals_evaluation(self, train_samples, batch_size,
                                                  valid_samples):
        # The pipeline records a fit's validation MSE as evaluate_gcn of the
        # returned model, which walks blocks of samples. It must equal the
        # oracle's whole-array forward bit for bit, overall and per service.
        rng = Rng(train_samples)
        graph = random_graph(rng, 3)
        x = rng.uniform(0.0, 50.0, (train_samples + valid_samples, 3, 4))
        y = rng.uniform(0.0, 4.0, (train_samples + valid_samples, 3, 1))
        config = GcnConfig(window=4, hidden=(6,), epochs=2, batch_size=batch_size, seed=3)
        valid = (x[train_samples:], y[train_samples:])
        model, _ = train_gcn((x[:train_samples], y[:train_samples]), graph, config)
        out, _ = gcn_forward_scaled_oracle(model.weights, model.config.activations, graph.a_hat,
                                           model.feature_scaler.transform(valid[0]))
        sq = (out - scale_targets(model.target_scalers, valid[1])) ** 2
        per_node = {node: float(np.mean(sq[:, i])) for i, node in enumerate(graph.nodes)}
        assert evaluate_gcn(model, graph, valid) == (float(np.mean(sq)), per_node)

    def test_memory_is_bounded(self):
        # 5,000 samples of 4 nodes through 32 hidden units: the unblocked
        # forward held every layer's buffers for all samples and peaked at
        # 12 MB, and an evaluation at 13.6 MB.
        rng = Rng(8)
        graph = random_graph(rng, 4)
        model = random_model(rng.child(1), graph.nodes, 10, (32,))
        x = rng.uniform(0.0, 1.0, (5000, 4, 10))
        y = rng.uniform(0.0, 1.0, (5000, 4, 1))
        for name, run in (("gcn_forward", lambda: gcn_forward(model, graph, x)),
                          ("evaluate_gcn", lambda: evaluate_gcn(model, graph, (x, y)))):
            peak = traced_peak(run)
            assert peak < 3e6, f"{name} peaked at {peak / 1e6:.1f} MB"


def column(*values) -> np.ndarray:
    """A one-node (T, 1) grid."""
    return np.array(values, dtype=np.float64)[:, None]


class TestBuildResourceDataset:
    def test_windowed_example_by_hand(self):
        # k=3, T=5: samples at reference minutes t=2,3. Row layout per node is
        # [w[t-1], w[t], f[t+1]]; target is max r over [t-1 .. t+1]. Forecast
        # row i is for minute index i+k.
        w = column(10.0, 20.0, 30.0, 40.0, 50.0)
        f = column(41.0, 51.0)
        r = column(1.0, 5.0, 2.0, 7.0, 3.0)
        x, y = build_resource_dataset(w, f, r, ("a",), 3)
        assert x.shape == (2, 1, 3)
        np.testing.assert_array_equal(x[0, 0], [20.0, 30.0, 41.0])
        np.testing.assert_array_equal(x[1, 0], [30.0, 40.0, 51.0])
        np.testing.assert_array_equal(y[:, 0, 0], [7.0, 7.0])

    def test_targets_match_loop_oracle(self):
        rng = Rng(41)
        t_total, k = 30, 5
        r = rng.uniform(0.0, 4.0, (t_total, 1))
        series = rng.uniform(0.0, 100.0, (t_total, 1))
        _, y = build_resource_dataset(series, series[k:], r, ("a",), k)
        # Sample s refers to minute t=k-1+s, target max over [t-k+2, t+1]:
        # exactly the k-window of r ending at t+1, i.e. oracle windows from
        # index 1 onward.
        expected = windowed_max_oracle(r[:, 0].tolist(), k)[1:]
        np.testing.assert_allclose(y[:, 0, 0], expected)

    def test_sample_count_is_t_minus_k(self):
        series = np.arange(12.0)[:, None]
        x, y = build_resource_dataset(series, series[4:], series, ("a",), 4)
        assert len(x) == len(y) == 8

    def test_forecast_column_is_last(self):
        w = np.zeros((6, 1))
        f = np.full((3, 1), 9.0)
        x, _ = build_resource_dataset(w, f, w, ("a",), 3)
        np.testing.assert_array_equal(x[:, 0, -1], 9.0)
        np.testing.assert_array_equal(x[:, 0, :-1], 0.0)

    def test_non_finite_forecast_rejected(self):
        w = np.zeros((6, 1))
        f = column(0.0, np.nan, 0.0)
        with pytest.raises(ValidationError, match="'a' at minute index 4 is not finite"):
            build_resource_dataset(w, f, w, ("a",), 3)

    @given(t_total=st.integers(3, 40), k=st.integers(2, 6), n=st.integers(1, 3),
           seed=st.integers(0, 2**16), bad=st.none() | st.tuples(st.integers(0, 39),
                                                                  st.integers(0, 2)))
    @settings(max_examples=60)
    def test_matches_per_sample_loop(self, t_total, k, n, seed, bad):
        # Bitwise, including the error a non-finite forecast raises.
        if t_total < k + 1:
            return
        rng = Rng(seed)
        nodes = tuple(f"s{i}" for i in range(n))
        w = rng.uniform(0.0, 100.0, (t_total, n))
        f = rng.uniform(0.0, 100.0, (t_total - k, n))
        r = rng.uniform(0.0, 4.0, (t_total, n))
        if bad is not None:
            f[bad[0] % (t_total - k), bad[1] % n] = np.inf
            with pytest.raises(ValidationError) as expected:
                resource_dataset_oracle(w, f, r, nodes, k)
            with pytest.raises(ValidationError, match="not finite") as got:
                build_resource_dataset(w, f, r, nodes, k)
            assert str(got.value) == str(expected.value)
            return
        x, y = build_resource_dataset(w, f, r, nodes, k)
        x_loop, y_loop = resource_dataset_oracle(w, f, r, nodes, k)
        assert x.shape == x_loop.shape and y.shape == y_loop.shape
        np.testing.assert_array_equal(x, x_loop)
        np.testing.assert_array_equal(y, y_loop)

    def test_missing_series_rejected(self):
        # A grid needs one column per node.
        w = np.zeros((6, 1))
        for workloads, forecasts, resources in ((w, w[3:], np.zeros((6, 0))),
                                                (w, np.zeros((3, 0)), w),
                                                (np.zeros(6), w[3:], w)):
            with pytest.raises(ShapeError, match=r"must be \(T, 1\), \(T-3, 1\)"):
                build_resource_dataset(workloads, forecasts, resources, ("a",), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_resource_dataset(np.zeros((6, 1)), np.zeros((2, 1)), np.zeros((6, 1)),
                                   ("a",), 3)
        with pytest.raises(ShapeError):
            build_resource_dataset(np.zeros((6, 1)), np.zeros((3, 1)), np.zeros((5, 1)),
                                   ("a",), 3)

    def test_too_short_rejected(self):
        s = np.zeros((3, 1))
        with pytest.raises(EmptyDatasetError):
            build_resource_dataset(s, s[3:], s, ("a",), 3)

    @given(t_total=st.integers(6, 40), k=st.integers(2, 5))
    @settings(max_examples=40)
    def test_count_property(self, t_total, k):
        s = np.arange(float(t_total))[:, None]
        if t_total < k + 1:
            return
        x, y = build_resource_dataset(s, s[k:], s, ("a",), k)
        assert x.shape == (t_total - k, 1, k)
        assert y.shape == (t_total - k, 1, 1)


class TestTraining:
    def _toy_data(self, rng: Rng, graph: ServiceGraph, k: int, count: int):
        # Learnable rule: target is the mean of the node's own features. The
        # first two samples pin both scalers to [0, 10] so the scaled-space
        # relation keeps a zero intercept, which a bias-free network needs.
        x = rng.uniform(0.0, 10.0, (count, graph.size, k))
        x[0] = 0.0
        x[1] = 10.0
        y = x.mean(axis=2, keepdims=True)
        return x, y

    def test_overfits_a_toy_rule(self):
        # Isolated nodes, so a_hat is the identity and the mean-of-own-features
        # target is exactly representable; on a connected pair it would not be.
        rng = Rng(43)
        graph = ServiceGraph.from_edges(["a", "b"], [])
        x, y = self._toy_data(rng, graph, 4, 200)
        config = GcnConfig(window=4, hidden=(8,), learning_rate=0.02, epochs=200,
                           batch_size=64, seed=7)
        model, history = train_gcn((x, y), graph, config)
        assert history[-1] < 1e-3
        assert history[-1] < 0.1 * history[0]
        assert evaluate_gcn(model, graph, (x, y))[0] < 2e-3

    def test_same_seed_bit_identical(self):
        rng = Rng(47)
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        x, y = self._toy_data(rng, graph, 3, 40)
        config = GcnConfig(window=3, hidden=(4,), epochs=3, seed=13)
        model_a, hist_a = train_gcn((x, y), graph, config)
        model_b, hist_b = train_gcn((x, y), graph, config)
        assert hist_a == hist_b
        for wa, wb in zip(model_a.weights, model_b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_divergence_raises_typed_error(self):
        rng = Rng(53)
        graph = ServiceGraph.from_edges(["a"], [])
        x = rng.uniform(0.0, 1.0, (8, 1, 2))
        y = rng.uniform(0.0, 1.0, (8, 1, 1))
        # The largest rate float32 holds is about 3.4e38; this one still
        # overflows the float32 outputs once Adam has stepped.
        config = GcnConfig(window=2, hidden=(4,), learning_rate=1e30, epochs=30, seed=1)
        with pytest.raises(DivergenceError):
            train_gcn((x, y), graph, config)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_mse_raises(self):
        rng = Rng(53)
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        x, y = self._toy_data(rng, graph, 3, 20)
        model, _ = train_gcn((x, y), graph, GcnConfig(window=3, hidden=(4,), epochs=1, seed=1))
        y = y.copy()
        y[5, 1, 0] = 1e308
        with pytest.raises(DivergenceError, match="not finite"):
            evaluate_gcn(model, graph, (x, y))

    def test_shape_validation(self):
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        with pytest.raises(ShapeError):
            train_gcn((np.zeros((4, 3, 3)), np.zeros((4, 3, 1))), graph,
                      GcnConfig(window=3, epochs=1))
        with pytest.raises(ShapeError):
            train_gcn((np.zeros((4, 2, 3)), np.zeros((4, 2, 2))), graph,
                      GcnConfig(window=3, epochs=1))

    def test_empty_dataset(self):
        graph = ServiceGraph.from_edges(["a"], [])
        with pytest.raises(EmptyDatasetError):
            train_gcn((np.zeros((0, 1, 3)), np.zeros((0, 1, 1))), graph,
                      GcnConfig(window=3, epochs=1))

    def test_per_node_mse_averages_to_total(self):
        rng = Rng(59)
        graph = ServiceGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        x, y = self._toy_data(rng, graph, 3, 30)
        model, _ = train_gcn((x, y), graph, GcnConfig(window=3, hidden=(4,), epochs=2, seed=3))
        total, per_node = evaluate_gcn(model, graph, (x, y))
        assert set(per_node) == {"a", "b", "c"}
        assert np.mean(list(per_node.values())) == pytest.approx(total, rel=1e-12)


BUNDLED_GRAPH = ServiceGraph.from_edges(
    ("productpage", "details", "reviews", "ratings"),
    [("productpage", "details"), ("productpage", "reviews"), ("reviews", "ratings")])


class TestPrecision:
    """The fit computes in float32; the model it returns holds float64 weights."""

    def test_a_fit_runs_in_float32_and_returns_weights_float32_holds(self):
        rng = Rng(67)
        x = rng.uniform(0.0, 50.0, (300, 4, 5))
        y = rng.uniform(0.0, 4.0, (300, 4, 1))
        config = GcnConfig(window=5, hidden=(6,), epochs=2, batch_size=64, seed=5)
        model, history = train_gcn((x, y), BUNDLED_GRAPH, config)
        assert DTYPE == np.float32
        assert all(type(v) is float for v in history)
        for w in model.weights:
            assert w.dtype == np.float64
            assert_bitwise_equal(w.astype(np.float32).astype(np.float64), w)
        assert predict_resource(model, BUNDLED_GRAPH, x).dtype == np.float64

    def test_float32_fit_memory_is_bounded(self):
        # One epoch at the bundled shapes: 2,150 samples of 4 nodes and 10
        # features, 32 hidden units, batches of 256. It peaks at about
        # 0.93 MB: the cast aggregated features, 0.34 MB, and the workspace,
        # 0.45 MB, are most of it. The float64 fit peaked at 1.83 MB.
        rng = Rng(9)
        x = rng.uniform(0.0, 400.0, (2150, 4, 10))
        y = rng.uniform(0.0, 4.0, (2150, 4, 1))
        config = GcnConfig(window=10, hidden=(32,), epochs=1, batch_size=256)
        peak = traced_peak(lambda: train_gcn((x, y), BUNDLED_GRAPH, config))
        assert peak < 1.0e6, f"the fit peaked at {peak / 1e6:.2f} MB"


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = Rng(61)
        graph = random_graph(rng, 3)
        model = random_model(rng.child(1), graph.nodes, 3, (4,))
        path = tmp_path / "gcn.json"
        model.save(path)
        loaded = GcnModel.load(path)
        assert loaded.nodes == model.nodes
        assert loaded.config.activations == model.config.activations
        x = rng.uniform(0.0, 1.0, (3, 3))
        np.testing.assert_array_equal(predict_resource(loaded, graph, x),
                                      predict_resource(model, graph, x))

    @pytest.mark.parametrize("activations", [["relu", "relu"], ["linear"], "relu", None])
    def test_activations_must_match_the_config(self, activations):
        rng = Rng(61)
        model = random_model(rng, ("a", "b"), 3, (4,))
        doc = model.to_json_dict()
        assert doc["activations"] == ["relu", "linear"]
        doc["activations"] = activations
        with pytest.raises(ValidationError, match=r"activations must be "
                                                  r"\['relu', 'linear'\] for its config"):
            GcnModel.from_json_dict(doc)

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValidationError):
            GcnModel.from_json_dict({"schema": "nope"})

    def test_file_is_byte_stable(self, tmp_path):
        rng = Rng(67)
        graph = random_graph(rng, 2)
        model = random_model(rng.child(1), graph.nodes, 3, ())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()


class TestModelValidation:
    def test_weight_chain_mismatch(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(window=3, hidden=(4,), epochs=1), ("a",),
                     [np.zeros((3, 4)), np.zeros((5, 1))], UNIT, (UNIT,))

    def test_first_weight_must_match_window(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(window=3, hidden=(), epochs=1), ("a",),
                     [np.zeros((2, 1))], UNIT, (UNIT,))

    def test_last_weight_must_be_single_output(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(window=3, hidden=(), epochs=1), ("a",),
                     [np.zeros((3, 2))], UNIT, (UNIT,))

    def test_needs_a_weight_matrix(self):
        with pytest.raises(ShapeError, match="do not chain"):
            GcnModel(GcnConfig(window=3, hidden=(), epochs=1), ("a",), [], UNIT, (UNIT,))

    def test_activation_count_must_match(self):
        # The config's layers, one activation each, fix the number of weights.
        with pytest.raises(ShapeError, match="do not chain"):
            GcnModel(GcnConfig(window=3, hidden=(), epochs=1), ("a",),
                     [np.zeros((3, 1)), np.zeros((1, 1))], UNIT, (UNIT,))

    def test_hidden_widths_come_from_the_config(self):
        with pytest.raises(ShapeError, match="do not chain"):
            GcnModel(GcnConfig(window=3, hidden=(4,), epochs=1), ("a",),
                     [np.zeros((3, 2)), np.zeros((2, 1))], UNIT, (UNIT,))

    def test_target_scaler_count_must_match_nodes(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(window=3, hidden=(), epochs=1), ("a", "b"),
                     [np.zeros((3, 1))], UNIT, (UNIT,))

    def test_window_lower_bound(self):
        with pytest.raises(ValidationError):
            GcnConfig(window=1)
