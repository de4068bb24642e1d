"""Resource predictor tests.

Forward propagation is checked against a dense loop-based reference built
straight from the layer rule act(A_hat H W), and the analytic gradients
against central finite differences. Structural properties (permutation
equivariance, regular-graph normalization) guard the adjacency handling.
The fit runs in float64; its kernel and training are held to the oracles in
oracles.py.
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
    evaluate_gcn,
    normalize_adjacency,
    predict_resource,
    scale_targets,
    train_gcn,
)
from graph_phpa.tensor import BLOCK, MinMaxScaler, Rng
from conftest import gcn_forward, traced_peak
from oracles import (
    assert_bitwise_equal,
    finite_diff_gradient,
    gcn_activations,
    gcn_forward_oracle,
    gcn_forward_scaled_oracle,
    gcn_loss_and_grads_oracle,
    normalized_adjacency_oracle,
    rel_err,
    train_gcn_oracle,
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


def random_model(rng: Rng, graph: ServiceGraph, window: int,
                 hidden: tuple[int, ...]) -> GcnModel:
    config = GcnConfig(hidden=hidden, epochs=1)
    widths = config.widths(window)
    weights = [rng.normal(0.0, 0.5, (widths[i], widths[i + 1]))
               for i in range(len(widths) - 1)]
    return GcnModel(config, graph, weights, UNIT, (UNIT,) * graph.size)


def single(*nodes: str) -> ServiceGraph:
    """Nodes without an edge: a_hat is the identity."""
    return ServiceGraph.from_edges(nodes, [])


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
            model = random_model(rng.child(trial, 2), graph, 3, hidden)
            x = rng.uniform(-1.0, 1.0, (1, n, 3))
            expected = gcn_forward_oracle(graph.adjacency.tolist(),
                                          [w.tolist() for w in model.weights],
                                          gcn_activations(hidden), x[0].tolist())
            out = gcn_forward(model, x)
            assert out.shape == (1, n, 1)
            np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_identity_single_node_linear(self):
        # One isolated node: a_hat is [[1]], so output is x @ w exactly.
        model = random_model(Rng(5), single("solo"), 4, ())
        x = np.array([[[0.2, -0.3, 0.5, 0.1]]])
        np.testing.assert_allclose(gcn_forward(model, x), x @ model.weights[0],
                                   atol=1e-15)

    def test_relu_zeroes_negative_preactivations(self):
        config = GcnConfig(hidden=(1,), epochs=1)
        model = GcnModel(config, single("solo"),
                         [np.array([[1.0], [0.0]]), np.array([[1.0]])], UNIT, (UNIT,))
        assert gcn_forward(model, np.array([[[-3.0, 9.9]]]))[0, 0, 0] == 0.0
        assert gcn_forward(model, np.array([[[2.0, 9.9]]]))[0, 0, 0] == 2.0

    def test_permutation_equivariance(self):
        # Relabeling nodes permutes outputs the same way; weights are shared,
        # so the network cannot depend on node order.
        rng = Rng(23)
        graph = random_graph(rng, 5)
        model = random_model(rng.child(1), graph, 3, (4,))
        x = rng.uniform(-1.0, 1.0, (1, 5, 3))
        out = gcn_forward(model, x)

        perm = rng.permutation(5)
        nodes_p = tuple(graph.nodes[i] for i in perm)
        adj_p = graph.adjacency[np.ix_(perm, perm)]
        graph_p = ServiceGraph(nodes=nodes_p, adjacency=adj_p)
        model_p = GcnModel(model.config, graph_p, model.weights, UNIT, (UNIT,) * 5)
        out_p = gcn_forward(model_p, x[:, perm])
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)

    def test_neighbor_load_is_visible(self):
        # The defining behavior: a node with zero features still produces
        # output when its neighbor is loaded.
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        config = GcnConfig(hidden=(), epochs=1)
        model = GcnModel(config, graph, [np.array([[1.0], [1.0]])], UNIT, (UNIT, UNIT))
        x = np.array([[[3.0, 1.0], [0.0, 0.0]]])
        out = gcn_forward(model, x)
        assert out[0, 1, 0] == pytest.approx(0.5 * 4.0)  # got everything via a_hat

    def test_shape_mismatch_rejected(self):
        model = random_model(Rng(1), single("a"), 3, ())
        # The features must be a batch: one sample (N, k) goes in as (1, N, k).
        for features in (np.zeros((1, 1, 4)), np.zeros((1, 3)), np.zeros((2, 1, 1, 3))):
            with pytest.raises(ShapeError, match=r"expected \(S, 1, 3\)"):
                predict_resource(model, features)


class TestPredictResource:
    def test_applies_scalers_and_clamps(self):
        graph = single("solo")
        config = GcnConfig(hidden=(), epochs=1)
        # Weight sums the two scaled features; scalers map [0,10] onto [0,1].
        scaler = MinMaxScaler(0.0, 10.0, 0.0, 1.0)
        model = GcnModel(config, graph, [np.array([[1.0], [1.0]])], scaler, (scaler,))
        out = predict_resource(model, np.array([[[5.0, 5.0]]]))
        # scaled features 0.5+0.5 -> 1.0 -> inverse -> 10.0
        np.testing.assert_allclose(out, [[10.0]])

        negative = GcnModel(config, graph, [np.array([[-1.0], [-1.0]])],
                            scaler, (scaler,))
        np.testing.assert_array_equal(predict_resource(negative, np.array([[[5.0, 5.0]]])),
                                      [[0.0]])

    def test_matches_forward_plus_transforms(self):
        rng = Rng(29)
        graph = random_graph(rng, 4)
        model = random_model(rng.child(1), graph, 3, (4,))
        fs = MinMaxScaler(0.0, 300.0, 0.0, 1.0)
        ts = MinMaxScaler(0.0, 8.0, 0.0, 1.0)
        model.feature_scaler, model.target_scalers = fs, (ts,) * 4
        raw = rng.uniform(0.0, 300.0, (5, 4, 3))
        manual = ts.inverse_transform(gcn_forward(model, fs.transform(raw))[..., 0])
        np.testing.assert_allclose(predict_resource(model, raw),
                                   np.maximum(manual, 0.0), atol=1e-12)


class TestGradients:
    def test_gradcheck_small_network(self):
        rng = Rng(31)
        graph = random_graph(rng, 4)
        config = GcnConfig(hidden=(3,), epochs=1)
        widths = config.widths(3)
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
        model = random_model(rng.child(1), graph, 2, (2,))
        x = rng.uniform(0.0, 1.0, (5, 3, 2))
        y = rng.uniform(0.0, 1.0, (5, 3, 1))
        loss, _ = loss_and_grads(model.weights, graph.a_hat, x, y)
        per_sample = np.array([gcn_forward(model, x[i:i + 1])[0] for i in range(len(x))])
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
        model = random_model(rng.child(1), graph, window, tuple(hidden))
        x = rng.uniform(0.0, 1.0, (batch, n, window))
        y = rng.uniform(0.0, 1.0, (batch, n, 1))
        want_out, _ = gcn_forward_scaled_oracle(model.weights, gcn_activations(hidden),
                                                graph.a_hat, x)
        assert_bitwise_equal(gcn_forward(model, x), want_out)
        assert_bitwise_equal(gcn_forward(model, x[:1]), want_out[:1])

        want_loss, want_grads = gcn_loss_and_grads_oracle(model.weights, gcn_activations(hidden),
                                                          graph.a_hat, x, y)
        loss, grads = loss_and_grads(model.weights, graph.a_hat, x, y)
        assert_bitwise_equal(loss, want_loss)
        for got, want in zip(grads, want_grads):
            assert close(got, want, 1e-12)

    @given(samples=st.sampled_from((1, 3, 40, 257, 300)),
           batch_size=st.sampled_from(BATCHES + (64,)), **kernel_cases)
    # Draws on which a float32 fit ended more than 1e-5 from its float32
    # oracle: Adam carried the rounding of the fit's sums into its weights.
    @example(n=2, hidden=[38, 12], window=2, seed=4, samples=300, batch_size=1)
    @example(n=2, hidden=[35, 15], window=2, seed=12, samples=257, batch_size=2)
    @example(n=4, hidden=[23, 30], window=2, seed=23, samples=300, batch_size=1)
    @example(n=3, hidden=[24, 24], window=2, seed=373, samples=257, batch_size=1)
    @example(n=2, hidden=[22, 17], window=3, seed=14698, samples=300, batch_size=1)
    @example(n=2, hidden=[27, 22], window=3, seed=62351, samples=300, batch_size=1)
    @settings(max_examples=25, deadline=None)
    def test_training_matches_oracle_and_repeats(self, n, hidden, window, seed, samples,
                                                 batch_size):
        # Sample counts include ones that are no multiple of the batch size
        # and ones below it, so the last batch is short or the only one.
        rng = Rng(seed)
        graph = random_graph(rng, n)
        train = (rng.uniform(0.0, 50.0, (samples, n, window)),
                 rng.uniform(0.0, 4.0, (samples, n, 1)))
        config = GcnConfig(hidden=tuple(hidden), learning_rate=0.01,
                           epochs=3, batch_size=batch_size, seed=seed)
        model, history = train_gcn(train, graph, config)
        want_weights, want_history = train_gcn_oracle(train, graph, config)
        for got, want in zip(model.weights, want_weights):
            assert close(got, want, 1e-10)
        assert close(history, want_history, 1e-10)

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
        model = random_model(rng.child(1), graph, 10, hidden)
        x = rng.uniform(0.0, 1.0, (samples, 4, 10))
        want, _ = gcn_forward_scaled_oracle(model.weights, gcn_activations(hidden),
                                            graph.a_hat, x)
        assert_bitwise_equal(gcn_forward(model, x), want)

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
        config = GcnConfig(hidden=(6,), epochs=2, batch_size=batch_size, seed=3)
        valid = (x[train_samples:], y[train_samples:])
        model, _ = train_gcn((x[:train_samples], y[:train_samples]), graph, config)
        out, _ = gcn_forward_scaled_oracle(model.weights, gcn_activations(config.hidden),
                                           graph.a_hat, model.feature_scaler.transform(valid[0]))
        sq = (out - scale_targets(model.target_scalers, valid[1])) ** 2
        per_node = {node: float(np.mean(sq[:, i])) for i, node in enumerate(graph.nodes)}
        assert evaluate_gcn(model, valid) == (float(np.mean(sq)), per_node)

    def test_memory_is_bounded(self):
        # 5,000 samples of 4 nodes through 32 hidden units: the unblocked
        # forward held every layer's buffers for all samples and peaked at
        # 12 MB, and an evaluation at 13.6 MB. A prediction that scaled all
        # samples before the blocks peaked at 2.4 MB; it peaks at 0.94 MB.
        rng = Rng(8)
        graph = random_graph(rng, 4)
        model = random_model(rng.child(1), graph, 10, (32,))
        x = rng.uniform(0.0, 1.0, (5000, 4, 10))
        y = rng.uniform(0.0, 1.0, (5000, 4, 1))
        for name, run in (("predict_resource", lambda: predict_resource(model, x)),
                          ("evaluate_gcn", lambda: evaluate_gcn(model, (x, y)))):
            peak = traced_peak(run)
            assert peak < 3e6, f"{name} peaked at {peak / 1e6:.1f} MB"


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
        config = GcnConfig(hidden=(8,), learning_rate=0.02, epochs=200,
                           batch_size=64, seed=7)
        model, history = train_gcn((x, y), graph, config)
        assert history[-1] < 1e-3
        assert history[-1] < 0.1 * history[0]
        assert evaluate_gcn(model, (x, y))[0] < 2e-3

    def test_same_seed_bit_identical(self):
        rng = Rng(47)
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        x, y = self._toy_data(rng, graph, 3, 40)
        config = GcnConfig(hidden=(4,), epochs=3, seed=13)
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
        # Each Adam step moves a weight by about the learning rate, so after
        # one step six layers multiply to an output of about 1e35**6, whose
        # square overflows float64. The rate is one the config accepts
        # (below float32's 3.4e38); with one hidden layer its relu units die
        # and the fit stays finite.
        config = GcnConfig(hidden=(4,) * 5, learning_rate=1e35, epochs=30, seed=1)
        with pytest.raises(DivergenceError, match="diverged at epoch 1"):
            train_gcn((x, y), graph, config)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_mse_raises(self):
        rng = Rng(53)
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        x, y = self._toy_data(rng, graph, 3, 20)
        model, _ = train_gcn((x, y), graph, GcnConfig(hidden=(4,), epochs=1, seed=1))
        y = y.copy()
        y[5, 1, 0] = 1e308
        with pytest.raises(DivergenceError, match="not finite"):
            evaluate_gcn(model, (x, y))

    def test_shape_validation(self):
        graph = ServiceGraph.from_edges(["a", "b"], [("a", "b")])
        with pytest.raises(ShapeError):
            train_gcn((np.zeros((4, 3, 3)), np.zeros((4, 3, 1))), graph,
                      GcnConfig(epochs=1))
        with pytest.raises(ShapeError):
            train_gcn((np.zeros((4, 2, 3)), np.zeros((4, 2, 2))), graph,
                      GcnConfig(epochs=1))

    def test_empty_dataset(self):
        graph = ServiceGraph.from_edges(["a"], [])
        with pytest.raises(EmptyDatasetError):
            train_gcn((np.zeros((0, 1, 3)), np.zeros((0, 1, 1))), graph,
                      GcnConfig(epochs=1))

    def test_per_node_mse_averages_to_total(self):
        rng = Rng(59)
        graph = ServiceGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        x, y = self._toy_data(rng, graph, 3, 30)
        model, _ = train_gcn((x, y), graph, GcnConfig(hidden=(4,), epochs=2, seed=3))
        total, per_node = evaluate_gcn(model, (x, y))
        assert set(per_node) == {"a", "b", "c"}
        assert np.mean(list(per_node.values())) == pytest.approx(total, rel=1e-12)


BUNDLED_GRAPH = ServiceGraph.from_edges(
    ("productpage", "details", "reviews", "ratings"),
    [("productpage", "details"), ("productpage", "reviews"), ("reviews", "ratings")])


class TestPrecision:
    """The fit computes in float64, the precision the model and the replay use."""

    def test_a_fit_runs_in_float64(self):
        rng = Rng(67)
        x = rng.uniform(0.0, 50.0, (300, 4, 5))
        y = rng.uniform(0.0, 4.0, (300, 4, 1))
        config = GcnConfig(hidden=(6,), epochs=2, batch_size=64, seed=5)
        model, history = train_gcn((x, y), BUNDLED_GRAPH, config)
        assert all(type(v) is float for v in history)
        for w in model.weights:
            assert w.dtype == np.float64
            # A float32 fit would leave only weights that float32 holds.
            assert not np.array_equal(w.astype(np.float32).astype(np.float64), w)
        assert predict_resource(model, x).dtype == np.float64

    def test_float32_inputs_fit_as_their_float64_widening(self):
        # Inputs given in float32 are widened before the fit, so they neither
        # choose the fit's precision nor change a bit of its result.
        rng = Rng(71)
        x = rng.uniform(0.0, 50.0, (120, 4, 5)).astype(np.float32)
        y = rng.uniform(0.0, 4.0, (120, 4, 1)).astype(np.float32)
        config = GcnConfig(hidden=(6,), epochs=2, batch_size=32, seed=5)
        model, history = train_gcn((x, y), BUNDLED_GRAPH, config)
        want, want_history = train_gcn((x.astype(np.float64), y.astype(np.float64)),
                                       BUNDLED_GRAPH, config)
        assert history == want_history
        for got, w in zip(model.weights, want.weights, strict=True):
            assert got.dtype == np.float64
            assert_bitwise_equal(got, w)

    def test_fit_memory_is_bounded(self):
        # One epoch at the bundled shapes: 2,150 samples of 4 nodes and 10
        # features, 32 hidden units, batches of 256. It peaks at 1.80 MB: the
        # aggregated features, 0.69 MB, and the workspace, 0.90 MB, are most
        # of it. The bound sits just above that peak; a float32 fit peaked at
        # 0.93 MB.
        rng = Rng(9)
        x = rng.uniform(0.0, 400.0, (2150, 4, 10))
        y = rng.uniform(0.0, 4.0, (2150, 4, 1))
        config = GcnConfig(hidden=(32,), epochs=1, batch_size=256)
        peak = traced_peak(lambda: train_gcn((x, y), BUNDLED_GRAPH, config))
        assert peak < 1.85e6, f"the fit peaked at {peak / 1e6:.2f} MB"


class TestSerialization:
    @given(n=st.integers(1, 6), edges=st.lists(st.booleans(), min_size=15, max_size=15),
           hidden=st.lists(st.integers(1, 8), max_size=2), seed=st.integers(0, 2**16))
    @example(n=3, edges=[False] * 15, hidden=[4], seed=0)  # no edges: a_hat = I
    @settings(max_examples=25, deadline=None)
    def test_round_trip_keeps_the_graph_and_every_prediction(self, tmp_path_factory, n, edges,
                                                             hidden, seed):
        upper = iter(edges)
        nodes = tuple(f"s{i}" for i in range(n))
        graph = ServiceGraph.from_edges(nodes, [(nodes[i], nodes[j]) for i in range(n)
                                                for j in range(i + 1, n) if next(upper)])
        rng = Rng(seed)
        model = random_model(rng, graph, 3, tuple(hidden))
        model.feature_scaler = MinMaxScaler(1.0, 300.0, 0.0, 1.0)
        model.target_scalers = tuple(MinMaxScaler(0.5, 4.0 + i, 0.0, 1.0) for i in range(n))
        path = tmp_path_factory.mktemp("gcn") / "gcn.json"
        model.save(path)
        loaded = GcnModel.load(path)
        assert loaded.graph.nodes == nodes
        assert_bitwise_equal(loaded.graph.adjacency, graph.adjacency)
        assert_bitwise_equal(loaded.graph.a_hat, graph.a_hat)
        assert loaded.config == model.config and loaded.window == 3
        x = rng.uniform(0.0, 300.0, (7, n, 3))
        assert_bitwise_equal(predict_resource(loaded, x), predict_resource(model, x))

    def test_file_holds_the_graph_and_no_restated_fact(self):
        graph = ServiceGraph.from_edges(("a", "b", "c"), [("a", "c")])
        doc = random_model(Rng(61), graph, 3, (4,)).to_json_dict()
        assert doc["schema"] == "graph-phpa/gcn-model/v2"
        assert doc["nodes"] == ["a", "b", "c"]
        assert doc["adjacency"] == [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert "activations" not in doc and "window" not in doc["config"]

    @pytest.mark.parametrize("edit, error, message", [
        # v1 restated the activations and the window; v2 states each once.
        (lambda d: d.update(activations=["relu", "linear"]), ValidationError,
         "unknown key 'activations' in gcn model"),
        (lambda d: d["config"].update(window=3), ValidationError,
         "unknown key 'window' in config"),
        (lambda d: d.pop("adjacency"), ValidationError,
         "missing required key 'adjacency' in gcn model"),
        (lambda d: d["adjacency"][0].__setitem__(1, 0.0), ValidationError,
         "adjacency must be symmetric"),
        (lambda d: d.update(adjacency=[[1.0, 1.0], [1.0, 0.0]]), ValidationError,
         "adjacency must have a zero diagonal"),
        (lambda d: d.update(adjacency=[[0.0, 0.5], [0.5, 0.0]]), ValidationError,
         "adjacency entries must be 0 or 1"),
        (lambda d: d.update(adjacency=[[0.0]]), ShapeError,
         r"adjacency shape \(1, 1\) does not match 2 nodes"),
        (lambda d: d["adjacency"][1].__setitem__(0, True), ValidationError,
         "adjacency must be a rectangular array of finite float64 numbers"),
        (lambda d: d.update(nodes=["a", "a"]), ValidationError, "nodes must be unique"),
    ], ids=["activations", "config-window", "no-adjacency", "asymmetric", "self-loop",
            "half-edge", "other-shape", "bool-entry", "duplicate-node"])
    def test_rejects_a_bad_graph(self, edit, error, message):
        doc = random_model(Rng(61), ServiceGraph.from_edges(("a", "b"), [("a", "b")]),
                           3, (4,)).to_json_dict()
        edit(doc)
        with pytest.raises(error, match=message):
            GcnModel.from_json_dict(doc)

    @pytest.mark.parametrize("schema", ["graph-phpa/gcn-model/v1", "nope"])
    def test_rejects_another_schema(self, schema):
        with pytest.raises(ValidationError, match=f"schema must be 'graph-phpa/gcn-model/v2', "
                                                  f"got '{schema}'"):
            GcnModel.from_json_dict({"schema": schema})

    def test_file_is_byte_stable(self, tmp_path):
        rng = Rng(67)
        graph = random_graph(rng, 2)
        model = random_model(rng.child(1), graph, 3, ())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()


class TestModelValidation:
    def test_weight_chain_mismatch(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(hidden=(4,), epochs=1), single("a"),
                     [np.zeros((3, 4)), np.zeros((5, 1))], UNIT, (UNIT,))

    def test_window_is_the_first_weights_rows(self):
        model = GcnModel(GcnConfig(hidden=(4,), epochs=1), single("a"),
                         [np.zeros((7, 4)), np.zeros((4, 1))], UNIT, (UNIT,))
        assert model.window == 7
        with pytest.raises(ShapeError, match=r"expected \(S, 1, 7\)"):
            predict_resource(model, np.zeros((1, 1, 3)))

    def test_last_weight_must_be_single_output(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(hidden=(), epochs=1), single("a"),
                     [np.zeros((3, 2))], UNIT, (UNIT,))

    def test_needs_a_weight_matrix(self):
        with pytest.raises(ShapeError, match="do not chain"):
            GcnModel(GcnConfig(hidden=(), epochs=1), single("a"), [], UNIT, (UNIT,))

    def test_activation_count_must_match(self):
        # The config's layers, one activation each, fix the number of weights.
        with pytest.raises(ShapeError, match="do not chain"):
            GcnModel(GcnConfig(hidden=(), epochs=1), single("a"),
                     [np.zeros((3, 1)), np.zeros((1, 1))], UNIT, (UNIT,))

    def test_hidden_widths_come_from_the_config(self):
        with pytest.raises(ShapeError, match="do not chain"):
            GcnModel(GcnConfig(hidden=(4,), epochs=1), single("a"),
                     [np.zeros((3, 2)), np.zeros((2, 1))], UNIT, (UNIT,))

    def test_target_scaler_count_must_match_nodes(self):
        with pytest.raises(ShapeError):
            GcnModel(GcnConfig(hidden=(), epochs=1), single("a", "b"),
                     [np.zeros((3, 1))], UNIT, (UNIT,))
