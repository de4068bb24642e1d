"""Workload forecaster tests.

The forward pass is checked against a plain-Python recurrence written from
the gate equations, and backpropagation-through-time against central finite
differences on every parameter. Neither reference shares code with the
implementation. Both run on float64 weights. The buffered kernel, the
blocked inference and training are also checked bit for bit against the
allocating implementation kept in oracles.py, in float32, the precision the
package fits and forecasts in, and in float64.
"""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_phpa import tensor
from graph_phpa.errors import DivergenceError, EmptyDatasetError, ShapeError, ValidationError
from graph_phpa.forecast_lstm import (
    DTYPE,
    GATES,
    LSTM_SCHEMA,
    LstmConfig,
    LstmModel,
    _gate_affine,
    _init_params,
    _loss_and_grads,
    _workspace,
    evaluate,
    forecast_services,
    make_windows,
    train_lstm,
)
from graph_phpa.tensor import MinMaxScaler, Rng, glorot_init
from conftest import (counting_forwards, evaluate_lstm, forecast_rates, predict_windows,
                      traced_peak)
from oracles import (assert_bitwise_equal, finite_diff_gradient, lstm_forward_oracle,
                     lstm_forward_scaled_oracle, lstm_loss_and_grads_oracle, rel_err,
                     train_lstm_oracle)

IDENTITY = MinMaxScaler(-1.0, 1.0, -1.0, 1.0)
# The kernels' dtypes: the package's own, and float64 for the references.
DTYPES = [pytest.param(np.float32, id="float32"), pytest.param(np.float64, id="float64")]


def forecast_one(model: LstmModel, window) -> float:
    """One-step forecast for a single raw window, as a batch of one."""
    return float(predict_windows(model, np.asarray(window, dtype=np.float64)[None, :])[0])


def random_model(rng: Rng, hidden: int, k: int,
                 scaler: MinMaxScaler = IDENTITY, dtype=np.float64) -> LstmModel:
    """Random weights forecasting one service, "s", under scaler."""
    config = LstmConfig(window=k, hidden_units=hidden, epochs=1)
    w_x = np.hstack([rng.normal(0.0, 0.4, (1, hidden)) for _ in GATES])
    w_h = np.hstack([rng.normal(0.0, 0.4, (hidden, hidden)) for _ in GATES])
    b = np.hstack([rng.normal(0.0, 0.1, (hidden,)) for _ in GATES])
    head_w = rng.normal(0.0, 0.4, (hidden, 1))
    head_b = float(rng.normal(0.0, 0.1, (1,))[0])
    return LstmModel(config, w_x, w_h, b, head_w, head_b, {"s": scaler}, "s", dtype=dtype)


def with_scalers(model: LstmModel, **scalers: tuple[float, float]) -> LstmModel:
    """model's weights, the same arrays, under a MinMaxScaler(lo, hi) per
    named service; the first one is fitted_on."""
    return LstmModel.from_params(model.config, model.params,
                                 {s: MinMaxScaler(*lo_hi) for s, lo_hi in scalers.items()},
                                 next(iter(scalers)))


def per_gate(fused: np.ndarray) -> dict:
    """Slice a fused (..., 4H) tensor back into its GATES column blocks."""
    return {g: block.tolist() for g, block in zip(GATES, np.split(fused, 4, axis=-1))}


def as_oracle_params(model: LstmModel):
    layer = {"w": per_gate(model.w_x), "u": per_gate(model.w_h), "b": per_gate(model.b)}
    return layer, model.head_w[:, 0].tolist(), model.head_b


class TestForwardAgainstOracle:
    def test_single_layer_matches_loop_recurrence(self):
        rng = Rng(7)
        for trial in range(20):
            k = int(rng.integers(2, 8))
            hidden = int(rng.integers(1, 6))
            model = random_model(rng.child(trial), hidden, k)
            window = rng.uniform(-1.0, 1.0, (k,))
            expected = lstm_forward_oracle(*as_oracle_params(model), window.tolist())
            assert forecast_one(model, window) == pytest.approx(expected, abs=1e-12)

    def test_zero_weights_leave_only_head_bias(self):
        # With every weight zero the hidden state never leaves zero, so the
        # output is tanh(head bias) regardless of the window contents.
        model = LstmModel(LstmConfig(window=3, hidden_units=4), np.zeros((1, 16)),
                          np.zeros((4, 16)), np.zeros(16), np.zeros((4, 1)), 0.7,
                          {"s": IDENTITY}, "s")
        assert forecast_one(model, [0.1, -0.9, 0.5]) == pytest.approx(math.tanh(0.7))
        assert forecast_one(model, [1.0, 1.0, 1.0]) == pytest.approx(math.tanh(0.7))

    def test_scaler_wraps_the_recurrence(self):
        # Raw units in, raw units out: the scaled-space value is tanh(bias),
        # mapped back through the target scaler.
        scaler = MinMaxScaler(0.0, 10.0, -0.8, 0.8)
        model = LstmModel(LstmConfig(window=2, hidden_units=2), np.zeros((1, 8)),
                          np.zeros((2, 8)), np.zeros(8), np.zeros((2, 1)), 0.3,
                          {"s": scaler}, "s")
        expected = scaler.inverse_transform(np.array([math.tanh(0.3)]))[0]
        assert forecast_one(model, [4.0, 6.0]) == pytest.approx(expected)

    def test_predict_windows_matches_scalar_forward(self):
        rng = Rng(31)
        model = random_model(rng, 4, 5, MinMaxScaler(0.0, 200.0))
        x = rng.uniform(0.0, 200.0, (9, 5))
        batched = predict_windows(model, x)
        singles = [forecast_one(model, row) for row in x]
        np.testing.assert_array_equal(batched, singles)


def loss_and_grads(params, x, y):
    """The buffered kernel on one batch, through a workspace sized for it."""
    n, k = x.shape
    config = LstmConfig(window=k, hidden_units=params[1].shape[0], batch_size=n)
    batch = _workspace(config, n, params[0].dtype)(n)
    batch.x[...] = x
    batch.y[...] = y
    grads = [np.full_like(p, np.nan) for p in params]
    return _loss_and_grads(params, batch, grads), grads


def gradcheck_params(model: LstmModel, x, y, eps=1e-5):
    """Yield (name, analytic, numeric) for every fused parameter tensor."""
    params = model.params
    _, grads = loss_and_grads(params, x, y)
    for i, name in enumerate(["w_x", "w_h", "b", "head_w", "head_b"]):
        def f(p, i=i):
            loss, _ = loss_and_grads(params[:i] + [p] + params[i + 1:], x, y)
            return loss
        yield name, grads[i], finite_diff_gradient(f, params[i], eps)


class TestBackpropAgainstFiniteDifferences:
    def test_single_layer_gradcheck(self):
        rng = Rng(101)
        model = random_model(rng, 3, 4)
        x = rng.uniform(-0.8, 0.8, (5, 4))
        y = rng.uniform(-0.8, 0.8, (5,))
        for name, analytic, numeric in gradcheck_params(model, x, y):
            err = rel_err(np.asarray(analytic).tolist(), numeric.tolist())
            assert err < 1e-4, f"{name}: rel err {err:.3e}"

    def test_loss_is_mean_squared_error(self):
        rng = Rng(107)
        model = random_model(rng, 3, 4)
        x = rng.uniform(-0.8, 0.8, (6, 4))
        y = rng.uniform(-0.8, 0.8, (6,))
        loss, _ = loss_and_grads(model.params, x, y)
        preds = np.array([forecast_one(model, row) for row in x])
        assert loss == pytest.approx(float(np.mean((preds - y) ** 2)), abs=1e-12)


def random_params(rng: np.random.Generator, hidden: int, dtype=np.float64) -> list[np.ndarray]:
    """Fused parameters in LstmModel.params order, some entries exactly zero."""
    config = LstmConfig(window=1, hidden_units=hidden)
    params = [rng.normal(0.0, 0.5, p.shape) for p in _init_params(config, Rng(0))]
    for p in params:
        p[rng.random(p.shape) < 0.05] = 0.0
    return [p.astype(dtype) for p in params]


def scaled_windows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Scaled inputs in [-0.8, 0.8], with exact zeros of both signs mixed in."""
    x = rng.uniform(-0.8, 0.8, (n, k))
    x[rng.random((n, k)) < 0.05] = 0.0
    x[rng.random((n, k)) < 0.05] = -0.0
    return x


class TestBufferedKernelAgainstOracle:
    """The buffered kernel rounds exactly like the allocating one in oracles.py."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 9), k=st.integers(1, 6),
           batch_size=st.integers(1, 24), rows=st.sampled_from(["below", "at", "above"]))
    def test_loss_and_every_gradient_match_bitwise(self, seed, hidden, k, batch_size, rows,
                                                    dtype):
        rng = np.random.default_rng(seed)
        n = {"below": max(1, batch_size // 2), "at": batch_size,
             "above": 2 * batch_size + 1 + int(rng.integers(0, batch_size))}[rows]
        params = random_params(rng, hidden, dtype)
        x, y = scaled_windows(rng, n, k), rng.uniform(-0.8, 0.8, n)
        config = LstmConfig(window=k, hidden_units=hidden, batch_size=batch_size)
        make_batch = _workspace(config, min(n, batch_size), dtype)
        grads = [np.empty_like(p) for p in params]
        for start in range(0, n, batch_size):  # the last batch may be a remainder
            xb, yb = x[start:start + batch_size], y[start:start + batch_size]
            batch = make_batch(len(xb))
            batch.x[...] = xb
            batch.y[...] = yb
            loss = _loss_and_grads(params, batch, grads)
            want_loss, want_grads = lstm_loss_and_grads_oracle(params, xb, yb)
            assert_bitwise_equal(loss, want_loss)
            for got, want in zip(grads, want_grads, strict=True):
                assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 7])
    def test_a_zero_head_keeps_the_oracles_signed_zeros(self, n, k, dtype):
        # With the head's weights exactly zero every forecast is tanh(0) = 0,
        # below every target, so dz is negative on every row and dz * 0 is
        # -0.0. The head's gradient dz @ head_w.T, every carry and every gate
        # gradient are zeros, and each weight gradient is a sum of them. The
        # oracle adds the head's gradient and the carries to zero rows, which
        # would turn a -0.0 into +0.0; the kernel takes them as they are.
        # Both give +0.0, because a matrix product sums from +0.0.
        rng = np.random.default_rng(k)
        params = random_params(rng, 4, dtype)
        params[3][...] = 0.0
        params[4][...] = 0.0
        x, y = scaled_windows(rng, n, k), np.full(n, 0.5)
        loss, grads = loss_and_grads(params, x, y)
        want_loss, want_grads = lstm_loss_and_grads_oracle(params, x, y)
        assert_bitwise_equal(loss, want_loss)
        for got, want in zip(grads, want_grads, strict=True):
            assert_bitwise_equal(got, want)
        assert not np.any(grads[0]) and not np.any(grads[1]) and not np.any(grads[2])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gate_affine_matches_the_sigmoid_blocks_alone(self, dtype):
        # The step adds the terms to whole gate rows and scales them, instead
        # of adding 1 and halving only the sigmoid blocks. On the candidate's
        # columns x + -0.0 and x * 1.0 must give x back, -0.0 included, and
        # the sigmoid columns must see the same two operations as before.
        hidden = 5
        rng = np.random.default_rng(3)
        edges = [0.0, -0.0, 1.0, -1.0, np.finfo(dtype).tiny, -np.finfo(dtype).smallest_subnormal]
        a = np.tanh(rng.uniform(-4.0, 4.0, (7, 4 * hidden))).astype(dtype)
        a[:len(edges)] = np.resize(np.array(edges, dtype), (4 * hidden,))
        want = a.copy()
        want[:, :3 * hidden] += 1.0
        want[:, :3 * hidden] *= 0.5
        scale, shift = _gate_affine(hidden, np.dtype(dtype))
        got = a + shift
        got *= scale
        assert got.dtype == dtype
        assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
           batch_size=st.integers(3, 20), rows=st.sampled_from(["below", "at", "above"]))
    def test_three_epochs_of_training_match_bitwise(self, seed, hidden, batch_size, rows,
                                                    dtype):
        rng = np.random.default_rng(seed)
        k = 4
        n = {"below": batch_size - 2, "at": batch_size, "above": 3 * batch_size + 2}[rows]
        values = 50.0 + 20.0 * np.sin(np.arange(n + k + 8) / 5.0) + rng.normal(0, 2, n + k + 8)
        x, y = make_windows(values, k)
        train, valid = (x[:n], y[:n]), (x[n:], y[n:])
        config = LstmConfig(window=k, hidden_units=hidden, epochs=3, batch_size=batch_size,
                            seed=seed)
        # The first n + k values are the series of the first n windows.
        model, history = train_lstm({"s": values[:n + k]}, "s", config, dtype)
        want_params, want_history = train_lstm_oracle(train, config, dtype)
        assert history == want_history
        for got, want in zip(model.params, want_params, strict=True):
            assert_bitwise_equal(got, want)
        # Held-out windows score through the oracle's forward to the same bits.
        scaler = model.scalers["s"]
        yhat, _ = lstm_forward_scaled_oracle(want_params, scaler.transform(valid[0]))
        want_mse = float(np.mean((yhat - scaler.transform(valid[1])) ** 2))
        assert evaluate_lstm(model, valid) == want_mse


BLOCK = tensor.BLOCK
# One and two rows, and every block boundary with tails of 1-7 rows.
BLOCK_ROWS = sorted({1, 2} | {j * BLOCK + r for j in (1, 2, 3) for r in range(-1, 8)})


class TestBlockedInference:
    """forecast_services walks rows in blocks yet equals one unblocked forward."""

    # Ids name the weights' seed; plain ids run the package's dtype, and
    # float64 is the reference precision.
    @pytest.mark.parametrize("seed, dtype", [
        pytest.param(1, DTYPE, id="1"), pytest.param(2, DTYPE, id="2"),
        pytest.param(1, np.float64, id="1-float64"), pytest.param(2, np.float64, id="2-float64")])
    def test_equals_the_unblocked_oracle_at_every_boundary(self, seed, dtype):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 50, dtype)
        scaler = MinMaxScaler(0.0, 400.0)
        model = LstmModel.from_params(LstmConfig(window=10, hidden_units=50), params,
                                      {"s": scaler}, "s")
        x = rng.uniform(0.0, 400.0, (max(BLOCK_ROWS), 10))
        for n in BLOCK_ROWS:
            want, _ = lstm_forward_scaled_oracle(params, scaler.transform(x[:n]))
            assert_bitwise_equal(predict_windows(model, x[:n]),
                                 scaler.inverse_transform(want))

    def test_no_block_is_small(self):
        for n in BLOCK_ROWS:
            sizes = [hi - lo for lo, hi in tensor.blocks(n)]
            assert sum(sizes) == n
            assert max(sizes) <= BLOCK
            assert max(sizes) - min(sizes) <= 1
            if n > BLOCK:
                assert min(sizes) >= BLOCK // 2

    def test_long_forecast_memory_is_bounded(self):
        # One train-resource segment of the bundled config: 2,160 windows of
        # 10 minutes through 50 hidden units, in float32. It peaks at about
        # 1.45 MB (2.4 MB in float64). The oracle's unblocked float64
        # forward, which holds every row's hidden sequence, peaks at about
        # 22 MB here.
        model = random_model(Rng(3), 50, 10, MinMaxScaler(0.0, 400.0), dtype=DTYPE)
        values = Rng(4).uniform(0.0, 400.0, (2170,))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            forecast_rates(model, make_windows(values, 10)[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6, f"the forecast peaked at {peak / 1e6:.2f} MB"


class TestSharedForward:
    """forecast_services shares a forward only between services whose scaled
    windows are equal; each service's forecasts are those of its own forward."""

    def check(self, monkeypatch, model, services, windows, forwards):
        want = [predict_windows(model, x, s) for s, x in zip(services, windows)]
        rows = counting_forwards(monkeypatch)
        got = forecast_services(model, services, windows, "original")
        assert len(rows) == forwards
        for g, w in zip(got, want, strict=True):
            assert_bitwise_equal(g, w)

    def test_one_fit_under_proportional_scalers_shares(self, monkeypatch):
        model = with_scalers(random_model(Rng(5), 6, 4, dtype=DTYPE),
                             a=(0.0, 100.0), b=(0.0, 50.0), c=(0.0, 200.0))
        x = Rng(6).uniform(0.0, 100.0, (30, 4))
        self.check(monkeypatch, model, ["a", "b", "c"], [x, x / 2, x * 2], 1)

    def test_unequal_windows_or_row_counts_never_share(self, monkeypatch):
        model = with_scalers(random_model(Rng(5), 6, 4, dtype=DTYPE),
                             a=(0.0, 100.0), b=(0.0, 50.0))
        x = Rng(6).uniform(0.0, 100.0, (30, 4))
        # x under b's scaler, one row fewer and one window moved by one rate
        # each scale to other windows; x / 2 under b's scaler is a's x again.
        moved = x.copy()
        moved[7, 2] += 1.0
        self.check(monkeypatch, model, ["a", "b", "a", "a", "b"],
                   [x, x, x[1:], moved, x / 2], 4)

    def test_a_degenerate_scaler_shares_only_with_an_equal_array(self, monkeypatch):
        model = with_scalers(random_model(Rng(5), 6, 4, dtype=DTYPE),
                             flat=(25.0, 25.0), m=(0.0, 100.0), seven=(7.0, 7.0))
        x = Rng(6).uniform(0.0, 100.0, (30, 4))
        mid = np.full_like(x, 50.0)  # at the midpoint of the (0, 100) scaler
        assert np.array_equal(model.scalers["m"].transform(mid),
                              model.scalers["flat"].transform(x))
        # The constant scaler's windows all scale to 0.0: they match the
        # midpoint windows of the same shape, and neither x nor fewer rows.
        self.check(monkeypatch, model, ["flat", "m", "m", "seven", "flat"],
                   [x, x, mid, x, x[:3]], 3)
        assert np.all(forecast_services(model, ["flat"], [x], "original")[0] == 25.0)

    def test_rates_clamp_each_service_at_zero(self):
        model = with_scalers(random_model(Rng(5), 6, 4, dtype=DTYPE),
                             m=(0.0, 100.0), shifted=(-200.0, -100.0))
        x = Rng(6).uniform(0.0, 100.0, (30, 4))
        rates = forecast_services(model, ["m", "shifted"], [x, x - 200.0])
        assert_bitwise_equal(rates[0], forecast_rates(model, x))
        assert np.all(rates[1] == 0.0)
        with pytest.raises(ValueError, match="units"):
            forecast_services(model, ["m"], [x], "rps")

    def test_a_service_without_a_scaler_is_named(self, monkeypatch):
        model = with_scalers(random_model(Rng(5), 6, 4, dtype=DTYPE), m=(0.0, 100.0))
        x = Rng(6).uniform(0.0, 100.0, (30, 4))
        rows = counting_forwards(monkeypatch)
        for units in ("scaled", "original", "rates"):
            with pytest.raises(ValidationError, match="no scaler for service 'ghost'"):
                forecast_services(model, ["m", "ghost"], [x, x], units)
        assert rows == []  # rejected before any forward runs


class TestMakeWindows:
    def test_enumerates_every_window(self):
        x, y = make_windows(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        np.testing.assert_array_equal(x, [[1, 2], [2, 3], [3, 4]])
        np.testing.assert_array_equal(y, [3, 4, 5])

    @given(n=st.integers(3, 60), k=st.integers(1, 20))
    def test_window_count_is_length_minus_k(self, n, k):
        values = np.arange(float(n))
        if n < k + 1:
            with pytest.raises(EmptyDatasetError):
                make_windows(values, k)
            return
        x, y = make_windows(values, k)
        assert x.shape == (n - k, k)
        assert y.shape == (n - k,)
        # Ramp input makes alignment fully checkable: window j starts at j.
        np.testing.assert_array_equal(x[:, 0], np.arange(n - k))
        np.testing.assert_array_equal(y, np.arange(k, n))

    def test_rejects_bad_window_size(self):
        with pytest.raises(ValidationError):
            make_windows(np.arange(10.0), 0)

    def test_too_short_series_is_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            make_windows(np.array([1.0, 2.0]), 2)


class TestTraining:
    def test_workspace_memory_is_bounded(self):
        # One epoch at the bundled shapes: 2,150 windows of 10 minutes, 50
        # hidden units, batches of 64. In float32 it peaks at about 1.76 MB,
        # about 1.2 MB of it the workspace (3.40 MB in float64); a (k, n, H)
        # head-gradient buffer took the float32 peak to 1.88 MB, and a
        # separate (k, n, H) forget-gate buffer the float64 peak to 3.9 MB.
        config = LstmConfig(window=10, hidden_units=50, batch_size=64, epochs=1)
        series = {"s": Rng(4).uniform(0.0, 400.0, (2160,))}
        peak = traced_peak(lambda: train_lstm(series, "s", config))
        assert peak < 1.85e6, f"the fit peaked at {peak / 1e6:.2f} MB"

    def test_constant_series_predicts_the_constant_exactly(self):
        # A constant target degenerates the scaler, whose inverse pins every
        # prediction to the constant no matter what the network emits.
        values = np.full(40, 25.0)
        config = LstmConfig(window=4, hidden_units=3, epochs=1, seed=5)
        model, _ = train_lstm({"s": values}, "s", config)
        assert forecast_one(model, values[:4]) == 25.0

    def test_learns_a_sine_wave(self):
        t = np.arange(240.0)
        values = 100.0 + 50.0 * np.sin(2.0 * np.pi * t / 48.0)
        x, y = make_windows(values, 6)
        config = LstmConfig(window=6, hidden_units=8, epochs=120, batch_size=64, seed=3)
        model, history = train_lstm({"s": values}, "s", config)
        first = history[0]
        last = history[-1]
        assert last < 1e-3
        assert last < 0.1 * first
        # And the unscaled prediction tracks the series reasonably.
        preds = predict_windows(model, x)
        mse, _ = evaluate(preds, y)
        assert mse < 25.0  # vs target variance of ~1250

    def test_same_seed_is_bit_identical(self):
        values = 10.0 + np.arange(60.0) % 7
        config = LstmConfig(window=3, hidden_units=4, epochs=3, seed=11)
        model_a, hist_a = train_lstm({"s": values}, "s", config)
        model_b, hist_b = train_lstm({"s": values}, "s", config)
        assert hist_a == hist_b
        for pa, pb in zip(model_a.params, model_b.params, strict=True):
            np.testing.assert_array_equal(pa, pb)

    def test_initial_weights_fuse_the_per_gate_draws(self):
        # Fused blocks are the per-gate Glorot draws in GATES order, so the
        # layout change leaves every initial weight bit-identical.
        config = LstmConfig(window=3, hidden_units=4, seed=13)
        params = _init_params(config, Rng(13))
        rng = Rng(13)
        expected = [np.hstack([glorot_init(1, 4, rng) for _ in GATES]),
                    np.hstack([glorot_init(4, 4, rng) for _ in GATES]),
                    np.zeros(16), glorot_init(4, 1, rng), np.zeros(1)]
        for got, want in zip(params, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_different_seeds_differ(self):
        series = {"s": 10.0 + np.arange(60.0) % 7}
        model_a, _ = train_lstm(series, "s", LstmConfig(window=3, hidden_units=4, epochs=1, seed=1))
        model_b, _ = train_lstm(series, "s", LstmConfig(window=3, hidden_units=4, epochs=1, seed=2))
        assert not np.array_equal(model_a.head_w, model_b.head_w)

    def test_training_loss_is_tracked(self):
        _, history = train_lstm({"s": np.arange(33.0)}, "s",
                                LstmConfig(window=3, hidden_units=3, epochs=2, seed=1))
        assert len(history) == 2
        assert all(type(v) is float and v >= 0.0 for v in history)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_mse_raises(self):
        x, _ = make_windows(np.arange(50.0), 3)
        model, _ = train_lstm({"s": np.arange(50.0)}, "s",
                              LstmConfig(window=3, hidden_units=3, epochs=1, seed=1))
        with pytest.raises(DivergenceError, match="not finite"):
            evaluate_lstm(model, (x[:4], np.array([1.0, 2.0, 1e308, 3.0])))

    def test_empty_training_set_raises(self):
        # A series of k values has no window, the fitted one or another.
        for series in ({"s": np.arange(3.0)}, {"s": np.arange(9.0), "t": np.arange(3.0)}):
            with pytest.raises(EmptyDatasetError, match="series length 3 yields no windows"):
                train_lstm(series, "s", LstmConfig(window=3))

    def test_fitted_on_without_a_series_is_named(self):
        with pytest.raises(ValidationError, match="fitted_on 'front' has no training series"):
            train_lstm({"back": np.arange(30.0)}, "front", LstmConfig(window=4))

    def test_each_service_scales_by_its_own_targets_over_the_fitted_weights(self):
        # The weights are those of a fit on the fitted service alone, bit for
        # bit; each scaler is fitted on its own service's training targets.
        rng = Rng(8)
        series = {"back": rng.uniform(0.0, 40.0, (60,)), "front": rng.uniform(0.0, 90.0, (60,))}
        config = LstmConfig(window=4, hidden_units=3, epochs=2, seed=6)
        model, history = train_lstm(series, "front", config)
        alone, alone_history = train_lstm({"front": series["front"]}, "front", config)
        assert history == alone_history
        assert model.fitted_on == "front" and list(model.scalers) == ["back", "front"]
        for got, want in zip(model.params, alone.params, strict=True):
            assert_bitwise_equal(got, want)
        for service, values in series.items():
            assert model.scalers[service] == MinMaxScaler.fit(make_windows(values, 4)[1])


class TestPrecision:
    """The package forecasts in float32; the float64 kernel is the reference."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_float32_forecasts_agree_with_float64(self, seed):
        # The same weights, rounded to float32, forecast 2,150 windows within
        # 5e-6 of the float64 kernel in scaled units, where forecasts span
        # [-0.8, 0.8]; the worst was 5.9e-7 (seed 1) and 5.1e-8 (seed 2).
        rng = np.random.default_rng(seed)
        params = random_params(rng, 50)
        scaler = MinMaxScaler(0.0, 400.0)
        config = LstmConfig(window=10, hidden_units=50)
        x = rng.uniform(0.0, 400.0, (2150, 10))
        wide = predict_windows(LstmModel.from_params(config, params, {"s": scaler}, "s"), x)
        single = predict_windows(LstmModel.from_params(
            config, [p.astype(np.float32) for p in params], {"s": scaler}, "s"), x)
        assert single.dtype == wide.dtype == np.float64
        worst = float(np.max(np.abs(scaler.transform(single) - scaler.transform(wide))))
        assert worst < 5e-6, f"float32 forecasts differ by up to {worst:.2e}"

    def test_a_fit_runs_in_float32(self):
        values = 50.0 + 20.0 * np.sin(np.arange(80.0) / 5.0)
        x, _ = make_windows(values, 4)
        model, history = train_lstm({"s": values}, "s",
                                    LstmConfig(window=4, hidden_units=3, epochs=2))
        assert DTYPE == np.float32
        assert {p.dtype for p in model.params} == {np.dtype(np.float32)}
        assert all(type(v) is float for v in history)
        assert predict_windows(model, x).dtype == np.float64


class TestForecastSeries:
    def test_too_short_raises(self):
        # A series no longer than the model's window yields no forecast.
        model = random_model(Rng(1), 2, 5)
        with pytest.raises(EmptyDatasetError):
            forecast_rates(model, make_windows(np.arange(5.0), model.config.window)[0])


class TestForecastRates:
    def test_alignment_with_make_windows(self):
        # Forecast i is for index i + k, from the k values before it: the
        # forecasts train_resource feeds the graph predictor.
        rng = Rng(41)
        model = random_model(rng, 3, 4, MinMaxScaler(0.0, 100.0))
        values = rng.uniform(0.0, 100.0, (15,))
        out = forecast_rates(model, make_windows(values, 4)[0])
        assert out.shape == (11,)
        for j in range(4, 15):
            assert out[j - 4] == pytest.approx(max(forecast_one(model, values[j - 4:j]), 0.0),
                                               abs=1e-12)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        # float32 weights are written as the float64 values they are, which
        # read back and cast to the same float32 bits.
        rng = Rng(53)
        model = with_scalers(random_model(rng, 3, 4, dtype=DTYPE),
                             details=(0.0, 50.0), ratings=(10.0, 20.0))
        path = tmp_path / "lstm.json"
        model.save(path)
        assert json.loads(path.read_text(encoding="utf-8"))["fitted_on"] == "details"
        loaded = LstmModel.load(path)
        assert (loaded.config, loaded.fitted_on) == (model.config, "details")
        assert loaded.scalers == model.scalers
        for got, want in zip(loaded.params, model.params, strict=True):
            assert got.dtype == DTYPE
            assert_bitwise_equal(got, want)
        window = rng.uniform(0.0, 50.0, (1, 4))
        for service in ("details", "ratings"):
            assert_bitwise_equal(predict_windows(loaded, window, service),
                                 predict_windows(model, window, service))

    def test_fitted_on_needs_a_scaler(self, tmp_path):
        model = with_scalers(random_model(Rng(9), 2, 3, dtype=DTYPE), s=(0.0, 1.0))
        with pytest.raises(ValidationError, match="fitted_on 'side' has no entry in scalers"):
            LstmModel(model.config, model.w_x, model.w_h, model.b, model.head_w, model.head_b,
                      model.scalers, "side")
        path = tmp_path / "lstm.json"
        model.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(doc, fitted_on="side")), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"{path}: fitted_on 'side' has no entry in "
                                                  f"scalers"):
            LstmModel.load(path)

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValidationError):
            LstmModel.from_json_dict({"schema": "something-else"})
        with pytest.raises(ValidationError):  # per-gate v1 files must be retrained
            LstmModel.from_json_dict({"schema": "graph-phpa/lstm-model/v1"})
        # One v2 file per service must be retrained into one shared file,
        # v3's float64 weights into float32 ones, and v4's list of layers
        # into v5's one layer.
        for old in ("graph-phpa/lstm-model/v2", "graph-phpa/lstm-model/v3",
                    "graph-phpa/lstm-model/v4"):
            with pytest.raises(ValidationError,
                               match=f"schema must be '{LSTM_SCHEMA}', got '{old}'"):
                LstmModel.from_json_dict({"schema": old})

    def test_weights_beyond_float32_are_rejected(self, tmp_path):
        model = random_model(Rng(9), 2, 3, dtype=DTYPE)
        path = tmp_path / "lstm.json"
        model.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["w_h"][0][0] = 1e39
        with pytest.raises(ValidationError, match="w_h must be a rectangular "
                                                  "array of finite float32 numbers"):
            LstmModel.from_json_dict(doc)

    def test_file_is_byte_stable(self, tmp_path):
        model = random_model(Rng(9), 2, 3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


class TestEvaluate:
    def test_hand_computed_values(self):
        mse, mae = evaluate([1.0, 2.0], [2.0, 4.0])
        assert mse == pytest.approx(2.5)
        assert mae == pytest.approx(1.5)
        mse, mae = evaluate([0.0], [3.0])
        assert mse == pytest.approx(9.0)
        assert mae == pytest.approx(3.0)

    def test_perfect_prediction_is_zero(self):
        assert evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([np.nan], [1.0])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    def test_mse_dominates_squared_mae_on_anything(self, truth):
        # Jensen: mean(e^2) >= mean(|e|)^2 for any error vector.
        preds = [v + 1.0 for v in truth]
        mse, mae = evaluate(preds, truth)
        assert mse >= mae ** 2 - 1e-9
