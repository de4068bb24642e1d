"""Substrate tests: optimizer arithmetic, numerics, scaling, seeding."""
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_phpa import tensor
from graph_phpa.errors import DivergenceError, ShapeError, ValidationError
from graph_phpa.tensor import (_NOISE_BLOCK, AdamState, MinMaxScaler, Rng,
                               _pcg64_first_outputs, _ziggurat_fast_path, _ziggurat_tables,
                               adam_step, blocks, ensure_finite, fit_adam, glorot_init,
                               keyed_normals, mix_seed)
from conftest import traced_peak
from oracles import (adam_step_oracle, assert_bitwise_equal, finite_diff_gradient,
                     fresh_normals_oracle, normal_after_output)


class TestAdam:
    def test_first_step_closed_form(self):
        # m_hat = g / |g| on step one, so the move is exactly lr / (1 + eps/|g|).
        state = AdamState.fresh(np.array([1.0]), learning_rate=0.01)
        p = np.array([1.0])
        adam_step(p, np.array([1.0]), state)
        assert abs(p[0] - 0.99) < 1e-9

    def test_first_step_is_lr_times_sign(self):
        rng = Rng(7)
        g = rng.normal(size=(3, 4))
        p0 = rng.normal(size=(3, 4))
        state = AdamState.fresh(p0, learning_rate=0.05)
        p1 = p0.copy()
        adam_step(p1, g, state)
        assert np.allclose(p1, p0 - 0.05 * np.sign(g), atol=1e-6)

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p, g1, g2 = 2.0, 0.5, -1.5
        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        p1 = p - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m2 = b1 * m + (1 - b1) * g2
        v2 = b2 * v + (1 - b2) * g2 * g2
        p2 = p1 - lr * (m2 / (1 - b1 ** 2)) / (math.sqrt(v2 / (1 - b2 ** 2)) + eps)

        state = AdamState.fresh(np.array([p]), learning_rate=lr)
        q = np.array([p])
        adam_step(q, np.array([g1]), state)
        assert abs(q[0] - p1) < 1e-12
        adam_step(q, np.array([g2]), state)
        assert abs(q[0] - p2) < 1e-12
        assert state.step == 2

    def test_updates_in_place(self):
        state = AdamState.fresh(np.zeros(2), learning_rate=0.01)
        param, moments = np.zeros(2), (state.first_moment, state.second_moment)
        assert adam_step(param, np.ones(2), state) is None
        assert state.step == 1
        assert (state.first_moment, state.second_moment) == moments  # same arrays
        assert np.all(param < 0) and np.all(state.first_moment > 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 4),
           shape=st.sampled_from([(1,), (3,), (2, 5), (7, 4)]),
           lr=st.floats(1e-4, 0.5))
    def test_matches_the_allocating_oracle_bitwise(self, seed, steps, shape, lr):
        rng = np.random.default_rng(seed)
        param = rng.normal(size=shape)
        state = AdamState.fresh(param, learning_rate=lr)
        ref_param, ref_state = param.copy(), AdamState.fresh(param, learning_rate=lr)
        for _ in range(steps):
            grad = rng.normal(size=shape) * rng.choice([0.0, 1e-6, 1.0, 1e3], size=shape)
            adam_step(param, grad, state)
            ref_param, ref_state = adam_step_oracle(ref_param, grad, ref_state)
            assert_bitwise_equal(param, ref_param)
            assert_bitwise_equal(state.first_moment, ref_state.first_moment)
            assert_bitwise_equal(state.second_moment, ref_state.second_moment)
            assert state.step == ref_state.step

    def test_shape_mismatch(self):
        state = AdamState.fresh(np.zeros(2), learning_rate=0.01)
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(3), state)


DTYPES = [pytest.param(np.float32, id="float32"), pytest.param(np.float64, id="float64")]


class LinearFit:
    """A least-squares fit of y = x @ w + b through fit_adam, recording the
    batch sizes it builds and the rows of every batch."""

    def __init__(self, rows: int, dtype, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.x = rng.uniform(-1.0, 1.0, (rows, 3)).astype(dtype)
        self.y = (self.x @ np.array([[0.5], [-1.0], [2.0]], dtype=dtype)
                  + rng.normal(0.0, 0.1, (rows, 1)).astype(dtype))
        self.init = [np.zeros((3, 1), dtype), np.zeros((1, 1), dtype)]
        self.built: list[int] = []
        self.batches: list[np.ndarray] = []

    def make_batch(self, m: int):
        self.built.append(m)
        return np.empty((m, 3), self.x.dtype), np.empty((m, 1), self.x.dtype)

    def loss_and_grads(self, params, x, y, grads):
        w, b = params
        err = x @ w + b - y
        d_err = 2.0 * err / len(x)
        np.matmul(x.T, d_err, out=grads[0])
        np.sum(d_err, axis=0, keepdims=True, out=grads[1])
        return float(np.mean(err ** 2))

    def batch_loss(self, params, batch, idx, grads):
        self.batches.append(idx.copy())
        x, y = batch
        np.take(self.x, idx, axis=0, out=x)
        np.take(self.y, idx, axis=0, out=y)
        return self.loss_and_grads(params, x, y, grads)

    def fit(self, config, seed: int = 0):
        return fit_adam(self.init, len(self.x), config, Rng(seed), self.make_batch,
                        self.batch_loss, "linear")


def adam_config(batch_size: int, epochs: int = 3, learning_rate: float = 0.05):
    return SimpleNamespace(batch_size=batch_size, epochs=epochs, learning_rate=learning_rate)


class TestFitAdam:
    """The mini-batch Adam loop both models train with."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rows, sizes", [(5, [5]), (8, [8]), (8 * 3, [8]),
                                             (8 * 3 + 5, [5, 8])], ids=["below", "at",
                                                                       "multiple", "above"])
    def test_one_workspace_per_batch_size_and_a_plain_loops_bits(self, rows, sizes, dtype):
        fit = LinearFit(rows, dtype)
        params, history = fit.fit(adam_config(batch_size=8), seed=3)
        assert sorted(fit.built) == sizes
        # The same steps written out with the allocating Adam oracle: each
        # epoch visits the rows in an order drawn from the rng's child stream
        # 1, in batches of 8 and a remainder.
        shuffle, visited = Rng(3).child(1), iter(fit.batches)
        want = [p.copy() for p in fit.init]
        states = [AdamState.fresh(p, 0.05) for p in want]
        want_history = []
        for _ in range(3):
            order = shuffle.permutation(rows)
            sq_sum = 0.0
            for start in range(0, rows, 8):
                idx = order[start:start + 8]
                assert_bitwise_equal(next(visited), idx)
                grads = [np.empty_like(p) for p in want]
                sq_sum += fit.loss_and_grads(want, fit.x[idx], fit.y[idx], grads) * len(idx)
                for i in range(len(want)):
                    want[i], states[i] = adam_step_oracle(want[i], grads[i], states[i])
            want_history.append(sq_sum / rows)
        assert history == want_history and next(visited, None) is None
        for got, expected in zip(params, want, strict=True):
            assert got.dtype == dtype
            assert_bitwise_equal(got, expected)

    def test_a_non_finite_loss_raises_naming_its_epoch(self):
        fit = LinearFit(20, np.float32)
        batch_loss = fit.batch_loss

        def failing(params, batch, idx, grads):
            loss = batch_loss(params, batch, idx, grads)
            return math.nan if len(fit.batches) == 4 else loss  # epoch 1's second batch

        fit.batch_loss = failing
        with pytest.raises(DivergenceError, match="^training loss diverged at epoch 1$") as info:
            fit.fit(adam_config(batch_size=16))
        assert info.value.epoch == 1 and len(fit.batches) == 4

    def test_a_non_finite_adam_step_raises_naming_its_epoch(self, monkeypatch):
        # The first step of the second epoch leaves an infinite weight, as an
        # overflowing step would, while every loss stays finite.
        steps = []

        def overflowing(param, grad, state):
            steps.append(state.step)
            adam_step(param, grad, state)
            if len(steps) == 3:  # two batches of 16 and 4 rows per epoch
                param[0] = np.inf
                ensure_finite(param, "adam_step result")

        monkeypatch.setattr(tensor, "adam_step", overflowing)
        with pytest.raises(DivergenceError, match="^training diverged at epoch 1: an Adam "
                                                  "step left non-finite weights "
                                                  r"\(learning_rate 0.05\)$") as info:
            LinearFit(20, np.float32).fit(adam_config(batch_size=16))
        assert info.value.epoch == 1 and len(steps) == 3

    def test_an_overflowing_fit_raises_without_a_warning(self):
        # Steps of 1e38 overflow float32 within a few batches. The loop checks
        # the loss and the step itself, so numpy's overflow warnings, errors
        # under this suite's filterwarnings, stay silent.
        with pytest.raises(DivergenceError, match="diverged at epoch"):
            LinearFit(20, np.float32).fit(adam_config(batch_size=4, learning_rate=1e38))


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = finite_diff_gradient(lambda p: float(np.sum(p ** 2)), x, eps=1e-5)
        assert np.allclose(grad, 2 * x, atol=1e-8)

    def test_sine_gradient(self):
        x = np.linspace(-1, 1, 5)
        grad = finite_diff_gradient(lambda p: float(np.sum(np.sin(p))), x, eps=1e-6)
        assert np.allclose(grad, np.cos(x), atol=1e-8)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValidationError):
            finite_diff_gradient(lambda p: 0.0, np.zeros(1), eps=0.0)


class TestRngAndSeeds:
    def test_same_seed_same_draws(self):
        a = Rng(123).normal(size=10)
        b = Rng(123).normal(size=10)
        assert np.array_equal(a, b)

    def test_child_streams_are_stable_and_distinct(self):
        root = Rng(9)
        c1 = root.child(0).normal(size=4)
        c2 = root.child(1).normal(size=4)
        again = Rng(9).child(0).normal(size=4)
        assert np.array_equal(c1, again)
        assert not np.array_equal(c1, c2)

    def test_child_does_not_consume_parent_draws(self):
        a = Rng(5)
        a.child(3)
        b = Rng(5)
        assert np.array_equal(a.normal(size=3), b.normal(size=3))

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1, 2) != mix_seed(2, 1)

    @given(st.integers(0, 2 ** 63), st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
    @settings(max_examples=50)
    def test_mix_seed_in_64_bit_range(self, seed, s1, s2):
        out = mix_seed(seed, s1, s2)
        assert 0 <= out < 2 ** 64

    @given(st.integers(-2 ** 63, 2 ** 64 - 1),
           st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=20),
           st.integers(0, 2 ** 32))
    @example(0, [0, 1, 2 ** 63 - 1, -1], 0)
    @settings(max_examples=50)
    def test_array_mix_seed_matches_scalar(self, seed, minutes, service):
        out = mix_seed(seed, np.array(minutes, dtype=np.int64), service)
        assert out.dtype == np.uint64
        assert [int(v) for v in out] == [mix_seed(seed, m, service) for m in minutes]

    def test_array_mix_seed_broadcasts_streams(self):
        minutes = np.arange(5, dtype=np.uint64)
        services = np.array([[0], [3]], dtype=np.uint64)
        out = mix_seed(11, minutes, services)
        assert out.shape == (2, 5)
        assert [[int(v) for v in row] for row in out] == \
            [[mix_seed(11, m, s) for m in range(5)] for s in (0, 3)]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=30))
    @example([0])
    @example([1, 2 ** 32 - 1])        # one entropy word
    @example([2 ** 32, 2 ** 63])      # two entropy words
    @example([2 ** 64 - 1])
    # Seeds whose first output misses the ziggurat's fast path, found by
    # counting the outputs Rng(s).normal() reads: a layer-0 tail draw that
    # the tail test accepts and one it rejects, a layer-66 wedge draw
    # accepted and a layer-47 one rejected, and a layer-1 draw, which is
    # never fast.
    @example([3776761449563274206, 1])
    @example([11259580008222089428])
    @example([9307272605833099038, 5787139704452830716])
    @example([10613814958378008413, 2 ** 63])
    @settings(max_examples=60)
    def test_keyed_normals_match_fresh_generators(self, seeds):
        got = keyed_normals(np.array(seeds, dtype=np.uint64))
        want = np.array([Rng(s).normal() for s in seeds], dtype=np.float64)
        assert got.shape == (len(seeds),)
        assert keyed_normals(np.array(seeds, dtype=np.uint64)[None, :]).shape == \
            (1, len(seeds))
        # Bitwise, so a signed zero or a last-bit difference cannot hide.
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestBlocks:
    @given(size=st.sampled_from([1, 2, 3, 256, 4096]), n=st.integers(0, 20_000))
    @settings(max_examples=200)
    @example(size=256, n=257)  # the smallest a block gets past one: 129 and 128
    @example(size=3, n=4)
    @example(size=256, n=0)
    def test_even_blocks_of_at_most_size(self, size, n):
        ranges = list(blocks(n, size))
        assert len(ranges) == -(-n // size)
        assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(n))
        sizes = [hi - lo for lo, hi in ranges]
        if sizes:
            assert max(sizes) <= size
            assert max(sizes) - min(sizes) <= 1
        if n > size:
            assert min(sizes) >= -(-size // 2)


class TestBlockedKeyedNormals:
    """keyed_normals walks seeds in blocks yet equals fresh generators."""

    def test_every_block_boundary_matches_fresh_generators(self):
        # About 1.5% of the seeds leave the fast path, some in every block.
        seeds = mix_seed(11, np.arange(2 * _NOISE_BLOCK + 1, dtype=np.int64))
        want = fresh_normals_oracle(seeds)
        for n in (_NOISE_BLOCK - 1, _NOISE_BLOCK, _NOISE_BLOCK + 1, 2 * _NOISE_BLOCK + 1):
            assert_bitwise_equal(keyed_normals(seeds[:n]), want[:n])

    def test_memory_is_bounded(self):
        # 100k seeds: the unblocked pass held its uint64 temporaries over every
        # seed at once and peaked at 13.6 MB; blocks peak near 1.6 MB, the
        # 0.8 MB result included.
        seeds = mix_seed(5, np.arange(100_000, dtype=np.int64))
        keyed_normals(seeds[:1])  # the ziggurat tables are probed once per process
        peak = traced_peak(lambda: keyed_normals(seeds))
        assert peak < 4e6, f"keyed_normals peaked at {peak / 1e6:.1f} MB"


def output(idx: int, rabs: int, sign: int = 0) -> int:
    """The 64-bit output the ziggurat reads as layer idx, magnitude rabs and sign."""
    return idx | sign << 8 | rabs << 9


def fast_path(outputs) -> tuple[np.ndarray, np.ndarray]:
    return _ziggurat_fast_path(np.array(outputs, dtype=np.uint64))


class TestKeyedNormalKernel:
    """keyed_normals in its two halves: seeds to first PCG64 outputs, and
    outputs to normals through the ziggurat fast path, each against numpy."""

    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=30))
    @example([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
    @settings(max_examples=60)
    def test_first_outputs_match_random_raw(self, seeds):
        got = _pcg64_first_outputs(np.array(seeds, dtype=np.uint64))
        assert got.tolist() == [int(np.random.PCG64(s).random_raw()) for s in seeds]

    def test_every_layer_boundary(self):
        # For all 256 layers (0, 2, 3 and 255 included), rabs = ki - 1 draws
        # exactly numpy's normal from one output, and rabs = ki reads more.
        wi, ki = _ziggurat_tables()
        fast_ends = [output(i, int(k) - 1, i & 1) for i, k in enumerate(ki) if k > 0]
        z, accepted = fast_path(fast_ends)
        assert accepted.all()
        want = [normal_after_output(r) for r in fast_ends]
        assert [reads for _, reads in want] == [1] * len(fast_ends)
        assert_bitwise_equal(z, np.array([v for v, _ in want]))
        slow_starts = [output(i, int(k)) for i, k in enumerate(ki) if k < 2 ** 52]
        assert not fast_path(slow_starts)[1].any()
        assert all(normal_after_output(r)[1] > 1 for r in slow_starts)

    def test_zero_magnitude_with_sign_gives_positive_zero(self):
        z, accepted = fast_path([output(3, 0, sign=1)])
        v, reads = normal_after_output(output(3, 0, sign=1))
        assert accepted[0] and reads == 1
        assert z.view(np.uint64)[0] == np.float64(v).view(np.uint64) == 0

    @given(st.integers(0, 2 ** 52 - 1), st.integers(0, 1))
    @example(0, 0)
    @example(1, 1)
    @example(2 ** 52 - 1, 0)
    @settings(max_examples=40)
    def test_layer_one_is_never_fast(self, rabs, sign):
        assert _ziggurat_tables()[1][1] == 0
        assert not fast_path([output(1, rabs, sign)])[1][0]
        assert normal_after_output(output(1, rabs, sign))[1] > 1

    # Slow outputs found with normal_after_output, with the outputs each draw
    # reads: the tail test takes two more, a wedge test one, and a rejection
    # starts over with a fresh output.
    @pytest.mark.parametrize("r, reads", [
        (0x5EE7FADABF72BA00, 3),   # layer-0 tail, accepted
        (0x1F47FB3B9D99C700, 5),   # layer-0 tail, rejected once
        (0x3FD66014EDE93242, 2),   # layer-66 wedge, accepted
        (0x5FEA1C9E95B9A12F, 3),   # layer-47 wedge, rejected
    ])
    def test_tail_and_wedge_draws_leave_the_fast_path(self, r, reads):
        assert not fast_path([r])[1][0]
        assert normal_after_output(r)[1] == reads

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_random_outputs(self, outputs):
        z, accepted = fast_path(outputs)
        want = [normal_after_output(r) for r in outputs]
        assert accepted.tolist() == [reads == 1 for _, reads in want]
        for got, (v, reads) in zip(z.tolist(), want):
            if reads == 1:
                assert np.float64(got).view(np.uint64) == np.float64(v).view(np.uint64)


class TestGlorot:
    def test_bounds_and_determinism(self):
        w1 = glorot_init(30, 20, Rng(4))
        w2 = glorot_init(30, 20, Rng(4))
        limit = math.sqrt(6.0 / 50)
        assert np.array_equal(w1, w2)
        assert np.all(np.abs(w1) <= limit)
        assert w1.shape == (30, 20)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            glorot_init(0, 3, Rng(0))


class TestMinMaxScaler:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30).filter(
        lambda values: max(values) > min(values)))
    @example([0.0, 2.2250738585e-313])  # a subnormal range overflows the scale factor
    @settings(max_examples=100)
    def test_round_trip(self, values):
        scaler = MinMaxScaler.fit(np.array(values))
        x = np.array(values)
        back = scaler.inverse_transform(scaler.transform(x))
        assert np.allclose(back, x, atol=1e-6 * max(1.0, np.max(np.abs(x))))

    def test_maps_training_range_onto_output_range(self):
        scaler = MinMaxScaler.fit(np.array([10.0, 20.0, 30.0]))
        out = scaler.transform(np.array([10.0, 30.0]))
        assert out[0] == pytest.approx(-0.8)
        assert out[1] == pytest.approx(0.8)

    def test_degenerate_constant_series(self):
        scaler = MinMaxScaler.fit(np.array([5.0, 5.0, 5.0]))
        assert scaler.degenerate
        out = scaler.transform(np.array([5.0, 7.0]))
        assert np.all(out == 0.0)  # midpoint of [-0.8, 0.8]
        assert np.all(scaler.inverse_transform(out) == 5.0)

    def test_unit_output_range(self):
        scaler = MinMaxScaler.fit(np.array([0.0, 4.0]), out_lo=0.0, out_hi=1.0)
        assert np.allclose(scaler.transform(np.array([0.0, 2.0, 4.0])), [0, 0.5, 1])

    def test_dict_round_trip(self):
        scaler = MinMaxScaler(1.5, 9.0, 0.0, 1.0)
        assert MinMaxScaler.from_dict(asdict(scaler)) == scaler

    def test_dict_with_lo_above_hi_rejected(self):
        # fit never writes one: it would forecast mirrored. lo == hi stays the
        # degenerate scaler of a constant series.
        with pytest.raises(ValidationError,
                           match=r"^s\.lo 9\.0 must not be above s\.hi 1\.5$"):
            MinMaxScaler.from_dict(asdict(MinMaxScaler(9.0, 1.5)), "s")
        constant = MinMaxScaler(4.0, 4.0)
        assert MinMaxScaler.from_dict(asdict(constant)) == constant

    def test_empty_fit_rejected(self):
        with pytest.raises(ValidationError):
            MinMaxScaler.fit(np.array([]))

