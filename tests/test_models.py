import numpy as np
import pytest

from regmirror.errors import DimensionMismatchError
from regmirror.models import LinearModel, MLPModel
from regmirror.numerics import rng_stream


def one_row(model, w, x, y):
    """Loss and gradient of the single sample (x, y), as a batch of one row."""
    return model.batch_loss_and_grad(w, x[None], np.asarray(y, dtype=float)[None])


def linear_sample(model, w, x, y):
    """Closed-form loss and gradient of one sample of the linear model."""
    r = y - x @ w
    return 0.5 * r * r, -r * x


def central_difference_grad(model, w, x, y, h=1e-6):
    g = np.empty_like(w)
    for k in range(len(w)):
        e = np.zeros_like(w)
        e[k] = h
        g[k] = (one_row(model, w + e, x, y)[0] - one_row(model, w - e, x, y)[0]) / (2 * h)
    return g


class TestPredict:
    def test_linear_dot_product(self):
        m = LinearModel(2)
        assert m.batch_predict(np.array([3.0, 4.0]), np.array([[1.0, 2.0]]))[0] == 11.0

    def test_linear_zero_weights(self):
        m = LinearModel(3)
        assert m.batch_predict(np.zeros(3), np.array([[5.0, -1.0, 2.0]]))[0] == 0.0

    def test_mlp_zero_weights(self):
        m = MLPModel((2, 2, 1))
        assert m.batch_predict(np.zeros(m.n_params), np.array([[0.3, -0.7]]))[0] == 0.0

    def test_linearity_of_linear_model(self):
        m = LinearModel(4)
        rng = rng_stream(1)
        x = rng.standard_normal(4)[None]
        w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
        lhs = m.batch_predict(0.3 * w1 + 1.7 * w2, x)[0]
        rhs = 0.3 * m.batch_predict(w1, x)[0] + 1.7 * m.batch_predict(w2, x)[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MLPModel((2, 2, 1)).batch_predict(np.zeros(5), np.zeros((1, 2)))


class TestLoss:
    def test_half_squared_residual(self):
        m = LinearModel(1)
        assert one_row(m, np.array([0.0]), np.array([1.0]), 1.0)[0] == 0.5
        assert one_row(m, np.array([2.0]), np.array([1.0]), 1.0)[0] == 0.5

    def test_zero_at_interpolation(self):
        m = LinearModel(2)
        w = np.array([1.0, 2.0])
        x = np.array([3.0, -1.0])
        assert one_row(m, w, x, m.batch_predict(w, x[None])[0])[0] == 0.0

    def test_grad_zero_at_interpolation(self):
        m = LinearModel(2)
        w = np.array([1.0, 2.0])
        x = np.array([3.0, -1.0])
        assert np.array_equal(one_row(m, w, x, m.batch_predict(w, x[None])[0])[1], np.zeros(2))

    def test_linear_grad_closed_form(self):
        m = LinearModel(2)
        g = one_row(m, np.zeros(2), np.array([1.0, 0.0]), 1.0)[1]
        assert np.array_equal(g, [-1.0, 0.0])


@pytest.mark.parametrize("make", [
    pytest.param(lambda: (LinearModel(6), 1), id="linear"),
    pytest.param(lambda: (MLPModel((4, 5, 3, 1)), 1), id="mlp-scalar"),
    pytest.param(lambda: (MLPModel((4, 8, 3)), 3), id="mlp-heads"),
])
class TestGradientCheck:
    def test_matches_central_differences(self, make):
        model, k = make()
        rng = rng_stream(8)
        for _ in range(100):
            w = rng.standard_normal(model.n_params)
            x = rng.standard_normal(model.d)
            y = rng.standard_normal(k) if k > 1 else float(rng.standard_normal())
            g = one_row(model, w, x, y)[1]
            fd = central_difference_grad(model, w, x, y)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(fd - g) / denom < 1e-5


class TestBatchConsistency:
    @pytest.mark.parametrize("model,k,per_sample", [
        (LinearModel(5), 1, linear_sample),
        (MLPModel((5, 7, 2)), 2, one_row),
    ], ids=["linear", "mlp"])
    def test_batch_means_match_per_sample(self, model, k, per_sample):
        rng = rng_stream(17)
        m = 6
        xs = rng.standard_normal((m, model.d))
        ys = rng.standard_normal((m, k)) if k > 1 else rng.standard_normal(m)
        loss, grad = model.batch_loss_and_grad(rng.standard_normal(model.n_params), xs, ys)
        # recompute against a fresh weight draw with the same stream state
        rng = rng_stream(17)
        xs = rng.standard_normal((m, model.d))
        ys = rng.standard_normal((m, k)) if k > 1 else rng.standard_normal(m)
        w = rng.standard_normal(model.n_params)
        per = [per_sample(model, w, xs[i], ys[i]) for i in range(m)]
        assert loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        assert np.allclose(grad, np.mean([p[1] for p in per], axis=0), rtol=1e-10, atol=1e-14)

    def test_sample_losses_matches_loss(self):
        model = MLPModel((3, 4, 2))
        rng = rng_stream(2)
        w = rng.standard_normal(model.n_params)
        xs = rng.standard_normal((5, 3))
        ys = rng.standard_normal((5, 2))
        losses = model.sample_losses(w, xs, ys)
        for i in range(5):
            assert losses[i] == pytest.approx(one_row(model, w, xs[i], ys[i])[0], rel=1e-12)


def reference_backprop(model, w, xs, ys):
    """Straight-line backprop with @ for every product: the arithmetic
    ``batch_loss_and_grad`` must reproduce bit for bit."""
    layers, pos = [], 0
    for fan_in, fan_out in model._shapes:
        mat = w[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((mat, w[pos:pos + fan_out]))
        pos += fan_out
    hidden = [xs]
    for mat, bias in layers[:-1]:
        hidden.append(np.tanh(hidden[-1] @ mat + bias))
    resid = hidden[-1] @ layers[-1][0] + layers[-1][1] - ys
    m = xs.shape[0]
    loss = 0.5 * float(np.sum(resid * resid)) / m
    parts = []
    delta = resid / m
    for idx in range(len(layers) - 1, -1, -1):
        h = hidden[idx]
        parts = [(h.T @ delta).ravel(), delta.sum(axis=0)] + parts
        if idx > 0:
            delta = (delta @ layers[idx][0].T) * (1.0 - h * h)
    return loss, np.concatenate(parts)


class TestBackpropBits:
    @pytest.mark.parametrize("m", [1, 32])
    def test_equals_reference_backprop(self, m):
        model = MLPModel((20, 64, 64, 10))
        rng = rng_stream(31)
        for _ in range(20):
            w = 0.3 * rng.standard_normal(model.n_params)
            xs = rng.standard_normal((m, model.d))
            ys = rng.standard_normal((m, model.n_outputs))
            loss, grad = model.batch_loss_and_grad(w, xs, ys)
            ref_loss, ref_grad = reference_backprop(model, w, xs, ys)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


class TestBufferedPredict:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: LinearModel(5), id="linear"),
        pytest.param(lambda: MLPModel((5, 7, 1)), id="mlp-1-hidden-k1"),
        pytest.param(lambda: MLPModel((5, 7, 10)), id="mlp-1-hidden-k10"),
        pytest.param(lambda: MLPModel((5, 7, 6, 1)), id="mlp-2-hidden-k1"),
        pytest.param(lambda: MLPModel((5, 7, 6, 10)), id="mlp-2-hidden-k10"),
    ])
    def test_bit_identical_to_allocating_predict(self, make):
        model = make()
        rng = rng_stream(41)
        buffers = model.predict_buffers(12)
        for rows in (12, 5, 1):  # full buffer, then fewer rows than it holds
            w = 0.5 * rng.standard_normal(model.n_params)
            xs = rng.standard_normal((rows, model.d))
            out = model.batch_predict(w, xs, buffers)
            assert np.shares_memory(out, buffers[-1])
            assert np.array_equal(out, model.batch_predict(w, xs))
            assert np.array_equal(out, model.batch_predict(w.copy(), xs))

    def test_layer_views_follow_the_weight_vector(self):
        model = MLPModel((3, 4, 2))
        rng = rng_stream(42)
        xs = rng.standard_normal((6, 3))
        w = rng.standard_normal(model.n_params)
        model.batch_predict(w, xs)
        w *= 0.5  # in place: the cached views must see it
        assert np.array_equal(model.batch_predict(w, xs), model.batch_predict(w.copy(), xs))
        with pytest.raises(DimensionMismatchError):
            model.batch_predict(np.zeros(model.n_params + 1), xs)
        with pytest.raises(DimensionMismatchError):
            model.batch_loss_and_grad(w.reshape(2, -1), xs, rng.standard_normal((6, 2)))
