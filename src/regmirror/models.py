"""Differentiable predictors with square loss and exact gradients.

Two model families:

* ``LinearModel(d)`` -- scalar prediction x @ w.
* ``MLPModel(widths)`` -- fully-connected tanh network with a linear
  output layer of one or more heads; parameters are kept flattened in a
  single weight vector (weights then bias per layer).

The per-sample loss is L(w) = 1/2 ||y - f(x, w)||^2, summed over output
heads so the residual stays scalar-valued per sample. Both models take
batches only, one row per sample (a single sample is a batch of one):
``batch_predict`` returns the outputs and ``batch_loss_and_grad`` the mean
loss with its exact gradient (closed form for the linear model,
backpropagation for the MLP).
"""

import numpy as np

from .errors import DimensionMismatchError


def square_losses(out, ys):
    """Per-sample loss 1/2 ||y - f(x)||^2 from model outputs ``out``.

    ``out`` and ``ys`` hold one row (or one scalar) per sample.
    """
    n = len(out)
    resid = np.reshape(out, (n, -1)) - np.reshape(np.asarray(ys, dtype=float), (n, -1))
    return 0.5 * np.sum(resid * resid, axis=1)


class LinearModel:
    n_outputs = 1

    def __init__(self, d):
        self.d = int(d)
        self.n_params = self.d

    def init_weights(self, rng, scale=0.01):
        return scale * rng.standard_normal(self.n_params)

    def predict_buffers(self, rows):
        """Output buffer for ``batch_predict`` on up to ``rows`` rows."""
        return [np.empty(rows)]

    def batch_predict(self, w, xs, buffers=None):
        """Predictions x @ w per row, written into ``buffers`` when given."""
        if buffers is None:
            return xs @ w
        return np.dot(xs, w, out=buffers[0][:len(xs)])

    def batch_loss_and_grad(self, w, xs, ys):
        """Mean loss and mean gradient over a batch (xs: (m,d), ys: (m,))."""
        r = np.asarray(ys, dtype=float).reshape(-1) - xs @ w
        m = len(r)
        return 0.5 * float(r @ r) / m, -(xs.T @ r) / m


class MLPModel:
    """Tanh multilayer perceptron, widths = (d, h1, ..., k heads)."""

    def __init__(self, widths):
        widths = tuple(int(v) for v in widths)
        if len(widths) < 2 or any(v < 1 for v in widths):
            raise ValueError(f"need at least input and output widths >= 1, got {widths}")
        self.widths = widths
        self.d = widths[0]
        self.n_outputs = widths[-1]
        self._shapes = [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
        self.n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in self._shapes)
        self._split = (None, None)  # the last weight vector and its layer views

    def init_weights(self, rng, scale=0.01):
        return scale * rng.standard_normal(self.n_params)

    def _layers(self, w):
        """(matrix, bias) views into ``w`` per layer, split once per weight vector."""
        if w.shape != (self.n_params,):
            raise DimensionMismatchError(
                f"MLP{self.widths} expects {self.n_params} parameters, got {w.shape}")
        last, layers = self._split
        if w is last:  # views see in-place updates of w
            return layers
        layers = []
        pos = 0
        for fan_in, fan_out in self._shapes:
            mat = w[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += fan_in * fan_out
            bias = w[pos:pos + fan_out]
            pos += fan_out
            layers.append((mat, bias))
        self._split = (w, layers)
        return layers

    def _forward(self, layers, xs, buffers=None):
        """Forward pass over a batch; returns hidden activations + outputs.

        With ``buffers`` (from ``predict_buffers``) each layer's output is
        written into the leading rows of its buffer instead of a new array.
        """
        rows = xs.shape[0]
        hidden = [xs]
        h = xs
        for i, (mat, bias) in enumerate(layers):
            h = np.dot(h, mat, out=None if buffers is None else buffers[i][:rows])
            h += bias
            if i < len(layers) - 1:
                np.tanh(h, out=h)
                hidden.append(h)
        return hidden, h

    def predict_buffers(self, rows):
        """One output buffer per layer for ``batch_predict`` on up to ``rows`` rows.

        Evaluation reuses them every epoch: freed (rows, width) temporaries
        would hand their pages back to the kernel and fault in again.
        """
        return [np.empty((rows, fan_out)) for _, fan_out in self._shapes]

    def batch_predict(self, w, xs, buffers=None):
        _, out = self._forward(self._layers(w), xs, buffers)
        return out[:, 0] if self.n_outputs == 1 else out

    def batch_loss_and_grad(self, w, xs, ys):
        """Mean loss and mean gradient over a batch via backpropagation.

        xs: (m, d); ys: (m, k) targets (or (m,) when k == 1).
        """
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys[:, None]
        layers = self._layers(w)
        hidden, out = self._forward(layers, xs)
        resid = out - ys
        m = xs.shape[0]
        loss = 0.5 * float(np.add.reduce(resid * resid, axis=None)) / m

        grad = np.empty(self.n_params)
        delta = resid / m
        pos = self.n_params
        for idx in range(len(layers) - 1, -1, -1):
            mat, _ = layers[idx]
            h = hidden[idx]
            fan_in, fan_out = self._shapes[idx]
            pos -= fan_out
            np.add.reduce(delta, axis=0, out=grad[pos:pos + fan_out])
            pos -= fan_in * fan_out
            # np.dot, not @: at batch 1 matmul skips BLAS for a slower loop
            np.dot(h.T, delta, out=grad[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
            if idx > 0:
                delta = np.dot(delta, mat.T) * (1.0 - h * h)
        return loss, grad

    def sample_losses(self, w, xs, ys):
        _, out = self._forward(self._layers(w), xs)
        return square_losses(out, ys)
