"""Training algorithms: SGD, SMD, RMD, and the weight-decay baseline.

The RMD update maintains, besides the weights w, one auxiliary scalar
z[i] per training sample. Each visit to sample i computes the residual
r = sqrt(2 L_i(w)) of the constraint z[i] = r and the scalar

    c = eta * (z[i] - r)

then shifts the mirror image of w by (c / r) * grad L_i and moves z[i]
by -c / lambda. Larger lambda weakens the z dynamics; in the limit the
update is exactly stochastic mirror descent. The mini-batch variant
replaces the per-sample quantities by batch means.

Division by r is guarded by ``epsilon_guard``: with square loss an
interpolated sample has a vanishing gradient as well, so the w-update
degenerates gracefully and only z can move.
"""

import dataclasses
import math

import numpy as np

from .data import Dataset, accuracy, label_accuracy
from .errors import EmptyBatchError, NonFiniteError
from .models import square_losses


@dataclasses.dataclass
class HyperParams:
    eta: float
    lam: float = 1.0
    batch_size: int = 1
    epsilon_guard: float = 1e-12

    def __post_init__(self):
        if self.eta <= 0 or self.lam <= 0 or self.batch_size < 1 or self.epsilon_guard <= 0:
            raise ValueError(f"hyperparameters must be positive: {self}")


@dataclasses.dataclass
class OptimizerState:
    w: np.ndarray
    z: np.ndarray
    step: int = 0
    epoch: int = 0
    residual_history: list = dataclasses.field(default_factory=list)


def _loss_and_grad(state, model, ds, indices):
    """Mean loss and mean gradient at state.w over the batch ds[indices].

    ``indices`` is a slice (run() passes contiguous rows) or a sequence of
    sample indices such as ``[i]``.
    """
    xs = ds.X[indices]
    if len(xs) == 0:
        raise EmptyBatchError("a mini-batch update needs at least one sample")
    return model.batch_loss_and_grad(state.w, xs, ds.Y[indices])


def sgd_step(state, model, potential, ds, indices, hp):
    """w <- w - eta * grad L_B(w), with L_B the batch mean loss."""
    _, g = _loss_and_grad(state, model, ds, indices)
    state.w -= hp.eta * g
    state.step += 1


def smd_step(state, model, potential, ds, indices, hp):
    """grad psi(w) <- grad psi(w) - eta * grad L_B(w), then invert."""
    _, g = _loss_and_grad(state, model, ds, indices)
    potential.step(state.w, g, -hp.eta)
    state.step += 1


def wd_step(state, model, potential, ds, indices, hp):
    """SGD on lambda * sum_i L_i + 1/2 ||w||^2 with the loss term at unit
    weight: the decay is w / (lambda * n) per sample."""
    _, g = _loss_and_grad(state, model, ds, indices)
    g = g + state.w / (hp.lam * ds.n)
    state.w -= hp.eta * g
    state.step += 1


def rmd_minibatch_step(state, model, potential, ds, indices, hp):
    """One mini-batch RMD update; batch size 1 recovers the per-sample rule."""
    loss, g = _loss_and_grad(state, model, ds, indices)
    z = state.z[indices]
    z_bar = float(np.add.reduce(z)) / len(z)  # .mean() without its overhead
    r = math.sqrt(2.0 * loss)
    c = hp.eta * (z_bar - r)
    potential.step(state.w, g, c / max(r, hp.epsilon_guard))
    state.z[indices] -= c / hp.lam
    state.step += 1


# One batch update per algorithm, all with the signature
# (state, model, potential, ds, indices, hp); run() and the tests call these.
STEPS = {"sgd": sgd_step, "smd": smd_step, "rmd": rmd_minibatch_step, "wd": wd_step}


@dataclasses.dataclass
class RunResult:
    state: OptimizerState
    w_init: np.ndarray
    stop_reason: str
    metrics: list


def _window_converged(history, window, tol):
    """Relative improvement over the trailing window fell below tol."""
    if len(history) <= window:
        return False
    base = history[-window - 1]
    return base > 0.0 and (base - history[-1]) / base < tol


def run(model, train, algorithm, potential, hp, rng, *, epochs,
        anchor=None, w0=None, init_scale=0.01, z_random=False,
        stop_window=500, stop_tol=1e-4, interp_tol=1e-8, test=None):
    """Train on ``train`` for up to ``epochs`` shuffled full passes.

    Initialization: exactly at ``anchor`` when given, else at ``w0``,
    else at argmin psi (0 for l2 and q-norms, e^-1 per coordinate for
    entropy) plus Gaussian noise with standard deviation ``init_scale``.
    The auxiliary z starts at zero (or near zero with ``z_random``).

    Stopping: SGD and SMD halt at interpolation (100% train accuracy,
    or max residual below ``interp_tol`` for label-free data); RMD halts
    when the constraint residual improves by less than ``stop_tol``
    relative over ``stop_window`` consecutive epochs; the weight-decay
    baseline applies the same windowed rule to the training loss.
    Returns per-epoch metrics rows and the reason the run ended.
    """
    if algorithm not in STEPS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if hp.batch_size > train.n:
        raise ValueError(f"batch size {hp.batch_size} exceeds n = {train.n}")

    if anchor is not None:
        w = np.array(anchor, dtype=float)
    elif w0 is not None:
        w = np.array(w0, dtype=float)
    else:
        w = model.init_weights(rng, init_scale)
        w += potential.grad_inverse(np.zeros_like(w))  # argmin psi
    potential.check_domain(w)
    z = (init_scale * rng.standard_normal(train.n) if z_random
         else np.zeros(train.n))
    state = OptimizerState(w=w, z=z)
    w_init = w.copy()

    # Each epoch gathers X, Y and z in its shuffled order, so every step
    # reads a contiguous slice; z goes back to sample order after the epoch.
    # take(mode="clip") writes straight into out ("raise" copies through a
    # temporary); a permutation never needs clipping.
    shuffled = Dataset(X=np.empty(train.X.shape, dtype=train.X.dtype),
                       Y=np.empty(train.Y.shape, dtype=train.Y.dtype))
    z_shuffled = np.empty_like(z)
    # Both evaluation forwards write into one set of buffers.
    buffers = model.predict_buffers(max(train.n, 0 if test is None else test.n))
    step = STEPS[algorithm]
    loss_history = []
    metrics = []
    stop_reason = "budget"
    for epoch in range(1, epochs + 1):
        order = rng.permutation(train.n)
        np.take(train.X, order, axis=0, out=shuffled.X, mode="clip")
        np.take(train.Y, order, axis=0, out=shuffled.Y, mode="clip")
        np.take(z, order, out=z_shuffled, mode="clip")
        state.z = z_shuffled
        for start in range(0, train.n, hp.batch_size):
            step(state, model, potential, shuffled, slice(start, start + hp.batch_size), hp)
        z[order] = z_shuffled
        state.z = z
        state.epoch = epoch

        if not np.all(np.isfinite(state.w)):
            raise NonFiniteError(f"non-finite weights at epoch {epoch}")

        out = model.batch_predict(state.w, train.X, buffers)  # one train forward per epoch
        losses = square_losses(out, train.Y)
        train_loss = float(losses.mean())
        train_acc = (label_accuracy(out, train.labels) if train.labels is not None
                     else float("nan"))
        # the test forward overwrites the train outputs, which are consumed above
        test_acc = (accuracy(model, state.w, test, buffers)
                    if test is not None and test.labels is not None else float("nan"))
        residual = float("nan")
        if algorithm == "rmd":
            residual = float(np.sum(np.abs(state.z - np.sqrt(2.0 * losses))))
            state.residual_history.append(residual)
        loss_history.append(train_loss)
        metrics.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "train_accuracy": train_acc,
            "test_accuracy": test_acc,
            "constraint_residual": residual,
            "bregman_from_init": potential.bregman(state.w, w_init),
        })

        if algorithm in ("sgd", "smd"):
            if train.labels is not None:
                if train_acc >= 100.0:
                    stop_reason = "interpolated"
                    break
            elif math.sqrt(2.0 * float(losses.max())) < interp_tol:
                stop_reason = "interpolated"
                break
        elif algorithm == "rmd":
            if _window_converged(state.residual_history, stop_window, stop_tol):
                stop_reason = "constraint-converged"
                break
        elif _window_converged(loss_history, stop_window, stop_tol):
            stop_reason = "loss-converged"
            break

    return RunResult(state=state, w_init=w_init, stop_reason=stop_reason, metrics=metrics)
