import math

import numpy as np
import pytest

from regmirror.data import Dataset, accuracy, generate_synthetic, label_accuracy
from regmirror.errors import DomainError, EmptyBatchError
from regmirror.models import LinearModel, MLPModel, square_losses
from regmirror.numerics import rng_stream
from regmirror.optimizer import (STEPS, HyperParams, OptimizerState, _window_converged,
                                 rmd_minibatch_step, run, smd_step, wd_step)
from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2


def regression_dataset(x, y):
    return Dataset(X=np.asarray(x, dtype=float), Y=np.asarray(y, dtype=float))


def fresh_state(w, n):
    return OptimizerState(w=np.array(w, dtype=float), z=np.zeros(n))


class TestSgdStep:
    # sgd is the mirror step under the squared-l2 potential the harness gives it
    def test_single_step(self):
        ds = regression_dataset([[1.0, 0.0]], [1.0])
        state = fresh_state([0.0, 0.0], 1)
        STEPS["sgd"](state, LinearModel(2), SquaredL2(), ds, [0], HyperParams(eta=0.1))
        assert np.allclose(state.w, [0.1, 0.0])

    def test_interpolating_point_is_fixed(self):
        ds = regression_dataset([[2.0, 1.0]], [5.0])
        state = fresh_state([2.0, 1.0], 1)
        STEPS["sgd"](state, LinearModel(2), SquaredL2(), ds, [0], HyperParams(eta=0.1))
        assert np.array_equal(state.w, [2.0, 1.0])

    def test_orthogonal_samples_commute(self):
        ds = regression_dataset([[1.0, 0.0], [0.0, 1.0]], [3.0, -2.0])
        hp = HyperParams(eta=0.05)
        a = fresh_state([0.2, -0.4], 2)
        STEPS["sgd"](a, LinearModel(2), SquaredL2(), ds, [0], hp)
        STEPS["sgd"](a, LinearModel(2), SquaredL2(), ds, [1], hp)
        b = fresh_state([0.2, -0.4], 2)
        STEPS["sgd"](b, LinearModel(2), SquaredL2(), ds, [1], hp)
        STEPS["sgd"](b, LinearModel(2), SquaredL2(), ds, [0], hp)
        assert np.allclose(a.w, b.w, rtol=0, atol=1e-15)


class TestSmdStep:
    def test_l2_equals_sgd(self):
        # the l2 mirror step w + (-eta) g is w - eta g to the bit
        rng = rng_stream(4)
        ds = regression_dataset(rng.standard_normal((3, 5)), rng.standard_normal(3))
        hp = HyperParams(eta=0.02)
        model = LinearModel(5)
        w = rng.standard_normal(5)
        state = fresh_state(w, 3)
        for i in (0, 2, 1, 0):
            w = w - hp.eta * model.batch_loss_and_grad(w, ds.X[[i]], ds.Y[[i]])[1]
            smd_step(state, model, SquaredL2(), ds, [i], hp)
        assert np.array_equal(state.w, w)

    def test_qnorm_hand_update(self):
        # w=[1], grad psi(w)=[1]; eta*gradL=[0.5] -> dual 0.5 -> w=sqrt(0.5)
        ds = regression_dataset([[1.0]], [-4.0])  # gradL = (w - y) = 5 at w=1
        state = fresh_state([1.0], 1)
        smd_step(state, LinearModel(1), QNorm(3.0), ds, [0], HyperParams(eta=0.1))
        assert state.w[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_entropy_preserves_positivity(self):
        rng = rng_stream(6)
        ds = regression_dataset(rng.standard_normal((4, 3)), rng.standard_normal(4))
        state = fresh_state(np.full(3, 0.5), 4)
        for i in (0, 1, 2, 3):
            smd_step(state, LinearModel(3), NegativeEntropy(), ds, [i], HyperParams(eta=0.01))
            assert np.all(state.w > 0)


class TestWdStep:
    def test_hand_trace(self):
        # n = 2, lambda = 2: decay w / 4 = [0.125, 0.5]; sample 0 has
        # r = 1 - 0.5 = 0.5, grad L = [-0.5, 0] -> g = [-0.375, 0.5];
        # eta = 0.5 -> w = [0.6875, 1.75] (every value exact in binary)
        ds = regression_dataset([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        state = fresh_state([0.5, 2.0], 2)
        wd_step(state, LinearModel(2), SquaredL2(), ds, [0], HyperParams(eta=0.5, lam=2.0))
        assert np.array_equal(state.w, [0.6875, 1.75])
        assert np.array_equal(state.z, [0.0, 0.0])


class TestRmdStep:
    def test_hand_trace(self):
        # L=0.5, r=1, c = 0.1*(0-1) = -0.1, gradL=[-1,0] -> w=[0.1,0], z=[0.1]
        ds = regression_dataset([[1.0, 0.0]], [1.0])
        state = fresh_state([0.0, 0.0], 1)
        rmd_minibatch_step(state, LinearModel(2), SquaredL2(), ds, [0],
                           HyperParams(eta=0.1, lam=1.0))
        assert np.allclose(state.w, [0.1, 0.0], rtol=1e-14)
        assert state.z[0] == pytest.approx(0.1, rel=1e-14)

    def test_satisfied_constraint_is_noop(self):
        ds = regression_dataset([[1.0, 0.0]], [1.0])
        state = fresh_state([0.0, 0.0], 1)
        state.z[0] = 1.0  # equals sqrt(2 * 0.5)
        rmd_minibatch_step(state, LinearModel(2), SquaredL2(), ds, [0],
                           HyperParams(eta=0.1, lam=1.0))
        assert np.array_equal(state.w, [0.0, 0.0])
        assert state.z[0] == 1.0

    def test_only_visited_z_changes(self):
        rng = rng_stream(9)
        ds = regression_dataset(rng.standard_normal((5, 4)), rng.standard_normal(5))
        state = fresh_state(rng.standard_normal(4), 5)
        rmd_minibatch_step(state, LinearModel(4), SquaredL2(), ds, [2],
                           HyperParams(eta=0.05, lam=1.0))
        assert state.z[2] != 0.0
        assert np.array_equal(np.delete(state.z, 2), np.zeros(4))

    def test_large_lambda_matches_smd(self):
        rng = rng_stream(12)
        n, p = 6, 15
        ds = regression_dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
        w0 = 0.01 * rng.standard_normal(p)
        hp_rmd = HyperParams(eta=0.01, lam=1e9)
        hp_smd = HyperParams(eta=0.01)
        a, b = fresh_state(w0, n), fresh_state(w0, n)
        model = LinearModel(p)
        for i in list(range(n)) * 3:
            rmd_minibatch_step(a, model, SquaredL2(), ds, [i], hp_rmd)
            smd_step(b, model, SquaredL2(), ds, [i], hp_smd)
            denom = max(1e-12, float(np.max(np.abs(b.w))))
            assert np.max(np.abs(a.w - b.w)) / denom < 1e-6
        assert np.max(np.abs(a.z)) <= 1e-9

    def test_qnorm_update_separable(self):
        # The mirror update is coordinate-wise, so permuting (w, g)
        # permutes the result exactly.
        rng = rng_stream(31)
        p = 7
        w = rng.standard_normal(p)
        g = rng.standard_normal(p)
        perm = rng.permutation(p)
        a = w.copy()
        QNorm(3.0).step(a, g, -0.37)
        b = w[perm].copy()
        QNorm(3.0).step(b, g[perm], -0.37)
        assert np.array_equal(a[perm], b)


class TestMinibatchStep:
    def test_two_sample_hand_trace(self):
        # L1 = 0.5, L2 = 0, z = 0: Lbar = 0.25, c = eta*(0 - sqrt(0.5)).
        ds = regression_dataset([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        state = fresh_state([0.0, 0.0], 2)
        eta, lam = 0.1, 1.0
        rmd_minibatch_step(state, LinearModel(2), SquaredL2(), ds, [0, 1],
                           HyperParams(eta=eta, lam=lam))
        r = math.sqrt(0.5)
        c = eta * (0.0 - r)
        expected_w = np.array([-(c / r) * 0.5, 0.0])  # mean grad = [-0.5, 0]
        expected_z = np.full(2, -c / lam)
        assert np.max(np.abs(state.w - expected_w)) <= 1e-12
        assert np.max(np.abs(state.z - expected_z)) <= 1e-12

    def test_interpolating_batch_guard_path(self):
        ds = regression_dataset([[1.0, 0.0], [0.0, 1.0]], [0.5, -0.25])
        w_star = np.array([0.5, -0.25])
        state = fresh_state(w_star, 2)
        rmd_minibatch_step(state, LinearModel(2), SquaredL2(), ds, [0, 1],
                           HyperParams(eta=0.1, lam=1.0))
        # zero loss and zero z: c = 0, nothing moves
        assert np.array_equal(state.w, w_star)
        assert np.array_equal(state.z, np.zeros(2))
        # nonzero z with zero loss exercises the guarded division: the
        # mean gradient vanishes, so only z moves
        state.z[:] = 0.5
        rmd_minibatch_step(state, LinearModel(2), SquaredL2(), ds, [0, 1],
                           HyperParams(eta=0.1, lam=1.0))
        assert np.array_equal(state.w, w_star)
        assert np.allclose(state.z, 0.45, rtol=1e-14)

    def test_only_batch_members_z_change(self):
        rng = rng_stream(16)
        ds = regression_dataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
        state = fresh_state(rng.standard_normal(3), 6)
        rmd_minibatch_step(state, LinearModel(3), SquaredL2(), ds, [1, 4],
                           HyperParams(eta=0.05, lam=1.0))
        assert np.array_equal(state.z[[0, 2, 3, 5]], np.zeros(4))
        assert state.z[1] == state.z[4] != 0.0

    def test_empty_batch_rejected(self):
        ds = regression_dataset([[1.0]], [1.0])
        with pytest.raises(EmptyBatchError):
            rmd_minibatch_step(fresh_state([0.0], 1), LinearModel(1), SquaredL2(),
                               ds, [], HyperParams(eta=0.1))

    @pytest.mark.parametrize("algorithm", sorted(STEPS))
    def test_every_rule_rejects_empty_batch(self, algorithm):
        ds = regression_dataset([[1.0]], [1.0])
        with pytest.raises(EmptyBatchError):
            STEPS[algorithm](fresh_state([0.5], 1), LinearModel(1), SquaredL2(),
                             ds, [], HyperParams(eta=0.1))

    @pytest.mark.parametrize("algorithm", sorted(STEPS))
    def test_every_rule_rejects_empty_slice(self, algorithm):
        ds = regression_dataset([[1.0], [2.0]], [1.0, 0.0])
        for empty in (slice(0, 0), slice(2, 4)):
            with pytest.raises(EmptyBatchError):
                STEPS[algorithm](fresh_state([0.5], 2), LinearModel(1), SquaredL2(),
                                 ds, empty, HyperParams(eta=0.1))


class TestRun:
    def test_sgd_interpolates_overparameterized(self):
        rng = rng_stream(20)
        n, p = 20, 100
        ds = regression_dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
        result = run(LinearModel(p), ds, "sgd", SquaredL2(), HyperParams(eta=1e-3),
                     rng_stream(1), epochs=20000, w0=np.zeros(p), interp_tol=1e-6)
        assert result.stop_reason == "interpolated"
        assert np.max(np.abs(ds.X @ result.state.w - ds.Y)) < 1e-6

    def test_smd_l2_trajectory_bit_identical_to_sgd(self):
        # run() against plain w <- w - eta g over the same permutation stream;
        # batch 2 of 5 samples leaves a ragged last batch
        rng = rng_stream(22)
        ds = regression_dataset(rng.standard_normal((5, 12)), rng.standard_normal(5))
        model, hp, epochs = LinearModel(12), HyperParams(eta=0.01, batch_size=2), 3
        w0 = 0.01 * np.arange(12)
        w, perms = w0, rng_stream(7)
        for _ in range(epochs):
            order = perms.permutation(ds.n)
            for start in range(0, ds.n, hp.batch_size):
                batch = order[start:start + hp.batch_size]
                w = w - hp.eta * model.batch_loss_and_grad(w, ds.X[batch], ds.Y[batch])[1]
        assert not np.array_equal(w, w0)
        for algorithm in ("sgd", "smd"):
            result = run(model, ds, algorithm, SquaredL2(), hp, rng_stream(7),
                         epochs=epochs, w0=w0)
            assert len(result.metrics) == epochs
            assert np.array_equal(result.state.w, w), algorithm

    def test_smd_l2_iterates_stay_in_rowspace(self):
        rng = rng_stream(23)
        n, p = 8, 30
        x = rng.standard_normal((n, p))
        ds = regression_dataset(x, rng.standard_normal(n))
        result = run(LinearModel(p), ds, "smd", SquaredL2(), HyperParams(eta=1e-2),
                     rng_stream(2), epochs=50, w0=np.zeros(p), interp_tol=1e-12)
        w = result.state.w
        # project onto rowspace of X and check nothing is lost
        proj = x.T @ np.linalg.solve(x @ x.T, x @ w)
        assert np.max(np.abs(w - proj)) < 1e-8

    def test_anchor_with_tiny_lambda_stays_at_anchor(self):
        rng = rng_stream(25)
        n, p = 5, 12
        ds = regression_dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
        anchor = rng.standard_normal(p)
        result = run(LinearModel(p), ds, "rmd", SquaredL2(),
                     HyperParams(eta=1e-3, lam=1e-3), rng_stream(3),
                     epochs=2000, w0=anchor, stop_window=100, stop_tol=1e-7)
        assert np.array_equal(result.w_init, anchor)
        assert SquaredL2().bregman(result.state.w, anchor) < 1e-3

    def test_rmd_stops_with_constraint_converged(self):
        rng = rng_stream(26)
        ds = regression_dataset(rng.standard_normal((4, 10)), rng.standard_normal(4))
        result = run(LinearModel(10), ds, "rmd", SquaredL2(),
                     HyperParams(eta=0.05, lam=1.0), rng_stream(4),
                     epochs=5000, w0=np.zeros(10), stop_window=50, stop_tol=1e-4)
        assert result.stop_reason == "constraint-converged"
        assert result.metrics[-1]["constraint_residual"] >= 0.0

    def test_wd_stops_with_loss_converged(self):
        rng = rng_stream(27)
        ds = regression_dataset(rng.standard_normal((4, 10)), rng.standard_normal(4))
        result = run(LinearModel(10), ds, "wd", SquaredL2(),
                     HyperParams(eta=0.05, lam=1.0), rng_stream(5),
                     epochs=5000, w0=np.zeros(10), stop_window=50, stop_tol=1e-4)
        assert result.stop_reason == "loss-converged"

    @pytest.mark.parametrize("history, stop", [
        ([1.0, 0.5, 0.4], False),  # improved by 60% over the window of 2
        ([1.0, 1.0, 1.0 - 1e-5], True),  # improved by 1e-5, below tol
        ([1.0, 1.5, 2.0], True),  # rose: no improvement, so the run stops too
    ], ids=["improving", "flat", "rising"])
    def test_window_rule_stops_without_relative_improvement(self, history, stop):
        assert _window_converged(history, 2, 1e-4) is stop

    @pytest.mark.parametrize("algorithm", ["sgd", "smd", "rmd", "wd"])
    def test_state_step_counts_every_update(self, algorithm, monkeypatch):
        calls = []
        rule = STEPS[algorithm]

        def counted(*args):
            calls.append(args[4])  # the batch's indices
            rule(*args)

        monkeypatch.setitem(STEPS, algorithm, counted)
        rng = rng_stream(32)
        n, batch_size, epochs = 8, 3, 2
        ds = regression_dataset(rng.standard_normal((n, 10)), rng.standard_normal(n))
        result = run(LinearModel(10), ds, algorithm, SquaredL2(),
                     HyperParams(eta=1e-3, lam=1.0, batch_size=batch_size),
                     rng_stream(8), epochs=epochs, w0=np.zeros(10))
        assert len(result.metrics) == epochs
        assert len(calls) == epochs * math.ceil(n / batch_size)

    def test_budget_stop(self):
        rng = rng_stream(28)
        ds = regression_dataset(rng.standard_normal((4, 10)), rng.standard_normal(4))
        result = run(LinearModel(10), ds, "rmd", SquaredL2(),
                     HyperParams(eta=1e-4, lam=1.0), rng_stream(6),
                     epochs=5, w0=np.zeros(10))
        assert result.stop_reason == "budget"
        assert len(result.metrics) == 5

    @pytest.mark.parametrize("eta, lam", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan)],
                             ids=["eta=nan", "eta=inf", "lam=nan"])
    def test_hyperparams_refuse_nan_and_infinite_eta(self, eta, lam):
        # each of these would train to a NonFiniteError at epoch 1 or 2, blaming the run
        with pytest.raises(ValueError, match="need 0 < eta < inf"):
            HyperParams(eta=eta, lam=lam)

    def test_infinite_lambda_runs_as_the_smd_limit(self):
        rng = rng_stream(28)
        ds = regression_dataset(rng.standard_normal((4, 10)), rng.standard_normal(4))
        result = run(LinearModel(10), ds, "rmd", SquaredL2(),
                     HyperParams(eta=1e-4, lam=math.inf), rng_stream(6),
                     epochs=5, w0=np.zeros(10))
        assert result.stop_reason == "budget"
        assert np.isfinite(result.state.w).all()
        assert not result.state.z.any()  # z never moves: the update is SMD

    def test_entropy_run_errors_not_clamps_outside_domain(self):
        rng = rng_stream(29)
        ds = regression_dataset(rng.standard_normal((3, 6)), rng.standard_normal(3))
        with pytest.raises(DomainError):
            run(LinearModel(6), ds, "smd", NegativeEntropy(), HyperParams(eta=0.1),
                rng_stream(7), epochs=2, w0=-np.ones(6))

    def test_same_seed_reproduces_run(self):
        rng = rng_stream(30)
        ds = regression_dataset(rng.standard_normal((6, 14)), rng.standard_normal(6))
        a = run(LinearModel(14), ds, "rmd", QNorm(3.0), HyperParams(eta=0.01, lam=1.0),
                rng_stream(11), epochs=10)
        b = run(LinearModel(14), ds, "rmd", QNorm(3.0), HyperParams(eta=0.01, lam=1.0),
                rng_stream(11), epochs=10)
        assert np.array_equal(a.state.w, b.state.w)
        for ra, rb in zip(a.metrics, b.metrics):
            assert ra["train_loss"] == rb["train_loss"]
            assert ra["constraint_residual"] == rb["constraint_residual"]
            assert ra["bregman_from_init"] == rb["bregman_from_init"]


def index_array_run(model, train, algorithm, potential, hp, rng, epochs, test):
    """run() without contiguous epoch batches or evaluation buffers: each
    step gets the index array order[s:s + b] of the unshuffled data, and
    every forward allocates. Returns the final state and metrics rows."""
    w = 0.01 * rng.standard_normal(model.n_params)
    w += potential.grad_inverse(np.zeros_like(w))
    state = OptimizerState(w=w, z=np.zeros(train.n))
    w_init = w.copy()
    rows = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(train.n)
        for s in range(0, train.n, hp.batch_size):
            STEPS[algorithm](state, model, potential, train, order[s:s + hp.batch_size], hp)
        out = model.batch_predict(state.w, train.X)
        losses = square_losses(out, train.Y)
        residual = float("nan")
        if algorithm == "rmd":
            residual = float(np.sum(np.abs(state.z - np.sqrt(2.0 * losses))))
        rows.append({
            "epoch": epoch,
            "train_loss": float(losses.mean()),
            "train_accuracy": label_accuracy(out, train.labels),
            "test_accuracy": accuracy(model, state.w, test),
            "constraint_residual": residual,
            "bregman_from_init": potential.bregman(state.w, w_init),
        })
    return state, rows


class TestRunMatchesIndexArrayLoop:
    @pytest.mark.parametrize("potential", [SquaredL2(), QNorm(3.0)], ids=["l2", "q3"])
    @pytest.mark.parametrize("batch_size", [1, 3])  # 3 leaves a ragged last batch of 10
    @pytest.mark.parametrize("algorithm", ["sgd", "smd", "rmd", "wd"])
    def test_bit_identical(self, algorithm, batch_size, potential):
        train, test = generate_synthetic(3, 10, 7, 4, 1.5, rng_stream(40), separation=1.0)
        model = MLPModel((4, 5, 3))
        hp = HyperParams(eta=0.05, lam=0.7, batch_size=batch_size)
        epochs = 4
        result = run(model, train, algorithm, potential, hp, rng_stream(41), epochs=epochs,
                     test=test, stop_window=epochs)
        state, rows = index_array_run(model, train, algorithm, potential, hp, rng_stream(41),
                                      epochs, test)
        assert len(result.metrics) == epochs
        assert np.array_equal(result.state.w, state.w)
        assert np.array_equal(result.state.z, state.z)
        if algorithm == "rmd":
            assert np.any(state.z != 0.0)
        for got, want in zip(result.metrics, rows):
            assert got.keys() == want.keys()
            assert np.array_equal(list(got.values()), list(want.values()), equal_nan=True)
