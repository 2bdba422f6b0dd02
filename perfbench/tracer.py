"""Call counters and cell/epoch spans, recorded by wrapping regmirror names.

The benchmark never edits the package. It replaces a function at the name
where its caller looks it up (a module attribute such as
``regmirror.harness.run``, or a method on a class) with a wrapper that
counts calls, total time and self time. Self time is total time minus the
time spent in other wrapped calls made from inside it.

Only two kinds of span are kept: one per grid cell (a call of
``regmirror.harness.run``) and one per epoch. ``run()`` calls
``Potential.bregman`` exactly once per epoch, after the epoch's steps and
evaluation, so each such call inside a cell closes an epoch. Calls inside
an epoch only bump counters, which keeps a per-sample run from holding
millions of spans.
"""

import time


def first_call_marker(owner, attr, box):
    """Wrap ``owner.attr`` so ``box[0]`` gets the monotonic time of its first call."""
    fn = getattr(owner, attr)

    def marked(*args, **kwargs):
        if box[0] is None:
            box[0] = time.monotonic()
        return fn(*args, **kwargs)

    setattr(owner, attr, marked)


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, child_s]
        self.computed = {"eval_rows": 0, "step_bytes": 0, "solve_flops": 0}
        self.cells = []      # [start, end, epochs, algorithm] per cell
        self.epochs = []     # [cell_index, epoch, start, end] per epoch
        self._stack = []
        self._cell = None
        self._epoch_start = None

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a counting wrapper filed under ``name``.

        ``before(args)`` runs ahead of the timed call, ``after(args, start,
        end)`` once it returns; both stay outside the timed interval.
        """
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if after is not None:
                    after(args, start, end)

        setattr(owner, attr, wrapper)

    # -- span hooks -------------------------------------------------------

    def _cell_start(self, args):
        self._cell = [time.perf_counter(), None, 0, args[2]]
        self._epoch_start = self._cell[0]

    def _cell_end(self, args, start, end):
        self._cell[1] = end
        self.cells.append(self._cell)
        self._cell = None

    def _epoch_end(self, args, start, end):
        if self._cell is None:
            return
        self._cell[2] += 1
        self.epochs.append([len(self.cells), self._cell[2], self._epoch_start, end])
        self._epoch_start = end

    # -- computed work ----------------------------------------------------

    def _eval_rows(self, args):
        self.computed["eval_rows"] += int(args[2].shape[0])

    def _step_bytes(self, args):
        # w is read and written, g is read: 3 vectors of float64 per step
        self.computed["step_bytes"] += 3 * int(args[1].nbytes)

    def _solve_flops(self, args):
        # elimination (2/3 n^3) plus forward and back substitution (2 n^2)
        n = len(args[1])
        self.computed["solve_flops"] += (2 * n ** 3) // 3 + 2 * n * n

    def install(self):
        """Wrap every regmirror name the per-layer metrics are built from."""
        import regmirror.cli as cli
        import regmirror.harness as harness
        import regmirror.kernels as kernels
        import regmirror.optimizer as optimizer
        import regmirror.oracle as oracle
        from regmirror.models import MLPModel
        from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2

        self.wrap(cli, "run_experiment", "harness.run_experiment")
        self.wrap(harness, "generate_synthetic", "data.generate_synthetic")
        self.wrap(harness, "corrupt_labels", "data.corrupt_labels")
        self.wrap(harness, "run", "optimizer.run",
                  before=self._cell_start, after=self._cell_end)
        self.wrap(optimizer, "accuracy", "data.accuracy")
        self.wrap(optimizer, "rmd_minibatch_step", "optimizer.rmd_minibatch_step")
        self.wrap(MLPModel, "batch_loss_and_grad", "models.batch_loss_and_grad")
        self.wrap(MLPModel, "sample_losses", "models.sample_losses", before=self._eval_rows)
        self.wrap(MLPModel, "batch_predict", "models.batch_predict", before=self._eval_rows)
        for cls in (SquaredL2, QNorm, NegativeEntropy):
            self.wrap(cls, "step", "potentials.step", before=self._step_bytes)
            self.wrap(cls, "bregman", "potentials.bregman", after=self._epoch_end)
            for method in ("grad", "grad_inverse", "grad_inverse_deriv", "value", "curvature"):
                self.wrap(cls, method, f"potentials.{method}")
        for kernel in ("l2_step", "qnorm_step", "entropy_step"):
            self.wrap(kernels, kernel, "kernels.step")
        for solver in ("min_norm_l2", "min_potential_dual", "ridge_closed_form",
                       "regularized_reference"):
            self.wrap(oracle, solver, f"oracle.{solver}")
        self.wrap(oracle, "solve_linear_system", "numerics.solve_linear_system",
                  before=self._solve_flops)

    def snapshot(self):
        return {"stats": self.stats, "computed": self.computed,
                "cells": self.cells, "epochs": self.epochs}
