"""What each workload runs, at full size and at smoke size.

Every input derives from the workload seed given on the command line. The
training workloads hand the seed to ``regmirror run`` (it seeds the data and
every grid cell); the oracle workload draws its linear instances itself.
"""

import numpy as np

WORKLOADS = ("corruption-grid", "rmd-q3-per-sample", "oracle-solves")

# The criterion-9 grid (corruption 0.25, eta 0.1, sgd + 5 rmd + 5 wd cells)
# trains 749 to 2,000 epochs per cell, about 60 s per seed on 2 cores, which
# does not fit one timed run. The budget is cut to GRID_EPOCHS; stop_window
# keeps its default of 500, so every cell runs to the budget.
GRID_EPOCHS = 100
GRID_LAMBDAS = (0.7, 1.0, 1.3, 1.6, 2.0)

# The per-sample RMD rule on the same data. stop_window > epochs keeps the
# windowed stopping rule from firing, so each repeat does the same work.
Q3_EPOCHS = 40

# (n, p) sizes of the CLI default, the tests, and one larger size.
ORACLE_SIZES = ((10, 30), (20, 100), (60, 200))
ORACLE_INSTANCES = 16  # per size and repeat; four solvers each
ORACLE_LAMBDA = 1.0
# regularized_reference (q:3) is not timed: on about one standard-normal
# 10x30 instance in a hundred it stalls just above its absolute gradient
# tolerance and raises MaxIterationsError after 5,000 iterations (see
# README.md, "Known defect").
SOLVERS = ("min_norm_l2", "dual_q3", "dual_entropy", "ridge")

_SMOKE_DATA = "n_train = 40\nn_test = 20\nhidden = 6,6\n"


def config_text(workload, smoke=False):
    """The ``regmirror run`` config file a training workload uses."""
    if workload == "corruption-grid":
        text = ("corruption = 0.25\netas = 0.1\n"
                f"lambdas = {','.join(format(v, 'g') for v in GRID_LAMBDAS)}\n"
                f"epochs = {grid_epochs(smoke)}\n")
    elif workload == "rmd-q3-per-sample":
        epochs = q3_epochs(smoke)
        text = ("corruption = 0.25\nalgorithms = rmd\nlambdas = 1.0\netas = 0.003\n"
                f"potential = q:3\nbatch_size = 1\nepochs = {epochs}\n"
                f"stop_window = {epochs + 1}\n")
    else:
        raise ValueError(f"{workload!r} is not a training workload")
    return text + (_SMOKE_DATA if smoke else "")


def grid_epochs(smoke=False):
    return 3 if smoke else GRID_EPOCHS


def q3_epochs(smoke=False):
    return 2 if smoke else Q3_EPOCHS


def oracle_plan(smoke=False):
    """(sizes, instances per size) of one oracle repeat."""
    return (((3, 6), (4, 9)), 1) if smoke else (ORACLE_SIZES, ORACLE_INSTANCES)


def oracle_instances(seed, block, smoke=False):
    """Seeded (X, y, y_pos) instances; ``block`` selects which set a repeat solves.

    X and y are standard normal, as ``regmirror oracle`` draws them. The
    negative-entropy interpolant needs y inside the cone of X's columns, so
    it gets y_pos = X w with w drawn positive instead.
    """
    sizes, count = oracle_plan(smoke)
    instances = []
    for n, p in sizes:
        for i in range(count):
            rng = np.random.default_rng([seed, block, n, p, i])
            x = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            instances.append((x, y, x @ rng.uniform(0.5, 1.5, p)))
    return instances
