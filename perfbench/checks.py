"""Output checks written against the file formats, not against regmirror.

Nothing here imports the package: the metrics CSV is parsed with the
``csv`` module and the oracle solutions are checked with numpy alone.
Each function returns a list of failure messages (empty when all pass).
"""

import csv
import math

import numpy as np

from workloads import GRID_LAMBDAS

HEADER = ["experiment_id", "algorithm", "lambda", "eta", "seed", "epoch",
          "train_loss", "train_accuracy", "test_accuracy", "constraint_residual",
          "bregman_from_init", "stop_reason"]
STOP_REASONS = {"interpolated", "constraint-converged", "loss-converged", "budget"}


def read_cells(path):
    """Parse a metrics CSV into {experiment_id: [row dicts]} in file order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != HEADER:
            raise ValueError(f"unexpected header {header}")
        cells = {}
        for row in reader:
            if len(row) != len(HEADER):
                raise ValueError(f"row with {len(row)} fields: {row}")
            cells.setdefault(row[0], []).append(dict(zip(HEADER, row)))
    return cells


def _number(text):
    return math.nan if text in ("NA", "na") else float(text)


def check_cell(name, rows, epochs, seed):
    """A cell's rows count epochs 1..k, are finite, and end with a valid stop."""
    errors = []
    final = rows[-1]
    if final["stop_reason"] not in STOP_REASONS:
        return [f"{name}: stopped {final['stop_reason']!r}"]
    if any(r["stop_reason"] for r in rows[:-1]):
        errors.append(f"{name}: stop reason before the final row")
    if [int(r["epoch"]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append(f"{name}: epochs are not 1..{len(rows)}")
    if (final["stop_reason"] == "budget") != (len(rows) == epochs):
        errors.append(f"{name}: {len(rows)} rows with stop {final['stop_reason']!r}")
    for r in rows:
        if int(r["seed"]) != seed:
            errors.append(f"{name}: seed {r['seed']} != {seed}")
            break
        loss, breg = _number(r["train_loss"]), _number(r["bregman_from_init"])
        accs = (_number(r["train_accuracy"]), _number(r["test_accuracy"]))
        resid = _number(r["constraint_residual"])
        if not (math.isfinite(loss) and loss >= 0 and math.isfinite(breg) and breg >= 0
                and all(math.isfinite(a) and 0.0 <= a <= 100.0 for a in accs)
                and (r["algorithm"] != "rmd" or math.isfinite(resid))):
            errors.append(f"{name}: bad values at epoch {r['epoch']}: {r}")
            break
    return errors


def grid_cell_ids():
    lams = [format(v, ".10g") for v in GRID_LAMBDAS]
    return (["sgd-lamna-eta0.1"] + [f"rmd-lam{v}-eta0.1" for v in lams]
            + [f"wd-lam{v}-eta0.1" for v in lams])


def check_grid(cells, epochs, seed):
    """Return (failed cell count, messages, rmd_gain_pts) for the corruption grid.

    Besides per-cell validity, the grid must show the paper's direction at
    this budget: best RMD final test accuracy >= SGD's. The full criterion-9
    predicate (SGD memorizes, RMD wins by 2 points) needs the 2,000-epoch
    budget and is left to the test suite.
    """
    expected = grid_cell_ids()
    if list(cells) != expected:
        return len(expected), [f"cells {list(cells)} != {expected}"], math.nan
    failed, errors = 0, []
    for name in expected:
        cell_errors = check_cell(name, cells[name], epochs, seed)
        failed += bool(cell_errors)
        errors += cell_errors
    finals = {name: cells[name][-1] for name in expected}
    sgd_test = float(finals[expected[0]]["test_accuracy"])
    rmd_best = max(float(f["test_accuracy"]) for f in finals.values()
                   if f["algorithm"] == "rmd")
    if not rmd_best >= sgd_test:
        errors.append(f"best rmd test accuracy {rmd_best} < sgd {sgd_test}")
    return failed, errors, rmd_best - sgd_test


def check_q3(cells, epochs, seed):
    """Return (failed cell count, messages) for the per-sample RMD cell."""
    if list(cells) != ["rmd-lam1-eta0.003"]:
        return 1, [f"cells {list(cells)} != ['rmd-lam1-eta0.003']"]
    rows = cells["rmd-lam1-eta0.003"]
    errors = check_cell("rmd-lam1-eta0.003", rows, epochs, seed)
    if not errors and rows[-1]["stop_reason"] != "budget":
        errors.append(f"stopped {rows[-1]['stop_reason']!r} before the budget")
    return int(bool(errors)), errors


def check_solution(kind, x, y, lam, w):
    """Check one oracle solution; kind is the solver label used by the worker."""
    w = np.asarray(w, dtype=float)
    if w.shape != (x.shape[1],) or not np.all(np.isfinite(w)):
        return [f"{kind}: shape {w.shape} or non-finite entries"]
    scale = 1.0 + float(np.max(np.abs(y)))
    if kind in ("min_norm_l2", "dual_q3", "dual_entropy"):
        res = float(np.max(np.abs(x @ w - y)))
        if res > 1e-8 * scale:
            return [f"{kind}: max|Xw - y| = {res:.2e}"]
        if kind == "dual_entropy" and not np.all(w > 0):
            return [f"{kind}: nonpositive weight"]
        return []
    if kind == "ridge":
        ref = np.linalg.solve(lam * (x.T @ x) + np.eye(x.shape[1]), lam * (x.T @ y))
        dev = float(np.max(np.abs(w - ref)))
        return [] if dev <= 1e-8 * (1.0 + float(np.max(np.abs(ref)))) else [
            f"{kind}: differs from numpy.linalg.solve by {dev:.2e}"]
    raise ValueError(f"unknown solver label {kind!r}")
