"""regmirror benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs repeats of one workload, each in a fresh worker process, until about
S seconds have passed (at least three repeats; four with tracing). With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repeats and reports the per-layer metrics
plus the tracing overhead. Every metric is printed with its unit, the
outputs are checked, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Run details (environment,
every repeat, spans) go to ``.perfbench_out/`` in the checkout.

The runner starts one worker at a time and leaves BLAS threading at the
program's default. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
RUN_LIMIT_S = 150.0   # stop starting repeats past this, to exit well inside 180 s

sys.path.insert(0, HERE)
from workloads import (SOLVERS, WORKLOADS, grid_epochs, oracle_plan,  # noqa: E402
                       q3_epochs)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
}
PER_LAYER = {
    "cli.import_s": "s", "data.generate_s": "s", "data.accuracy_self_s": "s",
    "models.eval_s": "s", "models.eval_rows_per_epoch": "count",
    "models.train_calls": "count", "models.train_s": "s",
    "potentials.step_calls": "count", "potentials.step_s": "s",
    "potentials.step_bytes": "computed-bytes", "potentials.dual_map_s": "s",
    "kernels.step_s": "s",
    "optimizer.epochs": "count", "optimizer.steps": "count", "optimizer.self_s": "s",
    "optimizer.epoch_ms_p50": "ms", "optimizer.epoch_ms_p99": "ms",
    "harness.cells": "count", "harness.cell_s_p50": "s", "harness.cell_s_max": "s",
    "harness.self_s": "s", "harness.csv_bytes": "bytes",
    "numerics.solve_calls": "count", "numerics.solve_s": "s",
    "numerics.solve_flops": "computed-flop", "oracle.self_s": "s",
    "bench.trace_overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercise every workload, metric and check fast")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def expected_ops(workload, smoke):
    if workload == "corruption-grid":
        return 11
    if workload == "rmd-q3-per-sample":
        return 1
    sizes, count = oracle_plan(smoke)
    return len(SOLVERS) * len(sizes) * count


def host_environment():
    env = {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
           "python": platform.python_version(), "commit": None}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    ref = fh.read().strip()
        env["commit"] = ref
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    env["src_sha256"] = digest.hexdigest()
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}"
                                + ("-smoke" if args.smoke else ""))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.start = time.monotonic()

    def spawn(self, spec, name):
        """Run one worker to completion.

        Returns (exit code, wall s, cpu s, monotonic start, parsed result or None).
        """
        spec = dict(spec, dir=self.dir, result=os.path.join(self.dir, f"{name}.json"))
        remaining = max(1.0, self.start + RUN_LIMIT_S + 20.0 - time.monotonic())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(os.path.join(self.dir, f"{name}.log"), "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)],
                                    cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            # an alarm, not a polling wait, so the wall time stays exact
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                code = proc.wait()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.monotonic() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result = None
        if code == 0:
            with open(spec["result"]) as fh:
                result = json.load(fh)
        return code, wall, cpu, t0, result

    def repeat(self, index, traced):
        a = self.args
        spec = {"workload": a.workload, "seed": a.seed, "index": index,
                "block": index // 2, "trace": traced, "smoke": a.smoke}
        code, wall, cpu, t0, result = self.spawn(spec, f"repeat-{index}")
        rec = {"index": index, "traced": traced, "block": index // 2, "code": code,
               "wall_s": wall, "cpu_s": cpu, "result": result}
        if result is not None:
            rec["setup_s"] = result["setup_mark"] - t0
            rec["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        return rec

    def run(self):
        a = self.args
        code, _, _, _, env = self.spawn({"workload": "env"}, "env")
        if code != 0:
            raise RuntimeError(f"worker could not import regmirror (exit {code}); "
                               f"see {self.dir}/env.log")
        records = []
        # with tracing, repeats come in (untraced, traced) pairs on the same inputs
        step, min_repeats = (2, 4) if a.trace else (1, 3)
        while True:
            for _ in range(step):
                rec = self.repeat(len(records), bool(a.trace and len(records) % 2))
                records.append(rec)
                if rec["result"] is None:
                    return env, records
            elapsed = time.monotonic() - self.start
            next_s = step * statistics.median(r["wall_s"] for r in records)
            if len(records) >= min_repeats and elapsed + next_s > a.seconds:
                return env, records
            if elapsed + next_s > RUN_LIMIT_S:
                return env, records


def check_records(args, records):
    """Check each repeat's outputs; fill rec['ops'], rec['failed'], rec['units']."""
    from checks import check_grid, check_q3, read_cells

    errors = []
    reference = {}
    ops = expected_ops(args.workload, args.smoke)
    for rec in records:
        rec["ops"], rec["failed"], res = ops, 0, rec["result"]
        if res is None:
            rec["failed"] = ops
            errors.append(f"repeat {rec['index']}: worker exited {rec['code']}")
            continue
        if args.workload == "oracle-solves":
            rec["ops"], rec["failed"] = res["ops"], res["failed"]
            errors += [f"repeat {rec['index']}: {e}" for e in res["errors"]]
            rec["units"] = res["ops"]
            key, digest = ("block", rec["block"]), res["digest"]
        else:
            with open(res["csv"], "rb") as fh:
                data = fh.read()
            rec["csv_sha256"] = digest = hashlib.sha256(data).hexdigest()
            rec["csv_bytes"] = len(data)
            try:
                cells = read_cells(res["csv"])
            except ValueError as exc:
                rec["failed"] = ops
                errors.append(f"repeat {rec['index']}: malformed CSV ({exc})")
                continue
            rec["units"] = sum(len(rows) for rows in cells.values())
            if args.workload == "corruption-grid":
                failed, msgs, rec["rmd_gain_pts"] = check_grid(
                    cells, grid_epochs(args.smoke), args.seed)
            else:
                failed, msgs = check_q3(cells, q3_epochs(args.smoke), args.seed)
            rec["failed"] = failed
            errors += [f"repeat {rec['index']}: {m}" for m in msgs]
            if msgs and not failed:
                rec["failed"] = 1
            key = "csv"
        if reference.setdefault(key, digest) != digest:
            errors.append(f"repeat {rec['index']}: output digest {digest} differs from "
                          f"{reference[key]} of an earlier repeat on the same inputs")
            rec["failed"] = max(rec["failed"], 1)
        rec["failed"] = min(rec["failed"], rec["ops"])
    return errors


def measured(records, traced=False):
    """Repeats whose outputs could be read (check_records set their units)."""
    return [r for r in records if "units" in r and r["traced"] == traced]


def end_to_end(records):
    ok = measured(records)
    med = lambda key: statistics.median(r[key] for r in ok)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ops_per_s": statistics.median(r["units"] / (r["wall_s"] - r["setup_s"]) for r in ok),
    }


def layer_metrics(rec):
    """Per-layer metrics of one traced repeat."""
    trace = rec["result"]["trace"]
    stats, computed = trace["stats"], trace["computed"]

    def total(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def self_time(*names):
        return sum(stats[n][1] - stats[n][2] for n in names if n in stats)

    def calls(name):
        return stats[name][0] if name in stats else 0

    cell_s = [end - start for start, end, _, _ in trace["cells"]]
    epochs = len(trace["epochs"])
    return {
        "cli.import_s": rec["result"]["import_s"],
        "data.generate_s": total("data.generate_synthetic", "data.corrupt_labels"),
        "data.accuracy_self_s": self_time("data.accuracy"),
        "models.eval_s": total("models.sample_losses", "models.batch_predict"),
        "models.eval_rows_per_epoch": computed["eval_rows"] / epochs if epochs else 0,
        "models.train_calls": calls("models.batch_loss_and_grad"),
        "models.train_s": total("models.batch_loss_and_grad"),
        "potentials.step_calls": calls("potentials.step"),
        "potentials.step_s": total("potentials.step"),
        "potentials.step_bytes": computed["step_bytes"],
        "potentials.dual_map_s": total("potentials.grad", "potentials.grad_inverse",
                                       "potentials.grad_inverse_deriv"),
        "kernels.step_s": total("kernels.step"),
        "optimizer.epochs": epochs,
        "optimizer.steps": calls("models.batch_loss_and_grad"),
        "optimizer.self_s": self_time("optimizer.run", "optimizer.rmd_minibatch_step"),
        "harness.cells": len(cell_s),
        "harness.cell_s_p50": statistics.median(cell_s) if cell_s else 0.0,
        "harness.cell_s_max": max(cell_s, default=0.0),
        "harness.self_s": total("harness.run_experiment") - sum(cell_s),
        "harness.csv_bytes": rec.get("csv_bytes", 0),
        "numerics.solve_calls": calls("numerics.solve_linear_system"),
        "numerics.solve_s": total("numerics.solve_linear_system"),
        "numerics.solve_flops": computed["solve_flops"],
        "oracle.self_s": self_time("oracle.min_norm_l2", "oracle.min_potential_dual",
                                   "oracle.ridge_closed_form", "oracle.regularized_reference"),
    }


def per_layer(records):
    traced, plain = measured(records, traced=True), measured(records)
    per_rec = [layer_metrics(r) for r in traced]
    out = {name: statistics.median(m[name] for m in per_rec) for name in per_rec[0]}
    epoch_ms = [(end - start) * 1e3 for r in traced for _, _, start, end in
                r["result"]["trace"]["epochs"]]
    out["optimizer.epoch_ms_p50"] = quantile(epoch_ms, 0.5) if epoch_ms else 0.0
    out["optimizer.epoch_ms_p99"] = quantile(epoch_ms, 0.99) if epoch_ms else 0.0
    out["bench.trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                     - statistics.median(r["wall_s"] for r in plain))
    return out, len(epoch_ms)


def extra_figures(args, records):
    """Workload-specific figures printed with the report (not in the JSON line)."""
    ok = measured(records)
    out = {}
    if args.workload == "oracle-solves":
        solve_ms = [t for r in ok for t in r["result"]["solve_ms"]]
        out["solve_ms_p50"] = (quantile(solve_ms, 0.5), "ms")
        out["solve_ms_p90"] = (quantile(solve_ms, 0.9), "ms")
        out["solves_per_s"] = (len(solve_ms) / (sum(solve_ms) / 1e3), "1/s")
        out["solves_timed"] = (len(solve_ms), "count")
    else:
        out["cell_epochs"] = (ok[0]["units"], "count")
        out["csv_sha256"] = (ok[0].get("csv_sha256"), "sha256")
    if args.workload == "corruption-grid":
        out["rmd_gain_pts"] = (ok[0]["rmd_gain_pts"], "points")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "regmirror", "__init__.py")):
        print(f"error: no regmirror source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    host = host_environment()
    runner = Runner(args)
    env, records = runner.run()
    errors = check_records(args, records)
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    have_both = bool(measured(records)) and (
        not args.trace or bool(measured(records, traced=True)))
    correct = not errors and failed == 0 and have_both

    metrics, units, epoch_samples = {}, END_TO_END, None
    if have_both:
        if args.trace:
            metrics, epoch_samples = per_layer(records)
            units = PER_LAYER
        else:
            metrics = end_to_end(records)
    extras = extra_figures(args, records) if have_both else {}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(records)} repeats "
          f"({len(measured(records))} untraced) in {time.monotonic() - runner.start:.1f} s")
    print("env: " + json.dumps(dict(host, **env), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for name, (value, unit) in extras.items():
        text = value if isinstance(value, str) else f"{value:>16.6g}"
        print(f"  {name:<28} {text:>16} {unit}")
    if epoch_samples is not None:
        print(f"  epoch percentiles pooled over {epoch_samples} traced epochs")
    print(f"  failed_frac {failed}/{attempted} = {failed / max(attempted, 1):.3g}")
    for line in errors:
        print(f"  FAIL {line}")
    with open(os.path.join(runner.dir, "report.json"), "w") as fh:
        json.dump({"args": vars(args), "env": dict(host, **env), "metrics": metrics,
                   "extras": extras, "errors": errors, "attempted": attempted,
                   "failed": failed, "repeats": records}, fh)
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if have_both else 1


if __name__ == "__main__":
    sys.exit(main())
