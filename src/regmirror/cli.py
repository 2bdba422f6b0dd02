"""Command-line interface.

Subcommands:
  run        train the configured grid and write a metrics CSV
  summarize  reduce a metrics CSV to final accuracies per grid cell
  oracle     solve a seeded linear instance with the ground-truth solvers

Timings come from the repository's benchmark, ``python3 perfbench/run.py``
(``--trace 1`` adds the per-layer split).
"""

import argparse
import dataclasses
import sys

import numpy as np

from .errors import RegmirrorError
from .harness import ExperimentConfig, load_config, run_experiment, summarize
from .numerics import rng_stream
from .oracle import (InterpolationProblem, RegularizedProblem, min_norm_l2,
                     min_potential_dual, regularized_objective,
                     regularized_reference, ridge_closed_form)
from .potentials import SquaredL2, parse_potential


def _flag_fields():
    """The ``ExperimentConfig`` fields that have a ``regmirror run`` flag."""
    return [field for field in dataclasses.fields(ExperimentConfig) if field.metadata["flag"]]


def _build_parser():
    parser = argparse.ArgumentParser(prog="regmirror")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite an existing output CSV")
    for field in _flag_fields():
        p_run.add_argument(field.metadata["flag"], dest=field.name)

    p_sum = sub.add_parser("summarize", help="summarize a metrics CSV")
    p_sum.add_argument("csv")
    p_sum.add_argument("--out", help="write the summary CSV here instead of stdout")

    p_or = sub.add_parser("oracle", help="solve a seeded linear instance exactly")
    p_or.add_argument("--kind", choices=("minnorm", "dual", "ridge", "reference"),
                      default="minnorm")
    p_or.add_argument("--n", type=int, default=10)
    p_or.add_argument("--p", type=int, default=30)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--potential", default="l2")
    p_or.add_argument("--lambda", dest="lam", type=float, default=1.0)
    return parser


def _cmd_run(args):
    overrides = {field.name: getattr(args, field.name) for field in _flag_fields()
                 if getattr(args, field.name) is not None}
    cfg = load_config(args.config, overrides)
    run_experiment(cfg, force=args.force)
    print(f"wrote {cfg.out}")


def _cmd_summarize(args):
    text = summarize(args.csv, out=args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_oracle(args):
    if args.n < 1:
        raise RegmirrorError(f"--n must be at least 1, got {args.n}")
    if args.p < args.n:
        raise RegmirrorError(f"--p must be at least --n ({args.n}), got {args.p}")
    if not args.lam > 0.0:
        raise RegmirrorError(f"--lambda must be positive, got {args.lam:g}")
    rng = rng_stream(args.seed)
    x = rng.standard_normal((args.n, args.p))
    y = rng.standard_normal(args.n)
    problem = InterpolationProblem(x, y)
    try:
        potential = parse_potential(args.potential)
    except ValueError as exc:
        raise RegmirrorError(f"bad value for 'potential': {args.potential!r} ({exc})") from exc
    if args.kind == "minnorm":
        w = min_norm_l2(problem)
    elif args.kind == "dual":
        w = min_potential_dual(problem, potential)
    else:
        rp = RegularizedProblem(problem, args.lam, potential)
        if args.kind == "ridge":
            if not isinstance(potential, SquaredL2):
                raise RegmirrorError("ridge closed form requires --potential l2")
            w = ridge_closed_form(rp)
        else:
            w = regularized_reference(rp)
        print(f"objective = {regularized_objective(rp, w):.12g}")
    print(f"max |Xw - y| = {float(np.max(np.abs(x @ w - y))):.3e}")
    print("w =", np.array2string(w, precision=6, max_line_width=100))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        {"run": _cmd_run, "summarize": _cmd_summarize,
         "oracle": _cmd_oracle}[args.command](args)
    except RegmirrorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
