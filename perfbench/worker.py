"""One repeat of one workload, in a process of its own.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, repeat block, whether to trace, the
scratch directory and the result file. The worker imports regmirror from
the checkout's ``src``, runs the workload the way a user would, and writes
one JSON result. It never changes the BLAS thread count.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, read from the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import regmirror
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas, "blas_threads": blas_threads(),
            "kernel_backend": regmirror.kernel_backend}


def run_training(spec, mark):
    import regmirror.cli as cli
    import regmirror.harness as harness
    from tracer import first_call_marker
    from workloads import config_text

    first_call_marker(harness, "run", mark)
    cfg = os.path.join(spec["dir"], f"{spec['workload']}.cfg")
    with open(cfg, "w") as fh:
        fh.write(config_text(spec["workload"], spec["smoke"]))
    csv_path = os.path.join(spec["dir"], f"{spec['workload']}-{spec['index']}.csv")
    tracer = _tracer(spec)
    code = cli.main(["run", cfg, "--seed", str(spec["seed"]), "--out", csv_path, "--force"])
    if code != 0:
        raise RuntimeError(f"regmirror run exited {code}")
    return {"csv": csv_path, "trace": tracer and tracer.snapshot()}


def run_oracle(spec, mark):
    import hashlib

    import numpy as np
    import regmirror.oracle as oracle
    from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2
    from checks import check_solution
    from workloads import ORACLE_LAMBDA, oracle_instances

    lam = ORACLE_LAMBDA
    jobs = []
    for x, y, y_pos in oracle_instances(spec["seed"], spec["block"], spec["smoke"]):
        problem = oracle.InterpolationProblem(x, y)
        positive = oracle.InterpolationProblem(x, y_pos)
        jobs += [
            ("min_norm_l2", x, y, lambda p=problem: oracle.min_norm_l2(p)),
            ("dual_q3", x, y, lambda p=problem: oracle.min_potential_dual(p, QNorm(3.0))),
            ("dual_entropy", x, y_pos,
             lambda p=positive: oracle.min_potential_dual(p, NegativeEntropy())),
            ("ridge", x, y, lambda rp=oracle.RegularizedProblem(problem, lam, SquaredL2()):
             oracle.ridge_closed_form(rp)),
        ]
    tracer = _tracer(spec)
    digest = hashlib.sha256()
    solve_ms, errors, failed = [], [], 0
    clock = time.perf_counter
    mark[0] = time.monotonic()
    for kind, x, y, solve in jobs:
        start = clock()
        try:
            w = solve()
        except Exception as exc:  # a solve that raises is a failed operation
            solve_ms.append((clock() - start) * 1e3)
            failed += 1
            errors.append(f"{kind}: raised {exc!r}")
            continue
        solve_ms.append((clock() - start) * 1e3)
        digest.update(np.asarray(w, dtype=float).tobytes())
        problems = check_solution(kind, x, y, lam, w)
        failed += bool(problems)
        errors += problems
    return {"solve_ms": solve_ms, "ops": len(jobs), "failed": failed, "errors": errors,
            "digest": digest.hexdigest(), "trace": tracer and tracer.snapshot()}


def _tracer(spec):
    if not spec["trace"]:
        return None
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    start = time.perf_counter()
    import regmirror.cli  # noqa: F401  (timed: the import a user pays)
    import_s = time.perf_counter() - start
    if spec["workload"] == "env":
        # also warms the page cache and __pycache__ before the timed repeats
        with open(spec["result"], "w") as fh:
            json.dump(environment(), fh)
        return 0
    mark = [None]
    if spec["workload"] == "oracle-solves":
        result = run_oracle(spec, mark)
    else:
        result = run_training(spec, mark)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(setup_mark=mark[0], import_s=import_s, maxrss_kb=usage.ru_maxrss)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
