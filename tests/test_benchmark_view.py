"""The names the benchmark in ``perfbench/`` reads from the package.

``perfbench/tracer.py`` wraps package functions by name for ``--trace 1``,
and ``perfbench/worker.py`` records ``regmirror.kernel_backend`` in every
run's environment. The check runs in a subprocess so the tracer's wrappers
never leak into other tests.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_SCRIPT = """
import numpy as np
import regmirror
from regmirror import harness
from regmirror.data import Dataset
from regmirror.models import MLPModel
from regmirror.optimizer import HyperParams
from regmirror.potentials import QNorm
from tracer import Tracer
from worker import environment

assert environment()["kernel_backend"] == regmirror.kernel_backend
tracer = Tracer()
tracer.install()
rng = np.random.default_rng(0)
ds = Dataset(X=rng.standard_normal((6, 3)), Y=rng.standard_normal((6, 2)))
harness.run(MLPModel((3, 4, 2)), ds, "rmd", QNorm(3.0), HyperParams(eta=0.01),
            rng, epochs=2)
stats = tracer.snapshot()["stats"]
assert stats["kernels.step"][0] == stats["potentials.step"][0] == 12, stats
assert len(tracer.cells) == 1 and len(tracer.epochs) == 2
"""


def test_benchmark_tracer_and_env_record_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
