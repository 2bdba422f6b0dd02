"""Smoke test of the benchmark: every workload, metric and check at tiny size.

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402


def bench(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    return out


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name, unit in expected.items():
        assert name in out.stdout and unit in out.stdout
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    elif workload == "oracle-solves":
        assert last["metrics"]["numerics.solve_calls"]["value"] > 0
    else:
        metrics = last["metrics"]
        assert metrics["optimizer.epochs"]["value"] > 0
        assert metrics["models.train_calls"]["value"] == metrics["optimizer.steps"]["value"]


def test_refuses_without_source(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (copy / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "oracle-solves",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_checks_catch_bad_outputs(tmp_path):
    import numpy as np

    x = np.eye(2, 3)
    y = np.array([1.0, 2.0])
    assert checks.check_solution("min_norm_l2", x, y, 1.0, np.array([1.0, 2.0, 0.0])) == []
    assert checks.check_solution("min_norm_l2", x, y, 1.0, np.array([1.0, 2.1, 0.0]))
    assert checks.check_solution("dual_entropy", x, y, 1.0, np.array([1.0, 2.0, 0.0]))
    assert checks.check_solution("ridge", x, y, 1.0, np.zeros(3))

    path = tmp_path / "m.csv"
    row = "rmd-lam1-eta0.003,rmd,1,0.003,0,{e},0.5,50,50,1.0,0.1,{s}\n"
    path.write_text(",".join(checks.HEADER) + "\n" + row.format(e=1, s="")
                    + row.format(e=2, s="budget"))
    assert checks.check_q3(checks.read_cells(path), 2, 0) == (0, [])
    assert checks.check_q3(checks.read_cells(path), 3, 0)[0] == 1
    path.write_text(",".join(checks.HEADER) + "\n" + row.format(e=1, s="non-finite"))
    assert checks.check_q3(checks.read_cells(path), 1, 0)[0] == 1
