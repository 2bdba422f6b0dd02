import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from regmirror import cli, harness, optimizer
from regmirror.cli import main
from regmirror.numerics import openblas_thread_api

CONFIG = """
hidden =
classes = 2
n_train = 20
n_test = 10
input_dim = 8
noise = 0.2
algorithms = sgd,rmd
lambdas = 1.0
etas = 0.05
epochs = 20
stop_window = 5
batch_size = 4
seed = 1
"""


def test_run_and_summarize(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "metrics.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    # rerunning without --force fails, with --force succeeds
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert main(["run", str(cfg), "--out", str(out), "--force"]) == 0

    capsys.readouterr()
    assert main(["summarize", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("algorithm,lambda")
    assert len(lines) == 3
    # summarize only prints: the shell's redirection saves the table
    with pytest.raises(SystemExit) as exit_info:
        main(["summarize", str(out), "--out", str(tmp_path / "summary.csv")])
    assert exit_info.value.code == 2
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "metrics.csv"]


def test_run_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "metrics.csv"
    assert main(["run", str(cfg), "--out", str(out), "--algorithm", "sgd",
                 "--epochs", "3", "--seed", "7"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "sgd" for row in rows)
    assert all(row.split(",")[4] == "7" for row in rows)
    assert 1 <= len(rows) <= 3  # sgd may stop early at interpolation
    assert rows[-1].split(",")[11] in ("interpolated", "budget")


def test_run_records_domain_error_and_exits_zero(tmp_path, monkeypatch):
    # the cell starts at w0 = -1, outside the entropy domain
    monkeypatch.setattr(harness, "run", lambda model, *args, **kwargs: optimizer.run(
        model, *args, w0=-np.ones(model.n_params), **kwargs))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + "potential = entropy\nalgorithms = rmd\n")
    out = tmp_path / "metrics.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(",domain-error")


@pytest.mark.parametrize("command", ["run", "summarize"])
def test_missing_input_file_is_one_error_line(tmp_path, capsys, command):
    missing = tmp_path / "missing.file"
    assert main([command, str(missing)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
    assert captured.out == ""


def test_run_refuses_out_in_missing_directory_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(harness, "_cell_rows", no_training)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "absent" / "metrics.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert not out.parent.exists()


@pytest.mark.parametrize("out, force", [("dir", False), ("dir", True), ("", False)],
                         ids=["directory", "directory-force", "empty"])
def test_run_refuses_unusable_out_before_training(tmp_path, capsys, monkeypatch, out, force):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: calls.append(args))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    if out:
        out = tmp_path / out
        out.mkdir()
    assert main(["run", str(cfg), "--out", str(out)] + ["--force"] * force) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(str(out)) in err[0]
    assert calls == []


_BLAS_THREADS_SCRIPT = """
import regmirror.cli
from regmirror.numerics import openblas_thread_api
print(openblas_thread_api()[0]())
"""


def test_cli_starts_openblas_at_one_thread_unless_set(tmp_path):
    if openblas_thread_api() is None:
        pytest.skip("no OpenBLAS thread API reachable")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("hidden =", "hidden = 8,8"))
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    threads, csvs = [], []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        env = dict(base, PYTHONPATH=str(src), **extra)
        out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        threads.append(out.stdout.strip())
        csv = tmp_path / f"threads{len(csvs)}.csv"
        out = subprocess.run([sys.executable, "-m", "regmirror.cli", "run", str(cfg),
                              "--out", str(csv)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        csvs.append(csv.read_bytes())
    assert threads == ["1", "2"]
    assert csvs[0] == csvs[1] and csvs[0].count(b"\n") > 1


_MODULES_AFTER_RUN_SCRIPT = """
import sys
from regmirror.cli import main
code = main(sys.argv[1:])
print(sorted(name for name in ("regmirror.oracle", "multiprocessing", "concurrent.futures.process")
             if name in sys.modules))
sys.exit(code)
"""


def test_one_process_run_loads_neither_oracle_nor_pool(tmp_path):
    # a one-cell grid starts no helper, so it pays for neither import
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("algorithms = sgd,rmd", "algorithms = sgd"))
    out = subprocess.run([sys.executable, "-c", _MODULES_AFTER_RUN_SCRIPT, "run", str(cfg),
                          "--out", str(tmp_path / "m.csv")],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"wrote {tmp_path / 'm.csv'}", "[]"]
    assert (tmp_path / "m.csv").read_text().count("\n") > 1


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--kind", "minnorm", "--n", "3", "--p", "9",
                 "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert "max |Xw - y|" in text
    residual = float(text.split("max |Xw - y| = ")[1].split()[0])
    assert residual < 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("potential", ["l2", "q:3", "q:1.5", "l1eps", "linf", "entropy"])
def test_oracle_dual_solves_every_advertised_potential(capsys, potential):
    assert main(["oracle", "--kind", "dual", "--potential", potential]) == 0
    residual = float(capsys.readouterr().out.split("max |Xw - y| = ")[1].split()[0])
    assert residual < 1e-9


# seeded instances on which no positive interpolant exists: X is square and
# its only interpolant is not positive (10x10), or the KKT Newton stalls
# (20x24, 5x6)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, p, message", [
    (10, 10, "negative-entropy potential requires strictly positive weights"),
    (20, 24, "KKT Newton stalled at residual"),
    (5, 6, "KKT Newton stalled at residual"),
], ids=["10-10", "20-24", "5-6"])
def test_oracle_entropy_dual_without_positive_interpolant_is_one_error_line(capsys, n, p,
                                                                            message):
    assert main(["oracle", "--kind", "dual", "--potential", "entropy",
                 "--n", str(n), "--p", str(p)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert captured.out == ""


# the dual map's power 1 / (q - 1) = 10,000 overflows, and the Newton stalls
@pytest.mark.filterwarnings("error")
def test_oracle_dual_q_near_one_is_one_error_line(capsys):
    assert main(["oracle", "--kind", "dual", "--potential", "q:1.0001"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: KKT Newton stalled at residual nan"]
    assert captured.out == ""


# a primal Newton over the null space of X stalled on these at gradients of
# 9.5e-16 to 2.1e-15
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(4))
def test_oracle_dual_q16_solves_seeded_instances(capsys, seed):
    assert main(["oracle", "--kind", "dual", "--potential", "q:16", "--n", "20", "--p", "100",
                 "--seed", str(seed)]) == 0
    residual = float(capsys.readouterr().out.split("max |Xw - y| = ")[1].split()[0])
    assert residual < 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("potential", ["l2", "q:3", "q:1.5", "l1eps", "linf", "entropy"])
def test_oracle_reference_solves_every_advertised_potential(capsys, potential):
    assert main(["oracle", "--kind", "reference", "--potential", potential]) == 0
    assert "objective =" in capsys.readouterr().out


def test_oracle_reference_reports_objective(capsys):
    assert main(["oracle", "--kind", "reference", "--n", "3", "--p", "8",
                 "--potential", "q:3", "--lambda", "0.5"]) == 0
    assert "objective =" in capsys.readouterr().out


# `regmirror oracle` arguments out of range, and the flag the error must name
BAD_ORACLE_ARGS = [
    (["--p", "0"], "--p"),
    (["--n", "40", "--p", "30"], "--p"),
    (["--n", "0"], "--n"),
    (["--kind", "reference", "--lambda", "-1"], "--lambda"),
    (["--kind", "ridge", "--lambda", "0"], "--lambda"),
    (["--kind", "reference", "--lambda", "0"], "--lambda"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, flag", BAD_ORACLE_ARGS,
                         ids=["".join(args) for args, _ in BAD_ORACLE_ARGS])
def test_oracle_bad_argument_is_one_error_line(capsys, args, flag):
    assert main(["oracle", *args]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0]
    assert captured.out == ""


# every `regmirror run` flag, a value other than its key's default, and that value parsed
RUN_FLAGS = [
    ("--lambda", "0.5,3", "lambdas", (0.5, 3.0)),
    ("--eta", "0.2", "etas", (0.2,)),
    ("--potential", "q:3", "potential", "q:3"),
    ("--algorithm", "smd,wd", "algorithms", ("smd", "wd")),
    ("--corruption", "0.4", "corruption", 0.4),
    ("--seed", "11", "seed", 11),
    ("--batch-size", "7", "batch_size", 7),
    ("--epochs", "9", "epochs", 9),
    ("--stop-window", "13", "stop_window", 13),
    ("--stop-tol", "0.5", "stop_tol", 0.5),
    ("--out", "elsewhere.csv", "out", "elsewhere.csv"),
]


@pytest.mark.parametrize("flag, text, key, value", RUN_FLAGS, ids=[f[0] for f in RUN_FLAGS])
def test_run_flag_sets_its_key(tmp_path, monkeypatch, flag, text, key, value):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, force: ran.append(cfg))
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert main(["run", str(path), flag, text]) == 0
    assert getattr(harness.ExperimentConfig(), key) != value
    assert getattr(ran[0], key) == value


def test_run_flags_are_the_listed_ones(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--force"} | {flag for flag, *_ in RUN_FLAGS}


# the key or flag a bad value's error must name, and the config lines (appended
# to CONFIG) that set it, or the `regmirror oracle` arguments that pass it
BAD_VALUES = [
    ("batch_size", "batch_size = 0"),
    ("etas", "etas = 0"),
    ("lambdas", "lambdas = -1"),
    ("n_train", "n_train = 0"),
    ("classes", "classes = 0"),
    ("hidden", "hidden = 0"),
    ("hidden", "hidden = 64,0"),  # every width
    ("model", "model = linear"),  # an empty hidden is the linear model
    ("potential", "potential = q:1"),
    ("potential", "potential = foo"),
    ("epochs", "epochs = 0"),
    ("stop_window", "stop_window = 0"),  # every rmd and wd cell would stop after epoch 1
    ("stop_tol", "stop_tol = nan"),  # every rmd and wd cell would run to the epoch budget
    ("stop_tol", "stop_tol = -1"),  # likewise
    ("stop_tol", "stop_tol = inf"),  # every rmd and wd cell would stop at its first window
    ("potential", "potential = q:inf"),  # smd weights would never move
    ("noise", "noise = nan"),  # every cell would be non-finite at epoch 0
    ("separation", "separation = inf"),  # likewise
    ("etas", "etas = inf"),  # likewise
    ("lambdas", "lambdas = inf"),  # rmd would run as smd and wd as sgd
    ("init_scale", "init_scale = nan"),  # every cell would be non-finite at epoch 0
    ("init_scale", "init_scale = -1"),  # a standard deviation below 0
    ("seed", "seed = -1"),  # numpy refuses a negative seed
    ("algorithms", "algorithms = sgd,,rmd"),
    ("algorithms", "algorithms = sgd,rmd,sgd"),  # two cells would share an experiment_id
    ("lambdas", "lambdas = 1.0,1"),  # likewise: both read lam1
    ("etas", "etas = 0.1,0.10"),  # likewise: both read eta0.1
    ("potential", ["--potential", "foo"]),
    ("--seed", ["--seed", "-1"]),
    ("--lambda", ["--kind", "ridge", "--lambda", "inf"]),
    ("--lambda", ["--kind", "reference", "--lambda", "inf"]),
]


@pytest.mark.parametrize("key, case", BAD_VALUES,
                         ids=[case.splitlines()[-1].replace(" ", "") if isinstance(case, str)
                              else "oracle" + "".join(case) for _, case in BAD_VALUES])
def test_bad_value_is_one_error_line(tmp_path, capsys, key, case):
    out = tmp_path / "metrics.csv"
    if isinstance(case, str):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG + case + "\n")
        argv = ["run", str(cfg), "--out", str(out)]
    else:
        argv = ["oracle", *case]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()
