import numpy as np

from regmirror import harness, optimizer
from regmirror.cli import main

CONFIG = """
model = linear
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

    summary = tmp_path / "summary.csv"
    assert main(["summarize", str(out), "--out", str(summary)]) == 0
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("algorithm,lambda")
    assert len(lines) == 3


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


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--kind", "minnorm", "--n", "3", "--p", "9",
                 "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert "max |Xw - y|" in text
    residual = float(text.split("max |Xw - y| = ")[1].split()[0])
    assert residual < 1e-9


def test_oracle_reference_reports_objective(capsys):
    assert main(["oracle", "--kind", "reference", "--n", "3", "--p", "8",
                 "--potential", "q:3", "--lambda", "0.5"]) == 0
    assert "objective =" in capsys.readouterr().out


def test_bench_runs(capsys):
    assert main(["bench", "--sizes", "64", "--repeats", "3"]) == 0
    out = capsys.readouterr().out
    assert "l2" in out and "qnorm(3)" in out and "entropy" in out
