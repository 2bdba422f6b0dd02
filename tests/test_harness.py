import contextlib
import dataclasses
import itertools
import os
import re
import select
import signal
import time

import numpy as np
import pytest

from regmirror import cli, harness, optimizer
from regmirror.errors import ConfigError
from regmirror.harness import (CSV_HEADER, ExperimentConfig, load_config,
                               run_experiment, summarize)
from regmirror.numerics import openblas_thread_api

TINY = """
# a tiny, fast grid for harness tests (linear: no hidden layers)
hidden =
classes = 3
n_train = 30
n_test = 20
input_dim = 40
noise = 0.3
corruption = 0.1
algorithms = sgd,rmd
lambdas = 0.5,2.0
etas = 0.01
epochs = 40
stop_window = 10
batch_size = 4
seed = 5
"""


def start_outside_domain(model, *args, **kwargs):
    """``optimizer.run`` started at w0 = -1, which no entropy cell accepts."""
    return optimizer.run(model, *args, w0=-np.ones(model.n_params), **kwargs)


def write_config(tmp_path, text=TINY, **extra):
    path = tmp_path / "exp.cfg"
    lines = [text] + [f"{key} = {value}" for key, value in extra.items()]
    path.write_text("\n".join(lines))
    return path


class TestConfig:
    def test_defaults_and_parsing(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.hidden == ()
        assert cfg.lambdas == (0.5, 2.0)
        assert cfg.algorithms == ("sgd", "rmd")
        assert cfg.stop_tol == 1e-4  # untouched default

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_config(tmp_path), {"lambdas": "1.5", "seed": "9"})
        assert cfg.lambdas == (1.5,)
        assert cfg.seed == 9

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("hidden =\nwat = 1\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            load_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        with pytest.raises(ConfigError, match="epochs"):
            load_config(write_config(tmp_path, epochs="soon"))

    def test_invalid_fraction_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="corruption"):
            load_config(write_config(tmp_path, corruption="1.5"))

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="adam"):
            load_config(write_config(tmp_path, algorithms="adam"))

    def test_list_items(self, tmp_path):
        # hidden drops empty items, lambdas and etas reject them, and algorithms
        # keeps them for its rule to refuse
        assert load_config(write_config(tmp_path, hidden="16,,16,")).hidden == (16, 16)
        for key in ("lambdas", "etas"):
            with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
                load_config(write_config(tmp_path, **{key: "0.5,,2"}))
        with pytest.raises(ConfigError, match="bad value for 'algorithms'"):
            load_config(write_config(tmp_path, algorithms="sgd,,rmd"))

    def test_every_default_written_as_text_loads_back(self, tmp_path):
        def as_text(value):
            return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

        defaults = ExperimentConfig()
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{field.name} = {as_text(getattr(defaults, field.name))}\n"
                                for field in dataclasses.fields(ExperimentConfig)))
        assert load_config(path) == defaults

    def test_readme_key_table_matches_defaults(self, tmp_path):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            table = fh.read().split("| key | default | valid values | meaning |\n"
                                    "| --- | --- | --- | --- |\n", 1)[1]
        lines, needs = [], {}
        for row in table.split("\n\n", 1)[0].splitlines():
            keys, defaults, rules = (re.findall(r"`([^`]*)`", cell)
                                     for cell in row.split("|")[1:4])
            assert len(keys) == len(defaults) == len(rules), row
            lines += [f"{key} = {text}" for key, text in zip(keys, defaults)]
            needs.update(zip(keys, rules))
        assert needs == {field.name: field.metadata["need"]
                         for field in dataclasses.fields(ExperimentConfig)}
        path = tmp_path / "readme.cfg"
        path.write_text("\n".join(lines))
        assert load_config(path) == ExperimentConfig()


class TestRunExperiment:
    def test_grid_size_and_header(self, tmp_path):
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, out=str(out), algorithms="sgd,smd,rmd"))
        run_experiment(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        finals = [line for line in lines[1:] if line.split(",")[11]]
        # sgd and smd ignore lambda and run once, rmd once per lambda
        assert len(finals) == 4
        ids = {line.split(",")[0] for line in lines[1:]}
        assert ids == {"sgd-lamna-eta0.01", "smd-lamna-eta0.01",
                       "rmd-lam0.5-eta0.01", "rmd-lam2-eta0.01"}

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(load_config(write_config(tmp_path, out=str(out1))))
        run_experiment(load_config(write_config(tmp_path, out=str(out2))))
        assert out1.read_bytes() == out2.read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, out=str(out)))
        run_experiment(cfg)
        with pytest.raises(ConfigError, match="force"):
            run_experiment(cfg)
        run_experiment(cfg, force=True)

    def test_domain_error_recorded_per_cell(self, tmp_path, monkeypatch):
        # every cell starts at w0 = -1, outside the entropy domain, so every cell fails
        monkeypatch.setattr(harness, "run", start_outside_domain)
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, out=str(out), potential="entropy",
                                       algorithms="rmd"))
        run_experiment(cfg)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["rmd-lam0.5-eta0.01", "rmd-lam2-eta0.01"]
        assert all(row[5] == "0" and row[11] == "domain-error" for row in rows)

    def test_entropy_grid_trains(self, tmp_path):
        # cells start at argmin psi = e^-1 plus the Gaussian init, inside the domain
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, "n_train = 100\nn_test = 50\nhidden = 16\n",
                                       out=str(out), potential="entropy",
                                       algorithms="smd,rmd", lambdas="1.0",
                                       etas="0.01,0.1", epochs="3"))
        run_experiment(cfg)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4 * 3
        assert all(np.isfinite(float(row[6])) and np.isfinite(float(row[10]))
                   for row in rows)
        assert [row[11] for row in rows if row[11]] == ["budget"] * 4

    @pytest.mark.parametrize("potential", ["q:3", "entropy"])
    def test_sgd_and_wd_cells_train_under_l2(self, tmp_path, monkeypatch, potential):
        # the configured potential is for smd and rmd only: sgd and wd start
        # near 0, not at argmin psi, and report the l2 Bregman distance
        runs = []

        def recording_run(*args, **kwargs):
            runs.append(optimizer.run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "run", recording_run)
        monkeypatch.setattr(harness, "_default_jobs", lambda: 1)  # cells run in this process
        out = tmp_path / "metrics.csv"
        run_experiment(load_config(write_config(tmp_path, out=str(out), potential=potential,
                                                algorithms="sgd,wd", epochs="3")))
        finals = [line.split(",") for line in out.read_text().splitlines()[1:]
                  if line.split(",")[11]]
        assert [row[1] for row in finals] == ["sgd", "wd", "wd"]
        for row, result in zip(finals, runs, strict=True):
            assert np.max(np.abs(result.w_init)) < 0.1
            l2_distance = 0.5 * float(np.sum((result.state.w - result.w_init) ** 2))
            assert float(row[10]) == pytest.approx(l2_distance, rel=1e-9)

    def test_overflowing_cell_recorded_as_non_finite(self, tmp_path):
        # eta 1 overflows the loss and the backward pass before the weights go
        # non-finite; the cell gets its one row, and no numpy warning escapes
        out = tmp_path / "metrics.csv"
        run_experiment(load_config(write_config(tmp_path, "n_train = 100\nn_test = 50\n",
                                                out=str(out), algorithms="sgd", etas="1.0",
                                                epochs="40")))
        assert out.read_text().splitlines()[1:] == [
            "sgd-lamna-eta1,sgd,na,1,0,0,NA,NA,NA,NA,NA,non-finite"]

    def test_test_accuracy_na_without_test_set(self, tmp_path):
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, out=str(out), n_test="0"))
        run_experiment(cfg)
        row = out.read_text().splitlines()[1].split(",")
        assert row[8] == "NA"


# the criterion-11 config, and the criterion-9 grid cut to 3 epochs on small data
CRITERION_11 = ("hidden =\nclasses = 3\nn_train = 30\nn_test = 20\n"
                "input_dim = 40\ncorruption = 0.1\nalgorithms = sgd,rmd\n"
                "lambdas = 1.0\netas = 0.01\nepochs = 30\n"
                "stop_window = 10\nbatch_size = 4\nseed = 3\n")
GRID_11_CELLS = ("corruption = 0.25\netas = 0.1\nepochs = 3\n"
                 "n_train = 100\nn_test = 50\nhidden = 16,16\n")


def _live_children():
    """Pids of this process's unreaped children, zombies included."""
    try:
        with open(f"/proc/self/task/{os.getpid()}/children") as fh:
            return set(fh.read().split())
    except FileNotFoundError:
        pytest.skip("needs /proc/<pid>/task/<tid>/children")


class TestParallelCells:
    @pytest.mark.parametrize("text", [CRITERION_11, GRID_11_CELLS],
                             ids=["criterion-11", "grid-11-cells"])
    def test_csv_independent_of_jobs(self, tmp_path, monkeypatch, text):
        csvs = []
        for jobs in (1, 2, 4):
            monkeypatch.setattr(harness, "_default_jobs", lambda jobs=jobs: jobs)
            out = tmp_path / f"jobs{jobs}.csv"
            run_experiment(load_config(write_config(tmp_path, text), {"out": str(out)}))
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        assert csvs[0].count(b"\n") > 1

    def test_csv_independent_of_blas_threads(self, tmp_path, monkeypatch):
        api = openblas_thread_api()
        if api is None:
            pytest.skip("no OpenBLAS thread API reachable")
        get, set_ = api
        monkeypatch.setattr(harness, "_default_jobs", lambda: 1)
        outs = tmp_path / "one.csv", tmp_path / "two.csv"
        run_experiment(load_config(write_config(tmp_path, GRID_11_CELLS),
                                   {"out": str(outs[0])}))
        # the second grid runs at 2 threads, whatever count this process started with
        monkeypatch.setattr(harness, "single_blas_thread", contextlib.nullcontext)
        original = get()
        set_(2)
        try:
            run_experiment(load_config(write_config(tmp_path, GRID_11_CELLS),
                                       {"out": str(outs[1])}))
        finally:
            set_(original)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_blas_threads_pinned_then_restored(self, tmp_path, monkeypatch):
        api = openblas_thread_api()
        if api is None:
            pytest.skip("no OpenBLAS thread API reachable")
        get, set_ = api
        original = get()
        seen = []
        real_run = harness.run

        def recording_run(*args, **kwargs):
            seen.append(get())
            return real_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", recording_run)
        monkeypatch.setattr(harness, "_default_jobs", lambda: 1)
        cfg = load_config(write_config(tmp_path, out=str(tmp_path / "m.csv")))
        set_(2)
        try:
            run_experiment(cfg)
            after = get()
        finally:
            set_(original)
        assert seen and set(seen) == {1}
        assert after == 2

    def test_idle_process_takes_the_remaining_cells(self, tmp_path, monkeypatch):
        # cells are claimed as processes go idle, not split up front: while
        # one process is held on its first cell, the other runs all the rest
        cfg = load_config(write_config(tmp_path, GRID_11_CELLS),
                          {"out": str(tmp_path / "m.csv")})
        positions = {(alg, 1.0 if lam is None else lam, eta): index
                     for index, alg, lam, eta in harness._grid(cfg)}
        count = len(positions)
        log, real_run = tmp_path / "runs.log", harness.run
        last_r, last_w = os.pipe()

        def recording_run(model, train, alg, pot, hp, *args, **kwargs):
            position = positions[alg, hp.lam, hp.eta]
            if position == 0:
                select.select([last_r], [], [], 30)  # until the last cell has run
            result = real_run(model, train, alg, pot, hp, *args, **kwargs)
            with open(log, "a") as fh:  # one short O_APPEND write per line
                fh.write(f"{os.getpid()} {position}\n")
            if position == count - 1:
                os.write(last_w, b"x")
            return result

        monkeypatch.setattr(harness, "run", recording_run)
        monkeypatch.setattr(harness, "_default_jobs", lambda: 2)
        try:
            run_experiment(cfg)
        finally:
            os.close(last_r)
            os.close(last_w)
        ran = {}
        for line in log.read_text().splitlines():
            pid, position = line.split()
            ran.setdefault(int(pid), []).append(int(position))
        assert sorted(ran.values()) == [[0], list(range(1, count))]

    def test_claim_blocks_return_every_cell_once_in_order(self, tmp_path):
        # above _MAX_CLAIMS cells each claim is a block of positions
        for jobs in (1, 2):
            assert harness._run_cells(lambda p: 2 * p, 3000, jobs) == [2 * p for p in range(3000)]
        log = tmp_path / "runs.log"

        def logged(position):
            with open(log, "a") as fh:  # one short O_APPEND write per line
                fh.write(f"{position}\n")
            return position

        assert harness._run_cells(logged, 1025, 3) == list(range(1025))
        assert sorted(map(int, log.read_text().split())) == list(range(1025))

    def test_helper_exception_reaches_caller(self, tmp_path, monkeypatch):
        parent, real_run = os.getpid(), harness.run
        started_r, started_w = os.pipe()

        def run_failing_in_helper(*args, **kwargs):
            if os.getpid() != parent:
                os.write(started_w, b"x")
                raise RuntimeError("helper cell failed")
            # hold the parent's first cell until a helper has claimed one
            select.select([started_r], [], [], 30)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", run_failing_in_helper)
        monkeypatch.setattr(harness, "_default_jobs", lambda: 2)
        before = _live_children()
        out = tmp_path / "metrics.csv"
        try:
            with pytest.raises(RuntimeError, match="helper cell failed") as info:
                run_experiment(load_config(write_config(tmp_path, out=str(out))))
        finally:
            os.close(started_r)
            os.close(started_w)
        assert "grid helper" in str(info.value.__cause__)
        assert _live_children() == before
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]  # no CSV, no temp file

    @pytest.mark.parametrize("fail", ["sigkill", "local-exception"])
    def test_helper_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys, fail):
        parent, real_run = os.getpid(), harness.run
        started_r, started_w = os.pipe()

        class Inner(Exception):
            """Local to this test, so the caller cannot rebuild a pickled instance."""

        def run_failing_in_helper(*args, **kwargs):
            if os.getpid() != parent:
                os.write(started_w, b"x")
                if fail == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise Inner("cannot travel")
            # hold the parent's first cell until a helper has claimed one
            select.select([started_r], [], [], 30)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", run_failing_in_helper)
        monkeypatch.setattr(harness, "_default_jobs", lambda: 2)
        before = _live_children()
        argv = ["run", str(write_config(tmp_path)), "--out", str(tmp_path / "metrics.csv")]
        try:
            assert cli.main(argv) == 1
        finally:
            os.close(started_r)
            os.close(started_w)
        expected = {"sigkill": r"error: grid helper \d+ exited without returning its cells",
                    "local-exception": r"error: Inner\('cannot travel'\)"}[fail]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(expected, err[0]), err
        assert _live_children() == before
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]  # no CSV, no temp file

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_exception_stops_helpers(self, tmp_path, monkeypatch, error):
        parent = os.getpid()
        started_r, started_w = os.pipe()

        def run_failing_in_parent(*args, **kwargs):
            if os.getpid() != parent:
                os.write(started_w, b"x")
                time.sleep(60)  # a busy helper must be stopped, not awaited
            select.select([started_r], [], [], 30)
            raise error("parent cell failed")

        monkeypatch.setattr(harness, "run", run_failing_in_parent)
        monkeypatch.setattr(harness, "_default_jobs", lambda: 2)
        before = _live_children()
        out = tmp_path / "metrics.csv"
        out.write_text("previous results\n")
        start = time.monotonic()
        try:
            with pytest.raises(error, match="parent cell failed"):
                run_experiment(load_config(write_config(tmp_path, out=str(out))),
                               force=True)
        finally:
            os.close(started_r)
            os.close(started_w)
        assert time.monotonic() - start < 30
        assert _live_children() == before
        assert out.read_text() == "previous results\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "metrics.csv"]


class TestSummarize:
    def _metrics(self, tmp_path):
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, out=str(out)))
        run_experiment(cfg)
        return out

    def test_one_row_per_cell_sorted(self, tmp_path):
        text = summarize(self._metrics(tmp_path))
        lines = text.splitlines()
        assert lines[0] == "algorithm,lambda,eta,epoch,train_accuracy,test_accuracy"
        cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert cells == [("rmd", "0.5"), ("rmd", "2"), ("sgd", "na")]

    def test_row_order_irrelevant(self, tmp_path):
        path = self._metrics(tmp_path)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        other = tmp_path / "shuffled.csv"
        other.write_text("\n".join(shuffled) + "\n")
        assert summarize(path) == summarize(other)
        # rows tied on both accuracies: the smaller eta wins, then the earlier epoch
        tied = ["sgd-lamna-eta0.01,sgd,na,0.01,0,7,0.1,90,80,NA,0.1,interpolated",
                "sgd-lamna-eta0.1,sgd,na,0.1,0,3,0.1,90,80,NA,0.1,interpolated",
                "sgd-lamna-eta0.01,sgd,na,0.01,1,5,0.1,90,80,NA,0.1,interpolated"]
        for order in itertools.permutations(tied):
            other.write_text("\n".join((CSV_HEADER,) + order) + "\n")
            assert summarize(other).splitlines()[1] == "sgd,na,0.01,5,90,80"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "broken.csv"
        for row in ("only,three,fields",
                    "sgd-lamna-eta0.1,sgd,na,0.1,0,1,0.5,abc,50,NA,0.1,budget"):
            path.write_text(CSV_HEADER + "\n" + row + "\n")
            with pytest.raises(ConfigError, match="broken.csv:2"):
                summarize(path)

    def test_single_run_single_row(self, tmp_path):
        out = tmp_path / "metrics.csv"
        cfg = load_config(write_config(tmp_path, out=str(out),
                                       algorithms="sgd", lambdas="1.0"))
        run_experiment(cfg)
        assert len(summarize(out).splitlines()) == 2
