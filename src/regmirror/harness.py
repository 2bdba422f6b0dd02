"""Experiment orchestration: config files, grid sweeps, metrics CSV.

Config files are flat ``key = value`` text ('#' starts a comment).
The fields of ``ExperimentConfig`` define the keys: each carries its
default, the parser of its text, the rule each parsed value must pass
and, for the keys ``regmirror run`` can override, its flag. A bad value
raises ``ConfigError`` "bad value for '<key>': '<text>' (<reason>)",
before anything runs.

A grid runs one training per (algorithm, lambda, eta) cell with a
cell-local random stream derived from (seed, cell index), so the
metrics CSV is byte-stable for a fixed config and seed, however many
processes share the cells.
"""

import contextlib
import dataclasses
import os
import pickle
import struct

import numpy as np

from .data import corrupt_labels, generate_synthetic
from .errors import ConfigError, DomainError, NonFiniteError, WorkerError
from .models import MLPModel
from .numerics import rng_stream, single_blas_thread
from .optimizer import STEPS, HyperParams, run
from .potentials import SquaredL2, parse_potential

CSV_HEADER = ("experiment_id,algorithm,lambda,eta,seed,epoch,train_loss,"
              "train_accuracy,test_accuracy,constraint_residual,"
              "bregman_from_init,stop_reason")
_METRICS = CSV_HEADER.split(",")[5:-1]  # the keys of run()'s rows, epoch first
_FAILED_ROW = {**dict.fromkeys(_METRICS, float("nan")), "epoch": 0}  # a failed cell's one row


def _widths(text):
    return tuple(int(v) for v in text.split(",") if v.strip())  # drops empty items


def _reals(text):
    return _distinct(tuple(float(v) for v in text.split(",")), _fmt)  # rejects empty items


def _names(text):
    return _distinct(tuple(v.strip() for v in text.split(",")), str)  # keeps empty items


def _distinct(items, id_text):
    """``items``, refused when two give the same ``experiment_id`` text."""
    texts = [id_text(item) for item in items]
    if len(set(texts)) < len(texts):
        raise ValueError(f"{max(texts, key=texts.count)!r} repeats")
    return items


def _potential(text):
    parse_potential(text)  # raises ValueError on a spec it does not accept
    return text


def _at_least(low):
    return lambda value: value >= low, f"at least {low}"


def _one_of(*names):
    return lambda name: name in names, "one of " + ", ".join(names)


_FINITE_NONNEGATIVE = (lambda value: 0.0 <= value < np.inf, "finite and at least 0")
_FINITE_POSITIVE = (lambda value: 0.0 < value < np.inf, "finite and positive")


def _key(default, parse, flag=None, *, rule):
    """A config key: its default, the parser of its text, its ``regmirror run`` flag, and its
    rule: a test each parsed value (each item, for a tuple) must pass, and what passes."""
    return dataclasses.field(default=default, metadata={
        "parse": parse, "flag": flag, "ok": rule[0], "need": rule[1]})


@dataclasses.dataclass
class ExperimentConfig:
    """The config keys, one field each; only ``load_config`` checks their rules."""

    hidden: tuple = _key((64, 64), _widths, rule=_at_least(1))
    classes: int = _key(10, int, rule=_at_least(2))
    n_train: int = _key(500, int, rule=_at_least(1))
    n_test: int = _key(500, int, rule=_at_least(0))
    input_dim: int = _key(20, int, rule=_at_least(1))
    noise: float = _key(0.3, float, rule=_FINITE_NONNEGATIVE)
    separation: float = _key(8.0, float, rule=_FINITE_NONNEGATIVE)
    corruption: float = _key(0.0, float, "--corruption", rule=(lambda v: 0 <= v <= 1, "in [0, 1]"))
    algorithms: tuple = _key(("sgd", "rmd", "wd"), _names, "--algorithm", rule=_one_of(*STEPS))
    lambdas: tuple = _key((0.7, 1.0, 1.3, 1.6, 2.0), _reals, "--lambda", rule=_FINITE_POSITIVE)
    etas: tuple = _key((0.001, 0.01, 0.1), _reals, "--eta", rule=_FINITE_POSITIVE)
    potential: str = _key("l2", _potential, "--potential",
                          rule=(lambda text: True,  # _potential refuses the rest
                                "l2, q:<r> (r > 1), l1eps[:<eps>] (eps > 0), linf or entropy"))
    batch_size: int = _key(32, int, "--batch-size", rule=_at_least(1))
    epochs: int = _key(2000, int, "--epochs", rule=_at_least(1))
    stop_window: int = _key(500, int, "--stop-window", rule=_at_least(1))
    stop_tol: float = _key(1e-4, float, "--stop-tol", rule=_FINITE_NONNEGATIVE)
    seed: int = _key(0, int, "--seed", rule=_at_least(0))
    init_scale: float = _key(0.01, float, rule=_FINITE_NONNEGATIVE)
    out: str = _key("metrics.csv", str, "--out", rule=(lambda text: text != "", "a non-empty path"))


_FIELDS = {field.name: field for field in dataclasses.fields(ExperimentConfig)}


def load_config(path, overrides=None):
    """Parse a key = value config file, then apply override pairs.

    Keys left out keep their ``ExperimentConfig`` default; override
    values may be text or anything whose ``str`` parses, such as an int.
    """
    texts = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            texts[key] = text
    for key, text in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown override key {key!r}")
        texts[key] = str(text)
    values = {}
    for key, text in texts.items():
        text = text.strip()
        meta = _FIELDS[key].metadata
        try:
            values[key] = meta["parse"](text)
            for item in values[key] if isinstance(values[key], tuple) else (values[key],):
                if not meta["ok"](item):
                    raise ValueError(f"{item!r} is not {meta['need']}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
    return ExperimentConfig(**values)


def build_datasets(cfg):
    rng = rng_stream(cfg.seed, 0)
    train, test = generate_synthetic(cfg.classes, cfg.n_train, cfg.n_test,
                                     cfg.input_dim, cfg.noise, rng,
                                     separation=cfg.separation)
    if cfg.corruption > 0.0:
        train = corrupt_labels(train, cfg.corruption, cfg.classes, rng)
    return train, test


def _grid(cfg):
    """Yield (cell_index, algorithm, lam, eta); sgd and smd ignore lambda."""
    index = 0
    for alg in cfg.algorithms:
        lams = (None,) if alg in ("sgd", "smd") else cfg.lambdas
        for lam in lams:
            for eta in cfg.etas:
                yield index, alg, lam, eta
                index += 1


def _fmt(value):
    if value is None:
        return "na"
    if isinstance(value, float) and np.isnan(value):
        return "NA"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _cell_rows(cfg, model, potential, train, test, cell):
    """Train one grid cell and return its CSV rows.

    A cell that overflows, goes non-finite or leaves the potential's domain
    yields one row with that stop reason, so the rest of the grid runs.
    """
    index, alg, lam, eta = cell
    hp = HyperParams(eta=eta, lam=lam if lam is not None else 1.0,
                     batch_size=min(cfg.batch_size, train.n))
    rng = rng_stream(cfg.seed, 1, index)
    pot = potential if alg in ("smd", "rmd") else SquaredL2()
    try:
        with np.errstate(over="raise", invalid="raise"):
            result = run(model, train, alg, pot, hp, rng,
                         epochs=cfg.epochs, init_scale=cfg.init_scale,
                         stop_window=cfg.stop_window, stop_tol=cfg.stop_tol,
                         test=test)
        run_rows, stop_reason = result.metrics, result.stop_reason
    except (NonFiniteError, FloatingPointError):
        run_rows, stop_reason = [_FAILED_ROW], "non-finite"
    except DomainError:
        run_rows, stop_reason = [_FAILED_ROW], "domain-error"
    prefix = [f"{alg}-lam{_fmt(lam)}-eta{_fmt(eta)}", alg, _fmt(lam), _fmt(eta),
              str(cfg.seed)]
    last = len(run_rows) - 1
    return [",".join(prefix + [_fmt(m[key]) for key in _METRICS]
                     + [stop_reason if pos == last else ""])
            for pos, m in enumerate(run_rows)]


def _default_jobs():
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(cfg, force=False):
    """Run the full grid and write its rows, in cell order, to the output CSV.

    Cells run in one process per usable core (at most one per cell),
    with OpenBLAS held to one thread; the CSV does not depend on either.
    The file is written only once every cell has run, through a
    temporary file renamed into place.
    """
    if os.path.isdir(cfg.out):
        raise ConfigError(f"{cfg.out!r} is a directory")
    if os.path.exists(cfg.out) and not force:
        raise ConfigError(f"refusing to overwrite {cfg.out!r}; pass --force")
    if not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ConfigError(f"the directory of {cfg.out!r} does not exist")
    train, test = build_datasets(cfg)
    model = MLPModel((cfg.input_dim, *cfg.hidden, cfg.classes))
    potential = parse_potential(cfg.potential)
    cells = list(_grid(cfg))

    def run_cell(position):
        return _cell_rows(cfg, model, potential, train, test, cells[position])

    with single_blas_thread():
        per_cell = _run_cells(run_cell, len(cells), _default_jobs())
    rows = [row for cell_rows in per_cell for row in cell_rows]
    _write_csv(cfg.out, rows)
    return rows


def _write_csv(path, rows):
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(row + "\n" for row in rows)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# At most this many claims sit in the cell queue, 4 bytes each, so the
# whole queue fits in a pipe's buffer and is written before any helper starts.
_MAX_CLAIMS = 1024
_CLAIM = struct.Struct("<I")


def _run_cells(run_cell, count, jobs):
    """[run_cell(p) for p in range(count)], spread over up to ``jobs`` processes:
    this one and ``jobs - 1`` helpers (none without ``os.fork``). Each claims the
    next block of positions from a shared pipe when it goes idle, because cells
    differ widely in length."""
    jobs = min(jobs, count) if hasattr(os, "fork") else 1
    block = -(-count // _MAX_CLAIMS)
    queue_r, queue_w = os.pipe()
    os.write(queue_w, b"".join(_CLAIM.pack(start) for start in range(0, count, block)))
    os.close(queue_w)
    task = (run_cell, count, block, queue_r)
    try:
        done = _claim_cells(*task) if jobs == 1 else _claim_with_helpers(task, jobs - 1)
    finally:
        os.close(queue_r)
    return [done[position] for position in range(count)]


def _claim_cells(run_cell, count, block, queue_r):
    """Run claimed blocks until the queue is empty; {position: result}. On an
    exception, empty the queue first, so the other processes stop claiming."""
    done = {}
    try:
        # reads get whole claims: the queue is written in full before any read
        while claim := os.read(queue_r, _CLAIM.size):
            start, = _CLAIM.unpack(claim)
            for position in range(start, min(start + block, count)):
                done[position] = run_cell(position)
    except BaseException:
        while os.read(queue_r, 4096):
            pass
        raise
    return done


def _claim_with_helpers(task, helpers):
    """_claim_cells(*task) here and in ``helpers`` forked pool workers.

    Fork hands each worker ``task`` (``run_cell`` is a closure, which
    pickle refuses) and the open queue; OpenBLAS shuts its idle threads
    down around fork() through pthread_atfork. A worker's exception
    reaches the caller with its traceback as ``__cause__``; any
    exception in the caller kills every worker.
    """
    import multiprocessing  # imported here, off the start-up path of one-process runs
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    before = set(multiprocessing.active_children())
    with ProcessPoolExecutor(helpers, multiprocessing.get_context("fork"),
                             initializer=_inherited.append, initargs=(task,)) as pool:
        try:
            futures = [pool.submit(_helper_cells) for _ in range(helpers)]
            started = set(multiprocessing.active_children()) - before
            done = _claim_cells(*task)
            for future in futures:
                done.update(future.result())
            return done
        except BrokenProcessPool:
            pool.shutdown()  # joins the workers; once one died, the pool SIGTERMed the rest
            dead = min(started, key=lambda helper: (helper.exitcode == -signal.SIGTERM, helper.pid))
            raise WorkerError(f"grid helper {dead.pid} exited without returning its cells")
        except BaseException:
            for helper in set(multiprocessing.active_children()) - before:
                helper.kill()
            raise


_inherited = []  # a pool worker's task, appended as it starts: [(run_cell, count, block, queue_r)]


def _helper_cells():
    """A pool worker's one job; an exception the caller cannot rebuild becomes a WorkerError."""
    try:
        return _claim_cells(*_inherited[0])
    except BaseException as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise WorkerError(repr(exc)) from None
        raise


def summarize(path):
    """Final-epoch accuracy per (algorithm, lambda), one CSV row each.

    A run's final row is the one that carries its stop reason. When a
    cell was swept over several learning rates or seeds, the best final
    test accuracy is reported (matching how sweep results are quoted);
    ties go to the better train accuracy, then to the smaller eta, then
    to the earlier epoch, so the row order of the file does not matter.
    """
    best = {}  # (algorithm, lambda) -> (sort key, rank, summary fields)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected header {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            fields = raw.rstrip("\n").split(",")
            if fields == [""]:
                continue
            if len(fields) != 12:
                raise ConfigError(f"{path}:{lineno}: expected 12 fields, got {len(fields)}")
            _, alg, lam, eta, _, epoch, _, train_acc, test_acc, _, _, stop_reason = fields
            if not stop_reason:
                continue
            try:
                sort_key = (alg, float("inf") if lam == "na" else float(lam))
                rank = tuple(float("-inf") if v == "NA" else float(v)
                             for v in (test_acc, train_acc)) + (-float(eta), -int(epoch))
                summary = [alg, lam, eta, str(int(epoch)), train_acc, test_acc]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if (alg, lam) not in best or rank > best[alg, lam][1]:
                best[alg, lam] = (sort_key, rank, summary)
    lines = ["algorithm,lambda,eta,epoch,train_accuracy,test_accuracy"]
    lines += [",".join(summary) for _, _, summary in sorted(best.values(), key=lambda v: v[0])]
    return "\n".join(lines) + "\n"
