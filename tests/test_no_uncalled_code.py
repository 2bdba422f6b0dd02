"""Every class, function, method and module constant in ``src/regmirror`` is used in ``src/``.

The check is by name: a class, a function (module-level, class method or
nested) or a module-level constant, dunders aside, passes when its name
is loaded anywhere in ``src/`` as a ``Name`` or as an ``Attribute``;
assigning a name does not count as using it. So an exception class that
nothing raises or catches fails. It cannot see a cycle of functions that
only call each other, such as a ``loss`` that calls ``predict`` and a
``predict`` that calls ``loss``, nor tell apart two definitions of the
same name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regmirror"

# Names nothing in src/ uses but the benchmark reads, each with the file
# under perfbench/ that reads it.
READ_BY_BENCHMARK = {
    "sample_losses": "perfbench/tracer.py",
    "kernel_backend": "perfbench/worker.py",
    "curvature": "perfbench/tracer.py",
}

# Names nothing in src/ uses but the tests, each with a test file that
# uses it and why it stays.
USED_BY_TESTS = {
    # the bias-free linear model that acceptance criteria 1-6 train
    "LinearModel": "tests/test_acceptance.py",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Names of every class and function and of the module-level constants, dunders skipped."""
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    constants = [name.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for name in ast.walk(target)
                 if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return [name for name in defined + constants if not _is_dunder(name)]


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_function_in_src_has_a_caller():
    trees = _trees()
    used = _used_names(trees)
    exempt = READ_BY_BENCHMARK.keys() | USED_BY_TESTS.keys()
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _definitions(tree)
                    if name not in used and name not in exempt)
    assert not unused, f"classes, functions or constants with no use in src/: {unused}"


def test_benchmark_exemptions_are_current():
    used = _used_names(_trees())
    for name, path in READ_BY_BENCHMARK.items():
        assert name in (ROOT / path).read_text(), f"{path} no longer reads {name!r}"
        assert name not in used, f"{name!r} is used in src/; drop its exemption"


def test_test_exemptions_are_current():
    used = _used_names(_trees())
    for name, path in USED_BY_TESTS.items():
        assert name in (ROOT / path).read_text(), f"{path} no longer uses {name!r}"
        assert name not in used, f"{name!r} is used in src/; drop its exemption"
