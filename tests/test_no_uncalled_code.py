"""Every function, method and module constant in ``src/regmirror`` is used in ``src/``.

The check is by name: a function (module-level, class method or nested)
or a module-level constant, dunders aside, passes when its name is
loaded anywhere in ``src/`` as a ``Name`` or as an ``Attribute``;
assigning a name does not count as using it. So it cannot see a cycle of
functions that only call each other, such as a ``loss`` that calls
``predict`` and a ``predict`` that calls ``loss``, nor tell apart two
definitions of the same name.
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
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Names of every function and of the module-level constants, dunders skipped."""
    functions = [node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    constants = [name.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for name in ast.walk(target)
                 if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return [name for name in functions + constants if not _is_dunder(name)]


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
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _definitions(tree)
                    if name not in used and name not in READ_BY_BENCHMARK)
    assert not unused, f"functions or constants with no use in src/: {unused}"


def test_benchmark_exemptions_are_current():
    used = _used_names(_trees())
    for name, path in READ_BY_BENCHMARK.items():
        assert name in (ROOT / path).read_text(), f"{path} no longer reads {name!r}"
        assert name not in used, f"{name!r} is used in src/; drop its exemption"
