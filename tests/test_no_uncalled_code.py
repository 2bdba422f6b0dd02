"""Every function and method in ``src/regmirror`` has a caller in ``src/``.

The check is by name: a module-level function or a class method (dunders
aside) passes when its name appears anywhere in ``src/`` as a ``Name`` or
as an ``Attribute``. So it cannot see a cycle of functions that only call
each other, such as a ``loss`` that calls ``predict`` and a ``predict``
that calls ``loss``, nor tell apart two methods of the same name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regmirror"

# Names nothing in src/ calls but the benchmark reads, each with the file
# under perfbench/ that reads it.
READ_BY_BENCHMARK = {
    "sample_losses": "perfbench/tracer.py",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """Names of the module-level functions and class methods, dunders skipped."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))):
                yield item.name


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_function_in_src_has_a_caller():
    trees = _trees()
    used = _used_names(trees)
    uncalled = sorted(f"{module}:{name}" for module, tree in trees.items()
                      for name in _definitions(tree)
                      if name not in used and name not in READ_BY_BENCHMARK)
    assert not uncalled, f"functions with no caller in src/: {uncalled}"


def test_benchmark_exemptions_are_current():
    used = _used_names(_trees())
    for name, path in READ_BY_BENCHMARK.items():
        assert name in (ROOT / path).read_text(), f"{path} no longer reads {name!r}"
        assert name not in used, f"{name!r} has a caller in src/; drop its exemption"
