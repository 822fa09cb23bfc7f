"""No second API grows back beside the one the run executes.

Every module-level function, class or UPPER_CASE constant in
src/gridcalib, and every public method or property of a public class
that does not override a base-class name, must be read somewhere else:
in the package outside its own definition, or in bench/*.py. A
function, class or constant is read by a Name or Attribute node (not
docstring text); a method or property only by an Attribute node, since
a bare name of the same spelling is a local variable or a function,
never the method. So no default can be kept in src/ for tests alone.
Names are matched by spelling, not resolved, so a reader of any
same-named attribute counts.

Every field of a dataclass in src/gridcalib must be read, anywhere in
the package or in bench/*.py, by an Attribute node in load context
(``x.field``, not an assignment to it), matched by spelling as above.

Only what gridcalib.__all__ exports is exempt.

No module but timeseries.py reads a series' or a frame's private
columns (_ts, _values, _columns): the one rate rule lives beside them,
so a rate reader cannot grow anywhere else.

No module imports socketserver or http.server, and only server.py
imports selectors: every socket is served by server.SelectorServer's
one loop, so a thread per connection cannot grow back.
"""

import ast
import dataclasses
import importlib
from collections import Counter
from pathlib import Path

import gridcalib

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridcalib"


def _read_names(tree: ast.AST, attributes_only: bool) -> Counter:
    """How often each name is read by an Attribute node, and unless
    attributes_only, by a Name node."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.Name) and not attributes_only:
            counts[node.id] += 1
    return counts


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node, is a method) of every definition the
    rule covers."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield f"{module}.{target.id}", target.id, node, False
            continue
        if not isinstance(node, defs):
            continue
        yield f"{module}.{node.name}", node.name, node, False
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue  # a private class's methods are private too
        methods = [
            item for item in node.body
            if isinstance(item, defs[:2]) and not item.name.startswith("_")
        ]
        if not methods:
            continue
        bases = getattr(importlib.import_module(f"gridcalib.{module}"), node.name).__mro__[1:]
        for item in methods:
            if not any(hasattr(base, item.name) for base in bases):
                yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _parse():
    """The package's trees by module, and every tree a reader may sit in."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    sources = list(trees.values())
    sources += [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    return trees, sources


def test_every_definition_has_a_reader():
    trees, sources = _parse()
    # reads[method]: a method is read only by Attribute nodes
    reads = {
        method: sum((_read_names(tree, method) for tree in sources), Counter())
        for method in (False, True)
    }
    unread = [
        qualified
        for module, tree in trees.items()
        for qualified, name, node, method in _definitions(module, tree)
        if name not in gridcalib.__all__
        and reads[method][name] - _read_names(node, method)[name] <= 0
    ]
    assert unread == [], f"defined but never read: {', '.join(unread)}"


def test_every_dataclass_field_has_a_reader():
    trees, sources = _parse()
    loads = Counter(
        node.attr
        for tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )
    unread = []
    for module, tree in trees.items():
        namespace = importlib.import_module(f"gridcalib.{module}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in gridcalib.__all__:
                continue
            cls = getattr(namespace, node.name)
            if dataclasses.is_dataclass(cls):
                unread += [
                    f"{module}.{node.name}.{f.name}"
                    for f in dataclasses.fields(cls)
                    if not loads[f.name]
                ]
    assert unread == [], f"dataclass fields never read: {', '.join(unread)}"


PRIVATE_COLUMNS = {"_ts", "_values", "_columns"}


def test_only_timeseries_reads_the_columns():
    trees, _ = _parse()
    readers = sorted(
        f"{module}.py:{node.lineno} .{node.attr}"
        for module, tree in trees.items()
        if module != "timeseries"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_COLUMNS
    )
    assert readers == [], f"private columns read outside timeseries.py: {', '.join(readers)}"


def _imports(tree: ast.Module) -> set[str]:
    """Every absolute module name a tree imports, and each name it takes
    from one as module.name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_one_selector_loop_serves_every_socket():
    trees, _ = _parse()
    found = sorted(
        f"{module}.py imports {name}"
        for module, tree in trees.items()
        for name in _imports(tree)
        if name in ("socketserver", "http.server") or (name == "selectors" and module != "server")
    )
    assert found == [], f"a second way to serve sockets: {', '.join(found)}"
