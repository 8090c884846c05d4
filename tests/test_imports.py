"""maniplang's modules import each other without cycles, read every name
they import, and read somewhere every private name they define.

Only imports that run when a module loads count: those in its body, not in a
function or under `if TYPE_CHECKING:`. A cycle among them makes the result
depend on which module is imported first."""

import ast
import graphlib
from collections import Counter
from pathlib import Path

import maniplang

_ROOT = Path(maniplang.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _load_time_statements(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _load_time_statements(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _load_time_statements(getattr(node, field, []))


def _relative_imports(path: Path, modules: set) -> set:
    """The maniplang modules that `path` imports relatively when it loads."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in _load_time_statements(ast.parse(path.read_text(encoding="utf-8")).body):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
        target = f"{base}.{node.module}" if node.module else base
        for alias in node.names:  # `from . import x` imports submodule x when there is one
            found.add(f"{target}.{alias.name}" if f"{target}.{alias.name}" in modules else target)
    return found


def import_graph(root: Path = _ROOT) -> dict:
    paths = sorted(root.rglob("*.py"))
    modules = {_module_name(path) for path in paths}
    return {_module_name(path): _relative_imports(path, modules) for path in paths}


def test_module_level_imports_form_no_cycle():
    graph = import_graph()
    assert graph["maniplang.costs"] >= {"maniplang.language.ast", "maniplang.geometry"}
    assert graph["maniplang.language"] == {"maniplang"}
    assert graph["maniplang.cli"] == {"maniplang.errors", "maniplang.files"}  # the rest in its handlers
    assert "maniplang.scene" not in graph["maniplang.retrieval"]  # under TYPE_CHECKING only
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


# Imported by maniplang.solver but never read there: the benchmark's tracer
# (perfbench/tracing.py) patches these names on the module.
_UNREAD_IMPORTS = {("maniplang.solver", "PointCloud"), ("maniplang.solver", "euler_from_rotation")}


def _unread_imports(path: Path) -> set:
    """The names `path` imports when it loads and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in _load_time_statements(tree.body)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_load_time_import_is_read():
    unread = {(_module_name(path), name) for path in sorted(_ROOT.rglob("*.py")) for name in _unread_imports(path)}
    assert unread == _UNREAD_IMPORTS


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module):
    """(name, node) for each private function, method and class at any depth,
    and each private module constant."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name, node
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and _private(name.id):
                    yield name.id, node


def _reads(node: ast.AST) -> Counter:
    """How often each name is read in `node`, as a bare name or an attribute."""
    return Counter(
        read.id if isinstance(read, ast.Name) else read.attr
        for read in ast.walk(node)
        if isinstance(read, (ast.Name, ast.Attribute)) and isinstance(read.ctx, ast.Load)
    )


def test_every_private_definition_is_read():
    # A private name is read somewhere in the package outside its own
    # definition: a leftover helper or constant nothing reads fails here.
    trees = {_module_name(path): ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_ROOT.rglob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    definitions = [(module, name, node) for module, tree in trees.items() for name, node in _private_definitions(tree)]
    assert len(definitions) > 100
    unread = [(module, name) for module, name, node in definitions if reads[name] == _reads(node)[name]]
    assert unread == []
