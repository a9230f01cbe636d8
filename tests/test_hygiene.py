"""Static checks over the library's code, standing in for a linter: every
module-level import of a library or test module is used and no function
imports again what its file imports at the top, every function,
class or method is run by the library or exported by it, every export is
documented in the README, and every test oracle is called by a test."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gwitt"
SOURCES = sorted(PACKAGE.glob("*.py"))
assert SOURCES, f"no modules under {PACKAGE}"
TESTS = ROOT / "tests"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _names_read(tree: ast.AST) -> set[str]:
    """Every name read, those inside annotations written as strings too."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def test_no_unused_module_level_import():
    unused = []
    for path in SOURCES + sorted(TESTS.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue  # its imports are the exports
        tree = _tree(path)
        used = _names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """What an import statement brings in, as `module` or `module:name`, so
    that `import random as _random` and `import random` read the same."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [f"{'.' * node.level}{node.module}:{alias.name}" for alias in node.names]


def test_no_function_level_reimport():
    """A function does not import again a module or name that its file
    already imports at the top."""
    again = []
    for path in SOURCES + sorted(TESTS.glob("*.py")):
        tree = _tree(path)
        top = {
            item for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for item in _imported(node)
        }
        for node in ast.walk(tree):
            if node in tree.body or not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            again += [f"{path.name}:{node.lineno} {item}"
                      for item in _imported(node) if item in top]
    assert again == []


def _definitions(tree: ast.Module):
    """(name, node) of every function, class and method, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The identifiers read anywhere in `tree` outside the subtree `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _exports() -> set[str]:
    """The names that gwitt/__init__.py imports from the modules."""
    return {
        alias.asname or alias.name
        for node in _tree(PACKAGE / "__init__.py").body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_definition_is_referenced():
    """A definition is used when the library reads its name outside its own
    body, or when gwitt/__init__.py exports it.  Tests and the benchmark do
    not count: code that only they run belongs with them, not in src/."""
    trees = {path: _tree(path) for path in SOURCES}
    references = {path: _references(tree) for path, tree in trees.items()}
    exported = _exports()
    unreferenced = []
    for path in SOURCES:
        for name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            if name in exported:
                continue
            elsewhere = any(name in refs for p, refs in references.items() if p != path)
            if not elsewhere and name not in _references(trees[path], skip=node):
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert unreferenced == []


def test_every_export_is_documented():
    """Each exported name appears in a code span of README.md."""
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", readme))))
    assert sorted(_exports() - documented) == []


def test_every_oracle_is_called():
    """Each top-level function of tests/oracles.py is called from a test file
    or from another oracle."""
    oracles = _tree(TESTS / "oracles.py")
    called = set()
    for path in sorted(TESTS.glob("test_*.py")):
        called |= _references(_tree(path))
    uncalled = [
        f"oracles.py:{node.lineno} {node.name}"
        for node in oracles.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in called | _references(oracles, skip=node)
    ]
    assert uncalled == []
