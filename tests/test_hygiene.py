"""Static checks over the library's code, standing in for a linter: every
module-level import of a module is used, and every function, class or method
is referenced somewhere outside its own body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gwitt"
SOURCES = sorted(PACKAGE.glob("*.py"))
assert SOURCES, f"no modules under {PACKAGE}"


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
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
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


def test_every_definition_is_referenced():
    trees = {path: _tree(path) for dirname in ("src", "tests", "perfbench")
             for path in sorted((ROOT / dirname).rglob("*.py"))}
    references = {path: _references(tree) for path, tree in trees.items()}
    unreferenced = []
    for path in SOURCES:
        for name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            elsewhere = any(name in refs for p, refs in references.items() if p != path)
            if not elsewhere and name not in _references(trees[path], skip=node):
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert unreferenced == []
