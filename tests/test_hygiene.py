"""Static checks over the library's code, standing in for a linter: every
import of a library or test module is used (one inside a function by that
function) and no function imports again what its file imports at the top,
every function, class, method or module-level assigned name is used by the
library or exported by it, every export is documented in the README, the
README names every per-group memo, and every test oracle is called by a
test."""

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
        tree = _tree(path)
        used = _names_read(tree)
        # the top level and the body of a top-level `if`, such as `if TYPE_CHECKING:`
        top = [n for node in tree.body for n in (node.body if isinstance(node, ast.If) else [node])]
        for node in top:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += _unread(path, node, used)
    assert unused == []


def _unread(path: Path, node: ast.Import | ast.ImportFrom, used: set[str]) -> list[str]:
    """The names `node` binds that are not in `used`, as `file:line name`."""
    return [f"{path.name}:{node.lineno} {bound}" for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in used]


def test_no_unused_function_level_import():
    """A function reads every name that an import inside it binds."""
    unused = []
    for path in SOURCES + sorted(TESTS.glob("*.py")):
        for function in ast.walk(_tree(path)):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used = _names_read(function)
                for node in ast.walk(function):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        unused += _unread(path, node, used)
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
    """(owner, name, node) of every function, class and method, nested ones
    too; the owner of a method is its class, of anything else None."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield (node.name if isinstance(node, ast.ClassDef) else None), child.name, child
            stack.append(child)


def _assignments(tree: ast.Module):
    """(None, name, node) of every name that a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield None, name.id, node


def _package_imports(tree: ast.Module) -> tuple[dict[str, str], set[tuple[str, str]]]:
    """The package modules a file binds (`from . import m as alias` gives
    alias -> m) and the names it imports from them (`from .m import name`
    gives (m, name)), at the top or inside a function."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names.add((node.module, alias.name))
    return modules, names


def _references(tree: ast.AST, skip: ast.AST | None = None, classes=frozenset(),
                modules: dict[str, str] | None = None) -> tuple[set[str], set[tuple]]:
    """What `tree` reads outside the subtree `skip`: the bare names, and the
    attributes as (owner, name).  The owner of `C.name` is C for a class C
    in `classes`, m for `alias.name` where `modules` maps alias to the
    package module m, and None when the value's class is not known.  A
    string constant that spells an identifier counts as an attribute of
    unknown owner, since `getattr` dispatches on such strings."""
    modules = modules or {}
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            value = node.value.id if isinstance(node.value, ast.Name) else None
            owner = value if value in classes else modules.get(value)
            attributes.add((owner, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attributes.add((None, node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def _exports() -> dict[str, str]:
    """The table of gwitt/__init__.py: exported name -> its module."""
    (table,) = [
        node.value for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]
    ]
    return ast.literal_eval(table)


def test_every_definition_is_referenced():
    """A function, class or module-level assigned name of module m is used
    when m reads its name outside its body (the assignment, for a name),
    another module imports it from m (at the top or in a function) or reads
    it as an attribute of m, or the export table of gwitt/__init__.py names
    it.  A method is used only when the library reads it as an attribute of
    its own class or of a value of unknown class.  So a local name, an
    export or a method of the same spelling elsewhere does not count.  Tests
    and the benchmark do not count either: code that only they run belongs
    with them, not in src/."""
    trees = {path.stem: _tree(path) for path in SOURCES}
    classes = frozenset(
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    )
    imports = {m: _package_imports(tree) for m, tree in trees.items()}
    imports["__init__"][1].update((m, name) for name, m in _exports().items())
    reads = {m: _references(tree, None, classes, imports[m][0]) for m, tree in trees.items()}
    unreferenced = []
    for module, tree in trees.items():
        others = [m for m in trees if m != module]
        for owner, name, node in [*_definitions(tree), *_assignments(tree)]:
            if name.startswith("__") and name.endswith("__"):
                continue  # called or read by the language
            names, attributes = _references(tree, node, classes, imports[module][0])
            if owner is None:
                used = name in names or any(
                    (module, name) in imports[m][1] or (module, name) in reads[m][1]
                    for m in others)
            else:
                wanted = {(owner, name), (None, name)}
                used = any(wanted & a for a in [attributes] + [reads[m][1] for m in others])
            if not used:
                unreferenced.append(
                    f"{module}.py:{node.lineno} {owner + '.' if owner else ''}{name}")
    assert unreferenced == []


def test_every_export_is_documented():
    """Each exported name appears in a code span of README.md."""
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", readme))))
    assert sorted(_exports().keys() - documented) == []


def test_every_oracle_is_called():
    """Each top-level function of tests/oracles.py is called from a test file
    or from another oracle."""
    oracles = _tree(TESTS / "oracles.py")
    called = set()
    for path in sorted(TESTS.glob("test_*.py")):
        called |= _references(_tree(path))[0]
    uncalled = [
        f"oracles.py:{node.lineno} {node.name}"
        for node in oracles.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in called | _references(oracles, skip=node)[0]
    ]
    assert uncalled == []


def _is_cache(decorator: ast.expr) -> bool:
    """`@cache` or `@functools.cache`."""
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name == "cache"


def test_readme_names_every_per_group_memo():
    """The README's list of per-group memos names exactly the module-level
    `functools.cache` functions of src/ that take a `Group`."""
    memos = set()
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list)):
                annotations = [ast.unparse(arg.annotation) for arg in node.args.args
                               if arg.annotation]
                if "Group" in annotations:
                    memos.add(node.name)
    listed = re.findall(r"per-group\s+memos\s+\(([^)]*)\)", (ROOT / "README.md").read_text())
    assert len(listed) == 1, "README.md has no single list of per-group memos"
    named = {span.split(".")[-1] for span in re.findall(r"`([^`]+)`", listed[0])}
    assert sorted(named) == sorted(memos)
