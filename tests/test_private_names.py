import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wishartmin"


def _private_definitions(tree):
    """(name, node) for each module-level function, class or constant whose name starts with one _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree, name, skip):
    """Uses of ``name`` in ``tree`` outside the subtree ``skip``: names, attributes, imports."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    count = 0
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        elif isinstance(node, ast.ImportFrom):
            count += sum(alias.name == name for alias in node.names)
    return count


def test_no_private_name_is_used_only_where_it_is_defined():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert "linalg.py" in trees
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            uses = sum(_references(other, name, node if other is tree else None) for other in trees.values())
            if uses == 0:
                dead.append(f"{module}: {name}")
    assert dead == []


def _unused_imports(tree, lines):
    """Names bound by a module-level import that nothing in the module reads.

    ``from __future__`` imports, names listed in ``__all__`` and import
    statements marked ``# noqa: F401`` are exempt.
    """
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and name not in exported:
                yield f"line {node.lineno}: {name}"


def test_no_module_level_import_is_unused():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        unused += [f"{path.name} {hit}" for hit in _unused_imports(ast.parse(source), source.splitlines())]
    assert unused == []
