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
