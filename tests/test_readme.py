"""The README's library quick start runs as written and imports exactly the package surface."""

import ast
import re
from pathlib import Path

import wishartmin

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_quick_start_imports_equal_package_surface():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(quick_start_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "wishartmin"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(wishartmin.__all__)


def test_quick_start_runs():
    exec(compile(quick_start_block(), str(README), "exec"), {})
