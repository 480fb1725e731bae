"""The README's library quick start runs as written and imports exactly the
package surface, and its CLI commands and flags are the parser's."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import wishartmin
from wishartmin.cli import build_parser

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


def cli_commands():
    """Each ``wishartmin`` command of the CLI section's shell block, as argv."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "no sh block under 'CLI'"
    lines = match.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("wishartmin ")]


def test_cli_block_commands_parse():
    commands = cli_commands()
    assert sorted({argv[0] for argv in commands}) == ["exact", "micro", "sample", "verify"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits on an unknown or missing flag; opens no file


def test_prose_flags_exist():
    parser = build_parser()
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    mentions = []
    for span in re.findall(r"`([^`]+)`", prose):
        words = span.split()
        if words and words[0] in subcommands:
            mentions += [(words[0], w) for w in words[1:] if w.startswith("--")]
    assert mentions
    for sub, flag in mentions:
        assert flag in subcommands[sub]._option_string_actions, f"`{sub} {flag}`"
