"""The documented library surface: the README example runs, and every
exported name of the lower layers is used by the program itself."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from hierfed.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hierfed"
PACKAGES = ("nn", "models", "fed", "data", "synth")


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"]["summary"]["overall_mean"] is not None


def test_readme_shell_commands_parse():
    blocks = re.findall(r"```(?:sh|bash)?\n(.*?)```",
                        (ROOT / "README.md").read_text(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("hierfed ")]
    assert len(lines) >= 4
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def _used_names() -> set:
    """Names read anywhere in the package, re-exporting __init__ files aside.

    Definitions (def, class, assignment targets) and imports are not reads,
    so a name counts only where some code actually uses it.
    """
    used = set()
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_used_by_the_program(package):
    exported = importlib.import_module(f"hierfed.{package}").__all__
    unused = sorted(set(exported) - _used_names())
    assert not unused, f"hierfed.{package} exports names only tests use: {unused}"
