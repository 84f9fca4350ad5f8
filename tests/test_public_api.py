"""The documented library surface: the README example runs, every public
name of every module is used by the program itself, and each name is bound
only where it is defined and where it is imported."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hierfed.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hierfed"
PACKAGES = ("nn", "models", "fed", "data", "synth")
MODULES = ("runner", "cli", "metrics", "keys", "seeding", "blas", "errors",
           "heap")


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


def _defined_names(tree: ast.Module) -> set:
    """The names a module's top-level def, class and assignment statements
    bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _imported_names(tree: ast.Module) -> set:
    """The names a module's top-level imports bind."""
    return {(a.asname or a.name).split(".")[0] for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.fixture(scope="module")
def used_names() -> set:
    """Names read anywhere in the package.

    Definitions (def, class, assignment targets) and imports are not reads,
    so a name counts only where some code actually uses it.
    """
    used = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("package", PACKAGES + MODULES)
def test_every_public_name_is_used_by_the_program(package, used_names):
    paths = (sorted((SRC / package).glob("*.py")) if package in PACKAGES
             else [SRC / f"{package}.py"])
    unused = sorted(f"{path.stem}.{name}" for path in paths
                    for name in _defined_names(_parse(path)) - used_names
                    if not name.startswith("_"))
    assert not unused, f"hierfed.{package} defines names only tests use: {unused}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_init_binds_no_name(package):
    """A name has one home, the module that defines it; only synth re-binds
    generate, which the benchmark calls as hierfed.synth.generate."""
    expected = {"generate"} if package == "synth" else set()
    tree = _parse(SRC / package / "__init__.py")
    assert _defined_names(tree) | _imported_names(tree) == expected
