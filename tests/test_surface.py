"""Every public name in `polsim`, and every public method or property of a
public class, has a user: code in the package, the benchmark, or the README.
A name only the tests call belongs in the tests (see reference.py)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polsim"

# Names the paper's chain needs although nothing calls them yet; a member is
# written `Class.member`.
ALLOWED = {
    # the README lists polarizers in the Jones-calculus API
    "polarizer",
}


def public_names(tree):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def public_members(tree):
    """`Class.member` for each public method or property of a public class."""
    return [f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def referenced_names(paths):
    """Names read as an ast.Name or ast.Attribute anywhere in `paths`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def readme_names():
    """Identifiers inside backticks or code blocks of README.md."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, re.DOTALL) + re.findall(r"`([^`\n]+)`", text)
    return set(re.findall(r"\w+", " ".join(code)))


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = (referenced_names(MODULES)  # __init__ only re-exports
         | referenced_names(sorted((ROOT / "perfbench").glob("*.py")))
         | readme_names())


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_public_names_have_a_user(module):
    # a member is matched by its attribute name alone, whatever the object
    tree = ast.parse(module.read_text())
    unused = [name for name in public_names(tree) + public_members(tree)
              if name.split(".")[-1] not in USERS and name not in ALLOWED]
    assert unused == []


def test_allowed_names_are_still_unused():
    # an allowed name that gains a user no longer needs its exemption
    trees = [ast.parse(module.read_text()) for module in MODULES]
    defined = {name for tree in trees for name in public_names(tree) + public_members(tree)}
    assert ALLOWED <= defined
    assert not {name.split(".")[-1] for name in ALLOWED} & USERS

