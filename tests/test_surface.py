"""Every public name in `polsim`, and every public method or property of a
public class, has a user: code in the package, the benchmark, or the README.
So has every defaulted parameter of a public function or method: some call
there sets it.  A name or parameter only the tests use belongs in the tests
(see reference.py)."""

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

# Defaulted parameters, written `function.parameter`, that no call sets yet.
UNSET_ALLOWED = set()


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
USERS = (referenced_names(MODULES)  # __init__ holds only __version__
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


def readme_python():
    """The python code blocks of README.md."""
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, re.DOTALL))


def test_readme_example_runs(monkeypatch, capsys):
    # run from the repo root, where the example finds the packaged TLE
    monkeypatch.chdir(ROOT)
    exec(compile(readme_python(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def function_defs(tree):
    """(def node, is_method) for every function in `tree`; a call binds a
    method's first parameter to its object unless it is a staticmethod."""
    methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and "staticmethod" not in {getattr(d, "id", None) for d in item.decorator_list}}
    return [(node, node in methods) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def defaulted(fn, is_method):
    """(positional parameters after self/cls, parameters with a default)."""
    args = fn.args.posonlyargs + fn.args.args
    positional = [a.arg for a in args][1 if is_method else 0:]
    with_default = [a.arg for a in args[len(args) - len(fn.args.defaults):]]
    with_default += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return positional, set(with_default)


def call_edges(trees):
    """Which calls set which defaulted parameters, keyed by the callee's name.

    Returns (direct, passed): `direct` holds `name.parameter` set by a value,
    `passed` maps `caller.parameter` to the `callee.parameter` it is handed
    to unchanged.  A `**` argument sets no parameter, and a `*` one sets none
    after the star.
    """
    signatures = {}
    for tree in trees:
        for fn, is_method in function_defs(tree):
            signatures.setdefault(fn.name, []).append(defaulted(fn, is_method))
    direct, passed = set(), {}

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            visit(child, child if isinstance(child, ast.FunctionDef) else caller)
        if not isinstance(node, ast.Call):
            return
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        own = defaulted(caller, False)[1] if caller else set()
        for positional, params in signatures.get(name, ()):
            bound = []
            for arg, param in zip(node.args, positional):
                if isinstance(arg, ast.Starred):
                    break
                bound.append((param, arg))
            bound += [(kw.arg, kw.value) for kw in node.keywords if kw.arg is not None]
            for param, value in bound:
                if param not in params:
                    continue
                if isinstance(value, ast.Name) and value.id in own:
                    passed.setdefault(f"{caller.name}.{value.id}", set()).add(f"{name}.{param}")
                else:
                    direct.add(f"{name}.{param}")

    for tree in trees:
        visit(tree, None)
    return direct, passed


def set_parameters(trees):
    """`function.parameter` for every defaulted parameter some call sets."""
    direct, passed = call_edges(trees)
    reached, todo = set(), list(direct)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += passed.get(key, ())
    return reached


def public_defaulted(tree):
    """`function.parameter` for each defaulted parameter of a public function or
    method (of a public class) defined at the top of `tree`."""
    fns = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    fns += [item for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body if isinstance(item, ast.FunctionDef)]
    return [f"{fn.name}.{p}" for fn in fns if not fn.name.startswith("_")
            for p in sorted(defaulted(fn, False)[1])]


CALLERS = [ast.parse(path.read_text())
           for path in [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]]
CALLERS.append(ast.parse(readme_python()))
SET = set_parameters(CALLERS)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_defaulted_parameters_are_set(module):
    # a parameter is matched by its function's name alone, whatever the object
    unset = [key for key in public_defaulted(ast.parse(module.read_text()))
             if key not in SET and key not in UNSET_ALLOWED]
    assert unset == []


def test_unset_allowed_are_still_unset():
    defined = {key for module in MODULES for key in public_defaulted(ast.parse(module.read_text()))}
    assert UNSET_ALLOWED <= defined
    assert not UNSET_ALLOWED & SET
