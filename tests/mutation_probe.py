"""Seeded operator-swap mutation probe: python tests/mutation_probe.py MODULE [COUNT|all] [SEED]

Draws COUNT operator sites (default 20) of src/polsim/MODULE.py with
random.Random(SEED) (default 0), or takes every site for `all`, and swaps
one per mutant: + and -, * and /, < and <=, > and >=, == and !=.  Each
mutant runs tests/test_MODULE.py and tests/test_acceptance.py in a
temporary copy of src/, tests/ and README.md, and prints its file, line and
fate; the survivors are listed again at the end.  The unmutated tests run
first: if they fail, the probe prints their tail and exits 1, and otherwise
a mutant still running after 10 times their wall time (at least 60 s) is
killed.  A survivor is a test gap unless the swap is equivalent or differs
only at one exact boundary value.  pytest does not collect this file.
"""

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def sites(tree):
    """(node, slot) per swappable operator, in ast.walk order; slot None is a BinOp's op."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
    return found


def mutate(source, k):
    """Source with site k swapped, the operator's line and a label such as `Div->Mult`."""
    tree = ast.parse(source)
    node, slot = sites(tree)[k]
    old = node.op if slot is None else node.ops[slot]
    new = SWAPS[type(old)]()
    if slot is None:
        node.op, before = new, node.left
    else:
        node.ops[slot], before = new, node.comparators[slot - 1] if slot else node.left
    return ast.unparse(tree), before.end_lineno, f"{type(old).__name__}->{type(new).__name__}"


def main(module, count="20", seed="0"):
    rel = f"src/polsim/{module}.py"
    source = (ROOT / rel).read_text()
    n_sites = len(sites(ast.parse(source)))
    if count == "all":
        picks, drawn = range(n_sites), "every site"
    else:
        picks = sorted(random.Random(int(seed)).sample(range(n_sites), min(int(count), n_sites)))
        drawn = f"seed {seed}"
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"tests/test_{module}.py", "tests/test_acceptance.py"]
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=shutil.ignore_patterns("*.pyc"))
        for name in ("pyproject.toml", "README.md"):  # test_cli reads README's config table
            shutil.copy(ROOT / name, tmp)
        started = time.perf_counter()
        baseline = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)
        if baseline.returncode:
            print("the unmutated tests fail:", *baseline.stdout.splitlines()[-20:], sep="\n")
            sys.exit(1)
        timeout = max(60.0, 10.0 * (time.perf_counter() - started))
        for k in picks:
            text, line, label = mutate(source, k)
            Path(tmp, rel).write_text(text)
            try:
                run = subprocess.run(command, cwd=tmp, env=env, capture_output=True, timeout=timeout)
                status = "survived" if run.returncode == 0 else "killed"
            except subprocess.TimeoutExpired:
                status = "killed (timeout)"
            print(f"{rel}:{line}: {label} {status}: {source.splitlines()[line - 1].strip()}",
                  flush=True)
            survivors += [f"{rel}:{line}: {label}"] * (status == "survived")
    print(f"{module} {drawn}: {len(picks)} mutants, {len(survivors)} survivors",
          *survivors, sep="\n")


if __name__ == "__main__":
    main(*sys.argv[1:4])
