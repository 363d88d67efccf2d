"""Seeded operator-swap mutation probe: python tests/mutation_probe.py MODULE [COUNT|all] [SEED]

Draws COUNT operator sites (default 20) of src/polsim/MODULE.py with
random.Random(SEED) (default 0), or takes every site for `all`, and swaps
one per mutant: + and -, * and /, % and //, < and <=, > and >=, == and !=.
Each mutant runs tests/test_MODULE.py and tests/test_acceptance.py in a
temporary copy of src/, tests/ and README.md, and prints its file, line and
fate.  The unmutated tests run first: if they fail, the probe prints their
tail and exits 1, and otherwise a mutant still running after 10 times their
wall time (at least 60 s) is killed.  A survivor is a test gap unless the
swap is equivalent or differs only at one exact boundary value; those are
listed in tests/probe_ledger.txt, keyed by module, the site's own source
text (see site_keys) and swap, and the closing list names only the survivors
the ledger does not.
pytest does not collect this file (tests/test_mutation_probe.py checks the
ledger).
"""

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "probe_ledger.txt"
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Mod: ast.FloorDiv, ast.FloorDiv: ast.Mod,
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


def describe(node, slot):
    """A site's line (its left operand's last) and a label such as `Div->Mult`."""
    old = node.op if slot is None else node.ops[slot]
    before = node.comparators[slot - 1] if slot else node.left  # slot None or 0: left
    return before.end_lineno, f"{type(old).__name__}->{SWAPS[type(old)].__name__}"


def site_keys(source):
    """(site text, label) per site of `source`, in sites() order.  A site's text
    is its source, whitespace runs as one space: a BinOp or one-operator
    comparison whole (ast.get_source_segment of the node), one link of a
    chained comparison from the operand before the swapped operator to the one
    after.  Sites that share text and label get a ` #k` ordinal, k = 1, 2, ...
    in that order."""
    # sliced here rather than by get_source_segment, which splits the source per call
    lines = [line.encode() for line in source.splitlines()]  # ast columns count UTF-8 bytes

    def text(node, slot):
        first = node.comparators[slot - 1] if slot else node  # slot None or 0: from the start
        last = node.comparators[slot] if slot is not None and slot < len(node.ops) - 1 else node
        rows = lines[first.lineno - 1:last.end_lineno]
        rows[-1] = rows[-1][:last.end_col_offset]
        rows[0] = rows[0][first.col_offset:]
        return " ".join(b" ".join(rows).decode().split())

    keys = [(text(*site), describe(*site)[1]) for site in sites(ast.parse(source))]
    shared, seen = {key for key, n in Counter(keys).items() if n > 1}, Counter()
    for i, key in enumerate(keys):
        if key in shared:
            seen[key] += 1
            keys[i] = (f"{key[0]} #{seen[key]}", key[1])
    return keys


def ledger():
    """{(module, site text, label): reason} of tests/probe_ledger.txt:
    tab-separated lines, `#` comments and blank lines skipped."""
    rows = [line.split("\t") for line in LEDGER.read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    return {(module, text, label): reason for module, text, label, reason in rows}


def mutate(source, k):
    """Source with site k swapped, the operator's line and its label (see describe)."""
    tree = ast.parse(source)
    node, slot = sites(tree)[k]
    line, label = describe(node, slot)
    new = SWAPS[type(node.op if slot is None else node.ops[slot])]()
    if slot is None:
        node.op = new
    else:
        node.ops[slot] = new
    return ast.unparse(tree), line, label


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
    known, keys = ledger(), site_keys(source)
    survivors, listed = [], 0
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
            text = keys[k][0]
            if status == "survived" and (module, text, label) in known:
                status, listed = "survived (in the ledger)", listed + 1
            print(f"{rel}:{line}: {label} {status}: {text}", flush=True)
            survivors += [f"{rel}:{line}: {label}"] * (status == "survived")
    print(f"{module} {drawn}: {len(picks)} mutants, {len(survivors) + listed} survivors, "
          f"{listed} in the ledger", *survivors, sep="\n")


if __name__ == "__main__":
    main(*sys.argv[1:4])
