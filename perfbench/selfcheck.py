"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the fields and limits its format requires and agrees
   with metrics.json.
2. A minimum-size run (--seconds 1) of every workload, untraced and traced,
   passes its gates and prints exactly the metrics BENCHMARK.json names, with
   their units.
3. The same untraced runs against a perturbed reference report failed > 0,
   which shows the gates fire.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import proc
from run import WORKLOAD_NAMES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def format_problems(bench, catalogue):
    problems = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in [1, 60]")
    if not 2 <= len(bench["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("workloads differ from run.py")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: needs exactly name and a one-line why")
        names.append(w["name"])
    if not bench["end_to_end"] or not any(m["name"] == "setup_s" and m["unit"] == "s"
                                          and m["better"] == "lower" for m in bench["end_to_end"]):
        problems.append("end_to_end needs setup_s in s, lower is better")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        mine = [{k: m[k] for k in keys} for m in catalogue[section]]
        if bench[section] != mine:
            problems.append(f"{section} differs from metrics.json")
        for m in bench[section]:
            names.append(m["name"])
            if set(m) != keys or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"metric {m.get('name')}: keys, unit or better")
            if section == "end_to_end" and not 0.0 < m["bound"] <= 0.25:
                problems.append(f"metric {m['name']}: bound must be in (0, 0.25]")
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(names) != len(set(names)):
        problems.append(f"names invalid or repeated: {bad}")
    return problems


def run(workload, trace, reference=None, cwd=proc.ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    if reference is not None:
        argv += ["--reference", str(reference)]
    got = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    lines = got.stdout.strip().splitlines()
    return got.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def perturb(value):
    """Move every number in the reference: x -> 1.5 x + 1."""
    if isinstance(value, dict):
        return {k: perturb(v) for k, v in value.items()}
    if isinstance(value, list):
        return [perturb(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 1.5 * value + 1
    return value


def main():
    bench = json.loads((proc.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    catalogue = json.loads((proc.BENCH_DIR / "metrics.json").read_text(encoding="ascii"))
    problems = format_problems(bench, catalogue)

    work = proc.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    perturbed = work / "reference-perturbed.json"
    reference = json.loads((proc.BENCH_DIR / "reference.json").read_text(encoding="ascii"))
    perturbed.write_text(json.dumps(perturb(reference)), encoding="ascii")

    for workload in WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()} if result else None
            ok = (code == 0 and result is not None and got == want and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and set(result) == {"correct", "attempted", "failed", "metrics"})
            print(f"{workload} trace={trace}: {'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                problems.append(f"{workload} trace={trace}: exit {code}, result {result}")
        code, result = run(workload, 0, reference=perturbed)
        fired = code == 0 and result is not None and result["failed"] > 0
        print(f"{workload} perturbed reference: "
              f"{'gates fired' if fired else 'FAILED'} ({result and result['failed']} failed)",
              flush=True)
        if not fired:
            problems.append(f"{workload}: perturbed reference did not fail any operation")

    bare = work / "bare"
    shutil.copytree(proc.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(proc.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result = run(WORKLOAD_NAMES[0], 0, cwd=bare)
    print(f"bare directory: exit {code}, result printed: {result is not None}")
    if code == 0 or result is not None:
        problems.append("run.py must fail without a result when src/ is missing")
    shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
