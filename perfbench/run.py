"""polsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload passplan|chain|bell|cli --seed N
                             --seconds S --trace 0|1 [--reference FILE]

Run from the repository root; the package is imported from ./src.  Every run
is single-process closed loop: each workload process (perfbench/worker.py)
solves its seeded input set again as soon as the previous solve returns.

--trace 0 prints the end-to-end metrics: set-up time (median of
SETUP_SAMPLES fresh interpreters), time to solution (per item the median over
the run's solves, summed over items) and peak resident memory.  Times are in
reference seconds (see refclock.py); plain wall seconds are printed too.  --trace 1 prints the per-layer metrics from a separate
traced run.  Either way the outputs are checked against reference.json; the
last stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and fail_ratio = failed / attempted.  Spans and a full record of
the run (environment, samples, failures) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata

import proc
import refclock

SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("passplan", "chain", "bell", "cli")


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    load = os.getloadavg()
    commit = "unknown (not a git checkout)"
    if (proc.ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((proc.SRC / "polsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(proc.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load,
        "thread_pins": proc.THREAD_PINS,
    }


class WorkerFailed(RuntimeError):
    pass


def spawn_worker(args, run_dir, mode, tag):
    report = run_dir / f"{tag}.json"
    argv = [
        sys.executable, str(proc.BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", str(args.reference), "--workdir", str(run_dir), "--report", str(report)]
    code, t_spawn, _, rss = proc.run_child(argv, run_dir / f"{tag}.stdout", run_dir / f"{tag}.stderr")
    if code != 0 or not report.is_file():
        tail = (run_dir / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        raise WorkerFailed(f"{tag} worker exited {code}:\n{tail}")
    out = json.loads(report.read_text(encoding="ascii"))
    out["raw_setup_s"] = out["t_ready"] - t_spawn
    out["setup_s"] = refclock.to_reference(out["raw_setup_s"], out["calibration_s"])
    out["rss_mb"] = rss
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(proc.BENCH_DIR / "reference.json"))
    args = p.parse_args(argv)

    if not (proc.SRC / "polsim" / "__init__.py").is_file():
        print(f"perfbench: no polsim sources under {proc.SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    # one CPU for this process and every child, so that the calibration kernel
    # (refclock.py) runs where the timed work runs
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    catalogue = json.loads((proc.BENCH_DIR / "metrics.json").read_text(encoding="ascii"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue[section]}
    env = dict(environment(), cpu=cpu)

    run_dir = proc.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups = [] if args.trace else [
            spawn_worker(args, run_dir, "setup", f"setup{k}") for k in range(SETUP_SAMPLES - 1)
        ]
        result = spawn_worker(args, run_dir, "measure", "measure")
        setups.append(result)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "cli", ignore_errors=True)

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result.get("peak_rss_mb", result["rss_mb"]),
        }
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match metrics.json",
              file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics,
              "setup_samples": [{k: s[k] for k in ("setup_s", "raw_setup_s", "calibration_s")}
                                for s in setups],
              "attempted": attempted, "failed": failed, "failures": result["messages"],
              "samples": {k: result[k] for k in ("walls", "items", "traced_walls", "seed_samples")
                          if k in result}}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="ascii")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} solves={len(result['walls'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    if not args.trace:
        raw_setup = statistics.median(s["raw_setup_s"] for s in setups)
        print(f"plain wall seconds (not metrics): setup {raw_setup!r}, "
              f"time to solution {result['raw_wall_s']!r}")
    print(f"fail_ratio {failed / attempted!r} 1 ({failed} of {attempted} operations)")
    if args.trace:
        shares = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
        print(f"dominant_layer {max(shares, key=shares.get)}  (self seconds per solve: "
              + ", ".join(f"{k} {v:.4g}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
              + f"; seed samples {result.get('seed_samples', 0)})")
    for message in result["messages"]:
        print(f"perfbench: gate failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
