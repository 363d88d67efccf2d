"""One workload process: set-up, then closed-loop solves, then a JSON report.

    python perfbench/worker.py --workload W --seed N --mode setup|measure
        --seconds S --trace 0|1 --reference FILE --workdir DIR --report FILE

run.py starts this in a fresh interpreter.  ``--mode setup`` stops after
set-up (import, inputs, one warm-up call per layer) and reports the
monotonic time it became ready; run.py subtracts its spawn time.  ``--mode
measure`` then solves the input set repeatedly for ``--seconds`` (at least
MIN_SOLVES times).  With ``--trace 1`` the first half of the time is
untraced and the second half traced, which gives the per-layer metrics and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import refclock
from spans import Tracer

MIN_SOLVES = 3
MIN_SOLVES_PER_HALF = 2
LAYERS = ("import", "cli", "tle", "orbit", "compensation", "antenna", "thinfilm", "jones",
          "linksim", "bench")


def measure(wl, tr, gate, seconds, min_solves):
    """Solve until `seconds` have passed and `min_solves` solves are done.

    Returns the wall time of every solve and, per workload item, its
    (wall seconds, calibration seconds) in every solve.
    """
    walls, items = [], []
    start = time.monotonic()
    while len(walls) < min_solves or time.monotonic() - start < seconds:
        with tr.span("bench.solve"):
            t = time.monotonic()
            out = wl.solve(tr)
            walls.append(time.monotonic() - t)
        items.append(wl.item_times)
        wl.check(out, gate)
    return walls, [list(per_item) for per_item in zip(*items)]


def reference_s(items):
    """Time to solution in reference seconds: per item the median over solves, summed."""
    return sum(statistics.median(refclock.to_reference(w, c) for w, c in times) for times in items)


def raw_s(items):
    """The same in plain wall seconds, for the record."""
    return sum(statistics.median(w for w, _ in times) for times in items)


def _ratio(num, den):
    return num / den if den else 0.0


def speed_scale(items):
    """Wall seconds -> reference seconds, from every calibration taken around `items`."""
    return refclock.to_reference(1.0, statistics.median(c for times in items for _, c in times))


def layer_metrics(tr, solves, wl, extra, scale):
    """Every per-layer metric, per solve of the input set; 0 where a layer is unused.

    Span times are rescaled to reference seconds by `scale`.
    """
    by_name, by_layer, calls = tr.totals()

    def secs(name):
        return by_name.get(name, 0.0) * scale / solves

    def per_solve(name):
        return round(calls.get(name, 0) / solves)

    c = wl.counts
    v = getattr(wl, "values", {})
    grid = c.get("orbit.grid_samples", 0)
    verify_samples = c.get("compensation.verify_samples", 0)
    cells = c.get("antenna.cells", 0)
    seeds = per_solve("linksim.simulate")
    seed_s = secs("linksim.simulate") + secs("linksim.estimate") + secs("linksim.bootstrap")
    m = {f"{layer}.self_s": by_layer.get(layer, 0.0) * scale / solves for layer in LAYERS}
    m.update({
        "tle.parse_s": secs("tle.parse"),
        "tle.records": per_solve("tle.parse"),
        "orbit.extract_s": secs("orbit.extract_passes"),
        "orbit.grid_samples": grid,
        "orbit.passes": c.get("orbit.passes", 0),
        "orbit.ns_per_grid_sample": _ratio(secs("orbit.extract_passes") * 1e9, grid),
        "orbit.in_pass_share": _ratio(c.get("orbit.in_pass_samples", 0), grid),
        "orbit.track_s": secs("orbit.track"),
        "orbit.track_in_pass_share": _ratio(c.get("orbit.track_in_pass_samples", 0),
                                            c.get("orbit.track_grid_samples", 0)),
        "compensation.schedule_s": secs("compensation.schedule"),
        "compensation.schedules": per_solve("compensation.schedule"),
        "compensation.out_bytes": c.get("compensation.out_bytes", 0),
        "compensation.calibrate_s": secs("compensation.calibrate"),
        "compensation.calibrations": per_solve("compensation.calibrate"),
        "compensation.verify_s": secs("compensation.verify"),
        "compensation.verify_samples": verify_samples,
        "compensation.verify_us_per_sample": _ratio(secs("compensation.verify") * 1e6, verify_samples),
        "compensation.min_fidelity": v.get("compensation.min_fidelity", 0.0),
        "antenna.scan_s": secs("antenna.scan"),
        "antenna.cells": cells,
        "antenna.us_per_cell": _ratio(secs("antenna.scan") * 1e6, cells),
        "thinfilm.matrix_s": secs("thinfilm.matrix"),
        "thinfilm.oracle_s": secs("thinfilm.oracle"),
        "thinfilm.evals": c.get("thinfilm.evals", 0),
        "thinfilm.layer_evals": c.get("thinfilm.layer_evals", 0),
        "thinfilm.max_disagreement": v.get("thinfilm.max_disagreement", 0.0),
        "jones.fiber_solve_s": secs("jones.fiber_solve"),
        "jones.fiber_solves": per_solve("jones.fiber_solve"),
        "jones.fiber_max_residual": v.get("jones.fiber_max_residual", 0.0),
        "linksim.calibrate_s": secs("linksim.calibrate"),
        "linksim.calibrations": per_solve("linksim.calibrate"),
        "linksim.simulate_s": secs("linksim.simulate"),
        "linksim.estimate_s": secs("linksim.estimate"),
        "linksim.bootstrap_s": secs("linksim.bootstrap"),
        "linksim.seeds": seeds,
        "linksim.us_per_seed": _ratio(seed_s * 1e6, seeds),
        "linksim.offset_scan_s": secs("linksim.offset_scan"),
        "linksim.offset_points": c.get("linksim.offset_points", 0),
    })
    m.update(extra)
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--report", required=True)
    args = p.parse_args(argv)

    t0 = time.monotonic()
    import polsim  # noqa: F401  (timed: the package import every user pays)
    import_s = time.monotonic() - t0
    modules = len(sys.modules)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference(args.reference),
                                            args.workdir)
    wl.setup()
    t_ready = time.monotonic()
    # calibrated right after set-up: a kernel run before `import polsim`
    # would load numpy first and take it out of that import
    calibration = statistics.median(refclock.calibration_s() for _ in range(5))
    import_s = refclock.to_reference(import_s, calibration)
    report = {"t_ready": t_ready, "import_s": import_s, "modules": modules,
              "calibration_s": calibration}
    if args.mode == "measure":
        report.update(run(wl, args, workloads, import_s, modules))
    with open(args.report, "w", encoding="ascii") as fh:
        json.dump(report, fh)
    return 0


def run(wl, args, workloads, import_s, modules):
    gate = workloads.Gate()
    is_cli = args.workload == "cli"
    if not args.trace:
        walls, items = measure(wl, Tracer(False), gate, args.seconds, MIN_SOLVES)
        out = {"walls": walls, "items": items, "wall_s": reference_s(items),
               "raw_wall_s": raw_s(items)}
        if is_cli:
            out["peak_rss_mb"] = max(wl.cmd_rss)
    else:
        half = args.seconds / 2.0
        walls, items = measure(wl, Tracer(False), gate, half, MIN_SOLVES_PER_HALF)
        extra = {"import.polsim_s": import_s, "import.modules": modules}
        latencies = list(getattr(wl, "latencies", ()))
        extra.update(seed_percentiles(latencies))
        tr = Tracer(True)
        traced, traced_items = measure(wl, tr, gate, half, MIN_SOLVES_PER_HALF)
        extra.update(cli_metrics(wl if is_cli else None, items, workloads.COMMANDS))
        extra["bench.trace_overhead_ratio"] = reference_s(traced_items) / reference_s(items)
        layers = layer_metrics(tr, len(traced), wl, extra, speed_scale(traced_items))
        tr.dump(f"{args.workdir}/trace.json")
        out = {"walls": walls, "traced_walls": traced, "layers": layers,
               "seed_samples": len(latencies)}
    out.update(attempted=gate.attempted, failed=gate.failed, messages=gate.messages)
    return out


def seed_percentiles(latencies):
    """Per-seed p50 and p90 in reference ms from (wall, calibration) pairs; 0 without seeds."""
    if len(latencies) < 2:
        return {"seed_p50_ms": 0.0, "seed_p90_ms": 0.0}
    ms = [refclock.to_reference(w, c) * 1e3 for w, c in latencies]
    return {"seed_p50_ms": statistics.median(ms), "seed_p90_ms": statistics.quantiles(ms, n=10)[8]}


def cli_metrics(cli, items, commands):
    """cmd.* and cli.* metrics from the cli workload's untraced items; zeros without it."""
    inproc = cli.inproc_times() if cli else {}
    probes = cli.probes if cli else {}
    out = {}
    for k, cmd in enumerate(commands):
        out[f"cmd.{cmd}_s"] = reference_s([items[k]]) if cli else 0.0
        out[f"cli.{cmd}.inproc_s"] = inproc.get(cmd, 0.0)
        out[f"cli.{cmd}.scipy_loaded"] = probes.get(cmd, {}).get("scipy_loaded", 0)
        out[f"cli.{cmd}.modules"] = probes.get(cmd, {}).get("modules", 0)
    return out


if __name__ == "__main__":
    sys.exit(main())
