"""Regenerate perfbench/reference.json from the current sources.

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference holds the physics outputs the gates compare against: pass
rise/set times, the packaged coating's response, the calibrated Bell point
and the outputs of each CLI subcommand with defaults.  Regenerate it only
when a change is meant to move one of them beyond its acceptance tolerance,
and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys

import proc
import workloads as W
from polsim import cli, linksim, orbit, thinfilm, tle


def passes(rec, t0, t1, step_s):
    found = orbit.extract_passes(rec, W.STATION, t0, t1, threshold_deg=W.THRESHOLD_DEG, step_s=step_s)
    return {"rise": [p.t_posix[0] for p in found], "set": [p.t_posix[-1] for p in found]}


def cli_outputs():
    out = {}
    scratch = proc.OUT / "make_reference"
    for cmd in ("coating", "per-map", "compensate", "offset-scan", "bell"):
        out_dir = scratch / cmd
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(W.cli_args(cmd, out_dir, None, 0))
        if code != 0:
            raise SystemExit(f"polsim {cmd} exited {code}")
        summary = W.summarize(cmd, *W.read_outputs(out_dir, sink.getvalue()))
        if cmd == "per-map":
            summary = {"cells": summary["cells"]}
        elif cmd == "compensate":
            summary = {"rise": summary["rise"], "set": summary["set"]}
        elif cmd == "bell":
            summary = {"model": summary["model"],
                       "calibrated": ["depolarization", "integration_time_s"]}
        out[cmd] = summary
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def main():
    sso = tle.load_tle_file(W.DATA / "sso_500km.tle")
    t0 = sso.epoch_posix
    chain = W.Chain(0, None, None)
    chain.setup()
    packaged = thinfilm.stack_response(thinfilm.load_stack_file(W.DATA / "hr_coating_stack.txt"),
                                       thinfilm.Ray(math.radians(45.0), 780.0))
    bell = W.Bell(0, None, None)
    source, channel, det = bell._models(*W.PAPER_POINT[:2])
    channel, det = linksim.calibrate_bell(source, channel, det, *W.PAPER_POINT[2:])
    s_exp, total_exp = linksim.expected_chsh(source, channel, det)
    ref = {
        "about": "Generated by perfbench/make_reference.py; tolerances live in workloads.py.",
        "floors": {"min_per": 400.0, "coated_min_fidelity": 0.995},
        "passplan": {"sso_7d": passes(sso, t0, t0 + W.Passplan.HORIZON_S, W.Passplan.STEP_S)},
        "chain": {
            "packaged_45_780": {"rs_power": abs(packaged.r_s) ** 2, "rp_power": abs(packaged.r_p) ** 2},
            "track": passes(sso, *chain.window, W.Chain.TRACK_STEP_S),
        },
        "bell": {"paper": {"s": s_exp, "total": total_exp}},
        "cli": cli_outputs(),
    }
    path = proc.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="ascii")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
