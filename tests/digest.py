"""Output digests for a bit-identity check: python tests/digest.py [SRC | OLD_SRC NEW_SRC]

Imports polsim from SRC (default: this repository's src/) and prints one
SHA-256 per output family:

* pass fields, pass CSVs, schedule CSV+JSON: `extract_passes` over a week at
  Ngari (threshold 10 degrees, steps 1 s and 0.25 s) for the packaged TLE and
  three seeded LEO TLEs for each of the seeds 3, 5, 11 and 29, and
  `schedule_from_pass` of every pass;
* clipped passes: the pass fields of `extract_passes` over windows of those
  weeks that start and end mid-pass (from the middle of every fourth pass to
  the middle of the pass two later), where both edge passes are dropped;
* coating, per-map, compensate, offset-scan, bell: each subcommand at its
  defaults, stdout and every file it writes (paths are masked);
* thin film, thin film oracle: `stack_response` and, apart,
  `stack_response_oracle` of the packaged and quarter-wave stacks on a
  5-angle x 9-wavelength grid, ray by ray and as one grid call, so a change
  to one algorithm names which one moved;
* library: calls no subcommand makes at their defaults: `verify_compensation`
  with `HR_COATING` on the packaged TLE's passes, `offset_scan` on a 21 x 5
  grid, `calibrate_bell` and `expected_chsh` at the paper's point, 20 seeds of
  `simulate_chsh_counts` through `estimate_chsh`'s propagation,
  `solve_fiber_compensation` on seeded Haar channels and the layers of
  `quarter_wave_stack()`;
* bootstrap: `estimate_chsh(counts, error_method="bootstrap")` on the same 20
  seeds' counts;
* tle: `parse_tle` and `format_tle` of the packaged and seeded TLEs, the
  seeded `make_tle` records, and the outcome (error text, line and column, or
  record and re-formatted text) of `parse_tle` on every single-character
  mutation of the packaged TLE over a fixed alphabet and on 2,000 seeded
  double mutations, each with the checksums as mutated and fixed.

`python tests/digest.py OLD_SRC NEW_SRC` digests each tree in its own
interpreter and prints `same` or `moved` per family, exiting 1 if any moved (2
if a tree fails): a family whose digest moved has an output that moved, to the
last bit.  It is a cross-commit tool, not a golden file (libm and numpy builds
can move last bits), so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import math
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def compare(old_src, new_src):
    """Digest both trees, each in a fresh interpreter; 1 if any family moved."""
    lines = []
    for src in (old_src, new_src):
        run = subprocess.run([sys.executable, __file__, src], capture_output=True, text=True)
        if run.returncode:
            print(f"digest of {src} failed:\n{run.stderr}", file=sys.stderr)
            sys.exit(2)
        lines.append(run.stdout.splitlines())
    moved = [old != new for old, new in zip(*lines)]
    for line, move in zip(lines[0], moved):
        print(f"{'moved' if move else 'same'}  {line.split('  ', 1)[1]}")
    return int(any(moved))


if __name__ == "__main__" and len(sys.argv) == 3:
    sys.exit(compare(*sys.argv[1:]))

SRC = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(SRC.resolve()))

from polsim import (antenna, cli, compensation, jones, linksim, orbit, table,  # noqa: E402
                    thinfilm, tle)

DATA = SRC.resolve() / "polsim" / "data"
SEEDS = (3, 5, 11, 29)
STEPS_S = (1.0, 0.25)
ANGLES_DEG = (35.0, 40.0, 45.0, 50.0, 55.0)
WAVELENGTHS_NM = tuple(float(w) for w in np.linspace(760.0, 800.0, 9))
MUTATION_CHARS = " +-.0159AUXe"


def seeded_records(seed, count=3):
    """LEO element sets drawn from seed, rounded to TLE precision."""
    rng = np.random.default_rng([seed, 1])
    return [tle.make_tle(
        name=f"SYN-{k}", satellite_number=90000 + k, epoch_year=2024, epoch_day=1.0,
        inclination_deg=round(float(rng.uniform(85.0, 100.0)), 4),
        raan_deg=round(float(rng.uniform(0.0, 359.0)), 4),
        eccentricity=round(float(rng.uniform(1e-4, 5e-3)), 7),
        arg_perigee_deg=round(float(rng.uniform(0.0, 359.0)), 4),
        mean_anomaly_deg=round(float(rng.uniform(0.0, 359.0)), 4),
        mean_motion_rev_per_day=round(float(rng.uniform(14.9, 15.5)), 8),
    ) for k in range(count)]


def tle_texts():
    """The packaged TLE, then three seeded ones for each seed."""
    texts = [(DATA / "sso_500km.tle").read_text(encoding="ascii")]
    return texts + [tle.format_tle(rec) for seed in SEEDS for rec in seeded_records(seed)]


def feed(digest, *parts):
    """Hash each part with its length, so no two part sequences collide."""
    for part in parts:
        data = part.encode() if isinstance(part, str) else part
        digest.update(len(data).to_bytes(8, "little") + data)


def pass_fields(p):
    """Each field of a PassProfile as float64 bytes."""
    return (np.asarray(getattr(p, name), dtype=float).tobytes() for name in p.__dataclass_fields__)


def pass_families(families):
    texts = tle_texts()
    fields, csvs, schedules, clipped = (families[k] for k in (
        "pass fields", "pass csv", "schedule", "clipped passes"))
    counts = [0, 0, 0]
    for text in texts:
        rec = tle.parse_tle(text)
        for step in STEPS_S:
            passes = orbit.extract_passes(rec, orbit.NGARI_STATION, rec.epoch_posix,
                                          rec.epoch_posix + 7 * 86400.0, 10.0, step)
            feed(fields, str(len(passes)))
            counts[0] += len(passes)
            counts[1] += sum(len(p.t_posix) for p in passes)
            for p in passes:
                feed(fields, *pass_fields(p))
                feed(csvs, p.to_csv())
                s = compensation.schedule_from_pass(p)
                feed(schedules, s.to_csv(), s.metadata_json())
            middles = [0.5 * (p.t_posix[0] + p.t_posix[-1]) for p in passes]
            for t0, t1 in zip(middles[::4], middles[2::4]):
                inside = orbit.extract_passes(rec, orbit.NGARI_STATION, t0, t1, 10.0, step)
                feed(clipped, str(len(inside)))
                counts[2] += 1
                for p in inside:
                    feed(clipped, *pass_fields(p))
    return (f"{len(texts)} TLE-weeks x {len(STEPS_S)} steps: {counts[0]} passes, {counts[1]} "
            f"rows; {counts[2]} windows cut mid-pass")


def cli_families(families, work):
    for command in ("coating", "per-map", "compensate", "offset-scan", "bell"):
        out_dir = work / command
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--out", str(out_dir)])
        text = stdout.getvalue().replace(str(out_dir), "<out>").replace(str(DATA), "<data>")
        feed(families[command], str(code), text, stderr.getvalue())
        for path in sorted(out_dir.iterdir()) if out_dir.exists() else ():
            feed(families[command], path.name, path.read_bytes())


def thinfilm_families(families):
    stacks = (thinfilm.load_stack_file(DATA / "hr_coating_stack.txt"), thinfilm.quarter_wave_stack())
    rays = [thinfilm.Ray(math.radians(a), w) for w in WAVELENGTHS_NM for a in ANGLES_DEG]
    grid = thinfilm.Ray(np.radians(ANGLES_DEG)[None, :], np.array(WAVELENGTHS_NM)[:, None])
    for stack in stacks:
        for solve, digest in ((thinfilm.stack_response, families["thin film"]),
                              (thinfilm.stack_response_oracle, families["thin film oracle"])):
            responses = [solve(stack, ray) for ray in rays]
            responses.append(solve(stack, grid))
            for r in responses:
                feed(digest, np.asarray(r.r_s, dtype=complex).tobytes(),
                     np.asarray(r.r_p, dtype=complex).tobytes())


def library_family(digest, bootstrap):
    rec = tle.parse_tle((DATA / "sso_500km.tle").read_text(encoding="ascii"))
    passes = orbit.extract_passes(rec, orbit.NGARI_STATION, rec.epoch_posix,
                                  rec.epoch_posix + 7 * 86400.0, 10.0, 1.0)
    for mirror in (antenna.HR_COATING, jones.IDEAL_MIRROR):
        feed(digest, repr(compensation.calibrate_zero_point(mirror)))
    for p in passes:
        feed(digest, compensation.verify_compensation(p, antenna.HR_COATING).tobytes())
    ground, sat = np.linspace(-5.0, 5.0, 21), (-2.0, -1.0, 0.0, 1.0, 2.0)
    feed(digest, linksim.offset_scan(ground, sat, antenna.HR_COATING).tobytes())

    source, channel, det = (linksim.SourceModel(0.9329, 1e6), linksim.ChannelModel(46.0),
                            linksim.DetectionModel(integration_time_s=80.0))
    feed(digest, repr(linksim.expected_chsh(source, channel, det)))
    channel, det = linksim.calibrate_bell(source, channel, det, 2.312, 2138.0)
    feed(digest, repr((channel, det)), repr(linksim.expected_chsh(source, channel, det)))
    for seed in range(20):
        counts = linksim.simulate_chsh_counts(source, channel, det, seed=seed)
        feed(digest, repr(counts), linksim.counts_to_csv(counts),
             linksim.estimate_chsh(counts).to_json())
        feed(bootstrap, linksim.estimate_chsh(counts, error_method="bootstrap").to_json())

    # Haar-random channels as rotator @ retarder @ rotator (ZXZ Euler angles)
    rng = np.random.default_rng([7, 3])
    a, c = rng.uniform(0.0, math.pi, size=(2, 50))
    d = np.arccos(rng.uniform(-1.0, 1.0, size=50))
    retarder = jones.OpticalElement(1.0, 0.0, 0.0, np.exp(1j * d))
    channels = jones.rotator(a) @ retarder @ jones.rotator(c)
    feed(digest, *(np.asarray(x).tobytes() for x in jones.solve_fiber_compensation(channels)))
    for k in range(5):
        one = jones.OpticalElement(*(complex(np.asarray(m)[k]) for m in vars(channels).values()))
        feed(digest, repr(jones.solve_fiber_compensation(one)))
    feed(digest, repr(thinfilm.quarter_wave_stack().layers))


def parse_outcome(text):
    try:
        rec = tle.parse_tle(text)
    except table.ParseError as exc:
        return f"{exc} | {exc.line_no} | {exc.column}"
    return f"{rec!r} | {tle.format_tle(rec)}"


def tle_family(digest):
    texts = tle_texts()
    for text in texts:
        feed(digest, parse_outcome(text))
    feed(digest, *(repr(rec) for seed in SEEDS for rec in seeded_records(seed)))
    lines = texts[0].splitlines()

    def mutated(edits, fix_checksum):
        out = list(lines)
        for row, col, ch in edits:
            out[row] = out[row][:col] + ch + out[row][col + 1:]
        if fix_checksum:
            out[1:] = [line[:68] + str(tle.line_checksum(line)) for line in out[1:]]
        return "\n".join(out) + "\n"

    singles = [(row, col, ch) for row in (1, 2) for col in range(69) for ch in MUTATION_CHARS
               if ch != lines[row][col]]
    rng = random.Random(0)
    corpus = [(edit,) for edit in singles] + [tuple(rng.sample(singles, 2)) for _ in range(2000)]
    for edits in corpus:
        feed(digest, *(parse_outcome(mutated(edits, fix)) for fix in (False, True)))
    return len(corpus)


def main():
    start = time.perf_counter()
    names = ("pass fields", "pass csv", "schedule", "coating", "per-map", "compensate",
             "offset-scan", "bell", "thin film", "thin film oracle", "library", "bootstrap",
             "tle", "clipped passes")
    families = {name: hashlib.sha256() for name in names}
    summary = pass_families(families)
    with tempfile.TemporaryDirectory() as work:
        cli_families(families, Path(work))
    thinfilm_families(families)
    library_family(families["library"], families["bootstrap"])
    mutations = tle_family(families["tle"])
    for name in names:
        print(f"{families[name].hexdigest()}  {name}")
    print(f"polsim from {SRC}; {summary}; {2 * mutations} TLE mutations; "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
