"""Workload inputs, solves and correctness gates.

Each workload is a class with three phases:

* ``setup()`` makes the seeded inputs and makes one warm-up call into every
  layer the workload uses, so lazy imports (scipy) and first-call costs land
  in set-up and not in the timed solves;
* ``solve(tr)`` runs the fixed input set once, closed loop, and returns the
  outputs; ``tr`` records one span per workload item and per public call into
  a layer (see spans.py);
* ``check(out, gate)`` compares the outputs with the reference file and the
  acceptance-suite tolerances, outside the timed region.

Only public names that survive the ROADMAP are called: no ``--jobs``, no
underscored helpers, and Jones elements are built with ``rotator``, ``hwp``,
``qwp`` and ``mirror_element`` and used only through ``@`` and ``.apply``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import shutil
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from polsim import antenna, cli, compensation, jones, linksim, orbit, thinfilm, tle

import proc
import refclock

DATA = proc.SRC / "polsim" / "data"
STATION = orbit.NGARI_STATION
THRESHOLD_DEG = 10.0

# Tolerances of tests/test_acceptance.py.
THINFILM_AGREEMENT = 1e-10
IDEAL_FIDELITY_TOL = 1e-9
PASS_TIME_TOL_S = 1e-4
S_CALIBRATION_TOL = 1e-9
TOTAL_CALIBRATION_TOL = 1e-6
MEAN_S_TOL = 0.02
SIGMA_S_RANGE = (0.06, 0.14)
# Crossing samples sit on the threshold; bisection to 1e-4 s leaves < 1e-4 deg.
CROSSING_EL_TOL_DEG = 1e-3
# Gadget @ channel must be a global phase; tol 1e-6 on the operator norm
# bounds the infidelity of any probe state by 1e-12.
FIBER_INFIDELITY_TOL = 1e-12
# Printed reflectances and the offset-scan grid: thin-film agreement bound.
VALUE_TOL = 1e-10
# Calibrated CLI bell model (brentq xtol 1e-12): relative tolerance.
CALIBRATED_REL_TOL = 1e-6


class Gate:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, what, check, *args):
        """One operation: `check(*args)` returns a list of problems or raises."""
        self.attempted += 1
        try:
            problems = check(*args)
        except Exception as exc:  # a crash in a gated call is a counted failure
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {problems[0]}")


def _attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes the returned value, for the gate to count."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by check()
        return exc


class Items:
    """Runs the workload items of one solve, each under its own span.

    `times` gets (wall seconds, calibration seconds around the item) per item;
    one calibration (refclock.py) sits between consecutive items.
    """

    def __init__(self, tr):
        self.tr = tr
        self.times = []
        self._calibration = refclock.calibration_s()

    def run(self, fn, *args, **kwargs):
        with self.tr.span("bench.item"):
            t = time.monotonic()
            out = _attempt(fn, *args, **kwargs)
            wall = time.monotonic() - t
        after = refclock.calibration_s()
        self.times.append((wall, (self._calibration + after) / 2.0))
        self._calibration = after
        return out


def _raised(out):
    return [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else []


def _times_match(label, got, want):
    if len(got) != len(want):
        return [f"{label}: {len(got)} passes, reference {len(want)}"]
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    return [f"{label}: time off by {worst:.3g} s"] if worst > PASS_TIME_TOL_S else []


def _close(label, got, want, tol):
    return [] if abs(got - want) <= tol else [f"{label} {got!r}, reference {want!r}"]


def synthetic_elements(seed, count):
    """Seeded LEO element sets, rounded to TLE precision, as make_tle kwargs."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for k in range(count):
        out.append(dict(
            name=f"SYN-{k}",
            satellite_number=90000 + k,
            epoch_year=2024,
            epoch_day=1.0,
            inclination_deg=round(float(rng.uniform(85.0, 100.0)), 4),
            raan_deg=round(float(rng.uniform(0.0, 359.0)), 4),
            eccentricity=round(float(rng.uniform(1e-4, 5e-3)), 7),
            arg_perigee_deg=round(float(rng.uniform(0.0, 359.0)), 4),
            mean_anomaly_deg=round(float(rng.uniform(0.0, 359.0)), 4),
            mean_motion_rev_per_day=round(float(rng.uniform(14.9, 15.5)), 8),
        ))
    return out


def grid_samples(t_start, t_end, step_s):
    """Samples on extract_passes' scan grid (computed, not counted inside polsim)."""
    return len(np.arange(t_start, t_end + step_s / 2.0, step_s))


def _posix(iso):
    return datetime.fromisoformat(iso.rstrip("Z")).replace(tzinfo=timezone.utc).timestamp()


# --- passplan -------------------------------------------------------------------


class Passplan:
    """A week of passes at Ngari for the packaged SSO TLE and seeded LEO TLEs."""

    SYNTHETIC = 3
    HORIZON_S = 7 * 86400.0
    STEP_S = 1.0

    def __init__(self, seed, ref, workdir):
        self.seed, self.ref, self.workdir = seed, ref, workdir
        self.counts = {}

    def setup(self):
        self.sso_text = (DATA / "sso_500km.tle").read_text(encoding="ascii")
        self.elements = synthetic_elements(self.seed, self.SYNTHETIC)
        tle.parse_tle(tle.format_tle(tle.make_tle(**self.elements[0])))
        rec = tle.parse_tle(self.sso_text)
        passes = orbit.extract_passes(rec, STATION, rec.epoch_posix, rec.epoch_posix + 86400.0,
                                      threshold_deg=THRESHOLD_DEG, step_s=10.0)
        schedule = compensation.schedule_from_pass(passes[0])
        schedule.to_csv()
        schedule.metadata_json()

    def _plan(self, tr, source):
        with tr.span("tle.parse"):
            text = source if isinstance(source, str) else tle.format_tle(tle.make_tle(**source))
            rec = tle.parse_tle(text)
        t0 = rec.epoch_posix
        with tr.span("orbit.extract_passes"):
            passes = orbit.extract_passes(rec, STATION, t0, t0 + self.HORIZON_S,
                                          threshold_deg=THRESHOLD_DEG, step_s=self.STEP_S)
        schedules = []
        for p in passes:
            with tr.span("compensation.schedule"):
                s = compensation.schedule_from_pass(p)
                schedules.append((s, s.to_csv(), s.metadata_json()))
        return text, rec, passes, schedules

    def solve(self, tr):
        items = Items(tr)
        out = [items.run(self._plan, tr, source) for source in [self.sso_text, *self.elements]]
        self.item_times = items.times
        done = [o for o in out if not isinstance(o, Exception)]
        samples = grid_samples(0.0, self.HORIZON_S, self.STEP_S)
        self.counts = {
            "orbit.grid_samples": samples * len(done),
            "orbit.passes": sum(len(o[2]) for o in done),
            "orbit.in_pass_samples": sum(len(p.t_posix) for o in done for p in o[2]),
            "compensation.out_bytes": sum(len(c) + len(j) for o in done for _, c, j in o[3]),
        }
        return out

    def check(self, out, gate):
        ref = self.ref["passplan"]["sso_7d"]
        for k, item in enumerate(out):
            gate.op(f"passplan item {k}", self._check_item, item, ref if k == 0 else None)

    @staticmethod
    def _check_item(item, ref):
        if isinstance(item, Exception):
            return _raised(item)
        text, rec, passes, schedules = item
        problems = []
        if tle.format_tle(tle.parse_tle(text)) != text or tle.parse_tle(tle.format_tle(rec)) != rec:
            problems.append("TLE round trip is not identical")
        for p, (s, csv, meta) in zip(passes, schedules):
            el = p.elevation_deg
            if max(abs(el[0] - THRESHOLD_DEG), abs(el[-1] - THRESHOLD_DEG)) > CROSSING_EL_TOL_DEG:
                problems.append(f"crossing elevations {el[0]!r}, {el[-1]!r}")
            if np.any(el[1:-1] < THRESHOLD_DEG) or not np.all(np.isfinite(s.angle_deg)):
                problems.append("pass sample below threshold or non-finite schedule")
            if len(s.angle_deg) != len(el) or csv.count("\n") != len(el) + 1:
                problems.append("schedule length differs from the pass")
            if not (np.all(s.angle_deg >= 0.0) and np.all(s.angle_deg < 180.0)):
                problems.append("HWP angle outside [0, 180)")
            if json.loads(meta)["samples"] != len(el):
                problems.append("schedule metadata sample count")
        if ref is not None:
            problems += _times_match("rise", [p.t_posix[0] for p in passes], ref["rise"])
            problems += _times_match("set", [p.t_posix[-1] for p in passes], ref["set"])
        return problems


# --- chain ----------------------------------------------------------------------


def seeded_stacks(seed, count):
    """Quarter-wave HR stacks with seeded thickness (+-2%) and index (+-0.5%) errors."""
    rng = np.random.default_rng([seed, 2])
    base = thinfilm.quarter_wave_stack()
    stacks = []
    for _ in range(count):
        layers = tuple(
            (n.real * (1.0 + rng.uniform(-0.005, 0.005)), d * (1.0 + rng.uniform(-0.02, 0.02)))
            for n, d in base.layers
        )
        stacks.append(thinfilm.LayerStack(base.ambient, layers, base.substrate))
    return stacks


def haar_channels(seed, count):
    """Haar-random unitaries (up to global phase) as rotator @ retarder @ rotator.

    rotator(a) turns the Poincare sphere by 2a about S3 and the retarder
    diag(1, exp(i d)) by d about S1, so a ZXZ Euler product with uniform a, c
    and cos(d) uniform in [-1, 1] is Haar distributed.
    """
    rng = np.random.default_rng([seed, 3])
    out = []
    for _ in range(count):
        a, c = rng.uniform(0.0, math.pi, size=2)
        d = math.acos(rng.uniform(-1.0, 1.0))
        retarder = jones.mirror_element(jones.MirrorResponse(1.0, cmath.exp(1j * d)))
        out.append(jones.rotator(float(a)) @ retarder @ jones.rotator(float(c)))
    return out


PROBE_STATES = (
    jones.PolarizationState.h(),
    jones.PolarizationState.v(),
    jones.PolarizationState.plus(),
    jones.qwp(math.pi / 4.0).apply(jones.PolarizationState.h()),
)


def fiber_infidelity(channel, angles):
    q1, h, q2 = angles
    total = jones.qwp(q1) @ jones.hwp(h) @ jones.qwp(q2) @ channel
    return max(1.0 - jones.fidelity(total.apply(s).normalized(), s) for s in PROBE_STATES)


class Chain:
    """Seeded coating candidates through coating -> head -> pass -> HWP -> offsets."""

    CANDIDATES = 3
    WAVELENGTHS_NM = tuple(float(w) for w in np.linspace(760.0, 800.0, 9))
    ANGLES_DEG = (35.0, 40.0, 45.0, 50.0, 55.0)
    SCAN_EL_DEG = tuple(float(e) for e in range(5, 90, 5))
    SCAN_AZ_DEG = tuple(float(a) for a in range(-180, 180, 15))
    GROUND_DEG = tuple(float(g) for g in np.linspace(-5.0, 5.0, 21))
    SAT_DEG = (-2.0, -1.0, 0.0, 1.0, 2.0)
    FIBERS = 100
    TRACK_STEP_S = 0.25
    TRACK_MARGIN_S = 60.0

    def __init__(self, seed, ref, workdir):
        self.seed, self.ref, self.workdir = seed, ref, workdir
        self.counts = {}
        self.values = {}

    def setup(self):
        packaged = thinfilm.load_stack_file(DATA / "hr_coating_stack.txt")
        # (label, stack or None, PER floor applies): the measured coating has no stack
        self.items = [("measured", None, True), ("packaged", packaged, True)]
        self.items += [(f"seeded-{k}", s, False)
                       for k, s in enumerate(seeded_stacks(self.seed, self.CANDIDATES))]
        self.fibers = haar_channels(self.seed, self.FIBERS)
        self.sso = tle.parse_tle((DATA / "sso_500km.tle").read_text(encoding="ascii"))
        t0 = self.sso.epoch_posix
        passes = orbit.extract_passes(self.sso, STATION, t0, t0 + 86400.0,
                                      threshold_deg=THRESHOLD_DEG, step_s=1.0)
        longest = max(passes, key=lambda p: p.duration_s)
        self.window = (longest.t_posix[0] - self.TRACK_MARGIN_S,
                       longest.t_posix[-1] + self.TRACK_MARGIN_S)
        # warm-ups: one call per layer
        ray = thinfilm.Ray(math.radians(45.0), 780.0)
        thinfilm.stack_response(packaged, ray)
        thinfilm.stack_response_oracle(packaged, ray)
        antenna.antenna_per_scan(antenna.DESIGN_GEOMETRY, antenna.HR_COATING, (30.0,), (0.0,))
        zero = compensation.calibrate_zero_point(antenna.HR_COATING)
        short = orbit.PassProfile(longest.t_posix[:3], longest.azimuth_deg[:3],
                                  longest.elevation_deg[:3], longest.beta_deg[:3])
        compensation.verify_compensation(short, antenna.HR_COATING, zero_point_deg=zero)
        linksim.offset_scan([0.0], [0.0], antenna.HR_COATING, zero_point_deg=zero)
        jones.solve_fiber_compensation(self.fibers[0])

    def _track(self, tr):
        with tr.span("orbit.track"):
            return orbit.extract_passes(self.sso, STATION, *self.window,
                                        threshold_deg=THRESHOLD_DEG, step_s=self.TRACK_STEP_S)

    def _candidate(self, tr, stack):
        matrix = oracle = None
        if stack is None:
            mirror = antenna.HR_COATING
        else:
            rays = [thinfilm.Ray(math.radians(a), w)
                    for w in self.WAVELENGTHS_NM for a in self.ANGLES_DEG]
            with tr.span("thinfilm.matrix"):
                matrix = [thinfilm.stack_response(stack, r) for r in rays]
            with tr.span("thinfilm.oracle"):
                oracle = [thinfilm.stack_response_oracle(stack, r) for r in rays]
            mirror = matrix[rays.index(thinfilm.Ray(math.radians(45.0), 780.0))]
        with tr.span("antenna.scan"):
            scan = antenna.antenna_per_scan(antenna.DESIGN_GEOMETRY, mirror,
                                            self.SCAN_EL_DEG, self.SCAN_AZ_DEG)
        with tr.span("compensation.calibrate"):
            zero = compensation.calibrate_zero_point(mirror)
        with tr.span("compensation.verify"):
            fid = compensation.verify_compensation(self.track, mirror, zero_point_deg=zero)
        with tr.span("linksim.offset_scan"):
            grid = linksim.offset_scan(self.GROUND_DEG, self.SAT_DEG, mirror, zero_point_deg=zero)
        return mirror, matrix, oracle, scan, zero, fid, grid

    def _ideal(self, tr):
        with tr.span("compensation.calibrate"):
            zero = compensation.calibrate_zero_point(jones.IDEAL_MIRROR)
        with tr.span("linksim.offset_scan"):
            return linksim.offset_scan(self.GROUND_DEG, self.SAT_DEG, jones.IDEAL_MIRROR,
                                       zero_point_deg=zero)

    def _fibers(self, tr):
        out = []
        for channel in self.fibers:
            with tr.span("jones.fiber_solve"):
                out.append(jones.solve_fiber_compensation(channel))
        return out

    def solve(self, tr):
        items = Items(tr)
        track = items.run(self._track, tr)
        self.track = track[0] if isinstance(track, list) and track else None
        out = {"track": track,
               "candidates": [items.run(self._candidate, tr, s) for _, s, _ in self.items],
               "ideal": items.run(self._ideal, tr),
               "fibers": items.run(self._fibers, tr)}
        self.item_times = items.times
        stacks = [s for _, s, _ in self.items if s is not None]
        rays = len(self.WAVELENGTHS_NM) * len(self.ANGLES_DEG)
        track_samples = grid_samples(*self.window, self.TRACK_STEP_S)
        self.counts = {
            "thinfilm.evals": 2 * rays * len(stacks),
            "thinfilm.layer_evals": 2 * rays * sum(len(s.layers) for s in stacks),
            "antenna.cells": len(self.items) * len(self.SCAN_EL_DEG) * len(self.SCAN_AZ_DEG) * 4,
            "compensation.verify_samples":
                len(self.items) * (len(self.track.t_posix) if self.track else 0),
            "linksim.offset_points": (len(self.items) + 1) * len(self.GROUND_DEG) * len(self.SAT_DEG),
            "orbit.track_grid_samples": track_samples,
            "orbit.track_in_pass_samples": len(self.track.t_posix) if self.track else 0,
        }
        return out

    def check(self, out, gate):
        ref = self.ref
        gate.op("chain track", self._check_track, out["track"], ref["chain"]["track"])
        fids, gaps = [], []
        for (label, stack, floor), cand in zip(self.items, out["candidates"]):
            gate.op(f"chain {label}", self._check_candidate, label, cand, floor, ref, fids, gaps)
        gate.op("chain ideal-mirror offset scan", self._check_ideal, out["ideal"])
        residuals = []
        gate.op("chain fiber solves", self._check_fibers, out["fibers"], residuals)
        self.values = {
            "compensation.min_fidelity": min(fids) if fids else 0.0,
            "thinfilm.max_disagreement": max(gaps) if gaps else 0.0,
            "jones.fiber_max_residual": max(residuals) if residuals else 0.0,
        }

    @staticmethod
    def _check_track(track, ref):
        if isinstance(track, Exception):
            return _raised(track)
        return (_times_match("track rise", [p.t_posix[0] for p in track], ref["rise"])
                + _times_match("track set", [p.t_posix[-1] for p in track], ref["set"]))

    def _check_candidate(self, label, cand, per_floor, ref, fids, gaps):
        if isinstance(cand, Exception):
            return _raised(cand)
        mirror, matrix, oracle, scan, zero, fid, grid = cand
        floors = ref["floors"]
        problems = []
        if matrix is not None:
            gap = max(max(abs(a.r_s - b.r_s), abs(a.r_p - b.r_p)) for a, b in zip(matrix, oracle))
            gaps.append(gap)
            if gap >= THINFILM_AGREEMENT:
                problems.append(f"matrix and oracle differ by {gap:.3g}")
        if label == "packaged":
            want = ref["chain"]["packaged_45_780"]
            problems += _close("rs_power", abs(mirror.r_s) ** 2, want["rs_power"], VALUE_TOL)
            problems += _close("rp_power", abs(mirror.r_p) ** 2, want["rp_power"], VALUE_TOL)
        pers = [row[3] for row in scan.rows]
        if not all(math.isfinite(p) and p > 0.0 for p in pers):
            problems.append("non-finite or non-positive PER")
        if per_floor and scan.min_per < floors["min_per"]:
            problems.append(f"min PER {scan.min_per:.1f} below {floors['min_per']}")
        if not 0.0 <= zero < 180.0:
            problems.append(f"zero point {zero!r} outside [0, 180)")
        fids.append(float(np.min(fid)))
        if not (np.all(np.isfinite(fid)) and fids[-1] >= floors["coated_min_fidelity"]):
            problems.append(f"coated min fidelity {fids[-1]:.6f}")
        if not (np.all(np.isfinite(grid)) and np.all((grid >= 0.0) & (grid <= 1.0))):
            problems.append("offset-scan fidelity outside [0, 1]")
        return problems

    def _check_ideal(self, grid):
        if isinstance(grid, Exception):
            return _raised(grid)
        g = np.radians(np.array(self.GROUND_DEG))[:, None]
        s = np.radians(np.array(self.SAT_DEG))[None, :]
        worst = float(np.max(np.abs(grid - np.cos(2.0 * g + s) ** 2)))
        return [] if worst <= IDEAL_FIDELITY_TOL else [f"ideal offset scan off cos^2 by {worst:.3g}"]

    def _check_fibers(self, solved, residuals):
        if isinstance(solved, Exception):
            return _raised(solved)
        residuals.extend(fiber_infidelity(c, a) for c, a in zip(self.fibers, solved))
        worst = max(residuals)
        return [] if worst <= FIBER_INFIDELITY_TOL else [f"fiber infidelity {worst:.3g}"]


# --- bell -----------------------------------------------------------------------

PAPER_POINT = (0.9329, 46.0, 2.312, 2138.0)  # source fidelity, loss dB, S, coincidences


class Bell:
    """Calibrated CHSH Monte Carlo over a seeded grid of link-model points."""

    EXTRA_POINTS = 3
    SEEDS_PER_POINT = 60
    BOOTSTRAP_EVERY = 5  # seed index % 5 == 4 uses error_method="bootstrap"
    PAIR_RATE_HZ = 1e6

    def __init__(self, seed, ref, workdir):
        self.seed, self.ref, self.workdir = seed, ref, workdir
        self.counts = {}
        self.latencies = []

    def _models(self, fidelity, loss_db):
        return (linksim.SourceModel(fidelity, self.PAIR_RATE_HZ), linksim.ChannelModel(loss_db),
                linksim.DetectionModel())

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        self.points = [PAPER_POINT]
        for _ in range(self.EXTRA_POINTS):
            fidelity = round(float(rng.uniform(0.90, 0.97)), 4)
            loss = round(float(rng.uniform(43.0, 49.0)), 2)
            reach, _ = linksim.expected_chsh(*self._models(fidelity, loss))
            self.points.append((fidelity, loss, round(reach * float(rng.uniform(0.88, 0.95)), 4),
                                float(round(rng.uniform(1500.0, 3000.0)))))
        source, channel, det = self._models(*PAPER_POINT[:2])
        channel, det = linksim.calibrate_bell(source, channel, det, *PAPER_POINT[2:])
        counts = linksim.simulate_chsh_counts(source, channel, det, seed=0)
        linksim.estimate_chsh(counts)
        linksim.estimate_chsh(counts, error_method="bootstrap")

    def _calibrate(self, tr, point):
        source, channel, det = self._models(*point[:2])
        with tr.span("linksim.calibrate"):
            channel, det = linksim.calibrate_bell(source, channel, det, *point[2:])
        return source, channel, det

    @staticmethod
    def _seed(tr, models, seed, bootstrap):
        with tr.span("linksim.simulate"):
            counts = linksim.simulate_chsh_counts(*models, seed=seed)
        with tr.span("linksim.bootstrap" if bootstrap else "linksim.estimate"):
            return linksim.estimate_chsh(counts,
                                         error_method="bootstrap" if bootstrap else "propagation")

    def solve(self, tr):
        """Items: one calibration per point, then one item per seed (simulate + estimate)."""
        items = Items(tr)
        out = []
        for k, point in enumerate(self.points):
            models = items.run(self._calibrate, tr, point)
            results = [] if isinstance(models, Exception) else [
                items.run(self._seed, tr, models, self.seed * 10**4 + k * 1000 + i,
                          i % self.BOOTSTRAP_EVERY == self.BOOTSTRAP_EVERY - 1)
                for i in range(self.SEEDS_PER_POINT)
            ]
            self.latencies += items.times[len(items.times) - len(results):]
            out.append((models, results))
        self.item_times = items.times
        return out

    def check(self, out, gate):
        deviations = []
        for k, (point, (models, results)) in enumerate(zip(self.points, out)):
            gate.op(f"bell point {k} calibration", self._check_point, k, point, models)
            for i, r in enumerate(results):
                gate.op(f"bell point {k} seed {i}", self._check_seed, r)
                if not isinstance(r, Exception):
                    deviations.append(r.s_value - point[2])
        gate.op("bell mean S over seeds", self._check_mean, deviations)

    def _check_point(self, k, point, models):
        if isinstance(models, Exception):
            return _raised(models)
        s_exp, total_exp = linksim.expected_chsh(*models)
        s_want, total_want = point[2:]
        if k == 0:
            paper = self.ref["bell"]["paper"]
            s_want, total_want = paper["s"], paper["total"]
        return (_close("expected S", s_exp, s_want, S_CALIBRATION_TOL)
                + _close("expected coincidences", total_exp, total_want, TOTAL_CALIBRATION_TOL))

    @staticmethod
    def _check_seed(r):
        if isinstance(r, Exception):
            return _raised(r)
        ok = math.isfinite(r.s_value) and math.isfinite(r.s_error) and r.s_error > 0.0
        return [] if ok else [f"S {r.s_value!r} sigma {r.s_error!r}"]

    @staticmethod
    def _check_mean(deviations):
        if not deviations:
            return ["no seeds"]
        mean = statistics.fmean(deviations)
        return [] if abs(mean) < MEAN_S_TOL else [f"mean S deviation {mean:+.4f}"]


# --- cli ------------------------------------------------------------------------

ENTRY = "import sys; from polsim.cli import main; sys.exit(main())"
COMMANDS = ("coating", "per-map", "compensate", "compensate-csv", "offset-scan", "bell")


def cli_args(cmd, out_dir, pass_config, bell_seed):
    if cmd == "compensate-csv":
        return ["compensate", "--config", str(pass_config), "--out", str(out_dir)]
    if cmd == "bell":
        return ["bell", "--seed", str(bell_seed), "--out", str(out_dir)]
    return [cmd, "--out", str(out_dir)]


def read_outputs(out_dir, stdout):
    """Normalized stdout plus every output file, for byte comparison."""
    files = {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())} \
        if Path(out_dir).is_dir() else {}
    return stdout.replace(str(out_dir), "<out>"), files


def _schedule_span(csv_bytes):
    rows = csv_bytes.decode("ascii").splitlines()[1:]
    return _posix(rows[0].split(",")[0]), _posix(rows[-1].split(",")[0]), len(rows)


def summarize(cmd, stdout, files):
    """The physics a command printed or wrote, as plain numbers."""
    if cmd == "coating":
        kv = dict(line.split(" ", 1) for line in stdout.splitlines())
        return {k: float(kv[k]) for k in ("layers", "rs_power", "rp_power", "phase_gap_pi",
                                          "mean_power")}
    if cmd == "per-map":
        rows = [r.split(",") for r in files["per_map.csv"].decode("ascii").splitlines()
                if r and r[0] not in "e#"]
        return {"cells": len(rows), "min_per": min(float(r[3]) for r in rows)}
    if cmd in ("compensate", "compensate-csv"):
        spans = [_schedule_span(files[n]) for n in sorted(files) if n.endswith("_schedule.csv")]
        return {"rise": [s[0] for s in spans], "set": [s[1] for s in spans],
                "samples": [s[2] for s in spans]}
    if cmd == "offset-scan":
        rows = files["offset_scan.csv"].decode("ascii").splitlines()[1:]
        return {"grid": [[float(x) for x in r.split(",")] for r in rows]}
    if cmd == "bell":
        result = json.loads(files["bell_result.json"])
        return {"model": result["model"], "S": result["S"], "sigma_S": result["sigma_S"]}
    raise ValueError(cmd)


def check_summary(cmd, got, ref, pass_csv_span):
    want = ref["cli"].get(cmd)
    floors = ref["floors"]
    if cmd == "coating":
        # the phase gap sits at +-pi, where the wrap may flip either way
        wrapped = dict(got, phase_gap_pi=want["phase_gap_pi"]
                       + math.remainder(got["phase_gap_pi"] - want["phase_gap_pi"], 2.0))
        return [p for k in want for p in _close(k, wrapped[k], want[k], VALUE_TOL)]
    if cmd == "per-map":
        problems = [] if got["cells"] == want["cells"] else [f"{got['cells']} cells"]
        if not got["min_per"] >= floors["min_per"]:
            problems.append(f"min PER {got['min_per']!r}")
        return problems
    if cmd == "compensate":
        return (_times_match("rise", got["rise"], want["rise"])
                + _times_match("set", got["set"], want["set"]))
    if cmd == "compensate-csv":
        t_rise, t_set, samples = pass_csv_span
        if got["samples"] != [samples]:
            return [f"schedule samples {got['samples']}, pass CSV has {samples}"]
        return _times_match("pass CSV", [got["rise"][0], got["set"][0]], [t_rise, t_set])
    if cmd == "offset-scan":
        if len(got["grid"]) != len(want["grid"]):
            return ["offset grid shape"]
        worst = max(max(abs(a - b) for a, b in zip(r, w)) for r, w in zip(got["grid"], want["grid"]))
        return [] if worst <= VALUE_TOL else [f"offset grid off by {worst:.3g}"]
    if cmd == "bell":
        problems = []
        lo, hi = SIGMA_S_RANGE
        if not (lo <= got["sigma_S"] <= hi and math.isfinite(got["S"])):
            problems.append(f"S {got['S']!r} sigma {got['sigma_S']!r}")
        for key, value in want["model"].items():
            tol = CALIBRATED_REL_TOL * abs(value) if key in want["calibrated"] else 0.0
            problems += _close(key, got["model"][key], value, tol)
        return problems
    raise ValueError(cmd)


def imports_after(stderr_text, mark):
    """Seconds of import self time after the `mark` line in -X importtime output."""
    lines = stderr_text.splitlines()
    lines = lines[lines.index(mark) + 1:] if mark in lines else []
    return sum(float(line.split(":", 1)[1].split("|", 1)[0]) * 1e-6 for line in lines
               if line.startswith("import time:") and "self [us]" not in line)


PROBE_MARK = "perfbench: polsim.cli imported"


class Cli:
    """Every subcommand with defaults, each in a fresh interpreter, closed loop."""

    def __init__(self, seed, ref, workdir):
        self.seed, self.ref, self.workdir = seed, ref, workdir
        self.counts = {}
        self.round = 0
        self.first = {}
        self.cmd_rss = []
        self.probes = {}

    def setup(self):
        self.root = Path(self.workdir) / "cli"
        self.root.mkdir(parents=True, exist_ok=True)
        # the longest pass of a seeded TLE in two days (the packaged TLE if it has none)
        records = (tle.parse_tle(tle.format_tle(tle.make_tle(**synthetic_elements(self.seed, 1)[0]))),
                   tle.load_tle_file(DATA / "sso_500km.tle"))
        passes = next(found for found in (
            orbit.extract_passes(rec, STATION, rec.epoch_posix, rec.epoch_posix + 2 * 86400.0,
                                 threshold_deg=THRESHOLD_DEG, step_s=1.0) for rec in records) if found)
        longest = max(passes, key=lambda p: p.duration_s)
        self.pass_csv = self.root / "pass.csv"
        self.pass_csv.write_text(longest.to_csv(), encoding="ascii")
        self.pass_config = self.root / "pass.cfg"
        self.pass_config.write_text(f"pass_csv {self.pass_csv}\n", encoding="ascii")
        self.pass_span = (longest.t_posix[0], longest.t_posix[-1], len(longest.t_posix))

    def _argv(self, cmd, out_dir, traced):
        args = cli_args(cmd, out_dir, self.pass_config, self.seed)
        if traced:
            report = out_dir.parent / f"{cmd}.probe.json"
            return [sys.executable, "-X", "importtime", str(proc.BENCH_DIR / "cliprobe.py"),
                    str(report), *args], report
        return [sys.executable, "-c", ENTRY, *args], None

    def solve(self, tr):
        round_dir = self.root / f"r{self.round}"
        self.round += 1
        items = Items(tr)
        out = [items.run(self._command, tr, cmd, round_dir) for cmd in COMMANDS]
        self.item_times = items.times
        return out

    def _command(self, tr, cmd, round_dir):
        """One subcommand in a fresh interpreter (a probe when traced)."""
        out_dir = round_dir / cmd
        out_dir.mkdir(parents=True)
        argv, report = self._argv(cmd, out_dir, tr.enabled)
        log = round_dir / f"{cmd}.stdout"
        err = round_dir / f"{cmd}.stderr"
        code, t_spawn, t_exit, rss = proc.run_child(argv, log, err)
        if tr.enabled:
            self._trace_probe(tr, cmd, report, err, t_spawn, t_exit)
        else:
            self.cmd_rss.append(rss)
        stdout = log.read_text(encoding="ascii", errors="replace")
        return (cmd, code, out_dir, read_outputs(out_dir, stdout),
                err.read_text(encoding="ascii", errors="replace"))

    def _trace_probe(self, tr, cmd, report, err, t_spawn, t_exit):
        """Spans of one probed command: interpreter, package import, main, lazy imports."""
        probe = json.loads(report.read_text(encoding="ascii"))
        lazy = imports_after(err.read_text(encoding="ascii", errors="replace"), PROBE_MARK)
        tr.add("import.interpreter_start", t_spawn, probe["t_start"])
        tr.add("import.polsim", probe["t_start"], probe["t_imported"])
        main = tr.open("cli.main", probe["t_imported"])
        tr.add("import.lazy", probe["t_imported"], probe["t_imported"] + lazy)
        tr.close(main, probe["t_done"])
        tr.add("import.interpreter_exit", probe["t_done"], t_exit)
        self.probes[cmd] = probe

    def check(self, out, gate):
        for cmd, item in zip(COMMANDS, out):
            gate.op(f"cli {cmd} run {self.round}", self._check_run, item)
            if not isinstance(item, Exception):
                shutil.rmtree(item[2], ignore_errors=True)

    def _check_run(self, item):
        if isinstance(item, Exception):
            return _raised(item)
        cmd, code, _, outputs, stderr = item
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-200:]}"]
        stdout, files = outputs
        if cmd not in self.first:
            self.first[cmd] = outputs
        elif outputs != self.first[cmd]:
            return ["output differs from the first run of this benchmark"]
        return check_summary(cmd, summarize(cmd, stdout, files), self.ref, self.pass_span)

    def inproc_times(self, repeats=3):
        """Warm in-process cli.main per command, reference seconds: median of `repeats`
        after one warm-up."""
        times = {}
        for cmd in COMMANDS:
            samples = []
            for k in range(repeats + 1):
                out_dir = self.root / "inproc" / f"{cmd}-{k}"
                args = cli_args(cmd, out_dir, self.pass_config, self.seed)
                sink = io.StringIO()
                before = refclock.calibration_s()
                t = time.monotonic()
                with contextlib.redirect_stdout(sink):
                    code = cli.main(args)
                wall = time.monotonic() - t
                samples.append(refclock.to_reference(wall, (before + refclock.calibration_s()) / 2.0))
                if code != 0:
                    raise RuntimeError(f"in-process {cmd} exited {code}")
            times[cmd] = statistics.median(samples[1:])
        shutil.rmtree(self.root / "inproc", ignore_errors=True)
        return times


WORKLOADS = {"passplan": Passplan, "chain": Chain, "bell": Bell, "cli": Cli}


def load_reference(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)
