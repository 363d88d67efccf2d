"""Command-line front end.

One subcommand per reproducible experiment:

    polsim coating      reflectance report of a coating stack file
    polsim per-map      simulated local PER scan of the antenna -> CSV
    polsim compensate   HWP schedules for satellite passes -> CSV + JSON
    polsim offset-scan  compensated-uplink fidelity vs offset angles -> CSV
    polsim bell         Monte Carlo CHSH run -> counts CSV + result JSON

Commands read a flat key-value config file (`key value` per line, '#'
comments); every physical key carries its unit as a suffix, all config angles
are degrees, and the CLI is the only place degrees are converted to the
radians the library modules speak.  Outputs are deterministic for a given
config and seed.

Exit codes: 0 success, 1 usage/config error, 2 input parse error,
3 numeric/estimation failure.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np

from . import antenna, compensation, linksim, orbit, thinfilm, tle
from .jones import MirrorResponse, rotator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


class CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def data_dir():
    """Reference-data directory; POLSIM_DATA_DIR overrides the packaged one."""
    override = os.environ.get("POLSIM_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


# --- config files -------------------------------------------------------------


def parse_config_text(text):
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ConfigError(f"line {line_no}: expected 'key value', got {raw.strip()!r}")
        key, value = parts
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError
    return value


def _finite_list(text):
    values = [_finite(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError
    return values


class Config:
    """Typed access to config values with unknown-key rejection.

    No key gives NaN or inf a meaning, so every number must be finite; range
    checks are left to the library code that uses the value (see _checked).
    """

    def __init__(self, values):
        self.values = dict(values)
        self.used = set()

    @classmethod
    def load(cls, path):
        if path is None:
            return cls({})
        try:
            with open(path, "r", encoding="ascii") as fh:
                return cls(parse_config_text(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None

    def _get(self, key, default, parse, expected):
        self.used.add(key)
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}") from None

    def get_float(self, key, default):
        return self._get(key, default, _finite, "a finite number")

    def get_int(self, key, default):
        return self._get(key, default, int, "an integer")

    def get_str(self, key, default):
        return self._get(key, default, str, "text")

    def get_float_list(self, key, default):
        return self._get(key, list(default), _finite_list, "comma-separated finite numbers")

    def finish(self):
        unknown = set(self.values) - self.used
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _checked(check, *args, **kwargs):
    """Call library code on config values; its ValueError means a value is
    out of range, which is a config error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load(parse, path, what):
    """`parse` of an ASCII input file; a file that cannot be read, decoded or
    parsed is an input parse error."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CliFailure(EXIT_PARSE, f"{what} {path}: {exc}") from None


def _coating_from_config(cfg):
    rs_power = cfg.get_float("mirror_rs_power", 0.999908)
    rp_power = cfg.get_float("mirror_rp_power", 0.998168)
    gap_pi = cfg.get_float("mirror_phase_gap_pi", 0.9996)
    return _checked(MirrorResponse.from_powers, rs_power, rp_power, gap_pi * math.pi)


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write output: {exc}") from None
    return path


# --- subcommands ---------------------------------------------------------------


def cmd_coating(args):
    cfg = Config.load(args.config)
    stack_path = args.stack or cfg.get_str("stack_file", str(data_dir() / "hr_coating_stack.txt"))
    angle_deg = cfg.get_float("angle_deg", 45.0)
    wavelength_nm = cfg.get_float("wavelength_nm", 780.0)
    cfg.finish()

    ray = _checked(thinfilm.Ray, math.radians(angle_deg), wavelength_nm)
    stack = _load(thinfilm.parse_stack_text, stack_path, "stack file")
    try:
        resp = thinfilm.stack_response(stack, ray)
    except ValueError as exc:  # a floating-point fault or a non-passive response
        raise CliFailure(EXIT_NUMERIC, f"stack response failed: {exc}") from None
    gap = resp.phase_gap
    print(f"stack_file {stack_path}")
    print(f"layers {len(stack.layers)}")
    print(f"angle_deg {angle_deg!r}")
    print(f"wavelength_nm {wavelength_nm!r}")
    print(f"rs_power {abs(resp.r_s) ** 2!r}")
    print(f"rp_power {abs(resp.r_p) ** 2!r}")
    print(f"phase_gap_pi {gap / math.pi!r}")
    print(f"mean_power {(abs(resp.r_s) ** 2 + abs(resp.r_p) ** 2) / 2.0!r}")
    return EXIT_OK


_STATES_BY_LABEL = dict(antenna.DEFAULT_SCAN_STATES)


def cmd_per_map(args):
    cfg = Config.load(args.config)
    elevations = cfg.get_float_list("elevations_deg", antenna.DEFAULT_SCAN_ELEVATIONS)
    azimuths = cfg.get_float_list("azimuths_deg", antenna.DEFAULT_SCAN_AZIMUTHS)
    labels = cfg.get_str("states", "H,V,+,-").split(",")
    coating = _coating_from_config(cfg)
    cap = cfg.get_float("per_cap", 1e9)
    cfg.finish()

    try:
        states = tuple((lab, _STATES_BY_LABEL[lab]) for lab in labels)
    except KeyError as exc:
        raise ConfigError(f"unknown state label {exc.args[0]!r} (known: H, V, +, -)")

    scan = _checked(antenna.antenna_per_scan, antenna.DESIGN_GEOMETRY, coating,
                    elevations, azimuths, states, cap=cap)
    path = _write(args.out, "per_map.csv", scan.to_csv())
    print(f"wrote {path}")
    print(f"cells {len(scan.rows)}")
    print(f"min_per {scan.min_per!r}")
    print(f"mean_per {scan.mean_per!r}")
    return EXIT_OK


def cmd_compensate(args):
    cfg = Config.load(args.config)
    tle_path = cfg.get_str("tle_file", str(data_dir() / "sso_500km.tle"))
    pass_path = cfg.get_str("pass_csv", None)
    lat = cfg.get_float("station_lat_deg", orbit.NGARI_STATION.latitude_deg)
    lon = cfg.get_float("station_lon_deg", orbit.NGARI_STATION.longitude_deg)
    alt = cfg.get_float("station_alt_m", orbit.NGARI_STATION.altitude_m)
    threshold = cfg.get_float("threshold_deg", 10.0)
    step_s = cfg.get_float("step_s", 1.0)
    window_h = cfg.get_float("window_hours", 48.0)
    zero_point = cfg.get_float("zero_point_deg", compensation.DEFAULT_ZERO_POINT_DEG)
    sign = cfg.get_int("sign", 1)
    max_slew = cfg.get_float("max_slew_deg_per_s", compensation.DEFAULT_MAX_SLEW_DEG_PER_S)
    cfg.finish()
    _checked(compensation.check_tracking, sign, max_slew)

    if pass_path is not None:
        passes = [_load(orbit.parse_pass_csv, pass_path, "pass CSV")]
    else:
        rec = _load(tle.parse_tle, tle_path, "TLE file")
        station = _checked(orbit.GroundStation, lat, lon, alt)
        t0 = rec.epoch_posix
        try:
            passes = orbit.extract_passes(rec, station, t0, t0 + window_h * 3600.0,
                                          threshold_deg=threshold, step_s=step_s)
        except orbit.ArgumentError as exc:
            key = "window_hours" if exc.name == "t_end" else exc.name
            raise ConfigError(f"key {key!r}: {exc}") from None

    if not passes:
        raise CliFailure(EXIT_NUMERIC, "no pass above the elevation threshold in the window")

    for k, pass_profile in enumerate(passes, start=1):
        schedule = compensation.schedule_from_pass(pass_profile, zero_point, sign, max_slew)
        csv_path = _write(args.out, f"pass_{k:02d}_schedule.csv", schedule.to_csv())
        meta_path = _write(args.out, f"pass_{k:02d}_schedule.json", schedule.metadata_json())
        print(f"pass {k}: samples {len(pass_profile.t_posix)} "
              f"duration_s {pass_profile.duration_s!r} "
              f"max_el_deg {pass_profile.max_elevation_deg!r} "
              f"max_rate_deg_per_s {schedule.max_rate_deg_per_s!r} "
              f"warnings {len(schedule.warnings)}")
        print(f"wrote {csv_path}")
        print(f"wrote {meta_path}")
    return EXIT_OK


def cmd_offset_scan(args):
    cfg = Config.load(args.config)
    ground = cfg.get_float_list("ground_offsets_deg", [float(g) for g in range(-5, 6)])
    sat = cfg.get_float_list("sat_offsets_deg", [0.0, -1.0])
    azimuth = cfg.get_float("azimuth_deg", 30.0)
    elevation = cfg.get_float("elevation_deg", 50.0)
    beta = cfg.get_float("beta_deg", 0.0)
    coating = _coating_from_config(cfg)
    cfg.finish()

    grid = _checked(linksim.offset_scan, ground, sat, coating, azimuth_deg=azimuth,
                    elevation_deg=elevation, beta_deg=beta)
    path = _write(args.out, "offset_scan.csv", linksim.offset_scan_csv(ground, sat, grid))
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    print(f"wrote {path}")
    print(f"peak_ground_offset_deg {ground[int(i)]!r}")
    print(f"peak_sat_offset_deg {sat[int(j)]!r}")
    print(f"peak_fidelity {float(grid[i, j])!r}")
    return EXIT_OK


def cmd_bell(args):
    cfg = Config.load(args.config)
    source = _checked(
        linksim.SourceModel,
        fidelity=cfg.get_float("source_fidelity", 0.9329),
        pair_rate_hz=cfg.get_float("pair_rate_hz", 1e6),
    )
    rotation_deg = cfg.get_float("channel_rotation_deg", 0.0)
    channel = _checked(
        linksim.ChannelModel,
        loss_db=cfg.get_float("loss_db", 46.0),
        rotation=rotator(math.radians(rotation_deg)),
        depolarization=cfg.get_float("depolarization", 0.0),
    )
    det = _checked(
        linksim.DetectionModel,
        efficiency=cfg.get_float("detector_efficiency", 0.5),
        dark_rate_hz=cfg.get_float("dark_rate_hz", 100.0),
        coincidence_window_s=cfg.get_float("coincidence_window_ns", 2.5) * 1e-9,
        integration_time_s=cfg.get_float("integration_time_s", 80.0),
    )
    # default run is calibrated to the flight-test headline numbers; set
    # calibrate_s_target 0 to simulate the raw configured model instead
    s_target = cfg.get_float("calibrate_s_target", 2.312)
    total_target = cfg.get_float("calibrate_total_coincidences", 2138.0)
    cfg.finish()
    if not 0.0 < total_target < linksim.POISSON_MEAN_MAX:
        raise ConfigError("key 'calibrate_total_coincidences': expected a positive number "
                          f"below {linksim.POISSON_MEAN_MAX:.6g}, got {total_target!r}")

    if s_target > 0.0:
        try:
            channel, det = linksim.calibrate_bell(source, channel, det, s_target, total_target)
        except ValueError as exc:
            raise CliFailure(EXIT_NUMERIC, f"calibration failed: {exc}")

    counts = linksim.simulate_chsh_counts(source, channel, det, seed=args.seed)
    try:
        result = linksim.estimate_chsh(counts)
    except linksim.EstimationError as exc:
        raise CliFailure(EXIT_NUMERIC, f"estimation failed: {exc} "
                         "(increase integration_time_s or reduce loss_db)")

    counts_path = _write(args.out, "bell_counts.csv", linksim.counts_to_csv(counts))
    extra = {
        "seed": args.seed,
        "model": {
            "source_fidelity": source.fidelity,
            "pair_rate_hz": source.pair_rate_hz,
            "loss_db": channel.loss_db,
            "channel_rotation_deg": rotation_deg,
            "depolarization": channel.depolarization,
            "detector_efficiency": det.efficiency,
            "dark_rate_hz": det.dark_rate_hz,
            "coincidence_window_s": det.coincidence_window_s,
            "integration_time_s": det.integration_time_s,
        },
    }
    result_path = _write(args.out, "bell_result.json", result.to_json(extra))
    print(f"wrote {counts_path}")
    print(f"wrote {result_path}")
    print(f"S {result.s_value!r}")
    print(f"sigma_S {result.s_error!r}")
    print(f"total_coincidences {result.total_coincidences!r}")
    return EXIT_OK


# --- entry point ----------------------------------------------------------------


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage errors exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            raise CliFailure(EXIT_USAGE, message)

    parser = Parser(prog="polsim", description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text):  # one 64-bit word of the Philox key
        if 0 <= int(text) < 2**64:
            return int(text)
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text}")

    def common(p):
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=seed, default=0, help="random seed in [0, 2**64)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("coating", help="reflectance of a coating stack")
    p.add_argument("--stack", default=None, help="stack description file")
    common(p)
    p.set_defaults(func=cmd_coating)

    p = sub.add_parser("per-map", help="simulated local PER scan")
    common(p)
    p.set_defaults(func=cmd_per_map)

    p = sub.add_parser("compensate", help="HWP schedules for passes")
    common(p)
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("offset-scan", help="fidelity vs offset angles")
    common(p)
    p.set_defaults(func=cmd_offset_scan)

    p = sub.add_parser("bell", help="Monte Carlo CHSH run")
    common(p)
    p.set_defaults(func=cmd_bell)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliFailure as exc:
        print(f"polsim: error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"polsim: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"polsim: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
