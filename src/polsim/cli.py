"""Command-line front end.

One subcommand per reproducible experiment:

    polsim coating      reflectance report of a coating stack file
    polsim per-map      simulated local PER scan of the antenna -> CSV
    polsim compensate   HWP schedules for satellite passes -> CSV + JSON
    polsim offset-scan  compensated-uplink fidelity vs offset angles -> CSV
    polsim bell         Monte Carlo CHSH run -> counts CSV + result JSON

Commands read a flat key-value config file (`key value` per line, '#'
comments); every physical key carries its unit as a suffix and all config
angles are degrees.  Library angles named `*_deg` are degrees too: pointing
directions, pass profiles, HWP schedules and compensation checks, the offset
scan and ground stations take them as they are.  The Jones-calculus functions
and thin-film rays take radians, and the CLI converts for them.  Outputs are
deterministic for a given config and seed.

Exit codes: 0 success, 1 usage/config error, 2 input parse error,
3 numeric/estimation failure.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np

# Each command imports the rest of the library it runs inside its own function,
# so a fresh `polsim` process compiles and loads only the modules it needs.
from . import antenna, compensation
from .jones import MirrorResponse, rotator
from .table import check_degrees, finite_float

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


DATA_DIR = Path(__file__).parent / "data"  # the packaged reference files


# --- config files -------------------------------------------------------------


def _finite_list(text):
    values = tuple(finite_float(tok) for tok in text.split(",") if tok.strip() != "")
    if not values:
        raise ValueError
    return values


# What each schema parse function expects, as a config error names it.
_EXPECTED = {finite_float: "a finite number", str: "text",
             _finite_list: "comma-separated finite numbers"}


def read_config(path, schema):
    """The config file at `path` (None: no file), `key value` lines with '#'
    comments, resolved against `schema`, a tuple of (key, default, parse)
    entries: a dict with every key parsed or defaulted, after rejecting
    duplicate keys and keys the schema does not name.

    No key gives NaN or inf a meaning, so every number must be finite; range
    checks are left to the library code that uses the value (see _checked).
    """
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
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
    cfg = {}
    for key, default, parse in schema:
        raw = values.pop(key, None)
        try:
            cfg[key] = default if raw is None else parse(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected {_EXPECTED[parse]}, got {raw!r}") from None
    if values:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(values))}")
    return cfg


def _checked(cfg, check, *keys):
    """check(*values of keys): library code on config values.  Its ValueError is
    a config error naming the first key that fails with the others at their
    defaults, or else every key set away from its default."""
    def call(key=None):
        return check(*(cfg[k] if key in (None, k) else DEFAULTS[k] for k in keys))
    try:
        return call()
    except ValueError as exc:
        error = exc
    for key in keys:
        try:
            call(key)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    keys = [k for k in keys if cfg[k] != DEFAULTS[k]]
    raise ConfigError(f"keys {', '.join(map(repr, keys))}: {error}") from None


def _load(parse, path, what):
    """`parse` of an ASCII input file; a file that cannot be read, decoded or
    parsed is an input parse error."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CliFailure(EXIT_PARSE, f"{what} {path}: {exc}") from None


def _write(out_dir, name, text):
    """Write `text` to out_dir/name and print 'wrote <path>'."""
    path = Path(out_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write output: {exc}") from None
    print(f"wrote {path}")


# --- subcommands ---------------------------------------------------------------


def cmd_coating(cfg, args):
    from . import thinfilm

    def ray(angle, wavelength):  # Ray's own check speaks radians
        if not 0.0 <= angle < 90.0:
            raise ValueError(f"incidence angle must be in [0, 90) degrees, got {angle!r}")
        return thinfilm.Ray(math.radians(angle), wavelength)

    ray = _checked(cfg, ray, "angle_deg", "wavelength_nm")
    stack = _load(thinfilm.parse_stack_text, cfg["stack_file"], "stack file")
    try:
        resp = thinfilm.stack_response(stack, ray)
    except ValueError as exc:  # a floating-point fault or a non-passive response
        raise ValueError(f"stack response failed: {exc}") from None
    print(f"stack_file {cfg['stack_file']}")
    print(f"layers {len(stack.layers)}")
    print(f"angle_deg {cfg['angle_deg']!r}")
    print(f"wavelength_nm {cfg['wavelength_nm']!r}")
    print(f"rs_power {abs(resp.r_s) ** 2!r}")
    print(f"rp_power {abs(resp.r_p) ** 2!r}")
    print(f"phase_gap_pi {resp.phase_gap / math.pi!r}")
    print(f"mean_power {(abs(resp.r_s) ** 2 + abs(resp.r_p) ** 2) / 2.0!r}")


def cmd_per_map(cfg, args):
    scan = _checked(cfg, lambda rs, rp, gap, el, az: antenna.antenna_per_scan(
        antenna.DESIGN_GEOMETRY, MirrorResponse.from_powers(rs, rp, gap * math.pi), el, az),
        *_MIRROR_NAMES, "elevations_deg", "azimuths_deg")
    _write(args.out, "per_map.csv", scan.to_csv())
    print(f"cells {len(scan.rows)}")
    print(f"min_per {scan.min_per!r}")
    print(f"mean_per {scan.mean_per!r}")


def cmd_compensate(cfg, args):
    from . import orbit
    zero_point, max_slew = cfg["zero_point_deg"], cfg["max_slew_deg_per_s"]
    _checked(cfg, compensation.check_tracking, "zero_point_deg", "max_slew_deg_per_s")

    if cfg["pass_csv"] is not None:
        for key in ("tle_file", "station_lat_deg", "station_lon_deg", "station_alt_m",
                    "threshold_deg", "step_s", "window_hours"):  # only the TLE scan reads these
            if cfg[key] != DEFAULTS[key]:
                raise ConfigError(f"key {key!r}: a pass_csv run reads its passes from "
                                  f"{cfg['pass_csv']}; unset pass_csv to scan the TLE with "
                                  f"{cfg[key]!r}")
        passes = [_load(orbit.parse_pass_csv, cfg["pass_csv"], "pass CSV")]
    else:
        from . import tle
        rec = _load(tle.parse_tle, cfg["tle_file"], "TLE file")
        station = _checked(cfg, orbit.GroundStation, "station_lat_deg", "station_lon_deg",
                           "station_alt_m")
        t0 = rec.epoch_posix
        _checked(cfg, lambda deg, step, hours: orbit.check_window(
            rec, t0, t0 + hours * 3600.0, deg, step), "threshold_deg", "step_s", "window_hours")
        passes = orbit.extract_passes(rec, station, t0, t0 + cfg["window_hours"] * 3600.0,
                                      threshold_deg=cfg["threshold_deg"], step_s=cfg["step_s"])
    if not passes:
        raise ValueError("no pass above the elevation threshold in the window")
    for k, pass_profile in enumerate(passes, start=1):
        schedule = compensation.schedule_from_pass(pass_profile, zero_point, max_slew)
        print(f"pass {k}: samples {len(pass_profile.t_posix)} "
              f"duration_s {pass_profile.duration_s!r} "
              f"max_el_deg {pass_profile.max_elevation_deg!r} "
              f"max_rate_deg_per_s {schedule.max_rate_deg_per_s!r} "
              f"warnings {len(schedule.warnings)}")
        _write(args.out, f"pass_{k:02d}_schedule.csv", schedule.to_csv())
        _write(args.out, f"pass_{k:02d}_schedule.json", schedule.metadata_json())


def cmd_offset_scan(cfg, args):
    from . import linksim
    ground, sat = cfg["ground_offsets_deg"], cfg["sat_offsets_deg"]
    grid = _checked(cfg, lambda rs, rp, gap, g, s, az, el, beta: linksim.offset_scan(
        g, s, MirrorResponse.from_powers(rs, rp, gap * math.pi), azimuth_deg=az,
        elevation_deg=el, beta_deg=beta),
        *_MIRROR_NAMES, "ground_offsets_deg", "sat_offsets_deg", "azimuth_deg", "elevation_deg",
        "beta_deg")
    _write(args.out, "offset_scan.csv", linksim.offset_scan_csv(ground, sat, grid))
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    print(f"peak_ground_offset_deg {ground[int(i)]!r}")
    print(f"peak_sat_offset_deg {sat[int(j)]!r}")
    print(f"peak_fidelity {float(grid[i, j])!r}")


def cmd_bell(cfg, args):
    from . import linksim

    def channel(loss, rotation, depolarization):  # the model sees only the Jones matrix
        check_degrees("channel rotation", rotation)
        return linksim.ChannelModel(loss, rotator(math.radians(rotation)), depolarization)

    source = _checked(cfg, linksim.SourceModel, "source_fidelity", "pair_rate_hz")
    channel = _checked(cfg, channel, "loss_db", "channel_rotation_deg", "depolarization")
    det = _checked(cfg, lambda efficiency, dark, window_ns, time_s: linksim.DetectionModel(
        efficiency, dark, window_ns * 1e-9, time_s),
        "detector_efficiency", "dark_rate_hz", "coincidence_window_ns", "integration_time_s")
    s_target, total_target = cfg["calibrate_s_target"], cfg["calibrate_total_coincidences"]
    _checked(cfg, linksim.check_targets, "calibrate_s_target", "calibrate_total_coincidences")

    if s_target > 0.0:
        for key, what in (("depolarization", "depolarization"),
                          ("integration_time_s", "integration time")):
            if cfg[key] != DEFAULTS[key]:
                raise ConfigError(f"key {key!r}: a calibrated run (calibrate_s_target "
                                  f"{s_target!r}) solves for the {what}; set "
                                  f"calibrate_s_target 0 to simulate {cfg[key]!r}")
        try:
            channel, det = linksim.calibrate_bell(source, channel, det, s_target, total_target)
        except ValueError as exc:
            raise ValueError(f"calibration failed: {exc}") from None
    elif total_target != DEFAULTS["calibrate_total_coincidences"]:
        raise ConfigError("key 'calibrate_total_coincidences': an uncalibrated run "
                          "(calibrate_s_target 0) simulates the integration time as set; set "
                          f"calibrate_s_target above 0 to calibrate to {total_target!r}")

    counts = linksim.simulate_chsh_counts(source, channel, det, seed=args.seed)
    try:
        result = linksim.estimate_chsh(counts)
    except ValueError as exc:
        raise ValueError(f"estimation failed: {exc} "
                         "(increase integration_time_s or reduce loss_db)") from None

    _write(args.out, "bell_counts.csv", linksim.counts_to_csv(counts))
    extra = {
        "seed": args.seed,
        "model": {
            "source_fidelity": source.fidelity,
            "pair_rate_hz": source.pair_rate_hz,
            "loss_db": channel.loss_db,
            "channel_rotation_deg": cfg["channel_rotation_deg"],
            "depolarization": channel.depolarization,
            "detector_efficiency": det.efficiency,
            "dark_rate_hz": det.dark_rate_hz,
            "coincidence_window_s": det.coincidence_window_s,
            "integration_time_s": det.integration_time_s,
        },
    }
    _write(args.out, "bell_result.json", result.to_json(extra))
    print(f"S {result.s_value!r}")
    print(f"sigma_S {result.s_error!r}")
    print(f"total_coincidences {result.total_coincidences!r}")


# --- entry point ----------------------------------------------------------------


_MIRROR_NAMES = ("mirror_rs_power", "mirror_rp_power", "mirror_phase_gap_pi")
MIRROR_KEYS = tuple((k, v, finite_float) for k, v in zip(_MIRROR_NAMES, antenna._MEASURED))

# Each subcommand's run function, help text and config schema: its keys in
# read order, each with its default (None: unset) and its parse function, one
# of _EXPECTED's.
COMMANDS = {
    "coating": (cmd_coating, "reflectance of a coating stack", (
        ("stack_file", str(DATA_DIR / "hr_coating_stack.txt"), str),
        ("angle_deg", 45.0, finite_float), ("wavelength_nm", 780.0, finite_float))),
    "per-map": (cmd_per_map, "simulated local PER scan", (
        ("elevations_deg", antenna.DEFAULT_SCAN_ELEVATIONS, _finite_list),
        ("azimuths_deg", antenna.DEFAULT_SCAN_AZIMUTHS, _finite_list), *MIRROR_KEYS)),
    "compensate": (cmd_compensate, "HWP schedules for passes", (
        ("tle_file", str(DATA_DIR / "sso_500km.tle"), str), ("pass_csv", None, str),
        # orbit.NGARI_STATION's fields, written out so the schema loads no orbit
        ("station_lat_deg", 32.3258527778, finite_float),
        ("station_lon_deg", 80.0261611111, finite_float), ("station_alt_m", 5047.0, finite_float),
        ("threshold_deg", 10.0, finite_float), ("step_s", 1.0, finite_float),
        ("window_hours", 48.0, finite_float),
        ("zero_point_deg", compensation.DEFAULT_ZERO_POINT_DEG, finite_float),
        ("max_slew_deg_per_s", compensation.DEFAULT_MAX_SLEW_DEG_PER_S, finite_float))),
    "offset-scan": (cmd_offset_scan, "fidelity vs offset angles", (
        ("ground_offsets_deg", tuple(float(g) for g in range(-5, 6)), _finite_list),
        ("sat_offsets_deg", (0.0, -1.0), _finite_list), ("azimuth_deg", 30.0, finite_float),
        ("elevation_deg", 50.0, finite_float), ("beta_deg", 0.0, finite_float), *MIRROR_KEYS)),
    "bell": (cmd_bell, "Monte Carlo CHSH run", (
        ("source_fidelity", 0.9329, finite_float), ("pair_rate_hz", 1e6, finite_float),
        ("channel_rotation_deg", 0.0, finite_float), ("loss_db", 46.0, finite_float),
        ("depolarization", 0.0, finite_float), ("detector_efficiency", 0.5, finite_float),
        ("dark_rate_hz", 100.0, finite_float), ("coincidence_window_ns", 2.5, finite_float),
        ("integration_time_s", 80.0, finite_float),
        # the default run is calibrated to the flight-test headline numbers;
        # calibrate_s_target 0 simulates the raw configured model instead
        ("calibrate_s_target", 2.312, finite_float),
        ("calibrate_total_coincidences", 2138.0, finite_float))),
}
# Every config key's default; a key shared by several commands has one default.
DEFAULTS = {key: default for _, _, schema in COMMANDS.values() for key, default, _ in schema}


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage errors exit 1 with one line, not argparse's 2
            raise CliFailure(EXIT_USAGE, message)

    parser = Parser(prog="polsim", description=__doc__, allow_abbrev=False,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text):  # one 64-bit word of the Philox key
        if 0 <= int(text) < 2**64:
            return int(text)
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text}")

    for name, (_, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key-value config file")
        if name == "bell":
            p.add_argument("--seed", type=seed, default=0, help="random seed in [0, 2**64)")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run, _, schema = COMMANDS[args.command]
        run(read_config(args.config, schema), args)
        sys.stdout.flush()  # a closed pipe raises here, inside this try
        return EXIT_OK
    except BrokenPipeError:  # the reader left early: `polsim compensate | head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
        return 1  # Python's own exit status on a broken pipe
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
