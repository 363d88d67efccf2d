import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim import cli
from polsim import antenna as An
from polsim import compensation as C
from polsim import linksim as L
from polsim import orbit as O
from polsim import tle
from polsim.table import read_table


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def coating_with(capsys, tmp_path, stack, settings=""):
    """`polsim coating` on the stack file `stack`, named by its config."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"stack_file {stack}\n{settings}")
    return run(capsys, "coating", "--config", str(cfg))


class TestCoating:
    def test_default_reference_stack(self, capsys):
        code, out, _ = run(capsys, "coating")
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["rs_power"]) > 0.999
        assert float(values["rs_power"]) >= float(values["rp_power"])
        assert abs(abs(float(values["phase_gap_pi"])) - 1.0) < 0.05

    def test_empty_stack_fresnel(self, capsys, tmp_path):
        stack = tmp_path / "bare.txt"
        stack.write_text("ambient 1.0 0.0\nsubstrate 1.5 0.0\n")
        code, out, _ = coating_with(capsys, tmp_path, stack, "angle_deg 0\n")
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["rs_power"]) == pytest.approx(0.04, abs=1e-12)

    def test_bare_glass_report_at_45(self, capsys, tmp_path):
        # the single-interface Fresnel powers of n = 1.5 at 45 degrees, and their mean
        stack = tmp_path / "bare.txt"
        stack.write_text("ambient 1.0 0.0\nsubstrate 1.5 0.0\n")
        code, out, _ = coating_with(capsys, tmp_path, stack)
        assert code == 0
        values = {k: float(v) for k, v in (line.split() for line in out.splitlines()[1:])}
        ci, ct = math.sqrt(0.5), math.sqrt(1.0 - 0.5 / 1.5**2)
        rs, rp = ((ci - 1.5 * ct) / (ci + 1.5 * ct)) ** 2, ((1.5 * ci - ct) / (1.5 * ci + ct)) ** 2
        assert values["rs_power"] == pytest.approx(rs, rel=1e-12)
        assert values["rp_power"] == pytest.approx(rp, rel=1e-12)
        assert values["mean_power"] == pytest.approx((rs + rp) / 2.0, rel=1e-12)

    def test_beacon_wavelength_report(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("wavelength_nm 532\n")
        code, out, _ = run(capsys, "coating", "--config", str(cfg))
        assert code == 0
        assert "mean_power" in out

    @pytest.mark.parametrize("angle", ["90", "-1", "1e300"])
    def test_angle_out_of_range_named_in_degrees(self, capsys, tmp_path, angle):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"angle_deg {angle}\n")
        code, out, err = run(capsys, "coating", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == ("polsim: config error: key 'angle_deg': incidence angle must be in "
                       f"[0, 90) degrees, got {float(angle)!r}\n")

    def test_angle_just_below_90_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"angle_deg {math.nextafter(90.0, 0.0)!r}\n")
        code, _, err = run(capsys, "coating", "--config", str(cfg))
        assert (code, err) == (0, "")

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        stack = tmp_path / "bad.txt"
        stack.write_text("ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 nope\n")
        code, _, err = coating_with(capsys, tmp_path, stack)
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = coating_with(capsys, tmp_path, tmp_path / "absent.txt")
        assert code == 2

    @pytest.mark.parametrize("content", [
        b"ambient 1.0 0.0\nsubstrate 1.5 0.0 # \xc3\xa9\n",
        b"ambient -1 0\nsubstrate 1.5 0.0\n",
        b"ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 inf\n",
        b"ambient 1.0 0.0\nsubstrate 1.5 0.0\n0 0 100\n",
        b"ambient 1.0 nan\nsubstrate 1.5 0.0\n",
    ])
    def test_bad_stack_exit_2(self, capsys, tmp_path, content):
        stack = tmp_path / "bad.txt"
        stack.write_bytes(content)
        code, out, err = coating_with(capsys, tmp_path, stack)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(stack) in err


    @pytest.mark.parametrize("stack, setting", [
        (None, "wavelength_nm 1e-320"),
        ("ambient 1.0 0.0\nsubstrate 1e-320 0.0\n2.1 0.0 100\n", ""),
    ])
    def test_non_finite_response_exit_3(self, capsys, tmp_path, stack, setting):
        path = cli.DATA_DIR / "hr_coating_stack.txt"
        if stack is not None:
            path = tmp_path / "s.txt"
            path.write_text(stack)
        code, out, err = coating_with(capsys, tmp_path, path, setting + "\n")
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "stack response failed" in err


EXTREME_FLOATS = st.sampled_from([
    0.0, -0.0, 1e308, -1e308, 1e-320, -1e-320, 5e-324, 2.2250738585072014e-308,
    math.nan, math.inf, -math.inf, 45.0, 780.0,
]) | st.floats(-100.0, 2000.0)
STACK_LINES = (cli.DATA_DIR / "hr_coating_stack.txt").read_text(encoding="ascii").splitlines()
STACK_DATA_LINES = [k for k, line in enumerate(STACK_LINES) if line.strip() and line[0] != "#"]
# non-finite numbers, a zero index, a huge imaginary index, a negative thickness, ...
STACK_TOKENS = ["nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "1e-320", "5e-324", "-5", "1e5"]
STACK_MUTATIONS = st.none() | st.tuples(
    st.sampled_from(STACK_DATA_LINES), st.integers(0, 2), st.sampled_from(STACK_TOKENS)
)


def mutated_stack_text(line_no, field, token):
    lines = list(STACK_LINES)
    words = lines[line_no].split()
    numbers = [i for i, w in enumerate(words) if w not in ("ambient", "substrate")]
    words[numbers[field % len(numbers)]] = token
    lines[line_no] = " ".join(words)
    return "\n".join(lines) + "\n"


def check_exit_contract(argv, out_dir):
    """Run cli.main in process and assert the exit-code contract: exit 0-3, at
    most one stderr line, no traceback, no warning, and after exit 0 no nan or
    inf token in stdout (paths aside) or in any file written to `out_dir`."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert not caught
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    if code == 0:
        values = [line.split(None, 1)[1] for line in out.getvalue().splitlines()
                  if not line.startswith(("stack_file ", "wrote "))]
        written = [path.read_text() for path in Path(out_dir).rglob("*") if path.is_file()]
        assert not re.search(r"\b(nan|inf)\b", " ".join(values + written), re.IGNORECASE)


class TestCoatingExitContract:
    """Any ray and any one-field mutation of the packaged stack ends in the
    exit-code contract: 0-3, at most one stderr line, no warning, no nan/inf."""

    @settings(max_examples=200, deadline=None)
    @given(EXTREME_FLOATS, EXTREME_FLOATS, STACK_MUTATIONS)
    def test_exit_code_contract(self, angle_deg, wavelength_nm, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            text = f"angle_deg {angle_deg!r}\nwavelength_nm {wavelength_nm!r}\n"
            if mutation is not None:
                (Path(tmp) / "s.txt").write_text(mutated_stack_text(*mutation))
                text += f"stack_file {Path(tmp) / 's.txt'}\n"
            cfg.write_text(text)
            check_exit_contract(["coating", "--config", str(cfg)], Path(tmp) / "out")


def schema(command):
    return cli.COMMANDS[command][2]


CONFIG_SETTINGS = st.sampled_from(sorted(cli.COMMANDS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.sampled_from([key for key, _, _ in schema(command)]),
    EXTREME_FLOATS.map(repr)
    | st.lists(EXTREME_FLOATS, min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
))


TLE_LINES = (cli.DATA_DIR / "sso_500km.tle").read_text(encoding="ascii").splitlines()
# overwritten at any column: single characters, and runs that zero, max out or
# negate a whole numeric field (mean motion, eccentricity, epoch, ...)
TLE_TOKENS = ["0", "9", " ", ".", "-", "+", "x", "00000000", "99999999", "-9999999", "nan",
              "     nan"]
TLE_MUTATIONS = st.tuples(
    st.integers(1, 2), st.integers(0, 68), st.sampled_from(TLE_TOKENS), st.booleans()
)
PASS_LINES = ["t_iso8601,az_deg,el_deg,beta_deg"] + [
    f"2024-01-01T00:00:{i:02d}.000000Z,{10 + 2 * i}.0,{30 + i}.0,0.0" for i in range(8)
]
PASS_TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-0", "", "x", "360", "-91",
               "90", "2024-01-01T00:00:03.000000Z", "9999-12-31T23:59:59.999999Z",
               "0001-01-01T00:00:00Z", "2024-02-30T00:00:00Z", "2024-01-01T00:00:00"]
# (line, field, token); token None deletes the line, a field past the end adds one
PASS_MUTATIONS = st.lists(
    st.tuples(st.integers(0, len(PASS_LINES) - 1), st.integers(0, 4),
              st.none() | st.sampled_from(PASS_TOKENS)),
    min_size=1, max_size=3,
)


def mutated_tle_text(line_no, column, token, fix_checksum):
    """The packaged TLE with `token` written over line `line_no` from `column`;
    a fixed checksum lets the mutation reach the field checks and the orbit."""
    lines = list(TLE_LINES)
    line = (lines[line_no][:column] + token + lines[line_no][column + len(token):])[:69]
    if fix_checksum:
        line = line[:68] + str(tle.line_checksum(line))
    lines[line_no] = line
    return "\n".join(lines) + "\n"


def mutated_pass_text(mutations):
    lines = [line.split(",") for line in PASS_LINES]
    for line_no, field, token in mutations:
        if line_no >= len(lines):
            continue
        if token is None:
            del lines[line_no]
        elif field < len(lines[line_no]):
            lines[line_no][field] = token
        else:
            lines[line_no].append(token)
    return "".join(",".join(fields) + "\n" for fields in lines)


# a known subcommand, an unknown one or none, then one flag with or without a value
ARGV_MUTATIONS = st.tuples(
    st.sampled_from(sorted(cli.COMMANDS)) | st.sampled_from(["frobnicate", None]),
    st.sampled_from(["--seed", "--stack", "--config", "--frobnicate", "--se", "--st", "--c",
                     "--o"]),
    st.sampled_from(["-1", str(2**64), "x", "", None]),
)


class TestExitContract:
    """One config key of any subcommand set to an extreme number or a comma
    list, a mutated TLE file, a mutated pass CSV or a mutated command line
    ends in the same exit-code contract as coating."""

    @settings(max_examples=100, deadline=None)
    @given(CONFIG_SETTINGS)
    def test_config_value(self, setting):
        command, key, value = setting
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(f"{key} {value}\n")
            out_dir = Path(tmp) / "out"
            check_exit_contract([command, "--config", str(cfg), "--out", str(out_dir)], out_dir)

    @settings(max_examples=100, deadline=None)
    @given(ARGV_MUTATIONS)
    def test_argv(self, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            argv = [word for word in mutation if word is not None]
            check_exit_contract(argv + ["--out", str(out_dir)], out_dir)

    @settings(max_examples=60, deadline=None)
    @given(TLE_MUTATIONS)
    def test_tle_file(self, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            tle_path, cfg = Path(tmp) / "m.tle", Path(tmp) / "c.cfg"
            tle_path.write_text(mutated_tle_text(*mutation))
            # 12 h of the packaged orbit hold one pass; a shorter window bounds the run time
            cfg.write_text(f"tle_file {tle_path}\nwindow_hours 12\n")
            out_dir = Path(tmp) / "out"
            check_exit_contract(["compensate", "--config", str(cfg), "--out", str(out_dir)],
                                out_dir)

    @settings(max_examples=60, deadline=None)
    @given(PASS_MUTATIONS)
    def test_pass_csv_file(self, mutations):
        with tempfile.TemporaryDirectory() as tmp:
            pass_path, cfg = Path(tmp) / "p.csv", Path(tmp) / "c.cfg"
            pass_path.write_text(mutated_pass_text(mutations))
            cfg.write_text(f"pass_csv {pass_path}\n")
            out_dir = Path(tmp) / "out"
            check_exit_contract(["compensate", "--config", str(cfg), "--out", str(out_dir)],
                                out_dir)


class TestPerMap:
    def test_default_grid(self, capsys, tmp_path):
        code, out, _ = run(capsys, "per-map", "--out", str(tmp_path))
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["min_per"]) >= 400.0
        rows = read_table((tmp_path / "per_map.csv").read_text(), An.PER_SCAN_FORMAT)
        assert len(rows) == 96

    def test_single_cell(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("elevations_deg 50\nazimuths_deg 0\n")
        code, out, _ = run(capsys, "per-map", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        rows = read_table((tmp_path / "per_map.csv").read_text(), An.PER_SCAN_FORMAT)
        assert len(rows) == 4  # one direction x the four scan states

    def test_unknown_key_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("elevation_degs 50\n")
        code, _, err = run(capsys, "per-map", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "unknown config keys" in err


class TestCompensate:
    def test_default_tle(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compensate", "--out", str(tmp_path))
        assert code == 0
        csvs = sorted(tmp_path.glob("pass_*_schedule.csv"))
        metas = sorted(tmp_path.glob("pass_*_schedule.json"))
        assert len(csvs) >= 2
        assert len(csvs) == len(metas)
        meta = json.loads(metas[0].read_text())
        assert meta["zero_point_deg"] == 145.8

    def test_injected_pass_csv_row_count(self, capsys, tmp_path):
        pass_csv = tmp_path / "pass.csv"
        rows = ["t_iso8601,az_deg,el_deg,beta_deg"]
        rows += [f"2024-01-01T00:00:{i:02d}.000000Z,{10 + i}.0,30.0,0.0" for i in range(30)]
        pass_csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pass_csv {pass_csv}\n")
        code, out, _ = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        schedule_lines = (tmp_path / "pass_01_schedule.csv").read_text().strip().splitlines()
        assert len(schedule_lines) - 1 == 30  # header + one row per input sample

    def test_rate_warning_still_exits_zero(self, capsys, tmp_path):
        pass_csv = tmp_path / "pass.csv"
        rows = ["t_iso8601,az_deg,el_deg,beta_deg"]
        # 20 deg/s azimuth slew: far beyond the HWP limit
        rows += [f"2024-01-01T00:00:{i:02d}.000000Z,{10 + 20 * i}.0,30.0,0.0" for i in range(5)]
        pass_csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pass_csv {pass_csv}\n")
        code, out, _ = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "pass_01_schedule.json").read_text())
        assert len(meta["warnings"]) == 1

    def test_malformed_tle_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tle"
        bad.write_text("1 99999U\n2 99999\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"tle_file {bad}\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("line_no, column, token", [(2, 8, "     nan"), (1, 18, "-4")])
    def test_unreadable_tle_field_exit_2(self, capsys, tmp_path, line_no, column, token):
        # a nan inclination used to parse and end in "no pass" (exit 3)
        bad = tmp_path / "bad.tle"
        bad.write_text(mutated_tle_text(line_no, column, token, True))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"tle_file {bad}\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert f"column {column + 1}:" in err

    def test_non_ascii_tle_exit_2(self, capsys, tmp_path):
        packaged = (cli.DATA_DIR / "sso_500km.tle").read_bytes()
        bad = tmp_path / "bad.tle"
        bad.write_bytes(packaged.replace(b"TEST", b"T\xc3\xa9T", 1))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"tle_file {bad}\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "TLE file" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_tle_exit_2(self, capsys, tmp_path, digit):
        # in the eccentricity's last column, with the checksum of the ASCII digits fixed
        bad = tmp_path / "bad.tle"
        bad.write_text(mutated_tle_text(2, 32, digit, True), encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"tle_file {bad}\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert "TLE file" in err
        assert not out_dir.exists()

    def test_no_pass_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("threshold_deg 89.99\nwindow_hours 2\nstep_s 5\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 3
        assert "no pass" in err

    def test_zero_threshold_runs(self, capsys, tmp_path):
        # the closed end of threshold_deg's [0, 90): passes from the horizon up
        cfg = tmp_path / "c.cfg"
        cfg.write_text("threshold_deg 0\n")
        code, out, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert (code, err) == (0, "")
        # it keeps the low passes the default 10-degree threshold drops
        assert min(float(v) for v in re.findall(r"max_el_deg (\S+)", out)) < 10.0

    def test_kepler_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        # a numeric failure inside pass extraction is not a config error
        def diverge(mean_anomaly, eccentricity):
            raise ValueError("Kepler solve did not converge: residual 1.0")

        monkeypatch.setattr(O, "solve_kepler", diverge)
        code, out, err = run(capsys, "compensate", "--out", str(tmp_path / "out"))
        assert code == 3
        assert out == ""
        assert err == "polsim: error: Kepler solve did not converge: residual 1.0\n"
        assert not (tmp_path / "out").exists()

    def test_year_1_pass_csv_round_trip(self, capsys, tmp_path):
        pass_csv = tmp_path / "pass.csv"
        rows = [f"0001-01-01T00:00:0{i}.5Z,{10 + i}.0,30.0" for i in range(1, 4)]
        pass_csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pass_csv {pass_csv}\n")
        code, _, _ = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "pass_01_schedule.csv").read_text()
        assert text.splitlines()[1].startswith("0001-01-01T00:00:01.500000Z,")
        t = [row[0] for row in read_table(text, C.SCHEDULE_FORMAT)]
        assert [s - t[0] for s in t] == [0.0, 1.0, 2.0]

    def test_year_10000_schedule_exit_3(self, capsys, tmp_path):
        # the last microsecond of 9999 reads back as 10000-01-01, which cannot be written
        pass_csv = tmp_path / "pass.csv"
        pass_csv.write_text("9999-12-31T23:59:58Z,10.0,30.0\n9999-12-31T23:59:59.999999Z,11.0,30.0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pass_csv {pass_csv}\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "not in years 1 to 9999" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting", ["max_slew_deg_per_s -1"])
    def test_bad_tracking_without_pass_exit_1(self, capsys, tmp_path, setting):
        # a config error, even when the window holds no pass to schedule
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{setting}\nthreshold_deg 89.99\nwindow_hours 2\nstep_s 5\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "config error" in err

    @pytest.mark.parametrize("setting", ["step_s 0", "step_s -5", "window_hours nan"])
    def test_bad_step_or_window_exit_1(self, capsys, tmp_path, setting):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert setting.split()[0] in err

    def test_nan_azimuth_pass_csv_exit_2(self, capsys, tmp_path):
        pass_csv = tmp_path / "pass.csv"
        rows = ["t_iso8601,az_deg,el_deg,beta_deg"]
        rows += [f"2024-01-01T00:00:{i:02d}.000000Z,{'nan' if i == 3 else 10 + i},30.0,0.0"
                 for i in range(10)]
        pass_csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pass_csv {pass_csv}\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert "finite" in err
        assert not list(tmp_path.rglob("pass_*_schedule.*"))


class TestOffsetScan:
    def test_default_grid(self, capsys, tmp_path):
        code, out, _ = run(capsys, "offset-scan", "--out", str(tmp_path))
        assert code == 0
        rows = read_table((tmp_path / "offset_scan.csv").read_text(), L.OFFSET_SCAN_FORMAT)
        assert len(rows) == 22  # 11 ground x 2 satellite offsets
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["peak_fidelity"]) >= 0.995
        assert abs(float(values["peak_ground_offset_deg"])) <= 1.0

    def test_ideal_coating_origin(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "ground_offsets_deg 0\nsat_offsets_deg 0\n"
            "mirror_rs_power 1.0\nmirror_rp_power 1.0\nmirror_phase_gap_pi 1.0\n"
        )
        code, out, _ = run(capsys, "offset-scan", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["peak_fidelity"]) == pytest.approx(1.0, abs=1e-9)


# Each angle key with the period the physics gives it: a HWP angle (the zero
# point, a ground offset) repeats every 180 degrees, a frame rotation by 180
# degrees is -I (satellite offset, channel rotation), and beta and a longitude
# repeat every 360 degrees.  The other keys of a run are fixed: one-cell
# offset grids, the 12 h window of test_tle_file, an uncalibrated bell model.
PERIODIC_KEYS = [
    ("offset-scan", "ground_offsets_deg", 180.0),
    ("offset-scan", "sat_offsets_deg", 180.0),
    ("offset-scan", "beta_deg", 360.0),
    ("compensate", "zero_point_deg", 180.0),
    ("compensate", "station_lon_deg", 360.0),
    ("bell", "channel_rotation_deg", 180.0),
]
FIXED_KEYS = {"offset-scan": {"ground_offsets_deg": "0", "sat_offsets_deg": "0"},
              "compensate": {"window_hours": "12"}, "bell": {"calibrate_s_target": "0"}}
# Output fields that repeat the key's own value, so they move by the shift.
ECHOES = {"ground_offsets_deg": ("ground_offset_deg", "peak_ground_offset_deg"),
          "sat_offsets_deg": ("sat_offset_deg", "peak_sat_offset_deg"),
          "zero_point_deg": ("zero_point_deg",), "channel_rotation_deg": ("channel_rotation_deg",)}
OUTPUT_FORMATS = {"offset_scan.csv": L.OFFSET_SCAN_FORMAT, "bell_counts.csv": L.COUNTS_FORMAT}
# Absolute tolerances of the numeric fields other than angles (1e-9 degrees).
TOLERANCES = {"fidelity": 1e-12, "peak_fidelity": 1e-12, "t_iso8601": O.CROSSING_TOL_S,
              "duration_s": O.CROSSING_TOL_S}


def run_fields(command, key, value):
    """(exit code, stderr, {field: values}) of one in-process run with `key`
    set to `value`: stdout's `name value` pairs (by pass for `compensate`)
    and each output file's CSV columns and JSON entries, named by file."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out_dir = Path(tmp) / "c.cfg", Path(tmp) / "out"
        settings = {**FIXED_KEYS[command], key: repr(value)}
        cfg.write_text("".join(f"{k} {v}\n" for k, v in settings.items()))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out_dir)])
        fields = {}
        for line in out.getvalue().splitlines():
            if not line.startswith("wrote "):
                head, _, pairs = line.rpartition(": ")
                words = pairs.split()
                fields.update({(head, k): [v] for k, v in zip(words[::2], words[1::2])})
        for path in sorted(out_dir.glob("*")):
            if path.suffix == ".json":
                doc = json.loads(path.read_text())
                doc.update(doc.pop("model", {}))
                fields.update({(path.name, k): np.ravel(v).tolist() for k, v in doc.items()})
            else:
                fmt = OUTPUT_FORMATS.get(path.name, C.SCHEDULE_FORMAT)
                rows = read_table(path.read_text(), fmt)
                fields.update({(path.name, name): list(col)
                               for (name, _), col in zip(fmt, zip(*rows))})
    return code, err.getvalue(), fields


class TestAngleInvariance:
    """A run with an angle key shifted by its period gives the same answer."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PERIODIC_KEYS).flatmap(lambda case: st.tuples(
        st.just(case), st.floats(-360.0, 360.0 - case[2]), st.booleans())))
    def test_shift_by_period(self, draw):
        (command, key, period), low, down = draw
        shift = -period if down else period
        value = low + period if down else low  # value + shift stays in [-360, 360]
        code, err, fields = run_fields(command, key, value)
        twin_code, twin_err, twin = run_fields(command, key, value + shift)
        assert (twin_code, twin_err, twin.keys()) == (code, err, fields.keys())
        for (where, name), values in fields.items():
            got = twin[where, name]
            tol = TOLERANCES.get(name, 1e-9 if name.endswith(("_deg", "_deg_per_s")) else None)
            if tol is None:  # counts, sample counts, warnings and the statistics of the counts
                assert got == values, name
                continue
            got, want = np.array(got, float), np.array(values, float)
            if name in ECHOES.get(key, ()):
                got -= shift
            if name == "hwp_deg":  # emitted in [0, 180), so one twin may wrap
                assert ((0.0 <= got) & (got <= 180.0) & (0.0 <= want) & (want <= 180.0)).all()
                got = want + (got - want + 90.0) % 180.0 - 90.0
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=name)


class TestConfigRange:
    """Out-of-range config values are config errors: exit 1, one line."""

    @pytest.mark.parametrize("command, setting", [
        ("per-map", "mirror_rs_power 1.5"),
        ("per-map", "mirror_rp_power -0.1"),
        ("per-map", "mirror_phase_gap_pi nan"),
        ("per-map", "elevations_deg 30,95"),
        ("per-map", "azimuths_deg 200"),
        ("offset-scan", "mirror_rs_power 1.5"),
        ("offset-scan", "azimuth_deg 200"),
        ("offset-scan", "elevation_deg -1"),
        ("compensate", "window_hours 200"),
        ("compensate", "window_hours -1"),
        ("compensate", "window_hours 0"),
        ("compensate", "step_s 1e-6"),
        ("compensate", "threshold_deg 95"),
        ("per-map", "elevations_deg ,"),
        ("per-map", "azimuths_deg ,"),
        ("offset-scan", "ground_offsets_deg ,"),
        ("offset-scan", "sat_offsets_deg ,"),
        ("bell", "source_fidelity 2"),
        ("bell", "loss_db -1"),
        ("bell", "loss_db inf"),
        ("bell", "detector_efficiency 0"),
        ("bell", "depolarization 1.5"),
        ("bell", "pair_rate_hz nan"),
        ("bell", "channel_rotation_deg nan"),
        ("bell", "calibrate_s_target nan"),
        ("bell", "calibrate_total_coincidences 0"),
        ("compensate", "zero_point_deg nan"),
        ("compensate", "zero_point_deg inf"),
        ("compensate", "zero_point_deg 1e300"),  # every HWP angle would read 0.0
        ("compensate", "zero_point_deg -361"),
        ("compensate", "max_slew_deg_per_s nan"),
        ("compensate", "max_slew_deg_per_s -1"),
        ("compensate", "station_lon_deg nan"),
        ("compensate", "station_lat_deg 95"),
        ("offset-scan", "beta_deg nan"),
        ("offset-scan", "sat_offsets_deg nan"),
        ("coating", "angle_deg 95"),
        ("coating", "wavelength_nm nan"),
    ])
    def test_exit_1(self, capsys, tmp_path, command, setting):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(out_dir))
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"polsim: config error: key '{setting.split()[0]}': ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting, key", [
        ("window_hours -1", "window_hours"),
        ("window_hours 200", "window_hours"),
        ("step_s 1e-6", "step_s"),
        ("threshold_deg 95", "threshold_deg"),
        ("threshold_deg -1", "threshold_deg"),
        ("threshold_deg 90", "threshold_deg"),  # the open end of [0, 90)
        ("step_s 0", "step_s"),
        ("step_s -5", "step_s"),
        ("max_slew_deg_per_s 0", "max_slew_deg_per_s"),
    ])
    def test_window_error_names_key(self, capsys, tmp_path, setting, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"polsim: config error: key '{key}': ")

    @pytest.mark.parametrize("command, setting, message", [
        # fine only jointly: the keys set away from their defaults are named
        ("compensate", "window_hours 168\nstep_s 0.1",
         "keys 'step_s', 'window_hours': a 604800 s window at step_s 0.1 needs more than "
         "5000000 samples"),
        # the horizon fails only jointly; step_s fails alone, at the default window
        ("compensate", "window_hours 200\nstep_s 1e-6",
         "key 'step_s': a 172800 s window at step_s 1e-06 needs more than 5000000 samples"),
        ("bell", "calibrate_s_target -1",
         "key 'calibrate_s_target': S target must be non-negative, got -1.0"),
        ("bell", "calibrate_total_coincidences 0", "key 'calibrate_total_coincidences': "
         "expected a positive number below 9.22337e+18, got 0.0"),
        # calibration replaces the depolarization: this ran and printed the default S
        ("bell", "depolarization 0.3", "key 'depolarization': a calibrated run "
         "(calibrate_s_target 2.312) solves for the depolarization; set calibrate_s_target 0 "
         "to simulate 0.3"),
        # calibration rescales the integration time: 1, 40 and 80 s all printed one S
        ("bell", "integration_time_s 40", "key 'integration_time_s': a calibrated run "
         "(calibrate_s_target 2.312) solves for the integration time; set calibrate_s_target 0 "
         "to simulate 40.0"),
        # only calibration reads the coincidence target: this ran and ignored it
        ("bell", "calibrate_s_target 0\ncalibrate_total_coincidences 5000",
         "key 'calibrate_total_coincidences': an uncalibrated run (calibrate_s_target 0) "
         "simulates the integration time as set; set calibrate_s_target above 0 to calibrate "
         "to 5000.0"),
        ("bell", "calibrate_s_target 0\ncalibrate_total_coincidences 0",
         "key 'calibrate_total_coincidences': expected a positive number below 9.22337e+18, "
         "got 0.0"),
        # a pass CSV replaces the TLE scan: this ran and wrote the CSV pass's schedule
        ("compensate", "pass_csv {pass_csv}\nstation_lat_deg 95\nstep_s -3\nwindow_hours 1e9\n"
         "tle_file /nonexistent", "key 'tle_file': a pass_csv run reads its passes from "
         "{pass_csv}; unset pass_csv to scan the TLE with '/nonexistent'"),
        ("compensate", "pass_csv {pass_csv}\nstation_lat_deg 95\nstep_s -3\nwindow_hours 1e9",
         "key 'station_lat_deg': a pass_csv run reads its passes from {pass_csv}; unset "
         "pass_csv to scan the TLE with 95.0"),
        ("compensate", "pass_csv {pass_csv}\nwindow_hours 1e9", "key 'window_hours': a "
         "pass_csv run reads its passes from {pass_csv}; unset pass_csv to scan the TLE with "
         "1000000000.0"),
    ])
    def test_checked_message(self, capsys, tmp_path, command, setting, message):
        pass_csv = tmp_path / "pass.csv"  # a valid two-sample pass
        pass_csv.write_text("2024-01-01T00:00:00Z,10.0,20.0\n2024-01-01T00:00:01Z,11.0,21.0\n")
        setting, message = (text.format(pass_csv=pass_csv) for text in (setting, message))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, out, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out, err) == (1, "", f"polsim: config error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_uncalibrated_bell_takes_depolarization(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("depolarization 0.3\ncalibrate_s_target 0\n")
        code, _, _ = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "o"))
        result = json.loads((tmp_path / "o" / "bell_result.json").read_text())
        assert code == 0 and result["model"]["depolarization"] == 0.3

    @pytest.mark.parametrize("command, key, what", [
        ("bell", "channel_rotation_deg", "channel rotation"),
        ("offset-scan", "ground_offsets_deg", "ground offset"),
        ("offset-scan", "sat_offsets_deg", "satellite offset"),
        ("offset-scan", "beta_deg", "beta"),
        ("compensate", "station_lon_deg", "longitude"),
    ])
    @pytest.mark.parametrize("value", ["361", "-361", "3.6e18", "360", "-360"])
    def test_angle_key_range(self, capsys, tmp_path, command, key, what, value):
        # past a full turn an angle key has no meaning; each used to exit 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} {value}\n")
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        if abs(float(value)) <= 360.0:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, f"polsim: config error: key '{key}': {what} must be in "
                                      f"[-360, 360] degrees, got {float(value)!r}\n")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, setting", [
        ("compensate", "station_alt_m -600"),
        ("bell", "integration_time_s 0"),
        ("offset-scan", "beta_deg 1e308\nelevation_deg 95"),
    ])
    def test_range_error_names_the_failing_key(self, capsys, tmp_path, command, setting):
        # the key is found among several passed to one library call
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"polsim: config error: key '{setting.split()[-2]}': ")

    @pytest.mark.parametrize("command, setting, message", [
        # a zero power builds a mirror, and the scan then fails on the zero state it sends
        ("per-map", "mirror_rs_power 0", "key 'mirror_rs_power': cannot normalize the zero state"),
        ("offset-scan", "mirror_rs_power 0",
         "key 'mirror_rs_power': cannot normalize the zero state"),
        ("per-map", "mirror_rs_power 0\nelevations_deg 95",
         "key 'mirror_rs_power': cannot normalize the zero state"),
        ("per-map", "mirror_rs_power 1.5",
         "key 'mirror_rs_power': power reflectances must lie in [0, 1]"),
        ("offset-scan", "mirror_rs_power 1.5",
         "key 'mirror_rs_power': power reflectances must lie in [0, 1]"),
        ("per-map", "mirror_phase_gap_pi 1e308",
         "key 'mirror_phase_gap_pi': phase gap must be finite, got inf"),
        ("offset-scan", "mirror_phase_gap_pi 1e308",
         "key 'mirror_phase_gap_pi': phase gap must be finite, got inf"),
        ("per-map", "mirror_rs_power 1.5\nazimuths_deg 200",
         "key 'mirror_rs_power': power reflectances must lie in [0, 1]"),
    ])
    def test_mirror_error_names_its_key(self, capsys, tmp_path, command, setting, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (code, err) == (1, f"polsim: config error: {message}\n")

    @pytest.mark.parametrize("command, setting", [
        ("compensate", "sign 1"),
        ("per-map", "per_cap 1e9"),
        ("per-map", "states H"),
    ])
    def test_removed_key_is_unknown(self, capsys, tmp_path, command, setting):
        # the HWP tracking sense, the PER cap and the scan states are fixed
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, out, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"polsim: config error: unknown config keys: {setting.split()[0]}\n"
        assert not (tmp_path / "o").exists()

    def test_jointly_out_of_range_names_every_key(self):
        def check(loss_db, depolarization):  # defaults 46 and 0
            if loss_db + 10.0 * depolarization > 50.0:
                raise ValueError("too lossy and too noisy")
        cfg = {**cli.DEFAULTS, "loss_db": 49.5, "depolarization": 0.0}
        assert cli._checked(cfg, check, "loss_db", "depolarization") is None
        cfg["depolarization"] = 0.3  # either value alone passes
        with pytest.raises(cli.ConfigError, match="^keys 'loss_db', 'depolarization': too lossy"):
            cli._checked(cfg, check, "loss_db", "depolarization")

    def test_non_ascii_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"angle_deg 45\xc3\xa9\n")
        code, out, err = run(capsys, "coating", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "config error" in err

    def test_window_at_the_horizon_past_the_last_sample(self, capsys, tmp_path):
        # at step 11 s the last grid sample of a 168 h window is 2 s past the horizon
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window_hours 168\nstep_s 11\n")
        code, out, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert len(list(tmp_path.glob("pass_*_schedule.csv"))) == out.count("samples") > 0


class TestBell:
    def test_calibrated_run_reproduces_flight_numbers(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bell", "--out", str(tmp_path), "--seed", "0")
        assert code == 0
        result = json.loads((tmp_path / "bell_result.json").read_text())
        assert abs(result["S"] - 2.312) <= result["sigma_S"]
        assert abs(result["total_coincidences"] - 2138.0) < 5.0 * (2138.0**0.5)
        rows = read_table((tmp_path / "bell_counts.csv").read_text(), L.COUNTS_FORMAT)
        assert len(rows) == 4

    def test_failed_result_write_keeps_counts_line(self, capsys, tmp_path):
        (tmp_path / "bell_result.json").mkdir()  # the second write cannot open a directory
        code, out, err = run(capsys, "bell", "--out", str(tmp_path))
        assert code == 1
        assert out == f"wrote {tmp_path / 'bell_counts.csv'}\n"
        assert err.startswith("polsim: error: cannot write output: ")

    def test_lossless_long_run_hits_tsirelson(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "source_fidelity 1.0\nloss_db 0\ndark_rate_hz 0\n"
            "coincidence_window_ns 1e-6\nintegration_time_s 1.0\ncalibrate_s_target 0\n"
        )
        code, out, _ = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        result = json.loads((tmp_path / "bell_result.json").read_text())
        assert result["S"] == pytest.approx(2.8284, abs=0.02)

    def test_channel_rotation_knob(self, capsys, tmp_path):
        # a 45 deg uplink rotation at fixed analyzers wrecks the correlations
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "source_fidelity 1.0\nloss_db 0\ndark_rate_hz 0\nchannel_rotation_deg 45\n"
            "coincidence_window_ns 1e-6\nintegration_time_s 1.0\ncalibrate_s_target 0\n"
        )
        code, out, _ = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        result = json.loads((tmp_path / "bell_result.json").read_text())
        assert result["model"]["channel_rotation_deg"] == 45.0
        assert result["S"] < 2.5  # down from the 2.8284 unrotated value

    def test_unreachable_s_target_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("calibrate_s_target 2.7\n")
        code, _, err = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 3
        assert "above the model's reach" in err
        assert not (tmp_path / "out").exists()

    def test_zero_coincidences_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "loss_db 300\ndark_rate_hz 0\nintegration_time_s 1e-6\ncalibrate_s_target 0\n"
        )
        code, _, err = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 3


    @pytest.mark.parametrize("setting", [
        "integration_time_s 1e300\ncalibrate_s_target 0",
        "integration_time_s 1e308",
        "integration_time_s 1e308\ncalibrate_s_target 0",
        "integration_time_s 1e-320",
        "integration_time_s 1e-320\ncalibrate_s_target 0",
        "coincidence_window_ns 1e300",
        "coincidence_window_ns 1e300\ncalibrate_s_target 0",
        "pair_rate_hz 1e308",
    ])
    def test_extreme_model_one_line(self, capsys, tmp_path, setting):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "bell", "--config", str(cfg), "--out", str(out_dir))
        assert code in (1, 3)
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_key_range_exit_1(self, capsys, tmp_path, seed):
        code, out, err = run(capsys, "bell", "--seed", seed, "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1] == ("polsim: error: argument --seed: seed must be an "
                                        f"integer in [0, 2**64), got {seed}")
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bell", "--seed", str(2**64 - 1), "--out", str(tmp_path))
        assert code == 0
        assert json.loads((tmp_path / "bell_result.json").read_text())["seed"] == 2**64 - 1

    def test_mean_over_poisson_limit_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("integration_time_s 1e300\ncalibrate_s_target 0\n")
        code, out, err = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Poisson sampler's limit 9.22337e+18" in err

    @pytest.mark.parametrize("total", ["1e300", "9.3e18"])
    def test_total_over_poisson_limit_exit_1(self, capsys, tmp_path, total):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"calibrate_total_coincidences {total}\n")
        code, out, err = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("polsim: config error: key 'calibrate_total_coincidences': ")

    def test_calibration_refuses_start_integration_time(self, capsys, tmp_path):
        # calibration solves for the integration time, so a calibrated run takes only
        # the default, and that gives the default run's outputs
        cfg = tmp_path / "c.cfg"
        cfg.write_text("integration_time_s 1e300\n")
        code, out, err = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "big"))
        assert (code, out) == (1, "")
        assert err.startswith("polsim: config error: key 'integration_time_s': a calibrated run")
        assert not (tmp_path / "big").exists()
        cfg.write_text("integration_time_s 80\n")
        assert run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "same"))[0] == 0
        assert run(capsys, "bell", "--out", str(tmp_path / "default"))[0] == 0
        for name in ("bell_counts.csv", "bell_result.json"):
            assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
        cfg.write_text("integration_time_s 40\ncalibrate_s_target 0\n")
        assert run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "raw"))[0] == 0
        result = json.loads((tmp_path / "raw" / "bell_result.json").read_text())
        assert result["model"]["integration_time_s"] == 40.0


class TestImports:
    # scipy is a test-only dependency; no subcommand may load it
    PROBE = ("import sys; from polsim.cli import main; code = main(sys.argv[1:]); "
             "print('scipy' in sys.modules); sys.exit(code)")

    @pytest.mark.parametrize("command", ["coating", "per-map", "compensate", "offset-scan", "bell"])
    def test_no_scipy(self, tmp_path, command):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", self.PROBE, command, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_import_compiles_no_source(self):
        # dataclass and namedtuple build their methods by exec/eval of source
        # text, which no .pyc caches; module code objects are what imports run
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import builtins, numpy\n"
            "seen = []\n"
            "def watch(fn):\n"
            "    def watched(source, *args, **kwargs):\n"
            "        module = fn.__name__ == 'compile' and str(args[0]).endswith('.py')  # an import\n"
            "        if isinstance(source, (str, bytes)) and not module:\n"
            "            seen.append(fn.__name__ + ': ' + str(source)[:60])\n"
            "        return fn(source, *args, **kwargs)\n"
            "    return watched\n"
            "for name in ('exec', 'eval', 'compile'):\n"
            "    setattr(builtins, name, watch(getattr(builtins, name)))\n"
            "import polsim.cli\n"
            "print(repr(seen))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_each_command_loads_only_its_modules(self, tmp_path):
        # a fresh process compiles every module it imports; cli imports the
        # modules beyond antenna and compensation inside the command that runs them
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = ("import sys; from polsim.cli import main; code = main(sys.argv[1:]); "
                 "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('polsim.')))); "
                 "sys.exit(code)")
        pass_csv, cfg = tmp_path / "pass.csv", tmp_path / "c.cfg"
        pass_csv.write_text("2024-01-01T00:00:00Z,10.0,20.0\n2024-01-01T00:00:01Z,11.0,21.0\n")
        cfg.write_text(f"pass_csv {pass_csv}\n")
        common = {"antenna", "cli", "compensation", "frozen", "jones", "table"}
        expected = {
            ("coating",): common | {"thinfilm"},
            ("per-map",): common,
            ("compensate",): common | {"orbit", "tle"},
            ("compensate", "--config", str(cfg)): common | {"orbit"},
            ("offset-scan",): common | {"linksim"},
            ("bell",): common | {"linksim"},
        }
        runs = {argv: subprocess.Popen([sys.executable, "-c", probe, *argv, "--out",
                                        str(tmp_path / str(k))], env=env, text=True,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for k, argv in enumerate(expected)}
        for argv, done in runs.items():
            out, err = done.communicate(timeout=300)
            assert done.returncode == 0, err
            assert set(out.splitlines()[-1].split()) == expected[argv], argv

    def test_station_defaults_are_ngari(self):
        # the schema writes them out so that it loads no orbit
        keys = ("station_lat_deg", "station_lon_deg", "station_alt_m")
        assert tuple(cli.DEFAULTS[k] for k in keys) == (
            O.NGARI_STATION.latitude_deg, O.NGARI_STATION.longitude_deg,
            O.NGARI_STATION.altitude_m)

    def test_numpy_random_stays_lazy(self):
        # numpy loads numpy.random on first use; importing polsim must not use it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, polsim, polsim.cli; print('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestHarness:
    def test_unknown_command_exit_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run(capsys, "coating", "--frobnicate")
        assert code == 1

    @pytest.mark.parametrize("command", ["coating", "per-map", "compensate", "offset-scan"])
    def test_seed_is_bell_only(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--seed", "5", "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert err == "polsim: error: unrecognized arguments: --seed 5\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["bell", "--se", "3"], ["coating", "--conf", "FILE"],
                                      ["per-map", "--c", "x"], ["offset-scan", "--o", "x"]])
    def test_flags_must_be_spelled_in_full(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert not (tmp_path / "o").exists()
        assert err == f"polsim: error: unrecognized arguments: {' '.join(argv[1:])}\n"

    @pytest.mark.parametrize("command", ["per-map", "offset-scan", "bell"])
    def test_unwritable_out_exit_1(self, capsys, tmp_path, command):
        # a directory cannot be made below a regular file, even by root
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, command, "--out", str(blocker / "out"))
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "cannot write output" in err

    @pytest.mark.parametrize("command", ["coating", "compensate"])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, command):
        # as in `polsim compensate | head -1`: the reader has closed the pipe, so
        # the first flush raises BrokenPipeError, which main turns into exit 1
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "polsim.cli", command, "--out",
                                   str(tmp_path)], stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=300)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")

    def test_config_value_type_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("angle_deg forty-five\n")
        code, _, err = run(capsys, "coating", "--config", str(cfg))
        assert code == 1


def test_readme_config_table_matches_schema():
    # rows `| command | `key` | default |`, the default written as the config
    # text that gives it, "packaged `NAME`" for a file in cli.DATA_DIR, or
    # "none" for an unset path key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([\w-]+) +\| `(\w+)` +\| (.+?) +\|$", readme, re.MULTILINE)
    assert [row[:2] for row in rows] == [
        (command, key) for command in cli.COMMANDS for key, _, _ in schema(command)]
    for command, key, written in rows:
        [(default, parse)] = [(d, p) for k, d, p in schema(command) if k == key]
        packaged = re.fullmatch(r"packaged `(.+)`", written)
        value = (str(cli.DATA_DIR / packaged[1]) if packaged
                 else None if written == "none" else parse(written.strip("`")))
        assert value == default, (command, key)
