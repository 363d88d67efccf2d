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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsim import cli
from polsim import antenna as An
from polsim import compensation as C
from polsim import linksim as L
from polsim import orbit as O
from polsim.table import read_table


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        cfg = tmp_path / "c.cfg"
        cfg.write_text("angle_deg 0\n")
        code, out, _ = run(capsys, "coating", "--stack", str(stack), "--config", str(cfg))
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["rs_power"]) == pytest.approx(0.04, abs=1e-12)

    def test_beacon_wavelength_report(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("wavelength_nm 532\n")
        code, out, _ = run(capsys, "coating", "--config", str(cfg))
        assert code == 0
        assert "mean_power" in out

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        stack = tmp_path / "bad.txt"
        stack.write_text("ambient 1.0 0.0\nsubstrate 1.5 0.0\n1.4 0.0 nope\n")
        code, _, err = run(capsys, "coating", "--stack", str(stack))
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "coating", "--stack", str(tmp_path / "absent.txt"))
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
        code, out, err = run(capsys, "coating", "--stack", str(stack))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(stack) in err


    @pytest.mark.parametrize("stack, setting", [
        (None, "wavelength_nm 1e-320"),
        ("ambient 1.0 0.0\nsubstrate 1e-320 0.0\n2.1 0.0 100\n", ""),
    ])
    def test_non_finite_response_exit_3(self, capsys, tmp_path, stack, setting):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        argv = ["coating", "--config", str(cfg)]
        if stack is not None:
            (tmp_path / "s.txt").write_text(stack)
            argv += ["--stack", str(tmp_path / "s.txt")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "stack response failed" in err


EXTREME_FLOATS = st.sampled_from([
    0.0, -0.0, 1e308, -1e308, 1e-320, -1e-320, 5e-324, 2.2250738585072014e-308,
    math.nan, math.inf, -math.inf, 45.0, 780.0,
]) | st.floats(-100.0, 2000.0)
STACK_LINES = (cli.data_dir() / "hr_coating_stack.txt").read_text(encoding="ascii").splitlines()
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
            cfg.write_text(f"angle_deg {angle_deg!r}\nwavelength_nm {wavelength_nm!r}\n")
            argv = ["coating", "--config", str(cfg)]
            if mutation is not None:
                (Path(tmp) / "s.txt").write_text(mutated_stack_text(*mutation))
                argv += ["--stack", str(Path(tmp) / "s.txt")]
            check_exit_contract(argv, Path(tmp) / "out")


MIRROR_KEYS = ("mirror_rs_power", "mirror_rp_power", "mirror_phase_gap_pi")
CONFIG_KEYS = {
    "per-map": ("elevations_deg", "azimuths_deg", "states", "per_cap", *MIRROR_KEYS),
    "offset-scan": ("ground_offsets_deg", "sat_offsets_deg", "azimuth_deg", "elevation_deg",
                    "beta_deg", *MIRROR_KEYS),
    "bell": ("source_fidelity", "pair_rate_hz", "loss_db", "channel_rotation_deg",
             "depolarization", "detector_efficiency", "dark_rate_hz", "coincidence_window_ns",
             "integration_time_s", "calibrate_s_target", "calibrate_total_coincidences"),
    "compensate": ("tle_file", "pass_csv", "station_lat_deg", "station_lon_deg",
                   "station_alt_m", "threshold_deg", "step_s", "window_hours", "zero_point_deg",
                   "sign", "max_slew_deg_per_s"),
}
CONFIG_SETTINGS = st.sampled_from(sorted(CONFIG_KEYS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.sampled_from(CONFIG_KEYS[command]),
    EXTREME_FLOATS.map(repr)
    | st.lists(EXTREME_FLOATS, min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
))


class TestExitContract:
    """One config key of any other subcommand set to an extreme number or a
    comma list ends in the same exit-code contract as coating."""

    @settings(max_examples=100, deadline=None)
    @given(CONFIG_SETTINGS)
    def test_config_value(self, setting):
        command, key, value = setting
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(f"{key} {value}\n")
            out_dir = Path(tmp) / "out"
            check_exit_contract([command, "--config", str(cfg), "--out", str(out_dir)], out_dir)


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
        cfg.write_text("elevations_deg 50\nazimuths_deg 0\nstates H\n")
        code, out, _ = run(capsys, "per-map", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        rows = read_table((tmp_path / "per_map.csv").read_text(), An.PER_SCAN_FORMAT)
        assert len(rows) == 1

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

    def test_non_ascii_tle_exit_2(self, capsys, tmp_path):
        packaged = (cli.data_dir() / "sso_500km.tle").read_bytes()
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

    def test_no_pass_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("threshold_deg 89.99\nwindow_hours 2\nstep_s 5\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 3
        assert "no pass" in err

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

    @pytest.mark.parametrize("setting", ["sign 2", "max_slew_deg_per_s -1"])
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
        ("compensate", "sign 0"),
        ("compensate", "sign 2"),
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
        ("compensate", "max_slew_deg_per_s nan"),
        ("compensate", "max_slew_deg_per_s -1"),
        ("compensate", "station_lon_deg nan"),
        ("compensate", "station_lat_deg 95"),
        ("per-map", "per_cap inf"),
        ("per-map", "per_cap 0"),
        ("per-map", "per_cap -1"),
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
        assert "config error" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting, key", [
        ("window_hours -1", "window_hours"),
        ("window_hours 200", "window_hours"),
        ("step_s 1e-6", "step_s"),
        ("threshold_deg 95", "threshold_deg"),
        ("threshold_deg -1", "threshold_deg"),
        ("step_s 0", "step_s"),
        ("step_s -5", "step_s"),
    ])
    def test_window_error_names_key(self, capsys, tmp_path, setting, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        code, _, err = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"polsim: config error: key '{key}': ")

    def test_non_ascii_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"angle_deg 45\xc3\xa9\n")
        code, out, err = run(capsys, "coating", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "config error" in err

    def test_negative_sign_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sign -1\nwindow_hours 24\n")
        code, _, _ = run(capsys, "compensate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        meta = json.loads(sorted(tmp_path.glob("pass_*_schedule.json"))[0].read_text())
        assert meta["sign"] == -1


class TestBell:
    def test_calibrated_run_reproduces_flight_numbers(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bell", "--out", str(tmp_path), "--seed", "0")
        assert code == 0
        result = json.loads((tmp_path / "bell_result.json").read_text())
        assert abs(result["S"] - 2.312) <= result["sigma_S"]
        assert abs(result["total_coincidences"] - 2138.0) < 5.0 * (2138.0**0.5)
        rows = read_table((tmp_path / "bell_counts.csv").read_text(), L.COUNTS_FORMAT)
        assert len(rows) == 4

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

    def test_calibration_ignores_start_integration_time(self, capsys, tmp_path):
        # calibration rescales the configured time, so even 1e300 s gives the default run
        cfg = tmp_path / "c.cfg"
        cfg.write_text("integration_time_s 1e300\n")
        code, _, _ = run(capsys, "bell", "--config", str(cfg), "--out", str(tmp_path / "big"))
        assert code == 0
        assert run(capsys, "bell", "--out", str(tmp_path / "default"))[0] == 0
        for name in ("bell_counts.csv", "bell_result.json"):
            assert (tmp_path / "big" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


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


class TestHarness:
    def test_unknown_command_exit_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run(capsys, "coating", "--frobnicate")
        assert code == 1

    def test_data_dir_override(self, capsys, tmp_path, monkeypatch):
        stack = tmp_path / "hr_coating_stack.txt"
        stack.write_text("ambient 1.0 0.0\nsubstrate 1.9 0.0\n")
        monkeypatch.setenv("POLSIM_DATA_DIR", str(tmp_path))
        code, out, _ = run(capsys, "coating")
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        # bare 1.0/1.9 interface at 45 degrees, not the packaged 50-layer stack
        assert float(values["layers"]) == 0
        assert float(values["rs_power"]) < 0.5

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

    def test_config_value_type_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("angle_deg forty-five\n")
        code, _, err = run(capsys, "coating", "--config", str(cfg))
        assert code == 1
