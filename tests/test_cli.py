import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polsim import cli
from polsim import antenna as An
from polsim import linksim as L


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
    ])
    def test_bad_stack_exit_2(self, capsys, tmp_path, content):
        stack = tmp_path / "bad.txt"
        stack.write_bytes(content)
        code, out, err = run(capsys, "coating", "--stack", str(stack))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(stack) in err


class TestPerMap:
    def test_default_grid(self, capsys, tmp_path):
        code, out, _ = run(capsys, "per-map", "--out", str(tmp_path))
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(values["min_per"]) >= 400.0
        scan = An.parse_per_scan_csv((tmp_path / "per_map.csv").read_text())
        assert len(scan.rows) == 96

    def test_single_cell(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("elevations_deg 50\nazimuths_deg 0\nstates H\n")
        code, out, _ = run(capsys, "per-map", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        scan = An.parse_per_scan_csv((tmp_path / "per_map.csv").read_text())
        assert len(scan.rows) == 1

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
        rows = L.parse_offset_scan_csv((tmp_path / "offset_scan.csv").read_text())
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
        settings, counts = L.parse_counts_csv((tmp_path / "bell_counts.csv").read_text())
        assert len(counts) == 4

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
