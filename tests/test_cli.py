"""Command-line harness: subcommands, exit codes, file formats, determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dnlslab as lab
from dnlslab.cli import main
from dnlslab.fields import ROOT_TWO_PI
from support import free_wave_trajectory


def read_json(path):
    return json.loads(path.read_text())


class TestSolveCommand:
    def test_plane_wave_stationary(self, tmp_path):
        code = main([
            "solve", "--equation", "dnls", "--plane-wave", "A=1,n=1",
            "--T", "0.1", "--out", str(tmp_path), "--tag", "pw",
        ])
        assert code == 0
        report = read_json(tmp_path / "pw.json")
        assert report["report"]["converged"] is True
        traj = lab.load_trajectory(tmp_path / "pw.traj.csv")
        # theta = 1*1 - 1 = 0: the wave does not move
        w = lab.plane_wave(32, 1)
        assert np.linalg.norm(traj.coeffs - w, axis=1).max() <= 1e-6

    def test_plane_wave_outside_the_band_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--plane-wave", "A=1,n=40", "--N", "32",
                     "--out", str(tmp_path), "--tag", "nope"])
        assert code == 1
        assert "frequency 40 outside cutoff 32" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_datum_exit_code(self, tmp_path, capsys, amplitude):
        out = tmp_path / "fresh"
        code = main(["solve", "--plane-wave", f"A={amplitude},n=1", "--N", "4", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: datum has a non-finite coefficient\n"
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        code = main([
            "solve", "--plane-wave", "A=1.5,n=1", "--T", "1.0", "--steps", "40",
            "--max-iter", "6", "--cutoff", "8", "--out", str(tmp_path), "--tag", "bad",
        ])
        assert code == 3

    def test_invalid_config_exit_code(self, tmp_path):
        code = main([
            "solve", "--plane-wave", "A=1,n=1", "--T", "2.5",
            "--out", str(tmp_path), "--tag", "nope",
        ])
        assert code == 1

    @pytest.mark.parametrize("flag,value", [("--cutoff", "-1"), ("--max-iter", "0"),
                                            ("--tol", "nan"), ("--tol", "inf")])
    def test_invalid_solver_setting_exit_code(self, tmp_path, capsys, flag, value):
        code = main(["solve", "--plane-wave", "A=1,n=1", "--cutoff", "8", "--steps", "20",
                     flag, value, "--out", str(tmp_path), "--tag", "nope"])
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_blow_up_reports_the_saved_iterate(self, tmp_path, capsys):
        code = main(["solve", "--amplitude", "3", "--T", "1",
                     "--out", str(tmp_path), "--tag", "boom"])
        capsys.readouterr()
        assert code == 3
        report = read_json(tmp_path / "boom.json")["report"]
        history = report["residual_history"]
        # the third iterate blows up and is discarded; the second is saved
        assert len(history) == 3 and history[2] > 1e8
        assert report["iterations"] == 2
        assert report["residual"] == history[1]

    @pytest.mark.parametrize("amplitude,nulls", [
        ("5000", {"residual"}),
        ("1e120", {"residual", "integral_residual", "truncated_tail_mass"}),
    ])
    def test_a_report_without_a_saved_iterate_is_valid_json(self, tmp_path, capsys,
                                                             amplitude, nulls):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        # at A = 1e120 the cubic forcing overflows on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--plane-wave", f"A={amplitude},n=3", "--N", "8", "--T", "1",
                         "--M", "20", "--max-iter", "3", "--out", str(tmp_path), "--tag", "r"])
        assert code == 3
        line = json.loads(capsys.readouterr().out, parse_constant=reject)
        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)["report"]
        assert line["residual"] is None and report["iterations"] == 0
        assert {k for k, v in report.items() if v is None} == nulls | {
            "gauge_residual", "gauge_tail", "cross_check_gap"}
        assert (report["residual_history"] == [None]) == (amplitude == "1e120")

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    def test_plane_wave_and_datum_together_exit_code(self, tmp_path, capsys, from_config):
        lab.save_field(tmp_path / "f.csv", lab.plane_wave(8, 1))
        out = tmp_path / "fresh"
        argv = ["solve", "--plane-wave", "A=1,n=1", "--cutoff", "8", "--out", str(out)]
        if from_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"datum": str(tmp_path / "f.csv")}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--datum", str(tmp_path / "f.csv")]
        assert main(argv) == 1
        assert "--plane-wave and --datum" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--no-such-flag"])
        capsys.readouterr()
        assert code == 1

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 0.05, "steps": 40, "cutoff": 8,
                                   "plane_wave": [1.0, 1]}))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                     "--tag", "fromcfg"])
        assert code == 0
        report = read_json(tmp_path / "fromcfg.json")
        assert report["config"]["horizon"] == 0.05
        assert report["config"]["steps"] == 40

    def test_explicit_flag_wins_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 40}))
        code = main(["solve", "--config", str(cfg), "--steps", "200", "--cutoff", "8",
                     "--plane-wave", "A=1,n=1", "--out", str(tmp_path), "--tag", "flag"])
        assert code == 0
        assert read_json(tmp_path / "flag.json")["config"]["steps"] == 200

    @pytest.mark.parametrize("text", ['{"no_such_key": 1}', '{"func": 1}', "[1, 2]", "{"],
                             ids=["unknown-key", "reserved-key", "not-an-object", "bad-json"])
    def test_bad_config_exit_code(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path), "--tag", "nope"])
        capsys.readouterr()
        assert code == 1
        assert not (tmp_path / "nope.json").exists()


class TestGaugeAndNormsCommands:
    def test_gauge_roundtrip_via_files(self, tmp_path):
        rng = np.random.default_rng(3)
        f = lab.random_field(16, rng, active_cutoff=4, l2_norm=0.5)
        lab.save_field(tmp_path / "f.csv", f)
        assert main(["gauge", "--input", str(tmp_path / "f.csv"), "--output", "g.csv",
                     "--time", "0.3", "--out", str(tmp_path)]) == 0
        assert main(["gauge", "--input", str(tmp_path / "g.csv"), "--output", "back.csv",
                     "--time", "0.3", "--inverse", "--out", str(tmp_path)]) == 0
        back = lab.load_field(tmp_path / "back.csv")
        assert np.linalg.norm(back - f) <= 1e-8

    @pytest.mark.parametrize("time", ["nan", "inf", "1e308"])
    def test_gauge_to_a_non_finite_field_writes_nothing(self, tmp_path, capsys, time):
        # at t = 1e308 the translation phase overflows
        lab.save_field(tmp_path / "f.csv", lab.random_field(4, np.random.default_rng(3)))
        code = main(["gauge", "--input", str(tmp_path / "f.csv"), "--output", "g.csv",
                     "--time", time, "--out", str(tmp_path)])
        assert code == 1
        assert "--time" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_gauge_at_a_large_finite_time_succeeds(self, tmp_path):
        lab.save_field(tmp_path / "f.csv", lab.random_field(4, np.random.default_rng(3)))
        assert main(["gauge", "--input", str(tmp_path / "f.csv"), "--output", "g.csv",
                     "--time", "1e20", "--out", str(tmp_path)]) == 0
        assert np.isfinite(lab.load_field(tmp_path / "g.csv")).all()

    def test_norms_that_overflow_exit_1_and_write_nothing(self, tmp_path, capsys):
        lab.save_field(tmp_path / "f.csv", lab.plane_wave(4, 1, 1e200))
        with np.errstate(over="ignore"):  # |coefficient|**2 overflows on purpose
            code = main(["norms", "--input", str(tmp_path / "f.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "JSON" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_gauge_trajectory_file(self, tmp_path):
        traj = lab.plane_wave_solution(8, 1, 1.0, 0.05, 8)
        lab.save_trajectory(tmp_path / "t.csv", traj)
        assert main(["gauge", "--input", str(tmp_path / "t.csv"), "--output", "gt.csv",
                     "--out", str(tmp_path)]) == 0
        gauged = lab.load_trajectory(tmp_path / "gt.csv")
        assert gauged.sup_l2_distance(lab.gauge(traj)) <= 1e-12

    def test_gauge_missing_input_makes_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        code = main(["gauge", "--input", str(tmp_path / "missing.csv"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DNLSLAB_OUT", str(tmp_path / "envout"))
        code = main(["divisors", "--max", "1000", "--tag", "envy"])
        assert code == 0
        assert (tmp_path / "envout" / "envy.json").exists()

    def test_norms_of_saved_field(self, tmp_path, capsys):
        lab.save_field(tmp_path / "w.csv", lab.plane_wave(8, 1))
        code = main(["norms", "--input", str(tmp_path / "w.csv"), "--s", "1.0",
                     "--r", "2.0", "--out", str(tmp_path), "--tag", "n"])
        assert code == 0
        out = read_json(tmp_path / "n.json")
        assert abs(out["norms"]["h_norm"] - math.sqrt(2) * ROOT_TWO_PI) < 1e-10

    def test_norms_of_saved_trajectory(self, tmp_path):
        traj = free_wave_trajectory(2, cutoff=4, window=2.0, steps=64)
        lab.save_trajectory(tmp_path / "t.csv", traj)
        code = main(["norms", "--input", str(tmp_path / "t.csv"), "--s", "0.5",
                     "--r", "2.0", "--b", "0.5", "--p", "2", "--z",
                     "--out", str(tmp_path), "--tag", "tn"])
        assert code == 0
        out = read_json(tmp_path / "tn.json")
        assert out["norms"]["xst_norm"] > 0.0
        assert out["norms"]["z_norm"] >= out["norms"]["xst_norm"] - 1e-12

    def test_norms_of_trajectory_without_a_norm_exit_code(self, tmp_path, capsys):
        lab.save_trajectory(tmp_path / "t.csv", free_wave_trajectory(2, cutoff=4, steps=16))
        code = main(["norms", "--input", str(tmp_path / "t.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "needs --b/--p or --z" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--b", "0.5"], ["--z"], ["--z", "--b", "0.5"]],
                             ids=["b", "z", "both"])
    def test_norms_of_field_with_a_trajectory_norm_exit_code(self, tmp_path, capsys, flags):
        lab.save_field(tmp_path / "w.csv", lab.plane_wave(8, 1))
        out = tmp_path / "fresh"
        code = main(["norms", "--input", str(tmp_path / "w.csv"), *flags, "--out", str(out)])
        assert code == 1
        assert "--b/--z measure a trajectory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,kind,named", [
        (["norms", "--p", "5"], "field", "norms without --b does not read --p"),
        (["norms", "--z", "--p", "inf"], "trajectory", "norms without --b does not read --p"),
        (["gauge", "--time", "0.7"], "trajectory", "gauge of a trajectory does not read --time"),
    ], ids=["norms-field-p", "norms-z-p", "gauge-trajectory-time"])
    def test_a_flag_the_input_does_not_read_exits_1(self, tmp_path, capsys, command, kind, named):
        path = tmp_path / "in.csv"
        if kind == "field":
            lab.save_field(path, lab.plane_wave(8, 1))
        else:
            lab.save_trajectory(path, free_wave_trajectory(2, cutoff=4, steps=16))
        out = tmp_path / "fresh"
        code = main([*command, "--input", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_norms_with_a_non_finite_exponent_exit_code(self, tmp_path, capsys):
        lab.save_field(tmp_path / "w.csv", lab.plane_wave(8, 1))
        code = main(["norms", "--input", str(tmp_path / "w.csv"), "--s", "nan",
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: s must be finite")
        assert captured.out == ""

    def test_field_file_round_trip(self, tmp_path):
        f = lab.random_field(6, np.random.default_rng(8))
        lab.save_field(tmp_path / "x.csv", f)
        assert np.linalg.norm(lab.load_field(tmp_path / "x.csv") - f) == 0.0

    @pytest.mark.parametrize("command", [["gauge"], ["norms", "--z"]], ids=["gauge", "norms"])
    @pytest.mark.parametrize("text", ["", "[1]\n", '{"kind": "blob"}\n'],
                             ids=["empty", "not-an-object", "unknown-kind"])
    def test_unreadable_header_exit_code(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = main([*command, "--input", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_trajectory_file_round_trip(self, tmp_path):
        traj = lab.random_trajectory(4, np.random.default_rng(9), window=1.0, steps=8)
        lab.save_trajectory(tmp_path / "t.csv", traj)
        back = lab.load_trajectory(tmp_path / "t.csv")
        assert back.sup_l2_distance(traj) == 0.0
        assert back.window == traj.window
        assert '"cutoff_profile":null' in (tmp_path / "t.csv").read_text().split("\n", 1)[0]

    def test_bump_at_half_the_window_loads(self, tmp_path):
        # the header other writers give a trajectory whose cutoff they spell out
        traj = lab.random_trajectory(2, np.random.default_rng(9), window=0.3, steps=6)
        lab.save_trajectory(tmp_path / "t.csv", traj)
        text = (tmp_path / "t.csv").read_text()
        (tmp_path / "t.csv").write_text(text.replace(
            '"cutoff_profile":null', '"cutoff_profile":{"kind":"bump","scale":0.15}', 1))
        back = lab.load_trajectory(tmp_path / "t.csv")
        assert back.windowed().tobytes() == traj.windowed().tobytes()


class TestScanCommands:
    def test_divisors_csv(self, tmp_path):
        code = main(["divisors", "--max", "20000", "--refined",
                     "--out", str(tmp_path), "--tag", "div"])
        assert code == 0
        rows = (tmp_path / "div.csv").read_text().strip().splitlines()
        assert rows[0] == "refined_count,occurrences"
        counts = [int(line.split(",")[0]) for line in rows[1:]]
        assert max(counts) == 2

    def test_scan_sums(self, tmp_path):
        code = main(["scan-sums", "--variant", "wabs_xi", "--truncations", "64,128",
                     "--a-min", "-10", "--a-max", "10", "--a-step", "10",
                     "--anchor-min", "-4", "--anchor-max", "4", "--anchor-step", "4",
                     "--out", str(tmp_path), "--tag", "sums"])
        assert code == 0
        payload = read_json(tmp_path / "sums.json")
        sups = payload["wabs_xi"]["summary"]["sup_by_truncation"]
        assert sups["128"] >= sups["64"]

    def test_counterexample_command(self, tmp_path):
        code = main(["counterexample", "--mode", "both",
                     "--truncations", "1000,10000", "--n-list", "4,16",
                     "--out", str(tmp_path), "--tag", "ce"])
        assert code == 0
        payload = read_json(tmp_path / "ce.json")
        sums = payload["divergence"]["summary"]["divergent_sums"]
        assert sums[1] > sums[0]
        assert (tmp_path / "ce-divergence.csv").exists()
        assert (tmp_path / "ce-translation.csv").exists()

    def test_counterexample_failing_input_makes_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        code = main(["counterexample", "--truncations", "0", "--n-list", "4",
                     "--out", str(out)])
        assert code == 1
        assert "truncations" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_sums_tie_goes_to_the_first_grid_point(self, tmp_path, capsys):
        # wdiff_xi at anchor 0 is even in a, so a = -25 and a = 25 tie exactly
        code = main(["scan-sums", "--variant", "wdiff_xi", "--truncations", "64,256",
                     "--a-min", "-25", "--a-max", "25", "--a-step", "50",
                     "--anchor-min", "0", "--anchor-max", "0",
                     "--out", str(tmp_path), "--tag", "tie"])
        assert code == 0
        summary = read_json(tmp_path / "tie.json")["wdiff_xi"]["summary"]
        assert summary["argmax_by_truncation"] == {"64": [-25.0, 0], "256": [-25.0, 0]}

    def test_ratio_scan_byte_identical_reports(self, tmp_path):
        argsets = []
        for tag in ("r1", "r2"):
            code = main(["ratio-scan", "--kind", "cubic", "--samples", "6",
                         "--cutoff", "6", "--steps", "32", "--seed", "99",
                         "--out", str(tmp_path), "--tag", tag])
            assert code == 0
            argsets.append(((tmp_path / f"{tag}.csv").read_bytes(),
                            (tmp_path / f"{tag}.json").read_bytes()))
        csv1, json1 = argsets[0]
        csv2, json2 = argsets[1]
        assert csv1 == csv2
        # JSON embeds the tag itself; compare after stripping it
        assert json1.replace(b"r1", b"rX") == json2.replace(b"r2", b"rX")

    @pytest.mark.parametrize("argv,named", [
        (["scan-sums", "--a-step", "0"], "--a-step"),
        (["scan-sums", "--a-step", "-5"], "--a-step"),
        (["scan-sums", "--anchor-step", "-1"], "--anchor-step"),
        (["ratio-scan", "--steps", "0", "--samples", "2"], "steps"),
        (["ratio-scan", "--steps", "1", "--samples", "2"], "steps must be >= 2"),
        (["ratio-scan", "--N", "-1", "--samples", "2"], "cutoff must be >= 0"),
        (["counterexample", "--mode", "translation", "--n-list", "0,4"], "n_list"),
        (["counterexample", "--mode", "translation", "--amplitude", "nan"], "amplitude"),
        (["counterexample", "--mode", "translation", "--s", "nan"], "s must be finite"),
        (["ratio-scan", "--samples", "0"], "samples"),
        (["ratio-scan", "--kind", "strichartz", "--samples", "0"], "samples"),
        (["ratio-scan", "--kind", "quintic", "--samples", "-3"], "samples"),
        (["ratio-scan", "--kind", "endpoint", "--truncations", "0,10"], "truncations"),
        (["ratio-scan", "--kind", "endpoint", "--truncations", "1,10"], "truncations"),
        (["counterexample", "--mode", "divergence", "--truncations", "0,10"], "truncations"),
        (["scan-sums", "--epsilon", "nan", "--truncations", "4"], "eps"),
        (["scan-sums", "--epsilon", "inf", "--truncations", "4"], "eps"),
        (["counterexample", "--mode", "divergence", "--truncations", "10,100",
          "--log-shift", "-1"], "log_shift"),
        (["counterexample", "--mode", "divergence", "--truncations", "10,100",
          "--log-shift", "nan"], "log_shift"),
        (["solve", "--N", "8", "--amplitude", "nan"], "l2_norm"),
        (["solve", "--N", "8", "--amplitude", "inf"], "l2_norm"),
        (["solve", "--N", "8", "--amplitude", "-0.2"], "l2_norm"),
        (["solve", "--N", "8", "--active-band", "-1"], "active_cutoff"),
        # a flag the run does not read
        (["counterexample", "--mode", "divergence", "--truncations", "10,100", "--n-list", "2,4",
          "--amplitude", "2", "--s", "0.3", "--r", "1.5"],
         "counterexample --mode divergence does not read --n-list, --amplitude, --s, --r"),
        (["counterexample", "--mode", "translation", "--n-list", "2,4", "--truncations", "10,100",
          "--log-shift", "1"],
         "counterexample --mode translation does not read --truncations, --log-shift"),
        (["solve", "--N", "8", "--plane-wave", "A=1,n=1", "--seed", "3", "--amplitude", "0.2",
          "--active-band", "4"],
         "solve --plane-wave does not read --seed, --amplitude, --active-band"),
        (["solve", "--N", "8", "--datum", "missing.csv", "--amplitude", "0.2"],
         "solve --datum does not read --amplitude"),
    ], ids=["a-step-zero", "a-step-negative", "anchor-step-negative", "steps-zero", "steps-one",
            "cutoff-negative", "n-zero",
            "translation-amplitude-nan", "translation-s-nan",
            "cubic-samples-zero", "strichartz-samples-zero", "quintic-samples-negative",
            "endpoint-truncation-zero", "endpoint-truncation-one", "divergence-truncation-zero",
            "epsilon-nan", "epsilon-inf", "log-shift-negative", "log-shift-nan",
            "amplitude-nan", "amplitude-inf", "amplitude-negative", "active-band-negative",
            "divergence-translation-flags", "translation-divergence-flags",
            "plane-wave-random-datum-flags", "datum-amplitude"])
    def test_degenerate_grid_exit_code(self, tmp_path, capsys, argv, named):
        code = main(argv + ["--out", str(tmp_path), "--tag", "nope"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("argv,named", [
        (["--kind", "endpoint", "--samples", "3", "--N", "4", "--steps", "16"],
         "--samples, --cutoff, --steps"),
        (["--kind", "cubic", "--b", "0.4"], "--b"),
        (["--kind", "strichartz", "--r", "1.5"], "--r"),
        (["--kind", "quintic", "--s", "0.3"], "--s"),
        (["--kind", "endpoint", "--q", "1.5"], "--q"),
        (["--kind", "cubic", "--truncations", "10,100"], "--truncations"),
    ], ids=["endpoint-grid", "cubic-b", "strichartz-r", "quintic-s", "endpoint-q",
            "cubic-truncations"])
    def test_a_flag_the_kind_does_not_read_exits_1(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        code = main(["ratio-scan", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ratio-scan --kind ") and named in err
        assert not out.exists()

    def test_a_config_value_the_kind_does_not_read_exits_1(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"s": 0.3}')
        out = tmp_path / "out"
        code = main(["ratio-scan", "--kind", "cubic", "--samples", "2", "--config", str(config),
                     "--out", str(out)])
        assert code == 1
        assert "does not read --s" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sum_grid_exit_code(self, tmp_path, capsys):
        code = main(["scan-sums", "--a-min", "10", "--a-max", "-10", "--truncations", "8",
                     "--out", str(tmp_path), "--tag", "nope"])
        assert code == 1
        assert "a_values=[]" in capsys.readouterr().err

    def test_report_embeds_provenance(self, tmp_path):
        main(["ratio-scan", "--kind", "cubic", "--samples", "4", "--cutoff", "6",
              "--steps", "32", "--seed", "7", "--out", str(tmp_path), "--tag", "p"])
        payload = read_json(tmp_path / "p.json")
        assert payload["version"] == lab.__version__
        assert payload["config"]["seed"] == 7
        assert payload["report"]["seed"] == 7


class TestVerifyCommand:
    def test_verify_passes_on_clean_build(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), "--tag", "v"])
        captured = capsys.readouterr()
        assert code == 0
        last = json.loads(captured.out.strip().splitlines()[-1])
        assert last["all_passed"] is True
        payload = read_json(tmp_path / "v.json")
        assert all(check["passed"] for check in payload["checks"])

    def test_full_battery_passes(self):
        from dnlslab.verify import run_battery

        results = run_battery()
        assert all(check["passed"] for check in results)
        assert "near-diagonal bound to 1000000" in [check["name"] for check in results]

    def test_verify_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from dnlslab import verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "run_battery",
            lambda: [{"name": "forced", "passed": False,
                                "witness": 1.0, "detail": ""}],
        )
        code = main(["verify", "--out", str(tmp_path), "--tag", "vf"])
        capsys.readouterr()
        assert code == 2


# blocks every scipy import in the child, as in an install without the test extra
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from dnlslab.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    traj = str(tmp_path / "s.traj.csv")
    tiny_scan = ["--samples", "1", "--N", "2", "--steps", "8"]
    commands = [
        ["solve", "--N", "4", "--M", "8", "--tag", "s"],
        ["gauge", "--input", traj],
        ["norms", "--input", traj, "--z", "--tag", "n"],
        ["divisors", "--max", "1000", "--tag", "d"],
        ["scan-sums", "--truncations", "8", "--a-min", "0", "--a-max", "0",
         "--anchor-min", "0", "--anchor-max", "0", "--tag", "ss"],
        ["counterexample", "--truncations", "10,100", "--n-list", "2,4", "--tag", "c"],
        ["ratio-scan", "--kind", "cubic", *tiny_scan, "--tag", "rc"],
        ["ratio-scan", "--kind", "strichartz", *tiny_scan, "--tag", "rs"],
        ["ratio-scan", "--kind", "quintic", *tiny_scan, "--tag", "rq"],
        ["ratio-scan", "--kind", "endpoint", "--truncations", "10,100", "--tag", "re"],
        ["verify", "--tag", "v"],
    ]
    argvs = json.dumps([[*c, "--out", str(tmp_path)] for c in commands])
    env = {**os.environ, "PYTHONPATH": str(Path(lab.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, argvs], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0] * len(commands), run.stderr


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


def finite_coeffs(shape):
    """Complex arrays whose parts are any finite floats: signed zeros, subnormals, extremes."""
    parts = hnp.arrays(np.float64, shape, elements=FINITE)
    return st.tuples(parts, parts).map(lambda re_im: _complex(*re_im))


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFileRoundTripProperty:
    @SETTINGS
    @given(st.integers(0, 4).flatmap(lambda n: finite_coeffs((2 * n + 1,))))
    @example(_complex(np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, -0.0])))
    def test_field_round_trip_is_bit_exact(self, tmp_path, coeffs):
        lab.save_field(tmp_path / "f.csv", coeffs)
        back = lab.load_field(tmp_path / "f.csv")
        assert back.shape == coeffs.shape
        assert back.tobytes() == coeffs.tobytes()

    @SETTINGS
    @given(st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
               lambda ms: finite_coeffs((ms[0] + 1, 2 * ms[1] + 1))),
           POSITIVE)
    @example(_complex(np.array([[-0.0], [5e-324]]), np.array([[-0.0], [-1.7976931348623157e308]])),
             5e-324)
    @example(_complex(np.zeros((2, 1)), np.zeros((2, 1))), 1.7976931348623157e308)
    def test_trajectory_round_trip_is_bit_exact(self, tmp_path, coeffs, window):
        traj = lab.Trajectory(coeffs, window)
        lab.save_trajectory(tmp_path / "t.csv", traj)
        back = lab.load_trajectory(tmp_path / "t.csv")
        assert back.coeffs.tobytes() == traj.coeffs.tobytes()
        assert back.window == traj.window


def test_field_file_bytes(tmp_path):
    coeffs = _complex(np.array([0.0, 1.5, -0.0, 0.25, 0.0]),
                      np.array([0.0, -2.0, -0.0, 0.0, 1e-300]))
    lab.save_field(tmp_path / "f.csv", coeffs)
    assert (tmp_path / "f.csv").read_bytes() == (
        b'{"cutoff":2,"kind":"field","version":"0.1.0"}\n'
        b"xi,re,im\n-2,0.0,0.0\n-1,1.5,-2.0\n0,-0.0,-0.0\n1,0.25,0.0\n2,0.0,1e-300\n")


def _replace_line(lineno, text):
    return lambda lines: lines[: lineno - 1] + [text] + lines[lineno:]


def _edit_header(old, new):
    return lambda lines: [lines[0].replace(old, new)] + lines[1:]


def _profile(text):
    return _edit_header('"cutoff_profile":null', f'"cutoff_profile":{text}')


# (file kind, edit of the saved file's lines, expected error); the trajectory
# has cutoff 1 and steps 1, so its rows are lines 3-8, and the field's 3-5
MALFORMED_FILES = {
    "xi-outside-cutoff": ("trajectory", _replace_line(3, "0,-2,5.0,0.0"), r":3: index outside"),
    "k-outside-steps": ("trajectory", _replace_line(8, "2,1,0.0,0.0"), r":8: index outside"),
    "trajectory-nan": ("trajectory", _replace_line(4, "0,0,nan,0.0"), r":4: non-finite"),
    "trajectory-duplicate": ("trajectory", lambda ls: ls[:6] + ls[5:6] + ls[7:],
                             r":7: duplicate"),
    "trajectory-missing-row": ("trajectory", lambda ls: ls[:-1],
                               r"missing 1 of 6 rows, the first at k,xi=1,1"),
    "steps-above-body": ("trajectory", _edit_header('"steps":1', '"steps":2'),
                         r"missing 3 of 9 rows, the first at k,xi=2,-1"),
    "field-nan": ("field", _replace_line(4, "0,nan,0.0"), r":4: non-finite"),
    "field-duplicate": ("field", lambda ls: ls[:4] + ls[2:3], r":5: duplicate"),
    # body cells are ASCII decimal numbers only, though float() also reads 1_0 and
    # full-width digits
    "field-underscore": ("field", _replace_line(4, "0,1_0,0.0"), r":4: cannot parse"),
    "field-non-ascii-digit": ("field", _replace_line(4, "0,\uff11.5,0.0"), r":4: cannot parse"),
    "trajectory-comment-row": ("trajectory", lambda ls: ls[:5] + ["# comment"] + ls[5:],
                               r":6: cannot parse"),
    "trajectory-blank-line": ("trajectory", lambda ls: ls[:4] + [""] + ls[4:],
                              r":5: cannot parse ''"),
    "window-nan": ("trajectory", _edit_header('"window":2.0', '"window":NaN'),
                   r":1: bad header.*window must be finite and positive, got nan"),
    "window-infinity": ("trajectory", _edit_header('"window":2.0', '"window":Infinity'),
                        r":1: bad header.*window must be finite and positive, got inf"),
    # header numbers are taken as they are written, never coerced
    "cutoff-float": ("trajectory", _edit_header('"cutoff":1', '"cutoff":1.7'),
                     r":1: bad grid in header.*cutoff must be a JSON integer, got 1.7"),
    "cutoff-string": ("trajectory", _edit_header('"cutoff":1', '"cutoff":"1"'),
                      r":1: bad grid in header.*cutoff must be a JSON integer, got '1'"),
    "field-cutoff-whole-float": ("field", _edit_header('"cutoff":1', '"cutoff":1.0'),
                                 r":1: bad grid in header.*cutoff must be a JSON integer"),
    "steps-float": ("trajectory", _edit_header('"steps":1', '"steps":1.9'),
                    r":1: bad grid in header.*steps must be a JSON integer, got 1.9"),
    "steps-bool": ("trajectory", _edit_header('"steps":1', '"steps":true'),
                   r":1: bad grid in header.*steps must be a JSON integer, got True"),
    "window-bool": ("trajectory", _edit_header('"window":2.0', '"window":true'),
                    r":1: bad header.*window must be a JSON number, got True"),
    "window-string": ("trajectory", _edit_header('"window":2.0', '"window":"2.0"'),
                      r":1: bad header.*window must be a JSON number, got '2.0'"),
    # the cutoff is the bump at half the window; a profile may restate it, nothing more
    "profile-missing": ("trajectory", _edit_header('"cutoff_profile":null,', ""),
                        r":1: bad header.*KeyError\('cutoff_profile'\)"),
    "profile-other-scale": ("trajectory", _profile('{"kind":"bump","scale":2.0}'),
                            r":1: bad header.*must be null or the bump at half the window"),
    "profile-scale-nan": ("trajectory", _profile('{"kind":"bump","scale":NaN}'),
                          r":1: bad header.*must be null or the bump at half the window"),
    "profile-scale-bool": ("trajectory", _profile('{"kind":"bump","scale":true}'),
                           r":1: bad header.*must be null or the bump at half the window"),
    # windowed() returns a matrix, so no trajectory carries an already-applied profile
    "profile-kind-applied": ("trajectory", _profile('{"kind":"applied","scale":1.0}'),
                             r":1: bad header.*must be null or the bump at half the window"),
}


@pytest.mark.parametrize("kind,edit,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_file_rejected(tmp_path, capsys, kind, edit, message):
    path = tmp_path / "bad.csv"
    rng = np.random.default_rng(0)
    if kind == "trajectory":
        lab.save_trajectory(path, lab.random_trajectory(1, rng, steps=1))
        load = lab.load_trajectory
    else:
        lab.save_field(path, lab.random_field(1, rng))
        load = lab.load_field
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        load(path)
    code = main(["norms", "--input", str(path), "--b", "0.5", "--out", str(tmp_path)])
    assert code == 1
    assert "bad.csv" in capsys.readouterr().err
