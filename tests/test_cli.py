"""Command-line harness: subcommands, exit codes, file formats, determinism."""
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dnlslab as lab
from dnlslab import cli
from dnlslab.cli import build_parser, main
from dnlslab.fields import ROOT_TWO_PI
from dnlslab.gauge import translation_probe_pair
from dnlslab.reports import canonical_json
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

    def test_plane_wave_spec_without_a_frequency_exit_code(self, tmp_path, capsys):
        # argparse rejects the spec, so the usage line comes before the message
        code = main(["solve", "--plane-wave", "A=1", "--out", str(tmp_path)])
        assert code == 1
        assert "plane wave spec must look like A=1.0,n=1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    # a config value is used as given, not parsed, so it must have its flag's type
    @pytest.mark.parametrize("text,named", [
        ('{"no_such_key": 1}', "no_such_key"), ('{"func": 1}', "func"),
        ("[1, 2]", "JSON object"), ("{", "cannot read config file"),
        ('{"steps": [40]}', "'steps' must be an integer"),
        ('{"cutoff": 8.0}', "'cutoff' must be an integer"),
        ('{"max_iter": 3.0}', "'max_iter' must be an integer"),
        ('{"steps": 40.0}', "'steps' must be an integer"),
        ('{"steps": true}', "'steps' must be an integer"),
        ('{"seed": null}', "'seed' is null"),
        ('{"horizon": "0.1"}', "'horizon' must be a number"),
        ('{"tol": false}', "'tol' must be a number"),
        ('{"via_gauge": 1}', "'via_gauge' must be true or false"),
        ('{"plane_wave": "A=1,n=1"}', "'plane_wave' must be a pair [A, n]"),
        ('{"plane_wave": [1.0, 1.0]}', "'plane_wave' must be a pair [A, n]"),
        ('{"datum": 5}', "'datum' must be a string"),
        ('{"equation": "kdv"}', "'equation' must be one of free, dnls,"),
    ], ids=["unknown-key", "reserved-key", "not-an-object", "bad-json", "int-as-list",
            "int-as-float", "max-iter-as-float", "whole-float-for-int", "bool-for-int", "null",
            "float-as-string", "bool-for-float", "int-for-switch", "plane-wave-as-string",
            "plane-wave-float-frequency", "path-as-number", "not-a-choice"])
    def test_bad_config_exit_code(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path), "--tag", "nope"])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "nope.json").exists()


class TestSharedParser:
    """main parses every call, --config or not, with one parser, built on the first call."""

    PLAIN = ["solve", "--plane-wave", "A=1,n=1", "--cutoff", "4", "--T", "0.02"]
    CONFIG = {"steps": 12, "max_iter": 50, "tol": 1e-8}
    DEFAULTS = {"steps": 200, "max_iter": 100, "tol": 1e-10}

    def _config_of(self, tmp_path, tag, config=None):
        argv = [*self.PLAIN, "--out", str(tmp_path), "--tag", tag]
        if config is not None:
            cfg = tmp_path / f"{tag}-cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        return read_json(tmp_path / f"{tag}.json")["config"]

    @pytest.mark.parametrize("first", ["config", "plain"])
    def test_each_call_sees_only_its_own_config(self, tmp_path, capsys, first):
        for tag in (first, {"config": "plain", "plain": "config"}[first]):
            config = self._config_of(tmp_path, tag, self.CONFIG if tag == "config" else None)
            expected = self.CONFIG if tag == "config" else self.DEFAULTS
            assert {key: config[key] for key in expected} == expected

    @pytest.mark.parametrize("between,code", [
        (["solve", "--steps", "ten"], 1), (["solve", "--help"], 0), (["--version"], 0)],
        ids=["usage-error", "help", "version"])
    def test_an_early_exit_leaves_the_next_call_alone(self, tmp_path, capsys, between, code):
        before = self._config_of(tmp_path, "r")
        assert main(between) == code
        assert self._config_of(tmp_path, "r") == before

    def test_plain_calls_build_the_parser_once(self, tmp_path, capsys, monkeypatch):
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._shared_parser.cache_clear()
        for tag in ("a", "b", "c"):
            self._config_of(tmp_path, tag)
        assert len(builds) == 1
        # a --config call fills its own namespace on the same parser and leaves its defaults
        self._config_of(tmp_path, "d", self.CONFIG)
        self._config_of(tmp_path, "e")
        assert len(builds) == 1
        solve = cli._shared_parser()[1]["solve"]
        assert {key: solve.get_default(key) for key in self.DEFAULTS} == self.DEFAULTS

    def test_a_replaced_handler_runs_on_the_next_call(self, tmp_path, capsys, monkeypatch):
        # main looks the handler up by the subcommand's name at each call, so a
        # parser built before the handler was replaced still reaches the new one
        assert main(["divisors", "--max", "100", "--out", str(tmp_path)]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_divisors", lambda args: calls.append(args.max) or 0)
        assert main(["divisors", "--max", "200", "--out", str(tmp_path)]) == 0
        assert calls == [200]


# every table of flag names in cli, with the subcommand whose flags it names
FLAG_TABLES = {
    "solve-config": ("solve", tuple(f.name for f in dataclasses.fields(lab.SolveConfig))),
    "solve-random-datum": ("solve", cli.SOLVE_RANDOM_DATUM_FLAGS),
    "gauge-field": ("gauge", cli.GAUGE_FIELD_FLAGS),
    "norms-xst": ("norms", cli.NORMS_XST_FLAGS),
    **{f"counterexample-{mode}": ("counterexample", flags)
       for mode, flags in cli.COUNTEREXAMPLE_FLAGS.items()},
    "ratio-scan-kinds": ("ratio-scan", cli.RATIO_SCAN_KIND_FLAGS),
    **{f"ratio-scan-{kind}": ("ratio-scan", flags) for kind, flags in cli.RATIO_SCAN_FLAGS.items()},
}


class TestFlagTables:
    """The handlers look flags up by these names, so a misspelled one would be a traceback."""

    @pytest.mark.parametrize("command,flags", FLAG_TABLES.values(), ids=FLAG_TABLES)
    def test_each_name_is_a_flag_with_a_declared_default(self, command, flags):
        parser = build_parser()[1][command]
        dests = {action.dest for action in parser._actions}
        assert set(flags) <= dests
        assert all(parser.get_default(flag) is not None for flag in flags)

    def test_the_kind_flags_are_the_flags_of_every_kind(self):
        read = {flag for flags in cli.RATIO_SCAN_FLAGS.values() for flag in flags}
        assert set(cli.RATIO_SCAN_KIND_FLAGS) == read

    @pytest.mark.parametrize("kind", ["cubic", "strichartz", "quintic"])
    def test_a_kind_passes_its_flags_and_seed_as_its_scan_parameters(self, kind):
        scan = getattr(cli, f"{kind}_ratio_scan")
        assert set(inspect.signature(scan).parameters) == {*cli.RATIO_SCAN_FLAGS[kind], "seed"}


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
        assert capsys.readouterr().err == (f"error: t = {float(time)} makes the translation "
                                           "phase 2*t*mean(|u|^2)*N of a sample non-finite\n")
        assert not (tmp_path / "g.csv").exists()

    def test_gauge_at_a_large_finite_time_succeeds(self, tmp_path):
        lab.save_field(tmp_path / "f.csv", lab.random_field(4, np.random.default_rng(3)))
        assert main(["gauge", "--input", str(tmp_path / "f.csv"), "--output", "g.csv",
                     "--time", "1e20", "--out", str(tmp_path)]) == 0
        assert np.isfinite(lab.load_field(tmp_path / "g.csv")).all()

    def test_norms_that_overflow_exit_1_and_write_nothing(self, tmp_path, capsys):
        # |coefficient|**2 overflows; RuntimeWarnings are errors in this suite, so none may escape
        lab.save_field(tmp_path / "f.csv", lab.plane_wave(4, 1, 1e200))
        out = tmp_path / "fresh"
        code = main(["norms", "--input", str(tmp_path / "f.csv"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: h_norm overflows at these parameters: s=0.5, r=2.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        # <4>**-10 keeps the l^1 norm finite, but |coefficient|**2 overflows
        (["--s", "-10", "--r", "50"], "l2_norm overflows at these parameters: s=-10.0, r=50.0"),
        (["--b", "0.5"], "xst_norm overflows at these parameters: s=0.5, r=2.0, b=0.5, p=2"),
        (["--z"], "z_norm overflows at these parameters: s=0.5, r=2.0"),
    ], ids=["l2", "xst", "z"])
    def test_each_norm_that_overflows_is_named_without_a_warning(self, tmp_path, capsys,
                                                                 flags, named):
        traj = lab.random_trajectory(4, np.random.default_rng(1), window=0.5, steps=8)
        if "--s" in flags:
            lab.save_field(tmp_path / "in.csv", lab.plane_wave(4, 4, 1e200))
        else:
            lab.save_trajectory(tmp_path / "in.csv", lab.Trajectory(1e200 * traj.coeffs, 0.5))
        out = tmp_path / "fresh"
        code = main(["norms", "--input", str(tmp_path / "in.csv"), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_a_non_finite_float_in_a_list_is_named_by_its_key(self):
        with pytest.raises(ValueError, match=r"^a\.b is not finite"):
            canonical_json({"a": {"b": [1.0, math.inf]}})

    def test_counterexample_that_overflows_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        # the probe's masses are taken under np.errstate, so numpy warns of no overflow
        code = main(["counterexample", "--mode", "translation", "--amplitude", "1e200",
                     "--out", str(out)])
        assert code == 1
        assert ("amplitude 1e+200 with s 0.5 makes the mass mean(|u|^2) of the probe at n=4 "
                "non-finite" in capsys.readouterr().err)
        assert not out.exists()

    # |coefficient|**2 = 2*pi*amplitude**2 overflows from about 5.4e153 on, amplitude**2 not
    @pytest.mark.parametrize("amplitude", ["1e154", "7e153"])
    def test_counterexample_whose_probe_mass_overflows_near_the_limit_exits_1(
            self, tmp_path, capsys, amplitude):
        out = tmp_path / "fresh"
        code = main(["counterexample", "--mode", "translation", "--amplitude", amplitude,
                     "--s", "0", "--out", str(out)])
        assert code == 1
        assert (f"amplitude {float(amplitude)} with s 0.0 makes the mass mean(|u|^2) of the "
                "probe at n=4 non-finite" in capsys.readouterr().err)
        assert not out.exists()

    def test_counterexample_at_a_large_amplitude_keeps_the_gauge_gap_finite(self, tmp_path):
        # the mass primitive's samples carry round-off that grows with the mass: an
        # imaginary part of it in the phase would scale the twist off the unit circle.
        # 1e7 is the largest power of ten the probe accepts (from 1e8 its two inputs
        # have the same mass); the gauge map itself still takes the probe pair at 1e10
        code = main(["counterexample", "--mode", "translation", "--amplitude", "1e7",
                     "--out", str(tmp_path), "--tag", "big"])
        assert code == 0
        gaps = read_json(tmp_path / "big.json")["translation"]["summary"]["gauge_gap"]
        tgrid, spec = np.linspace(-1.0, 1.0, 201), lab.NormSpec(s=0.5, r=2.0)
        for n in (4, 16, 64, 256):
            with_constant, wave_only = translation_probe_pair(1e10, 0.5, n)
            gap = lab.gauge_field(with_constant, tgrid) - lab.gauge_field(wave_only, tgrid)
            gaps.append(float(np.max(lab.data_norms(gap, spec))))
        assert len(gaps) == 8 and all(math.isfinite(gap) for gap in gaps)

    # 64.0**100 squares to inf; 256.0**200 raises OverflowError
    @pytest.mark.parametrize("s,n_list,n", [("-100", "4,16,64,256", 64), ("-200", "256", 256)])
    def test_counterexample_whose_probe_mass_overflows_by_s_exits_1(self, tmp_path, capsys,
                                                                    s, n_list, n):
        code = main(["counterexample", "--mode", "translation", "--s", s, "--n-list", n_list,
                     "--out", str(tmp_path / "fresh")])
        assert code == 1
        assert (f"with s {float(s)} makes the mass mean(|u|^2) of the probe at n={n} non-finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "fresh").exists()

    def test_gauge_trajectory_file(self, tmp_path):
        traj = lab.plane_wave_solution(8, 1, 1.0, 0.05, 8)
        lab.save_trajectory(tmp_path / "t.csv", traj)
        assert main(["gauge", "--input", str(tmp_path / "t.csv"), "--output", "gt.csv",
                     "--out", str(tmp_path)]) == 0
        gauged = lab.load_trajectory(tmp_path / "gt.csv")
        want = lab.gauge_field(traj.coeffs, traj.times)
        assert np.max(np.linalg.norm(gauged.coeffs - want, axis=-1)) <= 1e-12

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

    def test_norms_of_a_zero_coefficient_under_an_overflowing_weight(self, tmp_path, capsys):
        # <1>**2100 overflows, but it weights a zero coefficient, which adds 0
        lab.save_field(tmp_path / "f.csv", np.array([0.0, 1.0, 0.0], dtype=complex))
        code = main(["norms", "--input", str(tmp_path / "f.csv"), "--s", "2100",
                     "--out", str(tmp_path), "--tag", "n"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert read_json(tmp_path / "n.json")["norms"]["h_norm"] == 1.0

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
        rows = (tmp_path / "sums.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["64", "128"]  # numeric order

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

    def test_scan_sums_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a BLAS dot product splits the bins of K = 256 and 512 across threads,
        # which moved both sups in their last bits between one and two threads
        argv = ["scan-sums", "--variant", "wdiff_xi", "--a-min", "-64", "--a-max", "26",
                "--a-step", "45", "--anchor-min", "18", "--anchor-max", "30",
                "--anchor-step", "6", "--truncations", "256,512", "--out", "o", "--tag", "s"]
        src = str(Path(lab.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from dnlslab.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append((run.stdout, (cwd / "o" / "s.json").read_bytes(),
                            (cwd / "o" / "s.csv").read_bytes()))
        assert outputs[0] == outputs[1]

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
        (["counterexample", "--mode", "translation", "--amplitude", "1e8"],
         "amplitude 100000000.0 with s 0.5 puts the probe's constant n**-0.5 below the "
         "round-off of its wave at n=4"),
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
        (["solve", "--N", "8", "--M", "41"], "steps must be even"),
        (["solve", "--N", "8", "--M", "2"], "steps must be even and >= 4, got 2"),
        (["solve", "--N", "8", "--via-gauge", "--equation", "shifted-nls"],
         "the gauge pipeline solves the raw derivative equation"),
        (["divisors", "--max", "0"], "limit must be >= 1, got 0"),
        (["ratio-scan", "--kind", "quintic", "--q", "1.2", "--samples", "2"], "4/3 < q"),
        (["ratio-scan", "--kind", "quintic", "--b", "0.3", "--samples", "2"], "b > 1/6"),
        # an array of 8e15 bytes: beyond the address space, so it fails at once
        (["scan-sums", "--a-min", "0", "--a-max", "1e15", "--a-step", "1", "--truncations", "4"],
         "Unable to allocate"),
        # above 2**53 the float frequency grid is no longer exact; below, it runs
        # in constant memory
        (["counterexample", "--mode", "divergence", "--truncations", "10,9007199254740993"],
         "truncations entry must be <= 9007199254740992, got 9007199254740993"),
        # 2*(|anchor| + K)**2 + 1 bins: more bytes than an array index can reach
        (["scan-sums", "--variant", "wdiff_xi", "--truncations", "4",
          "--anchor-min", "4000000000000000000", "--anchor-max", "4000000000000000000"],
         "anchor 4000000000000000000 at truncation 4 is too large for an array index"),
        (["scan-sums", "--a-min", "nan"], "--a-min must be finite, got nan"),
        (["scan-sums", "--a-max", "inf"], "--a-max must be finite, got inf"),
        (["scan-sums", "--a-step", "inf"], "--a-step must be finite and positive, got inf"),
        (["scan-sums", "--a-min", "1e308", "--a-max", "1e308", "--a-step", "1e308"],
         "--a-min + --a-step must be finite, got inf"),
        # <a>**2 overflows from |a| = 1.34e154; the sums would silently read 0
        (["scan-sums", "--a-min", "1e160", "--a-max", "1e160", "--a-step", "1",
          "--truncations", "4", "--variant", "wdiff_xi"],
         "a must be finite with |a| <= 2**511, got 1e+160"),
        # the span of the reversed grid overflows to -inf
        (["scan-sums", "--a-min", "1e300", "--a-max=-1e300", "--a-step", "1e-300"],
         "empty (a, anchor) grid: a_values=[]"),
        # the point count of the forward grid overflows to inf
        (["scan-sums", "--a-min=-1e300", "--a-max", "1e300", "--a-step", "1e-300"],
         "the a grid from --a-min -1e+300 to --a-max 1e+300 by --a-step 1e-300 has inf points"),
        # <xi>**130 overflows at the probe's high frequencies, where it has nonzero gaps
        (["counterexample", "--mode", "translation", "--s", "130"],
         "s must keep every weighted coefficient <xi>**s |c| finite, got 130.0"),
        # a repeated or decreasing list would report a grid it did not compute
        (["scan-sums", "--truncations", "8,4,8"],
         "truncations must be non-empty and strictly increasing, got [8, 4, 8]"),
        (["scan-sums", "--truncations", "16,8"],
         "truncations must be non-empty and strictly increasing, got [16, 8]"),
    ], ids=["a-step-zero", "a-step-negative", "anchor-step-negative", "steps-zero", "steps-one",
            "cutoff-negative", "n-zero",
            "translation-amplitude-nan", "translation-s-nan", "translation-amplitude-round-off",
            "cubic-samples-zero", "strichartz-samples-zero", "quintic-samples-negative",
            "endpoint-truncation-zero", "endpoint-truncation-one", "divergence-truncation-zero",
            "epsilon-nan", "epsilon-inf", "log-shift-negative", "log-shift-nan",
            "amplitude-nan", "amplitude-inf", "amplitude-negative", "active-band-negative",
            "divergence-translation-flags", "translation-divergence-flags",
            "plane-wave-random-datum-flags", "datum-amplitude", "steps-odd", "steps-two",
            "via-gauge-shifted-nls", "divisors-max-zero", "quintic-q-low", "quintic-b-low",
            "a-grid-beyond-memory", "divergence-truncation-above-2-53", "anchor-beyond-an-index",
            "a-min-nan", "a-max-inf", "a-step-inf", "a-step-overflows", "a-beyond-2-511",
            "reversed-a-span-overflows", "forward-a-count-overflows",
            "translation-weight-overflows", "sum-truncations-repeated",
            "sum-truncations-decreasing"])
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

    @pytest.mark.parametrize("argv,flag,text", [
        (["scan-sums", "--truncations", "16,"], "--truncations", "16,"),
        (["counterexample", "--mode", "divergence", "--truncations", "1000,x"],
         "--truncations", "1000,x"),
        (["counterexample", "--mode", "translation", "--n-list", "4,1.5"], "--n-list", "4,1.5"),
        (["ratio-scan", "--kind", "endpoint", "--truncations", "10,,100"],
         "--truncations", "10,,100"),
    ], ids=["scan-sums", "counterexample-truncations", "counterexample-n-list", "endpoint"])
    def test_a_bad_integer_list_names_its_flag(self, tmp_path, capsys, argv, flag, text):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} must be comma-separated integers, got {text!r}\n")
        assert not out.exists()

    def test_a_ratio_scan_whose_norms_overflow_exits_1(self, tmp_path, capsys):
        # the right-hand side overflows to inf, which would make every ratio 0;
        # RuntimeWarnings are errors in this suite, so none may escape
        out = tmp_path / "out"
        argv = ["ratio-scan", "--kind", "strichartz", "--cutoff", "16", "--samples", "3"]
        assert main([*argv, "--s", "150", "--out", str(out)]) == 1
        assert "the right-hand side of sample group 0 is inf" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--s", "100", "--out", str(out)]) == 0
        assert read_json(out / "report.json")["report"]["summary"]["samples_used"] == 3

    def test_a_config_value_the_kind_does_not_read_exits_1(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"s": 0.3}')
        out = tmp_path / "out"
        code = main(["ratio-scan", "--kind", "cubic", "--samples", "2", "--config", str(config),
                     "--out", str(out)])
        assert code == 1
        assert "does not read --s" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,a_values", [
        (["--a-min", "0", "--a-max", "30000", "--a-step", "10000"],
         [0.0, 10000.0, 20000.0, 30000.0]),
        (["--a-min", "0", "--a-max", "0.3", "--a-step", "0.1"],
         [0.0, 0.1, 0.2, 0.30000000000000004]),
        (["--a-min", "1e150", "--a-max", "1e150", "--a-step", "1"], [1e150]),
    ], ids=["a-max-beyond-2-14", "a-max-below-the-last-point", "a-step-below-the-resolution"])
    def test_sum_grid_ends_at_a_max(self, tmp_path, grid, a_values):
        # an absolute slack of 1e-12 on a_max is lost to round-off from |a_max| = 2**14
        code = main(["scan-sums", "--variant", "wdiff_xi", "--truncations", "4",
                     "--anchor-min", "0", "--anchor-max", "0", *grid,
                     "--out", str(tmp_path), "--tag", "g"])
        assert code == 0
        assert read_json(tmp_path / "g.json")["wdiff_xi"]["grid"]["a_values"] == a_values

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


class TestDeterminism:
    """Same argv and relative --out, run from two directories: the same bytes."""

    @staticmethod
    def write_inputs():
        rng = np.random.default_rng(41)
        lab.save_field(Path("f.csv"), lab.random_field(8, rng, active_cutoff=4, l2_norm=0.5))
        lab.save_trajectory(Path("t.csv"), lab.random_trajectory(8, rng, window=0.05, steps=8))

    @pytest.mark.parametrize("argv", [
        ["solve", "--N", "8", "--M", "40", "--T", "0.05"],
        ["solve", "--N", "8", "--M", "40", "--T", "0.05", "--via-gauge", "--cross-check"],
        ["solve", "--N", "8", "--M", "40", "--T", "0.05", "--equation", "gauged",
         "--plane-wave", "A=1,n=1"],
        ["gauge", "--input", "f.csv", "--output", "g.csv", "--time", "0.3"],
        ["gauge", "--input", "t.csv", "--output", "gt.csv", "--inverse"],
        ["norms", "--input", "f.csv"],
        ["norms", "--input", "t.csv", "--b", "0.5", "--z"],
        ["divisors", "--max", "1000", "--refined"],
        ["scan-sums", "--truncations", "8,16"],
        ["counterexample", "--truncations", "10,100"],
        ["ratio-scan", "--kind", "cubic", "--samples", "4", "--steps", "16"],
        ["ratio-scan", "--kind", "strichartz", "--samples", "4", "--steps", "16"],
        ["ratio-scan", "--kind", "quintic", "--samples", "4", "--steps", "16"],
        ["ratio-scan", "--kind", "endpoint", "--truncations", "10,100"],
        ["verify"],
    ], ids=["solve", "solve-via-gauge", "solve-gauged-plane-wave", "gauge-field",
            "gauge-trajectory", "norms-field", "norms-trajectory", "divisors", "scan-sums",
            "counterexample", "ratio-scan-cubic", "ratio-scan-strichartz", "ratio-scan-quintic",
            "ratio-scan-endpoint", "verify"])
    def test_every_subcommand_writes_the_same_bytes_twice(self, tmp_path, monkeypatch, capsys,
                                                          argv):
        runs = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            self.write_inputs()
            assert main(argv + ["--out", "o"]) == 0
            out = Path("o")
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            runs.append((capsys.readouterr().out, files))
        assert runs[0][1]  # the run wrote its files
        assert runs[0] == runs[1]


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


def test_non_finite_field_is_not_written(tmp_path):
    coeffs = lab.plane_wave(2, 1)
    coeffs[0] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="refusing to write non-finite coefficients"):
        lab.save_field(tmp_path / "f.csv", coeffs)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("shape", [(0,), (4,), (3, 5)], ids=["empty", "even", "2d"])
def test_field_that_the_loader_would_reject_is_not_written(tmp_path, shape):
    # the loaders read one index column per axis and 2*cutoff + 1 rows per band
    path = tmp_path / "new" / "f.csv"
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} as xi,re,im rows"):
        lab.save_field(path, np.ones(shape, complex))
    assert not path.parent.exists()


def _replace_line(lineno, text):
    return lambda lines: lines[: lineno - 1] + [text] + lines[lineno:]


def _edit_header(old, new):
    return lambda lines: [lines[0].replace(old, new)] + lines[1:]


def _profile(text):
    return _edit_header('"cutoff_profile":null', f'"cutoff_profile":{text}')


# (file kind, edit of the saved file's lines, expected error); the trajectory
# has cutoff 1 and steps 1, so its rows are lines 3-8, and the field's 3-5
MALFORMED_FILES = {
    "xi-outside-cutoff": ("trajectory", _replace_line(3, "0,-2,5.0,0.0"), r":3: not the k,xi due"),
    "k-outside-steps": ("trajectory", _replace_line(8, "2,1,0.0,0.0"), r":8: not the k,xi due"),
    "trajectory-nan": ("trajectory", _replace_line(4, "0,0,nan,0.0"), r":4: non-finite"),
    "trajectory-duplicate": ("trajectory", lambda ls: ls[:6] + ls[5:6] + ls[7:],
                             r":7: not the k,xi due"),
    "trajectory-missing-row": ("trajectory", lambda ls: ls[:-1],
                               r"missing 1 of 6 rows, the first at k,xi=1,1"),
    "steps-above-body": ("trajectory", _edit_header('"steps":1', '"steps":2'),
                         r"missing 3 of 9 rows, the first at k,xi=2,-1"),
    "field-nan": ("field", _replace_line(4, "0,nan,0.0"), r":4: non-finite"),
    "field-duplicate": ("field", lambda ls: ls[:4] + ls[2:3], r":5: not the xi due"),
    # row i holds grid point i in the writers' order, so a complete body out of order fails
    "trajectory-rows-swapped": ("trajectory", lambda ls: ls[:3] + [ls[4], ls[3]] + ls[5:],
                                r":4: not the k,xi due"),
    "trajectory-extra-row": ("trajectory", lambda ls: ls + ["2,0,0.0,0.0"],
                             r":9: row beyond the header's grid"),
    # a grid wider than an array index names its file, not numpy's dimension limit
    "cutoff-beyond-an-index": ("field",
                               _edit_header('"cutoff":1', '"cutoff":1000000000000000000000000000000'),
                               r":1: bad grid in header \(2000000000000000000000000000001 points"),
    # the header's grid is never allocated before the body covers it
    "steps-far-above-body": ("trajectory", _edit_header('"steps":1', '"steps":1000000000000000'),
                             r"missing 2999999999999997 of 3000000000000003 rows, "
                             r"the first at k,xi=2,-1"),
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
    "cutoff-negative": ("field", _edit_header('"cutoff":1', '"cutoff":-1'),
                        r":1: header needs cutoff >= 0 and steps >= 1"),
    "steps-zero": ("trajectory", _edit_header('"steps":1', '"steps":0'),
                   r":1: header needs cutoff >= 0 and steps >= 1"),
    "column-line": ("trajectory", _replace_line(2, "xi,re,im"),
                    r":2: expected the column line 'k,xi,re,im'"),
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
