"""Command-line front end: one experiment per invocation, reports to disk.

Exit codes: 0 success, 1 invalid configuration, 2 verification failure,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .estimates import (
    SUM_VARIANTS,
    cubic_ratio_scan,
    divergence_report,
    endpoint_injection_report,
    near_diagonal_scan,
    quintic_ratio_scan,
    resonance_sum_scan,
    strichartz_ratio_scan,
    translation_gap_probe,
)
from .fields import _check_count, _check_positive, plane_wave, random_field
from .gauge import gauge_field, gauge_field_inv
from .norms import NormSpec, data_norms, xst_norm, z_specs
from .reports import (
    __version__,
    canonical_json,
    file_kind,
    load_field,
    load_trajectory,
    save_field,
    save_trajectory,
    write_csv,
    write_json,
)
from .solver import Equation, SolveConfig, picard_solve, solve_via_gauge

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_NO_CONVERGENCE = 3


def _out_dir(args) -> Path:
    """The output directory; the writers make it with their first file."""
    return Path(args.out or os.environ.get("DNLSLAB_OUT", "."))


def _config_type_error(action: argparse.Action, value) -> str | None:
    """What is wrong with a --config value for this flag, or None.  The value is
    used as given, not parsed, so it must already have the flag's type, or be
    null for a flag whose default is None."""
    if value is None:
        return None if action.default is None else "is null"
    if action.nargs == 0:  # a switch
        ok, kind = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, kind = type(value) is int, "an integer"
    elif action.type is float:
        ok, kind = type(value) in (int, float), "a number"
    elif action.type is _parse_plane_wave:
        ok = (isinstance(value, list) and len(value) == 2
              and type(value[0]) in (int, float) and type(value[1]) is int)
        kind = "a pair [A, n] of a number and an integer"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        return f"must be {kind}"
    if action.choices is not None and value not in action.choices:
        return f"must be one of {', '.join(action.choices)}"
    return None


def _read_config(args, parser, command) -> dict:
    """The --config file's values, each naming a flag of the chosen subcommand
    and holding a value of that flag's type; a report's config block, whose
    command names the subcommand, is one such file."""
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    given = data.pop("command", args.command)
    if given != args.command:
        parser.error(f"config key 'command' must be {json.dumps(args.command)}, "
                     f"got {json.dumps(given)}")
    actions = {action.dest: action for action in command._actions}
    for key, value in data.items():
        if key == "config" or not hasattr(args, key):
            parser.error(f"unknown config key {key!r}")
        problem = _config_type_error(actions[key], value)
        if problem:
            parser.error(f"config key {key!r} {problem}, got {json.dumps(value)}")
    return data


def _write_report(args, **sections) -> Path:
    """Write <tag>.json with the run's flags but --out, a config that replays it into
    any --out, the version and the given sections; return the output directory."""
    out = _out_dir(args)
    cfg = {k: v for k, v in vars(args).items() if k not in ("config", "out")}
    write_json(out / f"{args.tag}.json", {"config": cfg, "version": __version__, **sections})
    return out


# the flags that only some runs of a command read
SOLVE_RANDOM_DATUM_FLAGS = ("seed", "amplitude", "active_band")
GAUGE_FIELD_FLAGS = ("time",)
NORMS_XST_FLAGS = ("p",)
COUNTEREXAMPLE_FLAGS = {"divergence": ("truncations",),
                        "translation": ("n_list", "amplitude", "s", "r")}

# the ratio-scan flags each kind reads, and those of any kind; each flag is named
# after its parameter of the kind's scan function, so the table makes the call
RATIO_SCAN_FLAGS = {
    "cubic": ("q", "r", "samples", "cutoff", "steps"),
    "strichartz": ("s", "b", "samples", "cutoff", "steps"),
    "quintic": ("q", "r", "b", "samples", "cutoff", "steps"),
    "endpoint": ("truncations",),
}
RATIO_SCAN_KIND_FLAGS = {flag for flags in RATIO_SCAN_FLAGS.values() for flag in flags}


def _reject_unread(args, run: str, flags, read=()) -> None:
    """Raise a ValueError naming, in the subcommand's order, each flag in flags, not in
    read, whose value differs from its declared default: the run would ignore it."""
    command = _shared_parser()[1][args.command]
    unread = [f"--{a.dest.replace('_', '-')}" for a in command._actions
              if a.dest in flags and a.dest not in read and getattr(args, a.dest) != a.default]
    if unread:
        raise ValueError(f"{run} does not read {', '.join(unread)}")


def _int_list(args, flag: str) -> list[int]:
    """The integers of a comma-separated list flag; args keeps the text, as given."""
    text = getattr(args, flag)
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"--{flag.replace('_', '-')} must be comma-separated integers, "
                         f"got {text!r}") from None


def _exponent(text: str) -> float:
    """--p as a number; args keeps its text, as given, and float('inf') is math.inf."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--p must be a number or 'inf', got {text!r}") from None


def _parse_plane_wave(text: str) -> tuple[float, int]:
    try:
        parts = dict(item.split("=") for item in text.split(","))
        return float(parts["A"]), int(parts["n"])
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            "plane wave spec must look like A=1.0,n=1"
        ) from exc


def _datum_from_args(args) -> np.ndarray:
    """The initial datum; the solver resizes a loaded field to --cutoff."""
    if args.plane_wave is not None and args.datum is not None:
        raise ValueError("--plane-wave and --datum both name the initial datum; give one")
    if args.plane_wave is None and args.datum is None:
        rng = np.random.default_rng(args.seed)
        return random_field(
            args.cutoff, rng, active_cutoff=args.active_band, l2_norm=args.amplitude
        )
    given = "--plane-wave" if args.plane_wave is not None else "--datum"
    _reject_unread(args, f"solve {given}", SOLVE_RANDOM_DATUM_FLAGS)
    if args.plane_wave is not None:
        amp, n = args.plane_wave
        return plane_wave(args.cutoff, n, amp)
    return load_field(args.datum)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    # each solver setting has a flag of its name, so the table makes the call
    cfg = SolveConfig(**{f.name: getattr(args, f.name) for f in fields(SolveConfig)})
    datum = _datum_from_args(args)
    if args.via_gauge:
        report = solve_via_gauge(datum, cfg)
    else:
        report = picard_solve(datum, cfg)
    out = _write_report(args, report=report)
    save_trajectory(out / f"{args.tag}.traj.csv", report.trajectory)
    summary = report.to_json_dict()
    print(canonical_json({k: summary[k] for k in ("converged", "iterations", "residual",
                                                  "mass_drift")}))
    if not report.converged:
        print("solver did not converge; halving the time horizon usually helps",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_gauge(args) -> int:
    if args.input is None:  # required, but argparse would not take it from --config
        raise ValueError("--input is required")
    gauge_map = gauge_field_inv if args.inverse else gauge_field
    if file_kind(args.input) == "field":
        g = gauge_map(load_field(args.input), args.time)
        save = save_field
    else:
        _reject_unread(args, "gauge of a trajectory", GAUGE_FIELD_FLAGS)
        traj = load_trajectory(args.input)
        g = replace(traj, coeffs=gauge_map(traj.coeffs, traj.times))
        save = save_trajectory
    out = _out_dir(args)
    save(out / args.output, g)
    print(canonical_json({"written": str(out / args.output)}))
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")  # a norm that overflows is rejected by name
def cmd_norms(args) -> int:
    if args.input is None:  # required, but argparse would not take it from --config
        raise ValueError("--input is required")
    if args.b is None:
        _reject_unread(args, "norms without --b", NORMS_XST_FLAGS)
    result: dict = {}
    if file_kind(args.input) == "field":
        f = load_field(args.input)
        if args.b is not None or args.z:
            raise ValueError("--b/--z measure a trajectory, but the input is a field")
        result["h_norm"] = float(data_norms(f, NormSpec(s=args.s, r=args.r)))
        result["l2_norm"] = float(np.linalg.norm(f))
    else:
        traj = load_trajectory(args.input)
        if args.b is None and not args.z:
            raise ValueError("trajectory input needs --b/--p or --z")
        specs = [] if args.b is None else [NormSpec(args.s, args.r, args.b, _exponent(args.p))]
        if args.z:
            specs += z_specs(args.s, args.r)
        norms = xst_norm(traj.windowed(), traj.window, specs)  # one transform for them all
        if args.b is not None:
            result["xst_norm"] = norms[0]
        if args.z:
            result["z_norm"] = max(norms[-2:])
    for key, value in result.items():
        if not math.isfinite(value):
            params = f"s={args.s}, r={args.r}"
            if args.b is not None:
                params += f", b={args.b}, p={args.p}"
            raise ValueError(f"{key} overflows at these parameters: {params}")
    _write_report(args, norms=result)
    print(canonical_json(result))
    return EXIT_OK


def cmd_divisors(args) -> int:
    report = near_diagonal_scan(args.max)
    out = _write_report(args, report=report)
    if args.refined:
        hist = report.summary["count_histogram"]
        rows = [(k, hist[k]) for k in sorted(hist, key=int)]
        write_csv(out / f"{args.tag}.csv", ["refined_count", "occurrences"], rows)
    print(canonical_json({"max_refined_count": report.summary["max_count"],
                          "argmax": report.summary["argmax"]}))
    return EXIT_OK


def cmd_scan_sums(args) -> int:
    _check_positive("--a-step", args.a_step)
    for flag, value in (("--a-min", args.a_min), ("--a-max", args.a_max),
                        ("--a-min + --a-step", args.a_min + args.a_step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    _check_count("--anchor-step", args.anchor_step, 1)
    # np.arange's grid a_min + i*((a_min + a_step) - a_min) up to a_max.  The count's
    # slack is relative to the grid's magnitude, so round-off never drops a_max, and
    # below half a step, so a step finer than the floats near a_max adds no point.
    # A reversed grid has no point, even where its span overflows to -inf
    span = (args.a_max - args.a_min) / args.a_step
    slack = min(0.5, 1e-12 * max(abs(args.a_min), abs(args.a_max)) / args.a_step)
    delta = (args.a_min + args.a_step) - args.a_min
    count = max(0.0, np.floor(span + slack) + 1)
    if not count < np.iinfo(np.intp).max:
        raise ValueError(f"the a grid from --a-min {args.a_min} to --a-max {args.a_max} by "
                         f"--a-step {args.a_step} has {count} points, more than an array "
                         f"index can reach")
    a_values = (args.a_min + delta * np.arange(count)).tolist()
    anchors = range(args.anchor_min, args.anchor_max + 1, args.anchor_step)
    truncations = _int_list(args, "truncations")
    reports = {v: resonance_sum_scan(v, args.epsilon, a_values, anchors, truncations)
               for v in (SUM_VARIANTS if args.variant == "all" else [args.variant])}
    out = _write_report(args, **reports)
    sups = {v: report.summary["sup_by_truncation"] for v, report in reports.items()}
    rows = [(v, k, value) for v, sup in sups.items() for k, value in sup.items()]
    write_csv(out / f"{args.tag}.csv", ["variant", "truncation", "sup"], rows)
    print(canonical_json(sups))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    for mode, flags in COUNTEREXAMPLE_FLAGS.items():
        if args.mode not in (mode, "both"):
            _reject_unread(args, f"counterexample --mode {args.mode}", flags)
    sections, tables = {}, {}
    if args.mode in ("divergence", "both"):
        div = divergence_report(_int_list(args, "truncations"))
        sections["divergence"] = div
        tables["divergence"] = (["truncation", "divergent_sum", "factor_norm"], list(zip(
            div.summary["truncations"], div.summary["divergent_sums"],
            div.summary["factor_norms"])))
    if args.mode in ("translation", "both"):
        probe = translation_gap_probe(args.amplitude, args.s, args.r, _int_list(args, "n_list"))
        sections["translation"] = probe
        tables["translation"] = (["n", "input_gap", "output_gap", "gauge_gap"], list(zip(
            probe.summary["n"], probe.summary["input_gap"],
            probe.summary["output_gap"], probe.summary["gauge_gap"])))
    out = _write_report(args, **sections)
    for name, (header, rows) in tables.items():
        write_csv(out / f"{args.tag}-{name}.csv", header, rows)
    print(canonical_json({k: True for k in sections}))
    return EXIT_OK


def cmd_ratio_scan(args) -> int:
    flags = RATIO_SCAN_FLAGS[args.kind]
    _reject_unread(args, f"ratio-scan --kind {args.kind}", RATIO_SCAN_KIND_FLAGS, flags)
    if args.kind == "endpoint":
        report = endpoint_injection_report(_int_list(args, "truncations"), seed=args.seed)
    else:
        scan = {"cubic": cubic_ratio_scan, "strichartz": strichartz_ratio_scan,
                "quintic": quintic_ratio_scan}[args.kind]  # built per call: a patched scan runs
        report = scan(**{flag: getattr(args, flag) for flag in flags}, seed=args.seed)
    out = _write_report(args, report=report)
    write_csv(out / f"{args.tag}.csv", ["index", "value"],
              list(enumerate(report.values)))
    print(canonical_json(report.summary))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run_battery()
    _write_report(args, checks=results)
    ok = True
    for check in results:
        print(canonical_json(check))
        ok = ok and check["passed"]
    print(canonical_json({"all_passed": ok, "checks": len(results)}))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="dnlslab",
        description="Spectral laboratory for a gauged derivative Schroedinger equation on the torus.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, report=True):
        p.add_argument("--out", default=None, help="output directory (default: $DNLSLAB_OUT or .)")
        p.add_argument("--config", default=None, help="JSON file supplying defaults for any flag")
        if report:
            p.add_argument("--tag", default="report", help="basename for emitted files")

    p = sub.add_parser("solve", help="run the fixed-point solver")
    common(p)
    p.add_argument("--equation", choices=[e.value for e in Equation], default="dnls")
    p.add_argument("--plane-wave", type=_parse_plane_wave, default=None, metavar="A=1,n=1")
    p.add_argument("--datum", default=None, help="field file to use as initial datum")
    p.add_argument("--seed", type=int, default=7, help="seed for a random datum")
    p.add_argument("--amplitude", type=float, default=0.1, help="L2 size of a random datum")
    p.add_argument("--active-band", type=int, default=8, help="active band of a random datum")
    p.add_argument("--cutoff", "-N", "--N", type=int, default=32)
    p.add_argument("--horizon", "-T", "--T", type=float, default=0.1)
    p.add_argument("--steps", "-M", "--M", type=int, default=200)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--via-gauge", action="store_true",
                   help="gauge the datum, solve the transformed equation, ungauge")
    p.add_argument("--cross-check", action="store_true",
                   help="also integrate with the Runge-Kutta stepper and report the gap")

    p = sub.add_parser("gauge", help="apply the gauge map or its inverse to a file")
    common(p, report=False)  # --output names its one file
    p.add_argument("--input", default=None, help="field or trajectory file")
    p.add_argument("--output", default="gauged.csv")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--time", type=float, default=0.0, help="evaluation time for a single field")

    p = sub.add_parser("norms", help="evaluate norms of a field or trajectory file")
    common(p)
    p.add_argument("--input", default=None, help="field or trajectory file")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--p", default="2", help="temporal exponent, a number or 'inf'; read with --b")
    p.add_argument("--z", action="store_true", help="also report the intersection norm")

    p = sub.add_parser("divisors", help="near-diagonal divisor-pair scan")
    common(p)
    p.add_argument("--max", type=int, default=10**6)
    p.add_argument("--refined", action="store_true", help="emit the count histogram CSV")

    p = sub.add_parser("scan-sums", help="resonance-weighted lattice sum scans")
    common(p)
    p.add_argument("--variant", choices=list(SUM_VARIANTS) + ["all"], default="all")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--truncations", default="256,512")
    p.add_argument("--a-min", type=float, default=-100.0)
    p.add_argument("--a-max", type=float, default=100.0)
    p.add_argument("--a-step", type=float, default=25.0)
    p.add_argument("--anchor-min", type=int, default=-50)
    p.add_argument("--anchor-max", type=int, default=50)
    p.add_argument("--anchor-step", type=int, default=10)

    p = sub.add_parser("counterexample", help="divergence sums and the translation gap probe")
    common(p)
    p.add_argument("--mode", choices=["divergence", "translation", "both"], default="both")
    p.add_argument("--truncations", default="1000,10000,100000,1000000")
    p.add_argument("--n-list", default="4,16,64,256")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0)

    p = sub.add_parser("ratio-scan", help="estimate-ratio evidence scans")
    common(p)
    p.add_argument("--kind", choices=list(RATIO_SCAN_FLAGS), default="cubic")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=0.2)
    p.add_argument("--b", type=float, default=0.45)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--cutoff", "-N", "--N", type=int, default=8)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--truncations", default="100,1000,10000")

    p = sub.add_parser("verify", help="run the property-test battery")
    common(p)

    return parser, sub.choices


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of every call, built on the first call: parsing leaves it as it
    was, so no call sees another's values."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser, commands = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values fill the namespace and argparse defaults only what it lacks,
            # so explicit flags win; the subcommand's own parser keeps that namespace
            command = commands[args.command]
            config = _read_config(args, parser, command)
            args = command.parse_args((sys.argv[1:] if argv is None else argv)[1:],
                                      argparse.Namespace(command=args.command, **config))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved here
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    try:
        # the handler is looked up at each call, so a replaced cmd_* is the one that runs
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
