"""Command-line front end: one experiment per invocation, reports to disk.

Exit codes: 0 success, 1 invalid configuration, 2 verification failure,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
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
)
from .fields import cutoff_of, mass_mean, plane_wave, random_field
from .gauge import gauge, gauge_field, gauge_field_inv, gauge_inv, translation_gap_probe
from .norms import INF, NormSpec, data_norms, xst_norm, z_specs
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
    out = args.out or os.environ.get("DNLSLAB_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config(args, parser) -> dict:
    """The --config file's values, each naming a flag of the chosen subcommand."""
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    for key in data:
        if key in ("command", "func", "config") or not hasattr(args, key):
            parser.error(f"unknown config key {key!r}")
    return data


def _write_report(args, **sections) -> Path:
    """Write <tag>.json with the run's flags, the version and the given
    sections, and return the output directory."""
    out = _out_dir(args)
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    write_json(out / f"{args.tag}.json", {"config": cfg, "version": __version__, **sections})
    return out


# the flags that only some runs of a command read, with their declared defaults
SOLVE_RANDOM_DATUM_DEFAULTS = {"seed": 7, "amplitude": 0.1, "active_band": 8}
GAUGE_FIELD_DEFAULTS = {"time": 0.0}
NORMS_XST_DEFAULTS = {"p": "2"}
COUNTEREXAMPLE_DEFAULTS = {
    "divergence": {"truncations": "1000,10000,100000,1000000", "log_shift": 0.0},
    "translation": {"n_list": "4,16,64,256", "amplitude": 1.0, "s": 0.5, "r": 2.0},
}

# the kind-specific ratio-scan flags with their defaults, and the ones each kind reads
RATIO_SCAN_DEFAULTS = {"q": 2.0, "r": 2.0, "s": 0.2, "b": 0.45, "samples": 100, "cutoff": 8,
                       "steps": 64, "truncations": "100,1000,10000"}
RATIO_SCAN_FLAGS = {
    "cubic": ("q", "r", "samples", "cutoff", "steps"),
    "strichartz": ("s", "b", "samples", "cutoff", "steps"),
    "quintic": ("q", "r", "b", "samples", "cutoff", "steps"),
    "endpoint": ("truncations",),
}


def _reject_unread(args, run: str, defaults: dict, read=()) -> None:
    """Raise a ValueError naming every flag in defaults but those in read whose value
    differs from its declared default (not the parser's, which a --config file changes):
    the run would silently ignore it."""
    unread = [f"--{flag.replace('_', '-')}" for flag, default in defaults.items()
              if flag not in read and getattr(args, flag) != default]
    if unread:
        raise ValueError(f"{run} does not read {', '.join(unread)}")


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
    _reject_unread(args, f"solve {given}", SOLVE_RANDOM_DATUM_DEFAULTS)
    if args.plane_wave is not None:
        amp, n = args.plane_wave
        return plane_wave(args.cutoff, n, amp)
    return load_field(args.datum)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = SolveConfig(
        cutoff=args.cutoff,
        horizon=args.horizon,
        steps=args.steps,
        equation=Equation(args.equation),
        max_iter=args.max_iter,
        tol=args.tol,
        cross_check=args.cross_check,
    )
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
    _reject_unread(args, "gauge", {"tag": "report"})  # --output names its one file
    if file_kind(args.input) == "field":
        f = load_field(args.input)
        mass = float(mass_mean(f))
        if math.isfinite(mass) and not math.isfinite(2.0 * args.time * mass * cutoff_of(f)):
            raise ValueError(f"--time {args.time} makes the translation phase "
                             "2*t*mean(|u|^2)*N of this field non-finite")
        g = (gauge_field_inv if args.inverse else gauge_field)(f, args.time)
        save = save_field
    else:
        _reject_unread(args, "gauge of a trajectory", GAUGE_FIELD_DEFAULTS)
        traj = load_trajectory(args.input)
        g = gauge_inv(traj) if args.inverse else gauge(traj)
        save = save_trajectory
    out = _out_dir(args)
    save(out / args.output, g)
    print(canonical_json({"written": str(out / args.output)}))
    return EXIT_OK


def cmd_norms(args) -> int:
    if args.b is None:
        _reject_unread(args, "norms without --b", NORMS_XST_DEFAULTS)
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
        specs = [] if args.b is None else [
            NormSpec(args.s, args.r, args.b, INF if args.p == "inf" else float(args.p))]
        if args.z:
            specs += z_specs(args.s, args.r)
        norms = xst_norm(traj.windowed(), traj.window, specs)  # one transform for them all
        if args.b is not None:
            result["xst_norm"] = norms[0]
        if args.z:
            result["z_norm"] = max(norms[-2:])
    _write_report(args, norms=result)
    print(canonical_json(result))
    return EXIT_OK


def cmd_divisors(args) -> int:
    report = near_diagonal_scan(args.max)
    out = _write_report(args, report=report)
    if args.refined:
        hist = report.summary["count_histogram"]
        rows = [(k, hist[k]) for k in sorted(hist)]
        write_csv(out / f"{args.tag}.csv", ["refined_count", "occurrences"], rows)
    print(canonical_json({"max_refined_count": report.summary["max_count"],
                          "argmax": report.summary["argmax"]}))
    return EXIT_OK


def cmd_scan_sums(args) -> int:
    if not args.a_step > 0:
        raise ValueError(f"--a-step must be positive, got {args.a_step}")
    if args.anchor_step < 1:
        raise ValueError(f"--anchor-step must be positive, got {args.anchor_step}")
    a_values = list(np.arange(args.a_min, args.a_max + 1e-12, args.a_step))
    anchors = list(range(args.anchor_min, args.anchor_max + 1, args.anchor_step))
    truncations = [int(t) for t in args.truncations.split(",")]
    reports = {v: resonance_sum_scan(v, args.epsilon, a_values, anchors, truncations)
               for v in (SUM_VARIANTS if args.variant == "all" else [args.variant])}
    out = _write_report(args, **reports)
    sups = {v: report.summary["sup_by_truncation"] for v, report in reports.items()}
    rows = [(v, k, sup[k]) for v, sup in sups.items() for k in sorted(sup)]
    write_csv(out / f"{args.tag}.csv", ["variant", "truncation", "sup"], rows)
    print(canonical_json(sups))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    for mode, defaults in COUNTEREXAMPLE_DEFAULTS.items():
        if args.mode not in (mode, "both"):
            _reject_unread(args, f"counterexample --mode {args.mode}", defaults)
    sections, tables = {}, {}
    if args.mode in ("divergence", "both"):
        truncs = tuple(int(t) for t in args.truncations.split(","))
        div = divergence_report(truncs, log_shift=args.log_shift)
        sections["divergence"] = div
        tables["divergence"] = (["truncation", "divergent_sum", "factor_norm"], list(zip(
            div.summary["truncations"], div.summary["divergent_sums"],
            div.summary["factor_norms"])))
    if args.mode in ("translation", "both"):
        n_list = [int(n) for n in args.n_list.split(",")]
        probe = translation_gap_probe(args.amplitude, args.s, args.r, n_list)
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
    _reject_unread(args, f"ratio-scan --kind {args.kind}", RATIO_SCAN_DEFAULTS,
                   RATIO_SCAN_FLAGS[args.kind])
    if args.kind == "cubic":
        report = cubic_ratio_scan(args.q, args.r, args.samples, args.cutoff,
                                  args.seed, steps=args.steps)
    elif args.kind == "strichartz":
        report = strichartz_ratio_scan(args.s, args.b, args.samples, args.cutoff,
                                       args.seed, steps=args.steps)
    elif args.kind == "quintic":
        report = quintic_ratio_scan(args.q, args.r, args.b, args.samples, args.cutoff,
                                    args.seed, steps=args.steps)
    else:
        truncs = tuple(int(t) for t in args.truncations.split(","))
        report = endpoint_injection_report(truncs, seed=args.seed)
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

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default: $DNLSLAB_OUT or .)")
        p.add_argument("--config", default=None, help="JSON file supplying defaults for any flag")
        p.add_argument("--tag", default="report", help="basename for emitted files")

    p = sub.add_parser("solve", help="run the fixed-point solver")
    common(p)
    p.add_argument("--equation", choices=[e.value for e in Equation], default="dnls")
    p.add_argument("--plane-wave", type=_parse_plane_wave, default=None, metavar="A=1,n=1")
    p.add_argument("--datum", default=None, help="field file to use as initial datum")
    p.add_argument("--seed", type=int, help="seed for a random datum")
    p.add_argument("--amplitude", type=float, help="L2 size of a random datum")
    p.add_argument("--active-band", type=int, help="active band of a random datum")
    p.add_argument("--cutoff", "-N", "--N", type=int, default=32)
    p.add_argument("--horizon", "-T", "--T", type=float, default=0.1)
    p.add_argument("--steps", "-M", "--M", type=int, default=200)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--via-gauge", action="store_true",
                   help="gauge the datum, solve the transformed equation, ungauge")
    p.add_argument("--cross-check", action="store_true",
                   help="also integrate with the Runge-Kutta stepper and report the gap")
    p.set_defaults(func=cmd_solve, **SOLVE_RANDOM_DATUM_DEFAULTS)

    p = sub.add_parser("gauge", help="apply the gauge map or its inverse to a file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="gauged.csv")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--time", type=float, help="evaluation time for a single field")
    p.set_defaults(func=cmd_gauge, **GAUGE_FIELD_DEFAULTS)

    p = sub.add_parser("norms", help="evaluate norms of a field or trajectory file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--p", help="temporal exponent, a number or 'inf'; read with --b")
    p.add_argument("--z", action="store_true", help="also report the intersection norm")
    p.set_defaults(func=cmd_norms, **NORMS_XST_DEFAULTS)

    p = sub.add_parser("divisors", help="near-diagonal divisor-pair scan")
    common(p)
    p.add_argument("--max", type=int, default=10**6)
    p.add_argument("--refined", action="store_true", help="emit the count histogram CSV")
    p.set_defaults(func=cmd_divisors)

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
    p.set_defaults(func=cmd_scan_sums)

    p = sub.add_parser("counterexample", help="divergence sums and the translation gap probe")
    common(p)
    p.add_argument("--mode", choices=["divergence", "translation", "both"], default="both")
    p.add_argument("--truncations")
    p.add_argument("--log-shift", type=float)
    p.add_argument("--n-list")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--r", type=float)
    p.set_defaults(func=cmd_counterexample, **COUNTEREXAMPLE_DEFAULTS["divergence"],
                   **COUNTEREXAMPLE_DEFAULTS["translation"])

    p = sub.add_parser("ratio-scan", help="estimate-ratio evidence scans")
    common(p)
    p.add_argument("--kind", choices=["cubic", "strichartz", "quintic", "endpoint"],
                   default="cubic")
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--cutoff", "-N", "--N", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--truncations")
    p.set_defaults(func=cmd_ratio_scan, **RATIO_SCAN_DEFAULTS)

    p = sub.add_parser("verify", help="run the property-test battery")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults, so explicit flags win
            commands[args.command].set_defaults(**_read_config(args, parser))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved here
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
