"""The benchmark's three workloads: seeded request lists, set-up files and output checks.

A request is the argument list of one ``dnlslab`` command.  Each run repeats
its workload's request list in whole cycles; the list is drawn only from the
benchmark seed.  Every request carries a check that reads what the command
printed and wrote, against an oracle computed here where one is cheap, so an
optimisation of the package cannot share the oracle by accident.

Why these workloads:

- ``solve``: time to solution of the raw and mean-shifted equations at a
  small and a large band, and of the gauge pipeline (which solves the gauged
  equation) at the small band.  The fields, nonlinear, solver and gauge
  layers do the work; norms and estimates none.
- ``evidence``: estimate-ratio scans, which walk trajectories sample by
  sample, beside space-time norms of trajectory files read from disk.  Norms,
  the restricted operators and the per-sample trajectory paths do the work;
  solver and gauge none.
- ``lattice``: resonance lattice sums, the near-diagonal divisor scan and the
  endpoint divergence sums, on large integer and float arrays.  Estimates does
  the work; solver, gauge and norms none.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("solve", "evidence", "lattice")

# check(out_dir, tag, stdout) returns None when the output is correct, else the reason
Check = Callable[[Path, str, str], "str | None"]


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Check


def _report(out: Path, tag: str) -> dict:
    return json.loads((out / f"{tag}.json").read_text())


def _read_trajectory(path: Path) -> np.ndarray:
    """Coefficient matrix of a trajectory file, parsed without the package."""
    header = json.loads(path.read_text().split("\n", 1)[0])
    cutoff, steps = header["cutoff"], header["steps"]
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    mat = np.full((steps + 1, 2 * cutoff + 1), np.nan, dtype=complex)
    k, xi = rows[:, 0].astype(int), rows[:, 1].astype(int)
    mat[k, xi + cutoff] = rows[:, 2] + 1j * rows[:, 3]
    return mat


def _write_trajectory(path: Path, coeffs: np.ndarray, window: float) -> None:
    """A trajectory file in the documented header + CSV format, with a bump profile."""
    steps, width = coeffs.shape[0] - 1, coeffs.shape[1]
    cutoff = (width - 1) // 2
    head = {"cutoff": cutoff, "cutoff_profile": {"kind": "bump", "scale": window / 2.0},
            "kind": "trajectory", "steps": steps, "version": "0.1.0", "window": window}
    lines = [json.dumps(head, sort_keys=True, separators=(",", ":")), "k,xi,re,im"]
    for k in range(steps + 1):
        for j in range(width):
            c = coeffs[k, j]
            lines.append(f"{k},{j - cutoff},{float(c.real)!r},{float(c.imag)!r}")
    path.write_text("\n".join(lines) + "\n")


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_GRID = ("--M", "200", "--T", "0.05")
# (equation, N, amplitudes); "dnls+gauge" is dnls solved through the gauge,
# which runs the gauged solve inside it.  The Picard iteration count steps up
# with the amplitude, so the amplitudes are fixed: drawn ones would let the
# seed move the work.  The mix keeps a cycle near 10 s, so that a run of
# three cycles fits the run time, and puts the median and the pinned tail
# rank inside the six N=128 raw and shifted solves, whose amplitudes keep
# their costs close, rather than at the edge of a class.
SOLVE_MIX = (
    ("dnls", 32, ("0.1", "0.3")),
    ("shifted-nls", 32, ("0.1", "0.3")),
    ("dnls", 128, ("0.1", "0.15", "0.2")),
    ("shifted-nls", 128, ("0.1", "0.15", "0.2")),
    ("dnls+gauge", 32, ("0.2",)),
)
PLANE_WAVE = (1.0, 1)  # A, n
PLANE_WAVE_TOL = 1e-7


def _check_converged(out: Path, tag: str, stdout: str) -> str | None:
    if not _report(out, tag)["report"]["converged"]:
        return "report says the solver did not converge"
    return None


def _check_plane_wave(out: Path, tag: str, stdout: str) -> str | None:
    """The saved trajectory against the exact solution A*exp(i*(n*x + theta*t))."""
    problem = _check_converged(out, tag, stdout)
    if problem:
        return problem
    report = _report(out, tag)["report"]
    mat = _read_trajectory(out / f"{tag}.traj.csv")
    amp, n = PLANE_WAVE
    cutoff, steps, window = report["cutoff"], report["steps"], report["window"]
    times = -window + (2.0 * window / steps) * np.arange(steps + 1)
    exact = np.zeros_like(mat)
    exact[:, n + cutoff] = math.sqrt(2.0 * math.pi) * amp * np.exp(1j * (n * amp**2 - n**2) * times)
    err = float(np.max(np.linalg.norm(mat - exact, axis=1)))
    if not err <= PLANE_WAVE_TOL:
        return f"plane wave off the exact solution by {err:.3g}"
    return None


def solve_requests(rng: random.Random, inputs: Path) -> list[Request]:
    """Every equation at both bands, at the fixed amplitudes of SOLVE_MIX, on seeded data."""
    requests = []
    for equation, cutoff, amplitudes in SOLVE_MIX:
        for amplitude in amplitudes:
            argv = ["solve", "--equation", equation.removesuffix("+gauge"), "--N", str(cutoff),
                    *SOLVE_GRID, "--amplitude", amplitude, "--seed", str(rng.randrange(2**31))]
            if equation.endswith("+gauge"):
                argv.append("--via-gauge")
            requests.append(Request(tuple(argv), _check_converged))
    amp, n = PLANE_WAVE
    requests.append(Request(("solve", "--equation", "dnls", "--plane-wave", f"A={amp},n={n}",
                             "--N", "32", *SOLVE_GRID), _check_plane_wave))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------

RATIO_SAMPLES = (10, 20)
# (cutoff, copy); with the twelve scans a cycle has an odd number of requests,
# so the median rank falls inside a request class, not between two of them
NORM_FILES = ((32, 0), (128, 0), (128, 1))
NORM_STEPS = 128
NORM_WINDOW = 1.0


def _check_ratio_scan(samples: int) -> Check:
    def check(out: Path, tag: str, stdout: str) -> str | None:
        report = _report(out, tag)["report"]
        if report["summary"]["samples_used"] != samples:
            return f"samples_used {report['summary']['samples_used']} != {samples}"
        if len(report["values"]) != samples or not _finite_positive(report["values"]):
            return "a ratio is missing, not finite or not positive"
        return None
    return check


def _check_norms(out: Path, tag: str, stdout: str) -> str | None:
    result = json.loads(stdout.strip().splitlines()[-1])
    xst, z = result["xst_norm"], result["z_norm"]
    if not _finite_positive([xst, z]):
        return "a norm is not finite and positive"
    if not z >= xst:
        return f"z_norm {z!r} below the (1/2, 2) norm {xst!r}"
    return None


def _norm_input(inputs: Path, cutoff: int, copy: int) -> Path:
    return inputs / f"traj-N{cutoff}-{copy}.csv"


def write_evidence_inputs(seed: int, inputs: Path) -> None:
    """Smooth random trajectories with a <xi>**-1 profile, drawn from the seed."""
    rng = np.random.default_rng(seed)
    times = -NORM_WINDOW + (2.0 * NORM_WINDOW / NORM_STEPS) * np.arange(NORM_STEPS + 1)
    for cutoff, copy in NORM_FILES:
        xi = np.arange(-cutoff, cutoff + 1)
        base = rng.standard_normal((xi.size, 3)) + 1j * rng.standard_normal((xi.size, 3))
        rates = rng.uniform(-8.0, 8.0, size=(xi.size, 3))
        phases = np.exp(1j * rates[None, :, :] * times[:, None, None])
        coeffs = np.sum(base[None] * phases, axis=2) / np.sqrt(1.0 + xi**2)
        _write_trajectory(_norm_input(inputs, cutoff, copy), coeffs, NORM_WINDOW)


def evidence_requests(rng: random.Random, inputs: Path) -> list[Request]:
    """Each scan kind and band with 10 and with 20 samples, on seeds drawn from the seed.

    A scan's cost is linear in its sample count, so fixed counts keep the
    cycle's work and its latency ranks the same for every seed.
    """
    requests = []
    for kind in ("cubic", "quintic", "strichartz"):
        for cutoff in (8, 16):
            for samples in RATIO_SAMPLES:
                argv = ("ratio-scan", "--kind", kind, "--N", str(cutoff),
                        "--samples", str(samples), "--seed", str(rng.randrange(2**31)))
                requests.append(Request(argv, _check_ratio_scan(samples)))
    for cutoff, copy in NORM_FILES:
        argv = ("norms", "--input", str(_norm_input(inputs, cutoff, copy)),
                "--b", "0.5", "--p", "2", "--z")
        requests.append(Request(argv, _check_norms))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

# one variant for every seed: wabs_xi1 builds one weight array where the others
# build two, so a seeded choice would move the cycle's work
SUM_VARIANT = "wdiff_xi"
SUM_EPS = 0.5  # the CLI default
SUM_TRUNCATIONS = (256, 512)
ORACLE_TRUNCATION = 16
DIVERGENCE_FIRST = 1000  # smallest default truncation of `counterexample`


def lattice_sum_oracle(eps: float, a: float, anchor: int, truncation: int) -> float:
    """The truncated wdiff_xi sum as a plain double loop over (xi1, xi2), xi = anchor."""
    total = 0.0
    for xi1 in range(-truncation, truncation + 1):
        for xi2 in range(-truncation, truncation + 1):
            if xi1 == anchor or xi2 == anchor:
                continue
            d1, d2 = anchor - xi1, anchor - xi2
            core = (1.0 + (a + 2.0 * d1 * d2) ** 2) ** (-(1.0 + eps) / 2.0)
            total += ((1.0 + d1**2) * (1.0 + d2**2)) ** (-eps / 2.0) * core
    return total


def _check_sum_scan(out: Path, tag: str, stdout: str) -> str | None:
    sups = json.loads(stdout.strip().splitlines()[-1])[SUM_VARIANT]
    if sorted(int(k) for k in sups) != list(SUM_TRUNCATIONS) or not _finite_positive(sups.values()):
        return "sup by truncation missing, not finite or not positive"
    return None


def _check_sum_oracle(a_values: list[int], anchors: list[int]) -> Check:
    def check(out: Path, tag: str, stdout: str) -> str | None:
        got = json.loads(stdout.strip().splitlines()[-1])[SUM_VARIANT][str(ORACLE_TRUNCATION)]
        want = max(lattice_sum_oracle(SUM_EPS, a, anchor, ORACLE_TRUNCATION)
                   for a in a_values for anchor in anchors)
        if not abs(got - want) <= 1e-10 * want:
            return f"K={ORACLE_TRUNCATION} sup {got!r} != double loop {want!r}"
        return None
    return check


def _check_divisors(limit: int, near_diagonal_pair_count) -> Check:
    def check(out: Path, tag: str, stdout: str) -> str | None:
        result = json.loads(stdout.strip().splitlines()[-1])
        recount = near_diagonal_pair_count(result["argmax"])
        if recount != result["max_refined_count"] or recount > 2:
            return f"argmax {result['argmax']} recounts to {recount}, report says " \
                   f"{result['max_refined_count']} (bound 2)"
        rows = np.loadtxt(out / f"{tag}.csv", delimiter=",", skiprows=1, ndmin=2)
        if int(rows[:, 1].sum()) != limit:
            return "count histogram does not cover every r"
        return None
    return check


def _check_divergence(out: Path, tag: str, stdout: str) -> str | None:
    sums = _report(out, tag)["divergence"]["summary"]["divergent_sums"]
    br = np.sqrt(1.0 + np.arange(1, DIVERGENCE_FIRST + 1, dtype=float) ** 2)
    want = float(2.0 * np.sum(1.0 / (br * np.log(br) ** (2.0 / 3.0))))
    if not abs(sums[0] - want) <= 1e-9 * want:
        return f"divergent sum at {DIVERGENCE_FIRST} is {sums[0]!r}, expected {want!r}"
    if any(b <= a for a, b in zip(sums, sums[1:])):
        return "divergent sums do not grow with the truncation"
    return None


def lattice_requests(rng: random.Random, inputs: Path) -> list[Request]:
    from dnlslab.estimates import near_diagonal_pair_count

    a_min, a_step = rng.randint(-100, 0), rng.randint(10, 50)
    anchor_min, anchor_step = rng.randint(-50, 30), rng.randint(5, 10)
    a_values = [a_min + i * a_step for i in range(3)]
    anchors = [anchor_min + i * anchor_step for i in range(3)]
    grid = ("--variant", SUM_VARIANT, "--a-min", str(a_min), "--a-max", str(a_values[-1]),
            "--a-step", str(a_step), "--anchor-min", str(anchor_min),
            "--anchor-max", str(anchors[-1]), "--anchor-step", str(anchor_step))
    requests = [
        Request(("scan-sums", *grid, "--truncations", ",".join(map(str, SUM_TRUNCATIONS))),
                _check_sum_scan),
        Request(("scan-sums", *grid, "--truncations", str(ORACLE_TRUNCATION)),
                _check_sum_oracle(a_values, anchors)),
        Request(("counterexample", "--mode", "divergence"), _check_divergence),
    ]
    for limit in (1_000_000, 4_000_000):
        requests.append(Request(("divisors", "--max", str(limit), "--refined"),
                                _check_divisors(limit, near_diagonal_pair_count)))
    rng.shuffle(requests)
    return requests


def build(workload: str, seed: int, inputs: Path) -> list[Request]:
    """The workload's request list for one seed; writes any input files it needs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "evidence":
        write_evidence_inputs(seed, inputs)
    return {"solve": solve_requests, "evidence": evidence_requests,
            "lattice": lattice_requests}[workload](rng, inputs)
