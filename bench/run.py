#!/usr/bin/env python3
"""dnlslab benchmark: seeded CLI requests in a closed loop, timed end to end or traced per layer.

    python3 bench/run.py --workload {solve,evidence,lattice} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/``.  One client issues one request at a time, each an in-process call
of ``dnlslab.cli.main``, with ``--out`` in a per-run directory under
``.bench_tmp/`` that is removed at the end.  The run repeats whole cycles of
the workload's request list while fewer than ``MIN_CYCLES`` are done or
another one fits into ``--seconds``, and checks every output (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median time
to ``import dnlslab.cli`` in fresh interpreters, which every CLI call pays.
The request times are scaled to a host of fixed speed by a reference kernel
that does not touch dnlslab (see ``Reference``).  It runs
``REFERENCE_REPEATS`` times before each request, and a run's latencies are
multiplied by ``REFERENCE_S`` over the kernel's median time in the run
(``ops_per_s`` is divided by it).  The unscaled figures are printed beside
them.  ``setup_s`` is not scaled.
``latency_tail_s`` is taken at the highest percentile that leaves ten
requests beyond it in ``MIN_CYCLES`` cycles; the percentile and the sample
count are printed beside it.

``--trace 1`` alternates untraced and traced cycles and reports the per-layer
metrics of ``tracing.PER_LAYER`` per traced cycle, plus the tracing overhead
as traced over untraced cycle wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_tmp"

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
# every run does at least this many cycles; the tail percentile is the highest
# one with TAIL_BEYOND samples beyond it at that count, so it stays fixed when
# a faster program fits more cycles into a run
MIN_CYCLES = {"solve": 3, "evidence": 3, "lattice": 6}
# reference kernel runs before each request: single kernel times scatter by
# about 18%, so a run takes 100 to 150 of them for a median within a few percent
REFERENCE_REPEATS = {"solve": 4, "evidence": 1, "lattice": 3}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dnlslab.cli; "
                "print(time.perf_counter() - t)")

# median time of Reference.run on the 2-vCPU Intel Xeon host the baseline was
# measured on, in a quiet phase; scaled times read as seconds on that host
REFERENCE_S = 0.013
REFERENCE_WARMUP = 5
REFERENCE_ARRAY = 200_000  # float64 elements, 1.6 MB

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Reference:
    """A fixed FFT, array and Python-loop kernel that measures how fast the host runs.

    The host's speed swings by up to 1.9x in phases of seconds to minutes, and
    a whole run can sit in one phase.  The kernel calls numpy and the
    interpreter the way the package does, but never dnlslab, so a change to the
    package leaves its time alone.  Timed before every request, its median over
    a run, against REFERENCE_S, is the run's slowdown; dividing the run's times
    by it removes the host's phase while keeping the package's own cost.  A
    single kernel time tracks a single request's time poorly, so the scaling
    is per run, not per request.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        self._damping = np.exp(-np.arange(512) / 512.0)
        self._values = rng.standard_normal(REFERENCE_ARRAY)
        self.samples: list[float] = []
        for _ in range(REFERENCE_WARMUP):
            self._kernel()

    def _kernel(self) -> None:
        # small FFTs, an interpreted loop, and elementwise work on arrays that fit the caches
        x = self._signal
        for _ in range(200):
            x = np.fft.ifft(np.fft.fft(x) * self._damping) + 0.001
        total = 0.0
        for k in range(30_000):
            total += (k % 7) * 0.5
        y = np.sqrt(1.0 + self._values * self._values)
        for _ in range(10):
            y = np.log1p(y) * 1.0001

    def run(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self) -> float:
        """The host's slowdown over the samples so far, against REFERENCE_S."""
        return statistics.median(self.samples) / REFERENCE_S


class Outcome:
    """Latency and verdict of every request issued in one run."""

    def __init__(self, reference_repeats: int = 1):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.busy_s = 0.0  # wall time of the cycles, output checks excluded
        self.reference = Reference()
        self.reference_repeats = reference_repeats

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_cycle(cli, requests, out: Path, outcome: Outcome, tracer=None) -> float:
    """Issue every request once, check its output, and return the cycle's wall time.

    The reference kernel runs before each request; its time and the output
    checks are not part of the cycle's wall time.
    """
    excluded = 0.0
    start = time.perf_counter()
    for i, request in enumerate(requests):
        for _ in range(outcome.reference_repeats):
            excluded += outcome.reference.run()
        tag = f"r{i}"
        argv = [*request.argv, "--out", str(out), "--tag", tag]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id = outcome.attempted
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:
            code, problem = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        outcome.latencies.append(t1 - t0)
        if code == 0:
            try:
                problem = request.check(out, tag, stdout.getvalue())
            except Exception:
                problem = traceback.format_exc(limit=3)
        elif code is not None:
            problem = f"exit code {code}: {stderr.getvalue().strip()}"
        if problem:
            outcome.failures.append(f"{' '.join(request.argv)}: {problem}")
        excluded += time.perf_counter() - t1
    wall = time.perf_counter() - start - excluded
    outcome.busy_s += wall
    return wall


def setup_seconds() -> float:
    """Median wall time of ``import dnlslab.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def latency_tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank latency at the percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS thread count of the numpy in use, when numpy bundles OpenBLAS."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": _blas_threads(),
        "git": _git(),
    }


def import_package():
    """Import dnlslab.cli from this checkout's src/, refusing any other copy."""
    if not (SRC / "dnlslab" / "cli.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'dnlslab'}; run from a dnlslab checkout")
    sys.path.insert(0, str(SRC))
    import dnlslab.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "dnlslab").resolve():
        raise SystemExit(f"imported dnlslab from {cli.__file__}, not from {SRC}")
    return cli


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, requests, out: Path, seconds: float, min_cycles: int, reference_repeats: int):
    outcome = Outcome(reference_repeats)
    start, cycles = time.perf_counter(), 0
    # stop before a cycle that would end past --seconds, once MIN_CYCLES are done
    while cycles < min_cycles or (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        run_cycle(cli, requests, out, outcome)
        cycles += 1
    slowdown = outcome.reference.slowdown()
    for i, request in enumerate(requests):
        median = statistics.median(outcome.latencies[i::len(requests)])
        print(f"request {i:2d} median {median:8.4f} s  {' '.join(request.argv)}")
    percentile = 100.0 * (1.0 - TAIL_BEYOND / (min_cycles * len(requests)))
    tail, beyond = latency_tail(outcome.latencies, percentile)
    print(f"latency_tail_s is p{percentile:.1f} of {outcome.attempted} requests "
          f"({beyond} beyond it)")
    wall = {
        "ops_per_s": outcome.attempted / outcome.busy_s,
        "latency_p50_s": statistics.median(outcome.latencies),
        "latency_tail_s": tail,
    }
    print(f"host slowdown {slowdown:.4f} (reference kernel median {slowdown * REFERENCE_S:.5f} s "
          f"over {len(outcome.reference.samples)} runs); unscaled: "
          + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))
    values = {
        "ops_per_s": wall["ops_per_s"] * slowdown,
        "latency_p50_s": wall["latency_p50_s"] / slowdown,
        "latency_tail_s": wall["latency_tail_s"] / slowdown,
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcome, values, cycles


def traced(cli, requests, out: Path, seconds: float, reference_repeats: int):
    tracer = Tracer()
    outcome = Outcome(reference_repeats)
    plain_s = traced_s = 0.0
    start, cycles = time.perf_counter(), 0
    # stop before a pair of cycles that would end past --seconds, once one pair is done
    while cycles == 0 or (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        # alternate which of the pair runs first, so neither always runs cold
        for with_trace in ((False, True) if cycles % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced_s += run_cycle(cli, requests, out, outcome, tracer)
                finally:
                    tracer.uninstall()
            else:
                plain_s += run_cycle(cli, requests, out, outcome)
        cycles += 1
    profile = tracer.profile()
    print(f"{tracer.span_count} spans in {cycles} traced cycles; per function, per cycle:")
    for name in sorted(profile.names, key=lambda n: -profile.self_s[n]):
        if profile.calls[name]:
            print(f"  {name:40s} calls {profile.calls[name] / cycles:10.1f}  "
                  f"self {profile.self_s[name] / cycles:9.4f} s  "
                  f"inclusive {profile.inclusive_s[name] / cycles:9.4f} s")
    values = layer_metrics(profile, cycles)
    slowdown = outcome.reference.slowdown()
    print(f"host slowdown {slowdown:.4f}; self times below are divided by it")
    for name, unit, _, _ in PER_LAYER:
        if unit == "s/cycle":
            values[name] /= slowdown
    values["trace.overhead_ratio"] = traced_s / plain_s
    return outcome, values, cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()

    setup_s = setup_seconds() if not args.trace else None
    RUNS.mkdir(exist_ok=True)
    # relative, so report sizes do not depend on where the checkout lives
    run_dir = Path(os.path.relpath(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)))
    try:
        requests = workloads.build(args.workload, args.seed, run_dir / "inputs")
        out = run_dir / "out"
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            outcome, values, cycles = traced(cli, requests, out, args.seconds,
                                             REFERENCE_REPEATS[args.workload])
        else:
            outcome, values, cycles = end_to_end(cli, requests, out, args.seconds,
                                                 MIN_CYCLES[args.workload],
                                                 REFERENCE_REPEATS[args.workload])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{cycles} cycles of {len(requests)} requests")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        units["trace.overhead_ratio"] = "ratio"
        metrics = {name: _metric(value, units[name]) for name, value in values.items()}
    else:
        values["setup_s"] = setup_s
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failed = len(outcome.failures)
    print(f"failed_ratio {failed / outcome.attempted:.6g} ratio ({failed} of {outcome.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
