"""Steadiness checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one untraced and two traced cycles of its seed-3 request
list (a few minutes in all).  The size-derived counts must repeat exactly,
tracing must leave every report byte-identical, and the layers a workload
does not use must show zero counts.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

cli = run.import_package()

BENCH = Path(__file__).resolve().parent
SEED = 3

IDLE_LAYERS = {
    "solve": ("estimates.", "norms."),
    "evidence": ("solver.", "gauge."),
    "lattice": ("solver.", "gauge.", "norms."),
}


def _snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def cycles(request, tmp_path_factory):
    """Reports of an untraced cycle, then reports and metrics of two traced cycles."""
    workload = request.param
    base = tmp_path_factory.mktemp(workload)
    requests = workloads.build(workload, SEED, base / "inputs")
    out = base / "out"
    outcome = run.Outcome()
    run.run_cycle(cli, requests, out, outcome)
    plain = _snapshot(out)
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_cycle(cli, requests, out, outcome, tracer)
        finally:
            tracer.uninstall()
        traced.append((_snapshot(out), tracing.layer_metrics(tracer.profile(), 1), tracer))
    return workload, outcome, plain, traced


def test_outputs_pass_their_checks(cycles):
    _, outcome, _, _ = cycles
    assert outcome.failures == []


def test_exact_counts_repeat(cycles):
    _, _, _, ((_, first, _), (_, second, _)) = cycles
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}


def test_tracing_leaves_reports_byte_identical(cycles):
    _, _, plain, traced = cycles
    assert plain
    for reports, _, _ in traced:
        assert reports == plain


def test_idle_layers_count_zero(cycles):
    workload, _, _, ((_, metrics, _), _) = cycles
    idle = {k: v for k, v in metrics.items() if k.startswith(IDLE_LAYERS[workload])}
    assert idle and all(v == 0 for v in idle.values()), idle


def test_busy_layers_count_work(cycles):
    workload, _, _, ((_, metrics, _), _) = cycles
    busy = {
        "solve": ("fields.transform_calls", "solver.forcing_evals", "gauge.map_calls"),
        "evidence": ("norms.xst_calls", "nonlinear.restricted_calls", "reports.bytes_read"),
        "lattice": ("estimates.lattice_sums", "estimates.divisor_r_scanned"),
    }[workload]
    assert all(metrics[k] > 0 for k in busy)


def test_each_request_is_one_root_span(cycles):
    _, _, _, traced = cycles
    for _, _, tracer in traced:
        fn, parent = np.array(tracer._fn), np.array(tracer._parent)
        request = np.array(tracer._request)
        roots = parent == -1
        assert {tracer.names[i] for i in fn[roots]} == {"cli.main"}
        assert len(set(request[roots])) == roots.sum()
        # a child carries the request id of its parent
        assert (request[~roots] == request[parent[~roots]]).all()


def test_tracer_restores_the_package():
    # the package namespace re-exports a function named gauge over the submodule
    fields, gauge = sys.modules["dnlslab.fields"], sys.modules["dnlslab.gauge"]
    original, init = fields.to_physical, fields.Trajectory.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gauge.to_physical is fields.to_physical is not original
        assert fields.Trajectory.__init__ is not init
    finally:
        tracer.uninstall()
    assert gauge.to_physical is fields.to_physical is original
    assert fields.Trajectory.__init__ is init


def test_reference_kernel_never_calls_the_package():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reference = run.Reference()
        reference.run()
    finally:
        tracer.uninstall()
    assert tracer.span_count == 0
    assert reference.slowdown() == reference.samples[0] / run.REFERENCE_S


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]
    layer.append(("trace.overhead_ratio", "ratio", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_leaves_ten_samples_beyond_at_the_minimum_run(workload, tmp_path):
    k = len(workloads.build(workload, SEED, tmp_path))
    n = k * run.MIN_CYCLES[workload]
    percentile = 100.0 * (1.0 - run.TAIL_BEYOND / n)
    value, beyond = run.latency_tail([float(i) for i in range(n)], percentile)
    assert beyond == run.TAIL_BEYOND and value == n - run.TAIL_BEYOND - 1


def test_request_lists_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        inputs = tmp_path / workload
        first = workloads.build(workload, 7, inputs)
        first_inputs = _snapshot(inputs)
        second = workloads.build(workload, 7, inputs)
        assert [r.argv for r in first] == [r.argv for r in second]
        assert _snapshot(inputs) == first_inputs
        assert [r.argv for r in workloads.build(workload, 8, inputs)] != [r.argv for r in first]


def test_checks_reject_wrong_outputs(tmp_path):
    variant, a_values, anchors = workloads.SUM_VARIANT, [-10, 0, 10], [-3, 0, 3]
    want = max(workloads.lattice_sum_oracle(workloads.SUM_EPS, a, x, 16)
               for a in a_values for x in anchors)
    check = workloads._check_sum_oracle(a_values, anchors)
    assert check(tmp_path, "t", json.dumps({variant: {"16": want}})) is None
    assert check(tmp_path, "t", json.dumps({variant: {"16": want * (1 + 1e-8)}}))
    assert workloads._check_norms(tmp_path, "t", json.dumps({"xst_norm": 2.0, "z_norm": 1.0}))
    assert workloads._check_norms(tmp_path, "t", json.dumps({"xst_norm": 1.0, "z_norm": math.nan}))


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "bench" / name).write_bytes((BENCH / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
