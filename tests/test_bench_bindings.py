"""The benchmark's span tracer binds package functions by name: every name it
groups or counts must still exist, or its per-layer rows silently read 0."""
import importlib.util
from pathlib import Path

import dnlslab.cli  # noqa: F401  (the tracer wraps every layer module, cli included)
import dnlslab.reports as reports

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# names the tracer still lists though the package dropped them; ROADMAP item 2
# (the benchmark change) removes them from bench/tracing.py and empties this set
STALE = {
    "norms.z_norm",
    "norms.space_time_transform",
    "estimates.divergent_mass_sum",
    "estimates.endpoint_pairing",
    "estimates.endpoint_factor_norm",
    "estimates.endpoint_ratio",
    "nonlinear.cubic_physical",
}


def test_every_grouped_or_counted_name_is_traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    write_json = reports.write_json
    tracer = tracing.Tracer()  # a missing Trajectory method fails here
    tracer.install()
    try:
        assert reports.write_json is not write_json
    finally:
        tracer.uninstall()
    assert reports.write_json is write_json
    listed = set(tracing.COUNTERS).union(*tracing.GROUPS.values())
    assert listed - set(tracer.names) == STALE
