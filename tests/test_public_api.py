"""The public API holds no test-only code: each exported function or class has
a caller inside the package; every operator states its output band; every
entry point rejects a malformed count, signed integer or positive number by
name; and the package states the version that its metadata declares."""
import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import dnlslab as lab
from dnlslab.fields import time_grid


def referenced_names(package_dir: Path) -> set[str]:
    """Every name loaded as a bare name or an attribute in the package's modules,
    except the re-exports of __init__.py; a name that is only assigned, such as
    a dataclass field, is not read."""
    names = set()
    for path in package_dir.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


# public names that no module loads; ROADMAP item 2 (the benchmark change) drops
# solver.integral_residual, which the tracer binds, and empties this set
UNCALLED = {"integral_residual"}


def test_every_public_function_and_class_has_a_caller_in_the_package():
    used = referenced_names(Path(lab.__file__).parent)
    public = [name for name in lab.__all__ if not name.startswith("__")
              and (inspect.isfunction(getattr(lab, name)) or inspect.isclass(getattr(lab, name)))]
    assert public
    assert {name for name in public if name not in used} == UNCALLED


def test_no_public_operator_defaults_its_output_band():
    banded, defaulted = [], []
    for module in ("dnlslab.fields", "dnlslab.nonlinear", "dnlslab.solver"):
        for name, fn in inspect.getmembers(importlib.import_module(module), inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module:
                continue
            param = inspect.signature(fn).parameters.get("out_cutoff")
            if param is not None:
                banded.append(f"{module}.{name}")
                if param.default is not param.empty:
                    defaulted.append(f"{module}.{name}")
    assert "dnlslab.solver.forcing_field" in banded and len(banded) >= 10
    assert defaulted == []


def _rng():
    return np.random.default_rng(3)


# call of one count argument, its name, its floor and a valid value
COUNTS = {
    "time_grid-steps": (lambda v: time_grid(1.0, v), "steps", 1, 4),
    "random_field-cutoff": (lambda v: lab.random_field(v, _rng()), "cutoff", 0, 4),
    "random_field-active_cutoff": (lambda v: lab.random_field(4, _rng(), active_cutoff=v),
                                   "active_cutoff", 0, 2),
    "random_trajectory-cutoff": (lambda v: lab.random_trajectory(v, _rng(), steps=8),
                                 "cutoff", 0, 2),
    "SolveConfig-cutoff": (lambda v: lab.SolveConfig(cutoff=v, horizon=0.1, steps=8),
                           "cutoff", 0, 4),
    "SolveConfig-max_iter": (lambda v: lab.SolveConfig(cutoff=4, horizon=0.1, steps=8,
                                                       max_iter=v), "max_iter", 1, 5),
    "cubic_ratio_scan-samples": (lambda v: lab.cubic_ratio_scan(2.0, 2.0, v, 2, 1, steps=8),
                                 "samples", 1, 2),
    "cubic_ratio_scan-cutoff": (lambda v: lab.cubic_ratio_scan(2.0, 2.0, 2, v, 1, steps=8),
                                "cutoff", 0, 2),
    "cubic_ratio_scan-steps": (lambda v: lab.cubic_ratio_scan(2.0, 2.0, 2, 2, 1, steps=v),
                               "steps", 2, 8),
    "resonance_weighted_sum-truncation": (
        lambda v: lab.resonance_weighted_sum("wabs_xi", 0.5, 0.0, 0, v), "truncation", 0, 4),
    "near_diagonal_scan-limit": (lab.near_diagonal_scan, "limit", 1, 100),
    "divisor_pair_count-r": (lab.divisor_pair_count, "r", 1, 12),
    "near_diagonal_pair_count-r": (lab.near_diagonal_pair_count, "r", 1, 16),
    "divergence_report-truncations": (lambda v: lab.divergence_report((10, v, 1000)),
                                      "truncations", 1, 100),
    "endpoint_injection_report-truncations": (
        lambda v: lab.endpoint_injection_report((10, v)), "truncations", 2, 100),
    "translation_gap_probe-n_list": (
        lambda v: lab.translation_gap_probe(1.0, 0.5, 2.0, [v], t_samples=3), "n_list", 1, 4),
    "translation_gap_probe-t_samples": (
        lambda v: lab.translation_gap_probe(1.0, 0.5, 2.0, [4], t_samples=v), "t_samples", 1, 3),
    "free_phase-cutoff": (lambda v: lab.free_phase(0.1, v), "cutoff", 0, 4),
}

# call of one signed-integer argument, which has no floor, its name and a valid value
SIGNED = {
    "plane_wave-n": (lambda v: lab.plane_wave(4, v), "n", -2),
    "plane_wave-cutoff": (lambda v: lab.plane_wave(v, 0), "cutoff", 4),
    "resonance_weighted_sum-anchor": (
        lambda v: lab.resonance_weighted_sum("wabs_xi", 0.5, 0.0, v, 4), "anchor", -3),
    "resonance_sum_scan-anchor_values": (
        lambda v: lab.resonance_sum_scan("wabs_xi", 0.5, [0.0], [v], [4]), "anchor", -3),
}

# call of one argument that must be finite and positive, and its name
POSITIVES = {
    "SolveConfig-tol": (lambda v: lab.SolveConfig(cutoff=4, horizon=0.1, steps=8, tol=v), "tol"),
    "resonance_weighted_sum-eps": (lambda v: lab.resonance_weighted_sum("wabs_xi", v, 0.0, 0, 4),
                                   "eps"),
    "Trajectory-window": (lambda v: lab.Trajectory(np.zeros((3, 3)), v), "window"),
    "random_trajectory-window": (lambda v: lab.random_trajectory(2, _rng(), window=v, steps=8),
                                 "window"),
    "xst_norm-window": (lambda v: lab.xst_norm(np.zeros((9, 5)), v,
                                               [lab.NormSpec(0.5, 2.0, 0.5, 2.0)]), "window"),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below-floor"])
@pytest.mark.parametrize("call,name,least,valid", COUNTS.values(), ids=COUNTS)
def test_a_count_that_is_not_an_integer_at_or_above_its_floor_is_rejected_by_name(
        call, name, least, valid, kind):
    bad = {"bool": True, "float": least + 1.5, "below-floor": least - 1}[kind]
    with pytest.raises(ValueError, match=f"^{name} "):
        call(bad)


@pytest.mark.parametrize("call,name,least,valid", COUNTS.values(), ids=COUNTS)
def test_a_numpy_integer_count_is_accepted(call, name, least, valid):
    call(np.int64(valid))


@pytest.mark.parametrize("bad", [True, 1.5])
@pytest.mark.parametrize("call,name,valid", SIGNED.values(), ids=SIGNED)
def test_a_signed_integer_that_is_not_an_integer_is_rejected_by_name(call, name, valid, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("call,name,valid", SIGNED.values(), ids=SIGNED)
def test_a_numpy_signed_integer_is_accepted(call, name, valid):
    call(np.int64(valid))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("call,name", POSITIVES.values(), ids=POSITIVES)
def test_a_number_that_is_not_finite_and_positive_is_rejected_by_name(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {bad}$"):
        call(bad)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib arrived in Python 3.11")
def test_the_package_version_is_the_one_pyproject_declares():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == lab.__version__
