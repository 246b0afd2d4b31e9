"""Leading batch axes: every spectral operator applied to a stack of coefficient
rows equals the stack of its single-row results, and the whole-trajectory
paths call their operator once per trajectory or sample group."""
import numpy as np
import pytest

import dnlslab as lab
import dnlslab.cli as cli_mod
import dnlslab.estimates as estimates_mod
import dnlslab.nonlinear as nonlinear_mod
import dnlslab.norms as norms_mod
from dnlslab.gauge import gauge_with_tail
from dnlslab.solver import forcing_field

CUTOFF = 4

# name -> (operator on coefficient arrays, number of array operands)
OPERATORS = {
    "to_physical": (lambda u: lab.to_physical(u, 24), 1),
    "from_physical": (lambda u: lab.from_physical(lab.to_physical(u, 24), 2 * CUTOFF), 1),
    "derivative": (lab.derivative, 1),
    "mean_value": (lab.mean_value, 1),
    "physical_product": (
        lambda a, b, c: lab.physical_product([a, b, c], [False, False, True], out_cutoff=10), 3),
    "product_restricted": (lambda a, b, c: lab.product_restricted(a, b, c, out_cutoff=CUTOFF), 3),
    "cubic_restricted": (lambda a, b, c: lab.cubic_restricted(a, b, c, out_cutoff=3 * CUTOFF), 3),
    "cubic_diagonal": (lambda a, b, c: lab.cubic_diagonal(a, b, c, out_cutoff=CUTOFF), 3),
    "cubic_full": (lambda a, b, c: lab.cubic_full(a, b, c, out_cutoff=3 * CUTOFF), 3),
    "cubic_trilinear": (lambda a, b, c: lab.cubic_trilinear(a, b, c, out_cutoff=3 * CUTOFF), 3),
    # one operand three times: the gauged forcing's call, which transforms it once
    "cubic_trilinear_repeated": (lambda u: lab.cubic_trilinear(u, u, u, out_cutoff=CUTOFF), 1),
    "quintic_restricted": (
        lambda *us: lab.quintic_restricted(*us, out_cutoff=5 * CUTOFF), 5),
    "mean_shifted_cubic_spectral": (
        lambda u: lab.mean_shifted_cubic_spectral(u, out_cutoff=CUTOFF), 1),
    "dnls_forcing": (lambda u: lab.dnls_forcing(u, out_cutoff=CUTOFF), 1),
    "mass_primitive": (lab.mass_primitive, 1),
    # the phase twist alone: at t = 0 the translation is the identity
    "gauge_phase": (lambda u: lab.gauge_field(u, 0.0), 1),
    "gauge_phase_inv": (lambda u: lab.gauge_field_inv(u, 0.0), 1),
    "gauge_phase_tail": (lambda u: gauge_with_tail(u, 0.0)[1], 1),
}

# maps of samples at times: one time per row, or one scalar time
TIMED = {
    "translate-": lambda u, t: lab.translate(u, t, -1),
    "translate+": lambda u, t: lab.translate(u, t, +1),
    "gauge_field": lab.gauge_field,
    "gauge_field_inv": lab.gauge_field_inv,
}

BATCHES = [(5,), (2, 3)]


def random_rows(rng, batch):
    shape = batch + (2 * CUTOFF + 1,)
    return 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def stacked(op, batch, *operands):
    """op applied row by row; operands with a batch shape are split, others shared."""
    rows = [op(*(x[index] if np.ndim(x) >= len(batch) else x for x in operands))
            for index in np.ndindex(*batch)]
    return np.array(rows).reshape(batch + np.shape(rows[0]))


def assert_rows_match(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("name", OPERATORS)
def test_matrix_equals_stacked_rows(name, batch):
    op, arity = OPERATORS[name]
    rng = np.random.default_rng(len(name))
    operands = [random_rows(rng, batch) for _ in range(arity)]
    assert_rows_match(op(*operands), stacked(op, batch, *operands))


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("name", TIMED)
def test_timed_maps_take_one_time_per_row_or_a_scalar(name, batch):
    op = TIMED[name]
    rng = np.random.default_rng(len(name))
    u = random_rows(rng, batch)
    times = rng.uniform(-1.0, 1.0, size=batch)
    assert_rows_match(op(u, times), stacked(op, batch, u, times))
    assert_rows_match(op(u, 0.3), stacked(op, batch, u, 0.3))


def pure_cases():
    """One case, op and operands, for every operation the README calls pure."""
    rng = np.random.default_rng(17)
    cases = {name: (op, [random_rows(rng, (2, 3)) for _ in range(arity)])
             for name, (op, arity) in OPERATORS.items()}
    cases.update({name: (op, [random_rows(rng, (5,)), rng.uniform(-1.0, 1.0, size=5)])
                  for name, op in TIMED.items()})
    cases.update({f"forcing_field-{eq.value}": (
        lambda u, eq=eq: forcing_field(u, eq, CUTOFF), [random_rows(rng, (5,))])
        for eq in lab.Equation})
    traj = lab.random_trajectory(CUTOFF, rng, window=0.5, steps=8)
    cases["duhamel"] = (lambda f, p: lab.duhamel(f, p, traj.dt),
                        [random_rows(rng, (9,)), lab.free_phase(traj.times, CUTOFF)])
    cases["from_physical"] = (lambda v: lab.from_physical(v, CUTOFF),
                              [lab.to_physical(random_rows(rng, (5,)), 24)])
    return [pytest.param(op, operands, id=name) for name, (op, operands) in cases.items()]


@pytest.mark.parametrize("op,operands", pure_cases())
def test_operations_never_write_to_their_inputs(op, operands):
    # the kernels that work in place work in arrays of their own: every argument keeps its bits
    before = [x.tobytes() for x in operands]
    op(*operands)
    assert [x.tobytes() for x in operands] == before


def gauge_with_its_tail(u, t):
    v, tail = gauge_with_tail(u, t)
    return np.concatenate([v, tail[..., None]], axis=-1)


@pytest.mark.parametrize("op", [lambda u, t: lab.mass_primitive(u), lab.gauge_field,
                                lab.gauge_field_inv, gauge_with_its_tail],
                         ids=["mass_primitive", "gauge_field", "gauge_field_inv",
                              "gauge_with_tail"])
def test_large_matrix_equals_its_rows_bit_for_bit(op):
    # every grid of a (201, 65) matrix takes 256 KiB or more, where numpy
    # writes an implicit product into a right-hand temporary with its operands
    # swapped; the grid products name their operand order, so a row gets the
    # bits it gets inside the matrix
    traj = lab.random_trajectory(32, np.random.default_rng(55), window=0.05, steps=200)
    whole = op(traj.coeffs, traj.times)
    rows = np.array([op(row, t) for row, t in zip(traj.coeffs, traj.times)])
    assert whole.shape[0] == 201
    assert whole.tobytes() == rows.tobytes()


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("flags,map_name", [([], "gauge_field"), (["--inverse"], "gauge_field_inv")],
                         ids=["gauge-gauge_field", "gauge_inv-gauge_field_inv"])
def test_gauge_maps_call_the_field_map_once_per_trajectory(tmp_path, monkeypatch, flags,
                                                           map_name):
    traj = lab.random_trajectory(CUTOFF, np.random.default_rng(1), window=0.5, steps=8)
    lab.save_trajectory(tmp_path / "traj.csv", traj)
    calls = counting(monkeypatch, cli_mod, map_name)
    assert cli_mod.main(["gauge", "--input", str(tmp_path / "traj.csv"), "--output", "g.csv",
                         *flags, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert calls[0][0].shape == traj.coeffs.shape
    assert np.array_equal(calls[0][1], traj.times)
    assert lab.load_trajectory(tmp_path / "g.csv").coeffs.shape == traj.coeffs.shape


@pytest.mark.parametrize("scan,op_name", [
    (lambda: lab.cubic_ratio_scan(q=2.0, r=2.0, samples=3, cutoff=4, seed=5, steps=16),
     "cubic_trilinear"),
    (lambda: lab.strichartz_ratio_scan(s=0.2, b=0.45, samples=3, cutoff=4, seed=5, steps=16),
     "physical_product"),
    (lambda: lab.quintic_ratio_scan(q=2.0, r=2.0, b=0.4, samples=3, cutoff=4, seed=5, steps=16),
     "physical_product"),
], ids=["cubic", "strichartz", "quintic"])
def test_ratio_scan_calls_its_operator_once_per_sample_group(monkeypatch, scan, op_name):
    calls = counting(monkeypatch, estimates_mod, op_name)
    report = scan()
    assert report.summary["samples_used"] == 3
    assert len(calls) == 3


def test_the_cubic_scan_runs_no_coefficient_convolution(monkeypatch):
    # the loop-based convolutions are the oracle of the physical form, not its fallback
    assert not hasattr(estimates_mod, "cubic_full")
    calls = counting(monkeypatch, nonlinear_mod, "_conv")
    report = lab.cubic_ratio_scan(q=2.0, r=2.0, samples=3, cutoff=4, seed=5, steps=16)
    assert report.summary["samples_used"] == 3
    assert calls == []


@pytest.mark.parametrize("measure,transforms", [
    (lambda traj: lab.xst_norm(traj.windowed(), traj.window, lab.z_specs(0.5, 2.0)), 1),
    (lambda traj: lab.quintic_ratio_scan(q=2.0, r=2.0, b=0.4, samples=3, cutoff=4, seed=5,
                                         steps=16), 3 * 6),
], ids=["z_norm", "quintic"])
def test_one_space_time_transform_per_trajectory(monkeypatch, measure, transforms):
    calls = counting(monkeypatch, norms_mod._NormTables, "transform")
    measure(lab.random_trajectory(CUTOFF, np.random.default_rng(2), window=0.5, steps=8))
    assert len(calls) == transforms


@pytest.mark.parametrize("scan,builds", [
    (lambda: lab.cubic_ratio_scan(q=2.0, r=2.0, samples=3, cutoff=4, seed=5, steps=16), 2),
    (lambda: lab.strichartz_ratio_scan(s=0.2, b=0.45, samples=3, cutoff=4, seed=5, steps=16), 1),
    (lambda: lab.quintic_ratio_scan(q=2.0, r=2.0, b=0.4, samples=3, cutoff=4, seed=5, steps=16),
     2),
], ids=["cubic", "strichartz", "quintic"])
def test_ratio_scan_builds_each_norm_table_once(monkeypatch, scan, builds):
    # one table set for the input band, and one for the output band where a
    # space-time norm measures the output
    calls = counting(monkeypatch, estimates_mod, "_NormTables")
    assert scan().summary["samples_used"] == 3
    assert len(calls) == builds


@pytest.mark.parametrize("flags", [["--b", "0.5"], ["--z"], ["--b", "-0.3", "--z"],
                                   ["--b", "0.1", "--p", "inf", "--z"]],
                         ids=["b", "z", "b-z", "p-inf-z"])
def test_norms_command_runs_one_space_time_transform(tmp_path, monkeypatch, flags):
    path = tmp_path / "traj.csv"
    lab.save_trajectory(path, lab.random_trajectory(CUTOFF, np.random.default_rng(3), steps=8))
    transforms = counting(monkeypatch, norms_mod._NormTables, "transform")
    builds = counting(monkeypatch, norms_mod, "_NormTables")
    assert cli_mod.main(["norms", "--input", str(path), *flags, "--out", str(tmp_path)]) == 0
    assert (len(builds), len(transforms)) == (1, 1)
