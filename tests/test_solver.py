"""Free evolution, Duhamel quadrature, fixed-point solves, and cross-checks."""
import math
import re
import tracemalloc

import numpy as np
import pytest

import dnlslab as lab
import dnlslab.solver as solver_mod
from dnlslab.fields import Trajectory, time_grid
from dnlslab.solver import forcing_band, forcing_field
from support import integral_residual


def constant_forcing(cutoff, horizon, steps, amplitude=1.0, mode=1):
    dt = 2.0 * horizon / steps
    times = -horizon + dt * np.arange(steps + 1)
    return Trajectory(np.array([lab.plane_wave(cutoff, mode, amplitude) for _ in times]), horizon)


def tail_l2(coeffs, cutoff):
    """l2 mass of every row outside |xi| <= cutoff."""
    drop = (coeffs.shape[-1] - 1) // 2 - cutoff
    tail = np.concatenate([coeffs[..., :drop], coeffs[..., -drop:]], axis=-1)
    return np.linalg.norm(tail, axis=-1)


def duhamel_at(traj, index):
    """The Duhamel integral of a forcing trajectory at one grid time, as a coefficient row."""
    return lab.duhamel(traj.coeffs, lab.free_phase(traj.times, traj.cutoff), traj.dt)[index]


class TestFreeEvolution:
    def test_identity_at_zero(self):
        u = lab.random_field(8, np.random.default_rng(0))
        assert np.linalg.norm(lab.free_phase(0.0, 8) * u - u) == 0.0

    def test_single_mode_phase(self):
        w = lab.plane_wave(8, 1)
        for t in (0.3, -1.2):
            got = lab.free_phase(t, 8) * w
            assert abs(got[8 + 1] - np.exp(-1j * t) * w[8 + 1]) < 1e-14

    def test_unitary(self):
        u = lab.random_field(8, np.random.default_rng(1), l2_norm=1.7)
        assert abs(np.linalg.norm(lab.free_phase(0.37, 8) * u) - np.linalg.norm(u)) < 1e-13


def composite_weights(steps, k, dt):
    """Weights on the nodes of a steps-cell grid for the integral from its middle
    node to node k, written out node by node: every cell takes the cubic through
    its four nearest nodes, an edge cell the one-sided cubic, and a cell left of
    the middle counts with the signed measure."""
    w, mid = np.zeros(steps + 1), steps // 2
    lo, hi, sign = (mid, k, 1.0) if k >= mid else (k, mid, -1.0)
    for j in range(lo, hi):
        if j == 0:
            w[0:4] += sign * np.array([9.0, 19.0, -5.0, 1.0]) * dt / 24.0
        elif j == steps - 1:
            w[steps - 3 :] += sign * np.array([1.0, -5.0, 19.0, 9.0]) * dt / 24.0
        else:
            w[j - 1 : j + 3] += sign * np.array([-1.0, 13.0, 13.0, -1.0]) * dt / 24.0
    return w


class TestDuhamel:
    @pytest.mark.parametrize("steps", [2, 4, 6, 64, 200])
    def test_every_index_matches_the_composite_rule(self, steps):
        rng = np.random.default_rng(steps)
        cutoff = 3
        shape = (steps + 1, 2 * cutoff + 1)
        forcing = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        times = time_grid(0.4, steps)
        dt = times[1] - times[0]
        phase = lab.free_phase(times, cutoff)
        if steps < 4:  # a four-node cell rule needs at least four cells
            with pytest.raises(ValueError, match="step count >= 4 .*got 2"):
                lab.duhamel(forcing, phase, dt)
            return
        got = lab.duhamel(forcing, phase, dt)
        up = np.conj(phase) * forcing
        for k in range(steps + 1):
            expected = phase[k] * (composite_weights(steps, k, dt) @ up)
            assert np.linalg.norm(got[k] - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_zero_forcing(self):
        traj = Trajectory(np.zeros((9, 9)), 0.1)
        assert np.linalg.norm(duhamel_at(traj, 7)) == 0.0

    def test_constant_forcing_closed_form(self):
        # integral of exp(-i(t-t')) from 0 to t applied to a single mode
        horizon, steps = 0.5, 64
        traj = constant_forcing(4, horizon, steps)
        dt = 2 * horizon / steps
        for index in (0, 9, 10, 32, 33, 47, 48, 64):  # one rule at odd and even cell counts
            t = -horizon + dt * index
            got = duhamel_at(traj, index)
            expected = np.exp(-1j * t) * (np.exp(1j * t) - 1.0) / 1j
            assert abs(got[4 + 1] / math.sqrt(2 * math.pi) - expected) < 5e-9

    def test_quadrature_order(self):
        # halving the step size shrinks the defect by about 2**4
        def defect(steps):
            traj = constant_forcing(4, 0.5, steps)
            t = 0.5
            got = duhamel_at(traj, steps)[4 + 1] / math.sqrt(2 * math.pi)
            expected = np.exp(-1j * t) * (np.exp(1j * t) - 1.0) / 1j
            return abs(got - expected)

        d1, d2 = defect(16), defect(32)
        assert d2 < d1 / 8.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = Trajectory(np.array([lab.random_field(4, rng) for _ in range(9)]), 0.1)
        b = Trajectory(np.array([lab.random_field(4, rng) for _ in range(9)]), 0.1)
        combined = Trajectory(a.coeffs + 2.0 * b.coeffs, 0.1)
        lhs = duhamel_at(combined, 8)
        rhs = duhamel_at(a, 8) + 2.0 * duhamel_at(b, 8)
        assert np.linalg.norm(lhs - rhs) < 1e-13


class TestPicard:
    def test_config_names_a_horizon_outside_0_1(self):
        with pytest.raises(ValueError, match=re.escape("horizon must lie in (0, 1], got 1.5")):
            lab.SolveConfig(cutoff=8, horizon=1.5, steps=20)

    def test_zero_datum_one_iteration(self):
        cfg = lab.SolveConfig(cutoff=8, horizon=0.1, steps=20)
        rep = lab.picard_solve(np.zeros(17, dtype=complex), cfg)
        assert rep.converged and rep.iterations == 1
        assert not rep.trajectory.coeffs.any()

    def test_solve_memory_peak(self):
        # N=128, M=200: the two 800-point grids of the full-band forcing set the
        # peak, measured at 7.2 MiB; the bound leaves 1.3 MiB (18%) of slack.
        # With a fresh array for every transform and product it was 12.9 MiB
        cfg = lab.SolveConfig(cutoff=128, horizon=0.05, steps=200)
        u0 = lab.random_field(128, np.random.default_rng(11), l2_norm=0.15)
        tracemalloc.start()
        try:
            rep = lab.picard_solve(u0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak <= 8.5 * 2**20

    @pytest.mark.parametrize("amp,mode", [(1.0, 1), (math.sqrt(2.0), 1), (1.0, 3)])
    def test_plane_wave_dispersion(self, amp, mode):
        cfg = lab.SolveConfig(cutoff=16, horizon=0.1, steps=100, tol=1e-10)
        rep = lab.picard_solve(lab.plane_wave(16, mode, amp), cfg)
        exact = lab.plane_wave_solution(16, mode, amp, 0.1, 100)
        assert rep.converged
        assert rep.trajectory.sup_l2_distance(exact) <= 1e-6

    def test_gauged_plane_wave(self):
        A, n = 0.8, 2
        v0 = lab.gauge_field(lab.plane_wave(12, n, A), 0.0)
        cfg = lab.SolveConfig(cutoff=12, horizon=0.05, steps=80,
                              equation=lab.Equation.GAUGED, tol=1e-11)
        rep = lab.picard_solve(v0, cfg)
        wave = lab.plane_wave_solution(12, n, A, 0.05, 80)
        exact = lab.Trajectory(lab.gauge_field(wave.coeffs, wave.times), wave.window)
        assert rep.converged
        assert rep.trajectory.sup_l2_distance(exact) <= 1e-7

    def test_shifted_nls_plane_wave(self):
        # single mode: (|u|^2 - 2 mean) u = -|A|^2 u, so the phase slows by |A|^2
        A, n = 0.9, 1
        cfg = lab.SolveConfig(cutoff=8, horizon=0.1, steps=100,
                              equation=lab.Equation.SHIFTED_NLS, tol=1e-11)
        rep = lab.picard_solve(lab.plane_wave(8, n, A), cfg)
        theta = A * A - n * n  # i d_t u = -d_xx u - |A|^2 u on the ansatz
        dt = 2 * 0.1 / 100
        times = -0.1 + dt * np.arange(101)
        exact = Trajectory(
            np.array([lab.plane_wave(8, n, A * np.exp(1j * theta * t)) for t in times]), 0.1
        )
        assert rep.converged
        assert rep.trajectory.sup_l2_distance(exact) <= 1e-7

    def test_mass_conservation(self):
        cfg = lab.SolveConfig(cutoff=16, horizon=0.05, steps=80, tol=1e-10)
        u0 = lab.random_field(16, np.random.default_rng(5), active_cutoff=4, l2_norm=0.4)
        rep = lab.picard_solve(u0, cfg)
        assert rep.converged
        assert rep.mass_drift <= 10.0 * cfg.tol

    @pytest.mark.parametrize("amp,mode,horizon", [(1.0, 2, 0.2), (0.5, 3, 0.3)])
    def test_fourth_order_in_time(self, amp, mode, horizon):
        # doubling the steps cuts the error about 16x at fourth order (8x at third)
        def error(steps):
            cfg = lab.SolveConfig(cutoff=8, horizon=horizon, steps=steps, tol=1e-14)
            rep = lab.picard_solve(lab.plane_wave(8, mode, amp), cfg)
            assert rep.converged
            exact = lab.plane_wave_solution(8, mode, amp, horizon, steps)
            return rep.trajectory.sup_l2_distance(exact)

        assert error(40) >= 12.0 * error(80)

    def test_nonconvergence_flagged(self):
        cfg = lab.SolveConfig(cutoff=8, horizon=1.0, steps=40, max_iter=8, tol=1e-12)
        rep = lab.picard_solve(lab.plane_wave(8, 1, 1.5), cfg)
        assert not rep.converged
        assert len(rep.residual_history) >= 2
        assert np.isfinite(rep.residual_history[-1])

    def test_contraction_rate_improves_with_shorter_window(self):
        def tail_ratio(horizon):
            cfg = lab.SolveConfig(cutoff=8, horizon=horizon, steps=64, tol=1e-13,
                                  max_iter=25)
            rep = lab.picard_solve(lab.plane_wave(8, 1, 1.0), cfg)
            hist = rep.residual_history
            ratios = [b / a for a, b in zip(hist, hist[1:]) if a > 1e-14]
            return ratios[-1]

        assert tail_ratio(0.05) < tail_ratio(0.2) < 1.0

    def test_fixed_point_unique_under_perturbed_start(self):
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, tol=1e-12)
        u0 = lab.plane_wave(8, 1, 1.0)
        base = lab.picard_solve(u0, cfg)
        rng = np.random.default_rng(17)
        cur = base.trajectory.coeffs + np.array(
            [lab.random_field(8, rng, l2_norm=1e-3) for _ in range(cfg.steps + 1)])
        phase = lab.free_phase(time_grid(cfg.horizon, cfg.steps), 8)
        linear, dt = phase * u0, 2.0 * cfg.horizon / cfg.steps
        for _ in range(cfg.max_iter):
            nxt = linear + lab.duhamel(forcing_field(cur, cfg.equation, 8), phase, dt)
            step, cur = np.max(np.linalg.norm(nxt - cur, axis=1)), nxt
            if step <= cfg.tol:
                break
        assert step <= cfg.tol
        assert base.trajectory.sup_l2_distance(Trajectory(cur, cfg.horizon)) <= 1e-10

    def test_cross_check_integrator_agrees(self):
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=60, tol=1e-12,
                              cross_check=True)
        rep = lab.picard_solve(lab.plane_wave(8, 1, 1.0), cfg)
        assert rep.cross_check_gap is not None
        assert rep.cross_check_gap <= 1e-8

    def test_cross_check_on_gauged_equation(self):
        u0 = lab.random_field(8, np.random.default_rng(51), active_cutoff=3, l2_norm=0.3)
        v0 = lab.gauge_field(u0, 0.0)
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=60, tol=1e-12,
                              equation=lab.Equation.GAUGED, cross_check=True)
        rep = lab.picard_solve(v0, cfg)
        assert rep.converged
        assert rep.cross_check_gap <= 1e-8


class TestIntegralResidual:
    def test_exact_plane_wave_small(self):
        traj = lab.plane_wave_solution(16, 1, 1.0, 0.1, 100)
        assert integral_residual(traj, lab.Equation.DNLS) <= 1e-8

    def test_free_flow_zero(self):
        u0 = lab.random_field(8, np.random.default_rng(2), l2_norm=1.0)
        dt = 0.2 / 40
        times = -0.1 + dt * np.arange(41)
        traj = Trajectory(lab.free_phase(times, 8) * u0, 0.1)
        assert integral_residual(traj, lab.Equation.FREE) <= 1e-13

    def test_corrupted_sample_detected(self):
        traj = lab.plane_wave_solution(8, 1, 1.0, 0.1, 40)
        coeffs = traj.coeffs.copy()
        coeffs[10, 8 + 2] += 1e-3
        corrupted = Trajectory(coeffs, 0.1)
        assert integral_residual(corrupted, lab.Equation.DNLS) >= 1e-4

    def test_odd_step_trajectory_is_rejected(self):
        traj = lab.plane_wave_solution(8, 1, 1.0, 0.1, 41)
        with pytest.raises(ValueError, match="even step count"):
            integral_residual(traj, lab.Equation.DNLS)

    def test_two_step_trajectory_is_rejected(self):
        traj = lab.plane_wave_solution(8, 1, 1.0, 0.1, 2)
        with pytest.raises(ValueError, match="step count >= 4 .*got 2"):
            integral_residual(traj, lab.Equation.DNLS)

    def test_time_reversal_symmetry(self):
        # conj(u(-t, -x)) solves the same equation; check via the residual
        cfg = lab.SolveConfig(cutoff=12, horizon=0.05, steps=60, tol=1e-11)
        u0 = lab.random_field(12, np.random.default_rng(23), active_cutoff=4, l2_norm=0.4)
        rep = lab.picard_solve(u0, cfg)
        flipped = Trajectory(np.conj(rep.trajectory.coeffs[::-1]), rep.trajectory.window)
        assert integral_residual(flipped, lab.Equation.DNLS) <= 20 * cfg.tol


class TestGaugePipeline:
    def test_plane_wave_recovery(self):
        cfg = lab.SolveConfig(cutoff=16, horizon=0.1, steps=100, tol=1e-10)
        rep = lab.solve_via_gauge(lab.plane_wave(16, 1, 1.0), cfg)
        exact = lab.plane_wave_solution(16, 1, 1.0, 0.1, 100)
        assert rep.converged
        assert rep.trajectory.sup_l2_distance(exact) <= 1e-6
        assert rep.integral_residual <= 1e-7
        assert rep.gauge_residual is not None and rep.gauge_residual <= 1e-7

    def test_gauge_tail_reported(self):
        # a plane wave has zero mass primitive: the phase product stays in the band
        cfg = lab.SolveConfig(cutoff=16, horizon=0.05, steps=40, tol=1e-10)
        rep = lab.solve_via_gauge(lab.plane_wave(16, 1, 1.0), cfg)
        assert rep.gauge_tail < 1e-14
        assert rep.to_json_dict()["gauge_tail"] == rep.gauge_tail
        u0 = lab.random_field(16, np.random.default_rng(17), active_cutoff=4, l2_norm=0.3)
        rep = lab.solve_via_gauge(u0, cfg)
        assert rep.converged and math.isfinite(rep.gauge_tail) and rep.gauge_tail < 1e-6
        direct = lab.picard_solve(u0, cfg)
        assert direct.gauge_tail is None and direct.to_json_dict()["gauge_tail"] is None

    def test_cross_check_integrator_agrees(self):
        u0 = lab.random_field(16, np.random.default_rng(53), active_cutoff=4, l2_norm=0.1)
        cfg = lab.SolveConfig(cutoff=16, horizon=0.05, steps=40, tol=1e-12, cross_check=True)
        rep = lab.solve_via_gauge(u0, cfg)
        assert rep.converged
        assert rep.cross_check_gap is not None
        assert rep.cross_check_gap <= 1e-8

    def test_zero_datum(self):
        cfg = lab.SolveConfig(cutoff=8, horizon=0.1, steps=20)
        rep = lab.solve_via_gauge(np.zeros(17, dtype=complex), cfg)
        assert not rep.trajectory.coeffs.any()

    def test_agrees_with_direct_solve(self):
        u0 = 0.1 * (lab.constant_field(32, 1.0) + lab.plane_wave(32, 1))
        cfg = lab.SolveConfig(cutoff=32, horizon=0.05, steps=100, tol=1e-11)
        via = lab.solve_via_gauge(u0, cfg)
        direct = lab.picard_solve(u0, cfg)
        assert via.converged and direct.converged
        assert via.trajectory.sup_l2_distance(direct.trajectory) <= 1e-5

    def test_gauge_equivalence_both_directions(self):
        cfg = lab.SolveConfig(cutoff=16, horizon=0.05, steps=80, tol=1e-11)
        u0 = lab.random_field(16, np.random.default_rng(31), active_cutoff=4, l2_norm=0.3)
        direct = lab.picard_solve(u0, cfg)
        traj = direct.trajectory
        gauged_traj = lab.Trajectory(lab.gauge_field(traj.coeffs, traj.times), traj.window)
        assert integral_residual(gauged_traj, lab.Equation.GAUGED) <= 1e-7
        back = lab.Trajectory(lab.gauge_field_inv(gauged_traj.coeffs, traj.times), traj.window)
        assert integral_residual(back, lab.Equation.DNLS) <= 1e-7

    def test_forcing_takes_the_equation_or_its_name(self):
        u = lab.random_field(4, np.random.default_rng(42), l2_norm=1.0)
        for equation in lab.Equation:
            by_name = forcing_field(u, equation.value, 4)
            assert np.array_equal(by_name, forcing_field(u, equation, 4))
        with pytest.raises(ValueError, match="'bogus' is not a valid Equation"):
            forcing_field(u, "bogus", 4)

    def test_forcing_band_accounting(self):
        u = lab.random_field(4, np.random.default_rng(41), l2_norm=1.0)
        full = forcing_field(u, lab.Equation.DNLS, out_cutoff=12)
        assert tail_l2(full, 4) > 0.0  # the cubic genuinely spills past the band
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, tol=1e-11)
        rep = lab.picard_solve(lab.plane_wave(8, 1, 1.0), cfg)
        assert rep.truncated_tail_mass < 1e-12  # single mode: nothing to truncate


class TestBatchedForcing:
    @pytest.mark.parametrize("equation", list(lab.Equation))
    def test_matrix_matches_rows(self, equation):
        traj = lab.random_trajectory(6, np.random.default_rng(51), steps=12)
        for out in (6, forcing_band(equation, 6)):
            whole = forcing_field(traj.coeffs, equation, out)
            rows = np.array([forcing_field(row, equation, out) for row in traj.coeffs])
            assert whole.shape == (13, 2 * out + 1)
            assert np.max(np.abs(whole - rows)) <= 1e-14

    @pytest.mark.parametrize("equation", ["dnls", "shifted-nls", "gauged"])
    def test_large_matrix_equals_its_rows_bit_for_bit(self, equation):
        # every grid of a (201, 65) matrix takes 256 KiB or more, where numpy
        # writes an implicit product into a right-hand temporary with its
        # operands swapped; the forcing names its operand order, so a row gets
        # the bits it gets inside the matrix
        coeffs = lab.random_trajectory(32, np.random.default_rng(55), window=0.05,
                                       steps=200).coeffs
        for out in (32, forcing_band(lab.Equation(equation), 32)):
            whole = forcing_field(coeffs, equation, out)
            rows = np.array([forcing_field(row, equation, out) for row in coeffs])
            assert whole.shape == (201, 2 * out + 1)
            assert whole.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("equation", list(lab.Equation))
    def test_fft_calls_do_not_grow_with_steps(self, monkeypatch, equation):
        calls = []

        def counting(name):
            original = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counting(name))
        counts = []
        for steps in (4, 40):
            calls.clear()
            traj = lab.random_trajectory(6, np.random.default_rng(52), steps=steps)
            forcing_field(traj.coeffs, equation, 6)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 5

    def test_one_forcing_evaluation_per_iterate_plus_one(self, monkeypatch):
        calls = []

        def counting(coeffs, *args, **kwargs):
            calls.append(coeffs.shape)
            return forcing_field(coeffs, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "forcing_field", counting)
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, equation=lab.Equation.GAUGED,
                              tol=1e-11)
        u0 = lab.random_field(8, np.random.default_rng(53), active_cutoff=4, l2_norm=0.3)
        rep = lab.picard_solve(u0, cfg)
        assert len(calls) == len(rep.residual_history) + 1
        assert all(shape == (41, 17) for shape in calls)

    def test_via_gauge_makes_one_full_band_pass_on_the_raw_trajectory(self, monkeypatch):
        # the gauged loop at the N band, then the report's diagnostics of the
        # ungauged trajectory: no diagnostics of the gauged iterate, no second pass
        calls = []

        def counting(coeffs, equation, out_cutoff):
            calls.append((coeffs.shape, lab.Equation(equation), out_cutoff))
            return forcing_field(coeffs, equation, out_cutoff)

        monkeypatch.setattr(solver_mod, "forcing_field", counting)
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, tol=1e-11)
        u0 = lab.random_field(8, np.random.default_rng(53), active_cutoff=4, l2_norm=0.3)
        rep = lab.solve_via_gauge(u0, cfg)
        assert len(calls) == len(rep.residual_history) + 1
        assert calls[:-1] == [((41, 17), lab.Equation.GAUGED, 8)] * (len(calls) - 1)
        assert calls[-1] == ((41, 17), lab.Equation.DNLS, 24)

    def test_one_free_phase_per_solve(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return lab.free_phase(*args)

        monkeypatch.setattr(solver_mod, "free_phase", counting)
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, tol=1e-11)
        u0 = lab.random_field(8, np.random.default_rng(53), active_cutoff=4, l2_norm=0.3)
        rep = lab.picard_solve(u0, cfg)
        assert len(rep.residual_history) == 5
        assert len(calls) == 1

    def test_via_gauge_residual_matches_a_fresh_evaluation(self):
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, tol=1e-6)
        u0 = lab.random_field(8, np.random.default_rng(54), active_cutoff=4, l2_norm=0.5)
        rep = lab.solve_via_gauge(u0, cfg)
        traj = rep.trajectory
        assert rep.integral_residual > 1e-13
        assert rep.integral_residual == integral_residual(traj, lab.Equation.DNLS)
        # the tail is the saved raw trajectory's, not the gauged iterate's
        tails = tail_l2(forcing_field(traj.coeffs, lab.Equation.DNLS, 24), 8)
        assert rep.truncated_tail_mass == pytest.approx(max(tails), rel=1e-12)

    @pytest.mark.parametrize("equation", [lab.Equation.DNLS, lab.Equation.GAUGED,
                                          lab.Equation.SHIFTED_NLS])
    def test_report_diagnostics_match_fresh_evaluations(self, equation):
        # a loose tol leaves a residual well above round-off to compare
        cfg = lab.SolveConfig(cutoff=8, horizon=0.05, steps=40, equation=equation, tol=1e-6)
        u0 = lab.random_field(8, np.random.default_rng(54), active_cutoff=4, l2_norm=0.5)
        rep = lab.picard_solve(u0, cfg)
        traj = rep.trajectory
        assert rep.integral_residual > 1e-13
        assert rep.integral_residual == integral_residual(traj, equation)
        band = forcing_band(equation, 8)
        tails = tail_l2(forcing_field(traj.coeffs, equation, band), 8)
        assert max(tails) > 0.0
        assert rep.truncated_tail_mass == pytest.approx(max(tails), rel=1e-12)


class TestDatum:
    @pytest.mark.parametrize("solve", [lab.picard_solve, lab.rk4_solve, lab.solve_via_gauge])
    @pytest.mark.parametrize("shape", [(3, 17), (16,)], ids=["two-dim", "even-length"])
    def test_rejects_a_datum_that_is_not_one_odd_row(self, solve, shape):
        cfg = lab.SolveConfig(cutoff=8, horizon=0.1, steps=20)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            solve(np.zeros(shape, dtype=complex), cfg)

    @pytest.mark.parametrize("solve", [lab.picard_solve, lab.solve_via_gauge])
    def test_a_wider_datum_is_truncated_to_the_band(self, solve):
        cfg = lab.SolveConfig(cutoff=4, horizon=0.05, steps=10)
        u0 = lab.random_field(6, np.random.default_rng(55), l2_norm=0.3)
        wide, narrow = solve(u0, cfg), solve(u0[2:-2], cfg)
        assert wide.trajectory.coeffs.tobytes() == narrow.trajectory.coeffs.tobytes()
        assert wide.mass_drift == narrow.mass_drift
