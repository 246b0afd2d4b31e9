"""Transforms, derivatives, and the weighted norm evaluators."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnlslab as lab
import dnlslab.estimates as estimates_mod
import dnlslab.norms as norms_mod
from dnlslab.fields import (ROOT_TWO_PI, TRAJECTORY_BLOCK, TRAJECTORY_MAX_RATE,
                            TRAJECTORY_MODES, time_grid, x_grid)
from support import (DirectNormTables, direct_space_time_transform, direct_xst_norms,
                     embedding_scan, free_wave_trajectory)

RNG = np.random.default_rng(1111)


def padded_xst_norm(traj: lab.Trajectory, specs: list, pad_factor: int) -> list[float]:
    """The X^{s,b}_{r,p} norms of the windowed trajectory at another time-padding factor
    than the package's fixed one, by the per-call oracle that the norm tables match."""
    return direct_xst_norms(traj.windowed(), traj.window, specs, pad_factor)


def quadrature_transform(samples, grid, xi):
    """Independent oracle: trapezoid quadrature of the defining integral."""
    # uniform grid on [0, 2pi): the trapezoid rule reduces to a plain mean
    integrand = samples * np.exp(-1j * grid * xi)
    return (2.0 * math.pi / len(grid)) * np.sum(integrand) / ROOT_TWO_PI


class TestFromPhysical:
    def test_constant_matches_quadrature(self):
        grid = x_grid(64)
        f = lab.from_physical(np.ones(64), 16)
        oracle = quadrature_transform(np.ones(64), grid, 0)
        assert abs(f[16] - oracle) < 1e-13
        assert abs(f[16] - ROOT_TWO_PI) < 1e-13
        assert all(abs(f[16 + k]) < 1e-13 for k in range(1, 17))

    def test_pure_exponential(self):
        grid = x_grid(64)
        samples = np.exp(1j * grid)
        f = lab.from_physical(samples, 16)
        assert abs(f[16 + 1] - ROOT_TWO_PI) < 1e-13
        assert abs(f[16 + 1] - quadrature_transform(samples, grid, 1)) < 1e-13
        assert abs(f[16]) < 1e-13 and abs(f[16 - 1]) < 1e-13

    def test_zero(self):
        f = lab.from_physical(np.zeros(33), 16)
        assert np.linalg.norm(f) == 0.0

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            lab.from_physical(np.ones(16), 16)


class TestToPhysical:
    def test_round_trip_random(self):
        f = lab.random_field(16, np.random.default_rng(5), l2_norm=1.0)
        back = lab.from_physical(lab.to_physical(f, 48), 16)
        assert np.linalg.norm(back - f) <= 1e-12

    def test_single_mode_series(self):
        vals = lab.to_physical(lab.plane_wave(4, 1), 32)
        assert np.max(np.abs(vals - np.exp(1j * x_grid(32)))) < 1e-13

    def test_zero_and_grid_guard(self):
        assert np.all(lab.to_physical(np.zeros(9, dtype=complex), 16) == 0)
        with pytest.raises(ValueError):
            lab.to_physical(np.zeros(17, dtype=complex), 9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, cutoff, seed):
        f = lab.random_field(cutoff, np.random.default_rng(seed))
        back = lab.from_physical(lab.to_physical(f, 2 * cutoff + 1), cutoff)
        assert np.linalg.norm(back - f) <= 1e-12 * max(1.0, np.linalg.norm(f))


class TestDerivativeAndMean:
    def test_exponential_eigenfunction(self):
        w = lab.plane_wave(8, 1)
        assert np.linalg.norm(lab.derivative(w) - 1j * w) < 1e-13

    def test_constant_derivative(self):
        assert np.linalg.norm(lab.derivative(lab.constant_field(8, 3.0))) == 0.0

    def test_sine_derivative_pointwise(self):
        grid = x_grid(64)
        f = lab.from_physical(np.sin(2 * grid), 8)
        df = lab.to_physical(lab.derivative(f), 64)
        assert np.max(np.abs(df - 2 * np.cos(2 * grid))) < 1e-12

    def test_mean_values(self):
        assert abs(lab.mean_value(lab.constant_field(8, 1.0)) - 1.0) < 1e-14
        assert abs(lab.mean_value(lab.plane_wave(8, 1))) < 1e-14
        f = lab.constant_field(8, 2.0) + lab.plane_wave(8, 3)
        assert abs(lab.mean_value(f) - 2.0) < 1e-13

    def test_conjugation_coefficients(self):
        # conj(u) has the coefficients conj(coeff(-xi)): the reversed, conjugated row
        f = lab.random_field(6, np.random.default_rng(2))
        g = lab.from_physical(np.conj(lab.to_physical(f, 32)), 6)
        assert np.max(np.abs(g - np.conj(f[::-1]))) < 1e-14


class TestTrajectory:
    @pytest.mark.parametrize("shape,window", [((9,), 1.0), ((1, 9), 1.0), ((5, 8), 1.0),
                                              ((5, 9), 0.0), ((3, 3), math.nan),
                                              ((3, 3), math.inf)],
                             ids=["one-dim", "one-row", "even-width", "zero-window",
                                  "nan-window", "inf-window"])
    def test_rejects_bad_matrix_or_window(self, shape, window):
        with pytest.raises(ValueError):
            lab.Trajectory(np.zeros(shape), window)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_profile_rejects_scale_that_is_not_finite_and_positive(self, tmp_path, scale):
        # a file's profile can only restate the bump at half the window
        path = tmp_path / "t.csv"
        lab.save_trajectory(path, lab.Trajectory(np.zeros((3, 3)), 1.0))
        head, body = path.read_text().split("\n", 1)
        profile = json.dumps({"kind": "bump", "scale": scale})
        path.write_text(head.replace('"cutoff_profile":null', f'"cutoff_profile":{profile}')
                        + "\n" + body)
        with pytest.raises(ValueError, match="cutoff profile must be null or the bump"):
            lab.load_trajectory(path)

    def test_grid_needs_a_step(self):
        with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
            time_grid(1.0, 0)

    @pytest.mark.parametrize("steps", [2.5, 16.0, True])
    def test_grid_needs_an_integer_step_count(self, steps):
        # 2.5 would give the grid [-1, -0.2, 0.6, 1.4], which runs past its window
        with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
            time_grid(1.0, steps)

    @pytest.mark.parametrize("kwargs,message", [
        ({"steps": 0}, "steps must be >= 1, got 0"),
        ({"steps": 2.5}, "steps must be an integer, got 2.5"),
        ({"window": math.nan}, "window must be finite and positive, got nan"),
        ({"window": math.inf}, "window must be finite and positive, got inf"),
        ({"window": 0.0}, "window must be finite and positive, got 0.0"),
        ({"window": -1.0}, "window must be finite and positive, got -1.0"),
    ])
    def test_random_trajectory_rejects_a_bad_grid(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            lab.random_trajectory(2, np.random.default_rng(1), **kwargs)

    def test_distance_needs_equal_shapes(self):
        a, b = lab.Trajectory(np.zeros((3, 3)), 1.0), lab.Trajectory(np.zeros((5, 3)), 1.0)
        with pytest.raises(ValueError, match="different sample counts or cutoffs"):
            a.sup_l2_distance(b)

    def test_grid_from_shape_and_read_only_copy(self):
        coeffs = np.zeros((5, 9), dtype=complex)
        traj = lab.Trajectory(coeffs, 1.0)
        assert (traj.cutoff, traj.steps, traj.dt) == (4, 4, 0.5)
        coeffs[0, 0] = 1.0
        assert traj.coeffs[0, 0] == 0.0
        assert not traj.coeffs.flags.writeable


class TestHNorm:
    """data_norms, the norm of the data spaces H^s_r, on one coefficient row."""

    def test_constant_pin(self):
        spec = lab.NormSpec(s=0.0, r=2.0)
        assert abs(lab.data_norms(lab.constant_field(8, 1.0), spec) - ROOT_TWO_PI) < 1e-13

    def test_exponential_pin(self):
        for r in (1.5, 2.0, 3.0):
            spec = lab.NormSpec(s=1.0, r=r)
            val = lab.data_norms(lab.plane_wave(8, 1), spec)
            assert abs(val - math.sqrt(2.0) * ROOT_TWO_PI) < 1e-12

    def test_zero(self):
        assert lab.data_norms(np.zeros(17, dtype=complex), lab.NormSpec(s=2.0, r=1.5)) == 0.0

    def test_a_zero_coefficient_adds_0_under_an_overflowing_weight(self):
        row = np.array([0.0, 2.0, 0.0], dtype=complex)
        assert lab.data_norms(row, lab.NormSpec(s=2100.0, r=2.0)) == 2.0
        with pytest.raises(ValueError, match=r"^s must keep every weighted coefficient .* 2100\.0$"):
            lab.data_norms(np.array([1.0, 2.0, 0.0], dtype=complex), lab.NormSpec(s=2100.0, r=2.0))

    def test_parseval_against_quadrature(self):
        f = lab.random_field(16, np.random.default_rng(7), l2_norm=2.0)
        vals = lab.to_physical(f, 128)
        quad = math.sqrt(2.0 * math.pi / 128 * np.sum(np.abs(vals) ** 2))
        assert abs(lab.data_norms(f, lab.NormSpec(s=0.0, r=2.0)) - quad) <= 1e-10

    def test_monotone_in_lebesgue_index(self):
        # data-norm families embed downward: the norm never decreases in r
        for seed in range(5):
            f = lab.random_field(12, np.random.default_rng(seed), l2_norm=1.0)
            for s in (0.0, 0.5):
                vals = [lab.data_norms(f, lab.NormSpec(s=s, r=r)) for r in (1.2, 1.5, 2.0, 3.0)]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_conjugation_symmetry(self):
        f = lab.random_field(10, np.random.default_rng(3))
        for r in (1.4, 2.0):
            spec = lab.NormSpec(s=0.7, r=r)
            assert abs(lab.data_norms(np.conj(f[::-1]), spec) - lab.data_norms(f, spec)) < 1e-12

    def test_degenerate_exponents_rejected(self):
        with pytest.raises(ValueError):
            lab.NormSpec(s=0.0, r=1.0)
        with pytest.raises(ValueError):
            lab.NormSpec(s=0.0, r=math.inf)
        for bad in ({"s": math.nan}, {"s": math.inf}, {"s": 0.5, "b": math.nan},
                    {"s": 0.5, "b": -math.inf}):
            with pytest.raises(ValueError, match="must be finite"):
                lab.NormSpec(r=2.0, **bad)
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\], got 0.5"):
            lab.NormSpec(0.0, 2.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="space-time exponent p not set"):
            lab.NormSpec(0.0, 2.0).p_dual
        with pytest.raises(ValueError, match="space-time norm needs both b and p"):
            lab.xst_norm(np.zeros((9, 5)), 1.0, [lab.NormSpec(0.0, 2.0)])


class TestSpaceTimeNorms:
    def test_zero_trajectory(self):
        traj = free_wave_trajectory(0, cutoff=2, steps=64, amplitude=0.0)
        specs = [lab.NormSpec(s=0.5, r=2.0, b=0.5, p=2.0), *lab.z_specs(0.5, 2.0)]
        assert lab.xst_norm(traj.windowed(), traj.window, specs) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("b,p", [(0.5, 2.0), (0.0, math.inf)])
    def test_free_wave_scaling(self, b, p):
        # the modulation shift cancels the weight: norm / <n>^s is n-independent
        vals = []
        for n in (0, 4, 16):
            traj = free_wave_trajectory(n, cutoff=max(n, 1), window=2.0, steps=512)
            spec = lab.NormSpec(s=0.5, r=2.0, b=b, p=p)
            vals.append(padded_xst_norm(traj, [spec], 8)[0] / lab.bracket(n) ** 0.5)
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 1e-2

    def test_free_wave_scaling_refines(self):
        def spread(pad):
            vals = []
            for n in (0, 4):
                traj = free_wave_trajectory(n, cutoff=max(n, 1), window=2.0, steps=512)
                spec = lab.NormSpec(s=0.5, r=2.0, b=0.0, p=math.inf)
                vals.append(padded_xst_norm(traj, [spec], pad)[0] / lab.bracket(n) ** 0.5)
            return abs(vals[1] - vals[0]) / max(vals)

        assert spread(8) < spread(2) + 1e-12

    def test_z_norm_dominates_components(self):
        traj = lab.random_trajectory(8, np.random.default_rng(4), window=1.0, steps=128)
        w = traj.windowed()
        z = max(lab.xst_norm(w, traj.window, lab.z_specs(0.5, 2.0)))
        [a] = lab.xst_norm(w, traj.window, [lab.NormSpec(s=0.5, r=2.0, b=0.5, p=2.0)])
        [c] = lab.xst_norm(w, traj.window, [lab.NormSpec(s=0.5, r=2.0, b=0.0, p=math.inf)])
        assert z + 1e-12 >= a and z + 1e-12 >= c and z <= a + c

    def test_free_wave_z_norm_scales(self):
        vals = []
        for n in (1, 4):
            traj = free_wave_trajectory(n, cutoff=n, window=2.0, steps=512)
            vals.append(max(padded_xst_norm(traj, lab.z_specs(0.5, 2.0), 8))
                        / lab.bracket(n) ** 0.5)
        assert abs(vals[0] - vals[1]) / max(vals) < 1e-2

    def test_sup_dual_exponent(self):
        # p = 1 dualizes to the sup in tau: the window transform's peak value
        from scipy.integrate import quad

        from dnlslab.fields import bump

        traj = free_wave_trajectory(0, cutoff=1, window=2.0, steps=256)
        [val] = lab.xst_norm(traj.windowed(), traj.window,
                             [lab.NormSpec(s=0.0, r=2.0, b=0.0, p=1.0)])
        peak = quad(bump, -2, 2)[0]
        assert abs(val - peak) / peak < 1e-3

    def test_solver_trajectory_is_windowed_by_the_bump_at_half_its_window(self):
        traj = lab.plane_wave_solution(2, 1, 1.0, 0.1, 16)
        weights = lab.bump(traj.times / (traj.window / 2.0))
        assert traj.windowed().tobytes() == (traj.coeffs * weights[:, None]).tobytes()
        assert weights[0] == weights[-1] == 0.0 and weights[8] == 1.0

    def test_one_call_gives_each_spec_its_single_spec_value(self):
        traj = lab.random_trajectory(5, np.random.default_rng(6), window=1.0, steps=16)
        w = traj.windowed()
        a = lab.NormSpec(s=0.5, r=2.0, b=0.5, p=2.0)
        b = lab.NormSpec(s=0.2, r=1.6, b=-0.3, p=math.inf)
        want = [lab.xst_norm(w, traj.window, [spec])[0] for spec in (a, a, b)]
        assert lab.xst_norm(w, traj.window, [a, a, b]) == want


class TestNormTables:
    """The tables path equals, bit for bit, the norms with every weight built per call."""

    SPECS = [lab.NormSpec(s=0.5, r=2.0, b=0.5, p=2.0), lab.NormSpec(s=0.3, r=1.5, b=-0.4, p=2.0),
             lab.NormSpec(s=0.0, r=1.8, b=0.2, p=math.inf),
             lab.NormSpec(s=0.5, r=2.0, b=-0.5, p=math.inf)]

    @pytest.mark.parametrize("cutoff", [3, 8])
    @pytest.mark.parametrize("window", [1.0, 4.0], ids=["1", "4"])
    def test_every_norm_equals_the_per_call_oracle(self, cutoff, window):
        traj = lab.random_trajectory(cutoff, np.random.default_rng(cutoff), window=window,
                                     steps=24)
        w = traj.windowed()
        tables = norms_mod._NormTables(traj.steps, traj.window, cutoff, self.SPECS)
        want_tau, want_F = direct_space_time_transform(w, traj.window)
        assert np.array_equal(tables.tau, want_tau)
        assert np.array_equal(tables.transform(w), want_F)
        assert lab.xst_norm(w, traj.window, self.SPECS) == direct_xst_norms(
            w, traj.window, self.SPECS)
        assert max(lab.xst_norm(w, traj.window, lab.z_specs(0.3, 1.5))) == max(direct_xst_norms(
            w, traj.window, [lab.NormSpec(s=0.3, r=1.5, b=0.5, p=2.0),
                             lab.NormSpec(s=0.3, r=1.5, b=0.0, p=math.inf)]))

    @pytest.mark.parametrize("scan", [
        lambda: lab.cubic_ratio_scan(q=1.5, r=1.8, samples=4, cutoff=3, seed=8, steps=16),
        lambda: lab.strichartz_ratio_scan(s=0.3, b=0.4, samples=4, cutoff=3, seed=8, steps=16),
        lambda: lab.quintic_ratio_scan(q=1.5, r=1.8, b=0.45, samples=4, cutoff=3, seed=8,
                                       steps=16),
    ], ids=["cubic", "strichartz", "quintic"])
    def test_ratio_scan_values_equal_the_per_call_oracle(self, monkeypatch, scan):
        values = scan().values
        monkeypatch.setattr(estimates_mod, "_NormTables", DirectNormTables)
        assert values == scan().values


class TestTransformGrid:
    """The tables' grid arrays give the per-call transform and draw, bit for bit."""

    @pytest.mark.parametrize("cutoff,window,steps", [(3, 1.0, 24), (5, 0.5, 15)],
                             ids=["window-1-steps-24-pad-4", "window-0.5-steps-15-pad-4"])
    def test_transform_equals_the_inline_reference(self, cutoff, window, steps):
        traj = lab.random_trajectory(cutoff, np.random.default_rng(steps), window, steps)
        data = traj.coeffs * lab.bump(traj.times / (window / 2.0))[:, None]
        assert traj.windowed().tobytes() == data.tobytes()
        tau = 2.0 * math.pi * np.fft.fftfreq(4 * (steps + 1), d=traj.dt)
        order = np.argsort(tau)
        tau = tau[order]
        spec = np.fft.fft(data, n=len(tau), axis=0)[order]
        want = (traj.dt / ROOT_TWO_PI) * np.exp(-1j * tau * traj.times[0])[:, None] * spec
        for _ in range(2):  # the second build makes its grid again
            tables = norms_mod._NormTables(steps, window, cutoff, [])
            got = tables.transform(traj.windowed())
            assert tables.tau.tobytes() == tau.tobytes() and got.tobytes() == want.tobytes()

    def test_two_transforms_share_no_state(self):
        want = np.sort(2.0 * math.pi * np.fft.fftfreq(4 * 17, d=2.0 / 16))
        norms_mod._NormTables(16, 1.0, 3, []).tau[:] = 0.0
        tau = norms_mod._NormTables(16, 1.0, 3, []).tau
        assert tau.tobytes() == want.tobytes()

    @staticmethod
    def trajectory_draws(cutoff, rng):
        """The three generator calls of a trajectory draw: base and rates, one per mode."""
        shape = (2 * cutoff + 1, TRAJECTORY_MODES)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return base, rng.uniform(-TRAJECTORY_MAX_RATE, TRAJECTORY_MAX_RATE, size=shape)

    @pytest.mark.parametrize("cutoff,window,steps", [(0, 2.0, 1), (4, 1.0, 16), (9, 0.3, 33),
                                                     (3, 0.5, 7), (2, 1.0, 64), (128, 1.0, 512)])
    def test_random_trajectory_equals_the_summed_formula(self, cutoff, window, steps):
        base, rates = self.trajectory_draws(cutoff, np.random.default_rng(cutoff + steps))
        xi = np.arange(-cutoff, cutoff + 1)
        amplitudes = base * (lab.bracket(xi) ** -1.0 / math.sqrt(TRAJECTORY_MODES))[:, None]
        dt = 2.0 * window / steps
        coarse = [np.exp(1j * rates * t) * amplitudes
                  for t in time_grid(window, steps)[::TRAJECTORY_BLOCK]]
        fine = [np.exp(1j * rates * (dt * b)) for b in range(TRAJECTORY_BLOCK)]
        want = np.empty((steps + 1, 2 * cutoff + 1), dtype=complex)
        for k in range(steps + 1):
            a, b = divmod(k, TRAJECTORY_BLOCK)
            terms = coarse[a] * fine[b]
            want[k] = terms[:, 0] + terms[:, 1] + terms[:, 2]
        traj = lab.random_trajectory(cutoff, np.random.default_rng(cutoff + steps), window, steps)
        assert traj.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [0.05, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("steps", [1, 7, 8, 9, 12, 64, 117, 512])
    def test_random_trajectory_is_within_round_off_of_the_direct_sum(self, window, steps):
        cutoff = 6
        base, rates = self.trajectory_draws(cutoff, np.random.default_rng(steps))
        profile = lab.bracket(np.arange(-cutoff, cutoff + 1)) ** -1.0 / math.sqrt(TRAJECTORY_MODES)
        waves = np.exp(1j * rates * time_grid(window, steps)[:, None, None])
        terms = base * profile[:, None] * waves
        got = lab.random_trajectory(cutoff, np.random.default_rng(steps), window, steps).coeffs
        # t_k is rounded about three times on either side, each time by at most
        # window*eps, and rate*t_k once more: the phases may differ by
        # 4*TRAJECTORY_MAX_RATE*window eps, the exps and products by a few eps
        eps = np.finfo(float).eps
        bound = (4.0 + 4.0 * TRAJECTORY_MAX_RATE * window) * eps * np.abs(terms).sum(axis=2)
        assert np.all(np.abs(got - terms.sum(axis=2)) <= bound)

    def test_random_trajectory_leaves_the_generator_where_its_three_calls_do(self):
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        lab.random_trajectory(5, rng, window=1.0, steps=20)
        self.trajectory_draws(5, reference)
        assert rng.random() == reference.random()


class TestEmbeddingScan:
    def test_parameter_guard(self):
        with pytest.raises(ValueError):
            embedding_scan([], s=0.5, r=2.0, b1=0.5, b2=0.1)

    def test_zero_trajectory_excluded(self):
        zero = free_wave_trajectory(0, cutoff=2, steps=32, amplitude=0.0)
        report = embedding_scan([zero], s=0.5, r=2.0, b1=0.6, b2=0.0)
        assert report.summary["samples_used"] == 0

    def test_random_samples_bounded_and_stable(self):
        rng = np.random.default_rng(11)
        trajs = [lab.random_trajectory(16, rng, window=1.0, steps=256) for _ in range(20)]
        report = embedding_scan(trajs, s=0.5, r=2.0, b1=0.6, b2=0.0)
        assert report.summary["samples_used"] == 20
        assert 0.0 < report.summary["max_ratio"] < 10.0
        # same fields, finer time grid: recorded constant moves only a little
        rng = np.random.default_rng(11)
        finer = [lab.random_trajectory(16, rng, window=1.0, steps=512) for _ in range(20)]
        report2 = embedding_scan(finer, s=0.5, r=2.0, b1=0.6, b2=0.0)
        rel = abs(report2.summary["max_ratio"] - report.summary["max_ratio"])
        assert rel / report.summary["max_ratio"] < 0.1

    def test_free_wave_finite_ratio(self):
        traj = free_wave_trajectory(3, cutoff=4, window=2.0, steps=256)
        report = embedding_scan([traj], s=0.5, r=2.0, b1=0.6, b2=0.0)
        assert report.summary["samples_used"] == 1
        assert np.isfinite(report.summary["max_ratio"])
