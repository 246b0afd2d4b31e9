"""Gauge transform building blocks, inverses, and the continuity probe."""
import math
import re

import numpy as np
import pytest

import dnlslab as lab
from dnlslab.fields import ROOT_TWO_PI, Trajectory, smooth_gridsize, x_grid
from dnlslab.gauge import gauge_gridsize, gauge_with_tail
from support import gauge_roundtrip_error


def primitive_oracle(u, k_target, mesh=4096):
    """Quadrature of the defining double integral for the mean-zero primitive.

    Returns the mean over starting points theta of integral_theta^{x_k} of the
    zero-mean squared modulus, evaluated at the grid point x_k.
    """
    dens = np.abs(lab.to_physical(u, mesh)) ** 2
    dens = dens - np.mean(dens)
    cumulative = np.concatenate([[0.0], np.cumsum(dens)]) * (2 * math.pi / mesh)
    return float(cumulative[k_target] - np.mean(cumulative[:-1]))


class TestMassPrimitive:
    def test_constant_input(self):
        assert np.linalg.norm(lab.mass_primitive(lab.constant_field(4, 2.5))) < 1e-13

    def test_unimodular_wave(self):
        assert np.linalg.norm(lab.mass_primitive(lab.plane_wave(4, 1))) < 1e-13

    def test_two_mode_closed_form(self):
        u = lab.constant_field(4, 1.0) + lab.plane_wave(4, 1)
        prim = lab.mass_primitive(u)
        vals = lab.to_physical(prim, 64)
        assert np.max(np.abs(vals - 2.0 * np.sin(x_grid(64)))) < 1e-12

    def test_against_double_integral_oracle(self):
        u = lab.constant_field(8, 0.7) + lab.plane_wave(8, 2, 0.4) + lab.plane_wave(8, -1, 0.3j)
        vals = lab.to_physical(lab.mass_primitive(u), 4096)
        for k in (333, 1111, 2600):
            assert abs(vals[k] - primitive_oracle(u, k)) < 5e-3  # quadrature-limited

    def test_derivative_identity_and_mean(self):
        # d/dx primitive + mean(|u|^2) = |u|^2 exactly on the doubled band
        u = lab.random_field(8, np.random.default_rng(6), l2_norm=1.3)
        prim = lab.mass_primitive(u)
        sq = lab.physical_product([u, u], conjugate=[False, True], out_cutoff=16)
        mass_mean = np.sum(np.abs(u) ** 2) / (2 * math.pi)
        recon = lab.derivative(prim) + lab.constant_field(16, mass_mean)
        assert np.linalg.norm(recon - sq) < 1e-12
        assert abs(lab.mean_value(prim)) < 1e-13

    @pytest.mark.parametrize("shape", [(), (7,)], ids=["row", "batch"])
    def test_transforms_u_once(self, monkeypatch, shape):
        # |u|^2 takes one inverse FFT of u, not one per factor
        calls = []
        for name in ("fft", "ifft"):
            def wrapper(*args, name=name, original=getattr(np.fft, name), **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, wrapper)
        u = lab.random_field(8, np.random.default_rng(6), l2_norm=1.3) * np.ones(shape + (1,))
        lab.mass_primitive(u)
        assert (calls.count("ifft"), calls.count("fft")) == (1, 1)


class TestGaugePhase:
    # at t = 0 the translation is the identity, so the maps are the phase twist
    def test_plane_wave_fixed(self):
        w = lab.plane_wave(8, 3, 1.7)
        assert np.linalg.norm(lab.gauge_field(w, 0.0) - w) < 1e-12

    def test_zero(self):
        assert np.linalg.norm(lab.gauge_field(np.zeros(17, dtype=complex), 0.0)) == 0.0

    def test_two_mode_against_physical_oracle(self):
        u = lab.constant_field(32, 1.0) + lab.plane_wave(32, 1)
        got = lab.to_physical(lab.gauge_field(u, 0.0), 256)
        grid = x_grid(256)
        expected = np.exp(-2j * np.sin(grid)) * (1.0 + np.exp(1j * grid))
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_unimodularity_before_truncation(self):
        u = lab.random_field(16, np.random.default_rng(9), l2_norm=1.0)
        prim = lab.mass_primitive(u)
        vals = lab.to_physical(prim, 128)
        assert np.max(np.abs(vals.imag)) < 1e-12
        assert np.max(np.abs(np.abs(np.exp(-1j * vals)) - 1.0)) < 1e-12

    def test_l2_preserved(self):
        u = lab.random_field(32, np.random.default_rng(10), active_cutoff=8, l2_norm=1.0)
        assert abs(np.linalg.norm(lab.gauge_field(u, 0.0)) - np.linalg.norm(u)) < 1e-10

    def test_roundtrip_random_unit_fields(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = lab.random_field(32, rng, active_cutoff=8, l2_norm=1.0)
            back = lab.gauge_field_inv(lab.gauge_field(u, 0.0), 0.0)
            assert np.linalg.norm(back - u) <= 1e-8

    def test_truncation_tail_reported(self):
        u = lab.random_field(16, np.random.default_rng(13), active_cutoff=4, l2_norm=0.8)
        tail = gauge_with_tail(u, 0.0)[1]
        assert 0.0 <= tail < 1e-6

    def test_phase_and_tail_from_one_transform_keep_their_bits(self):
        # the middle columns of the phase product's band up to the grid's
        # Nyquist band are its working band: same FFT, same scale per element
        traj = lab.random_trajectory(16, np.random.default_rng(14), window=0.05, steps=40)
        u = traj.coeffs
        gridsize = gauge_gridsize(16)
        k = (gridsize - 1) // 2
        phase = np.exp(-1j * lab.to_physical(lab.mass_primitive(u), gridsize).real)
        samples = lab.to_physical(u, gridsize)
        product = np.multiply(phase, samples, out=samples)
        full = lab.from_physical(product, k)
        gauged, tail = gauge_with_tail(u, traj.times)
        twisted = lab.from_physical(product, 16)
        assert gauged.tobytes() == lab.translate(twisted, traj.times, -1).tobytes()
        assert gauged.tobytes() == lab.gauge_field(u, traj.times).tobytes()
        full[:, k - 16 : k + 17] = 0.0
        assert tail.tobytes() == np.linalg.norm(full, axis=-1).tobytes()
        assert np.all(tail > 0.0)

    def test_gridsize_follows_the_band(self):
        # alias-free for |u|^2 and the phase product, at least the 8*cutoff
        # grid the maps have always used, and the product grids' FFT sizes
        for n in range(300):
            assert gauge_gridsize(n) >= 4 * n + 1
            assert gauge_gridsize(n) >= 8 * n
            assert gauge_gridsize(n) == smooth_gridsize(max(8 * n, 4 * n + 1))
        # a 5-smooth 8*cutoff is kept, so those bands keep their bits
        assert [gauge_gridsize(n) for n in (1, 16, 32, 125)] == [8, 128, 256, 1000]

    def test_gridsize_is_never_twice_a_large_prime(self):
        # 8*127 = 1016 = 2**3 * 127 would run the twist's FFTs about twice as long as 1024
        assert [gauge_gridsize(n) for n in (7, 101, 127, 131)] == [60, 810, 1024, 1080]


class TestTranslate:
    def test_time_zero_identity(self):
        u = lab.random_field(8, np.random.default_rng(1), l2_norm=1.0)
        assert np.linalg.norm(lab.translate(u, 0.0, -1) - u) == 0.0

    def test_plane_wave_phase(self):
        A, n, t = 2.0, 3, 0.7
        w = lab.plane_wave(8, n, A)
        for sign in (-1, +1):
            v = lab.translate(w, t, sign)
            expected = np.exp(sign * 2j * t * n * A * A)
            assert abs(v[n + 8] / w[n + 8] - expected) < 1e-12

    def test_sign_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
            lab.translate(lab.plane_wave(4, 1), 0.1, 0)

    def test_rejects_a_time_whose_phase_overflows(self):
        # checked before the phase is formed, so numpy warns of no overflow
        u = lab.random_field(4, np.random.default_rng(3))
        msg = "t = 1e+308 makes the translation phase 2*t*mean(|u|^2)*N of a sample non-finite"
        with pytest.raises(ValueError, match=re.escape(msg)):
            lab.gauge_field(u, 1e308)
        with pytest.raises(ValueError, match=re.escape(msg)):
            lab.gauge_field_inv(u, 1e308)
        rows = np.array([u, u, u])
        with pytest.raises(ValueError, match=re.escape(msg)):
            lab.translate(rows, np.array([0.5, 1e308, np.nan]), -1)
        assert np.isfinite(lab.gauge_field(u, 1e20)).all()

    def test_inverse_composition(self):
        rng = np.random.default_rng(3)
        coeffs = np.array([lab.random_field(8, rng, l2_norm=1.0) for _ in range(9)])
        traj = Trajectory(coeffs, window=0.5)
        shifted = lab.translate(traj.coeffs, traj.times, -1)
        back = Trajectory(lab.translate(shifted, traj.times, +1), traj.window)
        assert back.sup_l2_distance(traj) <= 1e-12


class TestFullGauge:
    def test_plane_wave_trajectory_closed_form(self):
        A, n, theta = 1.3, 2, 0.8
        cutoff, steps, window = 8, 32, 0.4
        dt = 2 * window / steps
        times = -window + dt * np.arange(steps + 1)
        traj = Trajectory(
            np.array([lab.plane_wave(cutoff, n, A * np.exp(1j * theta * t))
                      for t in times]),
            window,
        )
        got = lab.gauge_field(traj.coeffs, traj.times)
        for t, row in zip(times, got):
            expected = A * np.exp(1j * (-2 * t * A * A * n + theta * t))
            assert abs(row[n + cutoff] - ROOT_TWO_PI * expected) < 1e-11

    def test_with_tail_keeps_the_bits_of_gauge(self):
        traj = lab.random_trajectory(16, np.random.default_rng(15), window=0.05, steps=40)
        gauged, tail = gauge_with_tail(traj.coeffs, traj.times)
        assert gauged.tobytes() == lab.gauge_field(traj.coeffs, traj.times).tobytes()
        assert tail.shape == (41,) and np.all(tail > 0.0)

    def test_zero_trajectory(self):
        traj = Trajectory(np.zeros((5, 9)), 0.2)
        assert np.array_equal(lab.gauge_field(traj.coeffs, traj.times), traj.coeffs)

    def test_roundtrip_on_solver_output(self):
        cfg = lab.SolveConfig(cutoff=16, horizon=0.05, steps=60, equation=lab.Equation.DNLS)
        rep = lab.picard_solve(lab.random_field(16, np.random.default_rng(8),
                                                active_cutoff=4, l2_norm=0.3), cfg)
        assert gauge_roundtrip_error(rep.trajectory) <= 1e-7

    def test_lipschitz_on_fixed_mass_family(self):
        # pairs with one prescribed L2 norm: the gauge gap stays comparable
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(20):
            u = lab.random_field(16, rng, active_cutoff=6, l2_norm=1.0)
            v = lab.random_field(16, rng, active_cutoff=6, l2_norm=1.0)
            gap_in = np.linalg.norm(u - v)
            if gap_in < 1e-3:
                continue
            t = rng.uniform(-1.0, 1.0)
            gap_out = np.linalg.norm(lab.gauge_field(u, t) - lab.gauge_field(v, t))
            worst = max(worst, gap_out / gap_in)
        assert 0.0 < worst < 10.0


class TestTranslationGapProbe:
    def test_input_gap_exact(self):
        report = lab.translation_gap_probe(1.0, 0.5, 2.0, [4, 16], t_samples=11)
        for n, gap in zip(report.summary["n"], report.summary["input_gap"]):
            assert abs(gap - ROOT_TWO_PI / math.sqrt(n)) < 1e-12

    def test_output_gap_scale(self):
        report = lab.translation_gap_probe(1.0, 0.5, 2.0, [4], t_samples=101)
        assert report.summary["output_gap"][0] >= 0.5

    def test_gap_sequence_non_vanishing(self):
        report = lab.translation_gap_probe(1.0, 0.5, 2.0, [4, 16, 64, 256],
                                           t_samples=41)
        gaps_in = report.summary["input_gap"]
        gaps_out = report.summary["output_gap"]
        assert all(b < a for a, b in zip(gaps_in, gaps_in[1:]))
        assert min(gaps_out) > 0.5 * gaps_out[0]
        assert len(report.summary["gauge_gap"]) == 4  # recorded, not asserted

    def test_rejects_a_probe_whose_inputs_have_the_same_mass(self):
        # at 1e10 the constant n**-0.5 is below the round-off of the wave's mass
        with pytest.raises(ValueError, match=re.escape(
                "amplitude 10000000000.0 with s 0.5 puts the probe's constant n**-0.5 below "
                "the round-off of its wave at n=4: both inputs have the same mass")):
            lab.translation_gap_probe(1e10, 0.5, 2.0, [4, 16])

    # 1e200 * 4**-0.5 squares to inf; 256.0**200 raises OverflowError; from about
    # 5.4e153 on, |coefficient|**2 = 2*pi*amplitude**2 overflows though amplitude**2 does not
    @pytest.mark.parametrize("amplitude,s,n_list,n", [(1e200, 0.5, [4], 4),
                                                      (1.0, -200.0, [4, 256], 256),
                                                      (1e154, 0.0, [4], 4),
                                                      (7e153, 0.0, [4], 4)])
    def test_rejects_a_probe_whose_mass_overflows(self, amplitude, s, n_list, n):
        with pytest.raises(ValueError, match=re.escape(
                f"amplitude {amplitude} with s {s} makes the mass mean(|u|^2) of the probe "
                f"at n={n} non-finite")):
            lab.translation_gap_probe(amplitude, s, 2.0, n_list)

    def test_requires_increasing_frequencies(self):
        with pytest.raises(ValueError):
            lab.translation_gap_probe(1.0, 0.5, 2.0, [16, 4])
