"""Masked convolutions against brute-force oracles and physical-space forms."""
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnlslab as lab
from dnlslab.fields import ROOT_TWO_PI, cutoff_of, product_gridsize, resize
from dnlslab.nonlinear import _conj, _conv

TWO_PI = 2.0 * math.pi


# -- index-tuple masks of the brute-force oracles -----------------------------

@dataclass(frozen=True)
class FrequencyMask:
    """Pure predicate on integer index tuples; masks compose by conjunction."""

    predicate: Callable[..., bool]
    description: str = ""

    def __call__(self, *indices: int) -> bool:
        return bool(self.predicate(*indices))

    def __and__(self, other: "FrequencyMask") -> "FrequencyMask":
        return FrequencyMask(
            lambda *ix: self.predicate(*ix) and other.predicate(*ix),
            f"{self.description} and {other.description}",
        )


# (xi, xi1, xi2) with xi3 = xi - xi1 - xi2 implied
CUBIC_MASK = FrequencyMask(lambda xi, xi1, xi2: xi1 != xi and xi2 != xi,
                           "xi1 != xi and xi2 != xi")
# (xi1, xi2, xi3, xi4) with xi5 = xi - xi1 - ... - xi4 implied
QUINTIC_MASK = FrequencyMask(
    lambda xi1, xi2, xi3, xi4: (xi1 + xi2 + xi3 + xi4 != 0
                                and xi1 + xi2 != 0 and xi3 + xi4 != 0),
    "xi1+xi2+xi3+xi4 != 0 and xi1+xi2 != 0 and xi3+xi4 != 0",
)


# -- independent brute-force oracles (literal masked lattice sums) -----------

def oracle_cubic(u1, u2, u3, derivative_weight=True, mask=CUBIC_MASK, out_cutoff=None):
    n = cutoff_of(u1)
    if out_cutoff is None:
        out_cutoff = n
    out = np.zeros(2 * out_cutoff + 1, dtype=complex)
    for xi1 in range(-n, n + 1):
        for xi2 in range(-n, n + 1):
            for xi3 in range(-n, n + 1):
                xi = xi1 + xi2 + xi3
                if abs(xi) > out_cutoff or not mask(xi, xi1, xi2):
                    continue
                term = u1[xi1 + n] * u2[xi2 + n] * np.conj(u3[n - xi3])
                if derivative_weight:
                    term *= 1j * xi3
                out[xi + out_cutoff] += term / TWO_PI
    return out


def oracle_quintic(us, out_cutoff=None):
    n = cutoff_of(us[0])
    if out_cutoff is None:
        out_cutoff = n
    out = np.zeros(2 * out_cutoff + 1, dtype=complex)
    rng = range(-n, n + 1)
    for xi1 in rng:
        for xi2 in rng:
            for xi3 in rng:
                for xi4 in rng:
                    if not QUINTIC_MASK(xi1, xi2, xi3, xi4):
                        continue
                    c = (us[0][xi1 + n] * np.conj(us[1][n - xi2])
                         * us[2][xi3 + n] * np.conj(us[3][n - xi4]))
                    if c == 0:
                        continue
                    for xi5 in rng:
                        xi = xi1 + xi2 + xi3 + xi4 + xi5
                        if abs(xi) <= out_cutoff:
                            out[xi + out_cutoff] += c * us[4][xi5 + n] / TWO_PI**2
    return out


def fields(seed, cutoff, count, norm=1.0):
    rng = np.random.default_rng(seed)
    return [lab.random_field(cutoff, rng, l2_norm=norm) for _ in range(count)]


def gap(a, b):
    return np.linalg.norm(a - b)


class TestCubicRestricted:
    def test_single_mode_excluded(self):
        w = lab.plane_wave(4, 1)
        assert np.linalg.norm(lab.cubic_restricted(w, w, w, 4)) == 0.0

    def test_multilinear_zero(self):
        u1, u2 = fields(1, 4, 2)
        zero = np.zeros(9, dtype=complex)
        assert np.linalg.norm(lab.cubic_restricted(u1, u2, zero, 4)) == 0.0
        assert np.linalg.norm(lab.cubic_restricted(zero, u1, u2, 4)) == 0.0

    def test_matches_bruteforce(self):
        u1, u2, u3 = fields(2, 4, 3)
        got = lab.cubic_restricted(u1, u2, u3, 4)
        want = oracle_cubic(u1, u2, u3)
        assert gap(got, want) < 1e-12

    def test_mask_soundness_at_larger_band(self):
        u1, u2, u3 = fields(3, 8, 3)
        got = lab.cubic_restricted(u1, u2, u3, out_cutoff=24)
        want = oracle_cubic(u1, u2, u3, out_cutoff=24)
        assert gap(got, want) < 1e-12

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lab.cubic_restricted(np.zeros(9), np.zeros(11), np.zeros(9), 4)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_additivity_first_slot(self, seed):
        rng = np.random.default_rng(seed)
        a, b, u2, u3 = (lab.random_field(3, rng) for _ in range(4))
        lhs = lab.cubic_restricted(a + b, u2, u3, 3)
        rhs = lab.cubic_restricted(a, u2, u3, 3) + lab.cubic_restricted(b, u2, u3, 3)
        assert gap(lhs, rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestCubicDiagonal:
    def test_single_mode_pin(self):
        w = lab.plane_wave(4, 1)
        out = lab.cubic_diagonal(w, w, w, 4)
        assert abs(out[1 + 4] - 1j * ROOT_TWO_PI) < 1e-12
        assert gap(out, lab.plane_wave(4, 1, 1j)) < 1e-12

    def test_zero(self):
        z = np.zeros(9, dtype=complex)
        assert np.linalg.norm(lab.cubic_diagonal(z, z, z, 4)) == 0.0

    def test_conjugate_even_field_enumeration(self):
        # five-coefficient field, diagonal term summed by hand per frequency
        u = np.array([0.3, 0.5 - 0.1j, 1.0, 0.5 + 0.1j, 0.3])  # xi = -2..2
        got = lab.cubic_diagonal(u, u, u, 2)
        for xi in range(-2, 3):
            want = u[xi + 2] * u[xi + 2] * 1j * xi * np.conj(u[xi + 2]) / TWO_PI
            assert abs(got[xi + 2] - want) < 1e-14

    def test_split_reassembles_full(self):
        us = fields(4, 4, 3)
        total = lab.cubic_restricted(*us, 4) + lab.cubic_diagonal(*us, 4)
        assert gap(total, lab.cubic_full(*us, 4)) < 1e-13


class TestCubicPhysicalIdentity:
    def test_single_mode_hand_value(self):
        w = lab.plane_wave(4, 1)
        out = lab.cubic_trilinear(w, w, w, 4)
        assert np.linalg.norm(out - lab.plane_wave(4, 1, 1j)) < 1e-12

    def test_constant_annihilated(self):
        c = lab.constant_field(4, 2.0)
        assert np.linalg.norm(lab.cubic_trilinear(c, c, c, 4)) < 1e-13

    def test_two_mode_matches_convolution(self):
        v = lab.constant_field(8, 1.0) + lab.plane_wave(8, 1)
        assert gap(lab.cubic_trilinear(v, v, v, 8), lab.cubic_full(v, v, v, 8)) < 1e-12

    def test_identity_on_random_fields(self):
        for seed in range(8):
            (v,) = fields(seed + 100, 16, 1, norm=0.9)
            assert gap(lab.cubic_trilinear(v, v, v, 16), lab.cubic_full(v, v, v, 16)) < 1e-10


class TestCubicTrilinear:
    """The physical trilinear form against the convolution form it replaces in the cubic scan."""

    @staticmethod
    def rows(rng, shape, cutoff):
        size = shape + (2 * cutoff + 1,)
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    @staticmethod
    def relative_gap(got, want, us):
        # against the inputs' scale: an entry that cancels to round-off on both
        # sides has no relative error of its own
        cutoff = cutoff_of(us[0])
        scale = max(cutoff, 1) * math.prod(float(np.max(np.abs(u))) for u in us)
        return float(np.max(np.abs(got - want), initial=0.0)) / scale

    @pytest.mark.parametrize("cutoff", [1, 4, 8, 16])
    @pytest.mark.parametrize("band", ["0", "n-1", "n", "3n"])
    def test_equals_the_convolution_form(self, cutoff, band):
        out_cutoff = {"0": 0, "n-1": cutoff - 1, "n": cutoff, "3n": 3 * cutoff}[band]
        rng = np.random.default_rng(cutoff * 10 + len(band))
        us = [self.rows(rng, (7,), cutoff) for _ in range(3)]
        got = lab.cubic_trilinear(*us, out_cutoff)
        want = lab.cubic_full(*us, out_cutoff)
        assert got.shape == want.shape == (7, 2 * out_cutoff + 1)
        assert self.relative_gap(got, want, us) < 1e-13

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(31)
        us = [self.rows(rng, (3, 1), 4), self.rows(rng, (5,), 4), self.rows(rng, (), 4)]
        got = lab.cubic_trilinear(*us, 12)
        assert got.shape == (3, 5, 25)
        assert self.relative_gap(got, lab.cubic_full(*us, 12), us) < 1e-13

    @pytest.mark.parametrize("distinct,inverse", [(False, 2), (True, 3)],
                             ids=["v-v-v", "distinct"])
    def test_transforms_a_repeated_operand_once(self, monkeypatch, distinct, inverse):
        calls = []
        for name in ("fft", "ifft"):
            def wrapper(*args, name=name, original=getattr(np.fft, name), **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, wrapper)
        v, a, b = fields(12, 4, 3)
        lab.cubic_trilinear(v, a, b, 4) if distinct else lab.cubic_trilinear(v, v, v, 4)
        assert (calls.count("ifft"), calls.count("fft")) == (inverse, 1)

    def test_operands_must_share_a_cutoff(self):
        u1, u2 = fields(8, 4, 2)
        (u3,) = fields(9, 3, 1)
        with pytest.raises(ValueError, match="share one frequency cutoff"):
            lab.cubic_trilinear(u1, u2, u3, 4)


class TestProductGrid:
    """Product grids are the least even 5-smooth size at or above the alias-free minimum."""

    @staticmethod
    def smooth(n):
        for prime in (2, 3, 5):
            while n % prime == 0:
                n //= prime
        return n == 1

    def test_least_even_5_smooth_size(self):
        for band in range(0, 400):
            for out_cutoff in (0, band // 3, band, band + 7):
                least = band + min(out_cutoff, band) + 1
                size = product_gridsize(band, out_cutoff)
                assert size >= least and size % 2 == 0 and self.smooth(size)
                assert not any(self.smooth(n) for n in range(least + least % 2, size, 2))

    @pytest.mark.parametrize("least,size", [(129, 144), (513, 540), (193, 200), (81, 90)])
    def test_sizes_round_up(self, least, size):
        band = least // 2
        assert product_gridsize(band, band) == size

    # the alias-free minimum rounded up to even was 2 * prime here: 194 and 514
    @pytest.mark.parametrize("cutoff,out_cutoff,size", [(32, 96, 200), (128, 128, 540)])
    def test_physical_product_matches_convolution(self, cutoff, out_cutoff, size):
        assert product_gridsize(3 * cutoff, out_cutoff) == size
        u1, u2, u3 = fields(cutoff, cutoff, 3)
        got = lab.physical_product([u1, u2, u3], conjugate=[False, False, True],
                                   out_cutoff=out_cutoff)
        want = resize(_conv(_conv(u1, u2), _conj(u3)) / TWO_PI, out_cutoff)
        assert gap(got, want) < 1e-12


class TestQuintic:
    def test_single_mode_masked_out(self):
        w = lab.plane_wave(3, 1)
        got = lab.quintic_restricted(w, w, w, w, w, 3)
        want = oracle_quintic([w] * 5)
        assert np.linalg.norm(got) == 0.0
        assert np.linalg.norm(want) == 0.0

    def test_zero_slot(self):
        u1, u2, u3, u4 = fields(5, 3, 4)
        z = np.zeros(7, dtype=complex)
        assert np.linalg.norm(lab.quintic_restricted(u1, u2, u3, u4, z, 3)) == 0.0

    def test_fast_matches_bruteforce_and_oracle(self):
        us = fields(6, 4, 5)
        fast = lab.quintic_restricted(*us, 4)
        want = oracle_quintic(us)
        assert gap(fast, want) < 1e-12

    def test_physical_form_plane_wave(self):
        w = lab.plane_wave(4, 2, 1.3)
        assert np.linalg.norm(lab.quintic_physical(w, 4)) < 1e-12

    def test_physical_matches_masked_sum(self):
        v = lab.constant_field(8, 1.0) + lab.plane_wave(8, 1)
        assert gap(lab.quintic_physical(v, 8), lab.quintic_restricted(v, v, v, v, v, 8)) < 1e-10
        for seed in range(4):
            (w,) = fields(seed + 200, 8, 1, norm=0.8)
            assert gap(lab.quintic_physical(w, 8), lab.quintic_restricted(w, w, w, w, w, 8)) < 1e-10


class TestRestrictedProductAndShiftedCubic:
    def test_single_mode_excluded(self):
        w = lab.plane_wave(4, 1)
        assert np.linalg.norm(lab.product_restricted(w, w, w, 4)) == 0.0

    def test_zero(self):
        z = np.zeros(9, dtype=complex)
        assert np.linalg.norm(lab.product_restricted(z, z, z, 4)) == 0.0

    def test_matches_bruteforce(self):
        u1, u2, u3 = fields(7, 4, 3)
        got = lab.product_restricted(u1, u2, u3, 4)
        want = oracle_cubic(u1, u2, u3, derivative_weight=False)
        assert gap(got, want) < 1e-12

    def test_diagonal_complement_reassembles_product(self):
        # restricted part plus the three excluded slices equals u1*u2*conj(u3)
        u1, u2, u3 = fields(8, 6, 3)
        mean23 = lab.mean_value(lab.physical_product([u2, u3], conjugate=[False, True],
                                                     out_cutoff=0))
        mean13 = lab.mean_value(lab.physical_product([u1, u3], conjugate=[False, True],
                                                     out_cutoff=0))
        both = u1 * u2 * np.conj(u3) / TWO_PI
        recon = lab.product_restricted(u1, u2, u3, 6) + mean23 * u1 + mean13 * u2 - both
        full = lab.physical_product([u1, u2, u3], conjugate=[False, False, True],
                                    out_cutoff=6)
        assert gap(recon, full) < 1e-12

    def test_shifted_cubic_plane_wave(self):
        A, n = 1.7, 2
        w = lab.plane_wave(6, n, A)
        got = lab.mean_shifted_cubic(w, 6)
        assert np.linalg.norm(got - lab.plane_wave(6, n, -A**3)) < 1e-12

    def test_shifted_cubic_zero(self):
        assert np.linalg.norm(lab.mean_shifted_cubic(np.zeros(9, dtype=complex), 4)) == 0.0

    def test_shifted_cubic_forms_agree(self):
        for seed in range(6):
            (u,) = fields(seed + 300, 10, 1, norm=1.1)
            spectral = lab.mean_shifted_cubic_spectral(u, 10)
            assert gap(lab.mean_shifted_cubic(u, 10), spectral) < 1e-12


class TestMultilinearity:
    @pytest.mark.parametrize("op,arity,seed", [
        (lab.cubic_restricted, 3, 301),
        (lab.cubic_diagonal, 3, 302),
        (lab.product_restricted, 3, 303),
        (lab.quintic_restricted, 5, 304),
    ], ids=["cubic_restricted-3", "cubic_diagonal-3", "product_restricted-3",
            "quintic_restricted-5"])
    def test_additive_and_homogeneous_in_every_slot(self, op, arity, seed):
        rng = np.random.default_rng(seed)
        base = [lab.random_field(3, rng) for _ in range(arity)]
        extra = lab.random_field(3, rng)
        for slot in range(arity):
            args_a = list(base)
            args_b = list(base)
            args_b[slot] = extra
            args_sum = list(base)
            args_sum[slot] = base[slot] + extra
            additive = op(*args_sum, 3) - op(*args_a, 3) - op(*args_b, 3)
            assert np.linalg.norm(additive) < 1e-12
            args_scaled = list(base)
            args_scaled[slot] = 2.5 * base[slot]
            # conjugated slots are antilinear: scaling by a real is enough
            scaled = op(*args_scaled, 3) - 2.5 * op(*args_a, 3)
            assert np.linalg.norm(scaled) < 1e-12


class TestResonanceIdentity:
    def test_hand_value(self):
        lhs, rhs = lab.resonance_identity(3, 1, 2, 0.7, -1.3, 2.2)
        assert lhs == rhs == 4.0

    def test_vanishing_factor(self):
        lhs, rhs = lab.resonance_identity(5, 5, -7, 1.0, 2.0, 3.0)
        assert rhs == 0.0 and abs(lhs) < 1e-9

    def test_bulk_random_tuples(self):
        rng = np.random.default_rng(515)
        xi, xi1, xi2 = rng.integers(-500, 501, size=(3, 10**5))
        # integer part: exact in integer arithmetic
        int_lhs = xi**2 - xi1**2 - xi2**2 + (xi - xi1 - xi2) ** 2
        int_rhs = 2 * (xi - xi1) * (xi - xi2)
        assert np.array_equal(int_lhs, int_rhs)
        alt = 2 * (xi1 * xi2 + xi * (xi - xi1 - xi2))
        assert np.array_equal(int_rhs, alt)
        # float path through the public function
        taus = rng.uniform(-100, 100, size=(3, 1000))
        for k in range(1000):
            lhs, rhs = lab.resonance_identity(
                int(xi[k]), int(xi1[k]), int(xi2[k]),
                taus[0, k], taus[1, k], taus[2, k],
            )
            assert abs(lhs - rhs) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
        st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
    )
    def test_property(self, xi, xi1, xi2, tau, tau1, tau2):
        lhs, rhs = lab.resonance_identity(xi, xi1, xi2, tau, tau1, tau2)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


class TestFrequencyMask:
    def test_pure_predicate(self):
        assert CUBIC_MASK(0, 1, 2) and not CUBIC_MASK(1, 1, 2)
        assert QUINTIC_MASK(1, 2, 3, 4) and not QUINTIC_MASK(1, -1, 3, 4)

    def test_conjunction(self):
        even = FrequencyMask(lambda *ix: ix[0] % 2 == 0, "first even")
        combined = even & FrequencyMask(lambda *ix: ix[1] > 0, "second positive")
        assert combined(2, 1) and not combined(2, -1) and not combined(3, 1)
