"""Restricted multilinear convolutions and their physical-space counterparts.

The cubic and quintic operators exclude resonant index tuples from the
convolution sum.  Masked sums are assembled by inclusion-exclusion: the full
convolution minus the excluded slices, each slice itself a lower-dimensional
convolution.  Conjugated factors are handled at the coefficient level,
conj(u)^(xi) = conj(coeff(-xi)), so the masks stay exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (
    SpectralField,
    derivative,
    mean_value,
    physical_product,
)

TWO_PI = 2.0 * np.pi


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


def _require_shared_cutoff(*fields: SpectralField) -> int:
    cut = fields[0].cutoff
    if any(f.cutoff != cut for f in fields):
        raise ValueError("operands must share one frequency cutoff")
    return cut


def _conj_coeffs(f: SpectralField) -> np.ndarray:
    """Coefficients of conj(u) on the same band."""
    return np.conj(f.coeffs[::-1])


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient convolution; bands add."""
    return np.convolve(a, b)


def _zero_mode(a: np.ndarray, b: np.ndarray) -> complex:
    """Sum over xi_a + xi_b = 0 of a(xi_a) * b(xi_b) for equal-band arrays."""
    return complex(np.dot(a, b[::-1]))


def _finish(coeffs_full: np.ndarray, band: int, out_cutoff: int) -> SpectralField:
    return SpectralField(coeffs_full, band).truncate(out_cutoff)


# ---------------------------------------------------------------------------
# cubic operators
# ---------------------------------------------------------------------------

def cubic_restricted(
    u1: SpectralField,
    u2: SpectralField,
    u3: SpectralField,
    out_cutoff: int | None = None,
) -> SpectralField:
    """Derivative-weighted triple convolution with xi1 != xi and xi2 != xi.

    out(xi) = (2*pi)**-1 * sum over xi = xi1+xi2+xi3, xi1 != xi, xi2 != xi of
    c1(xi1) * c2(xi2) * i*xi3 * conj(u3)^(xi3).
    """
    n = _require_shared_cutoff(u1, u2, u3)
    if out_cutoff is None:
        out_cutoff = n
    xi = u1.xi
    a, b = u1.coeffs, u2.coeffs
    w = 1j * xi * _conj_coeffs(u3)
    full = _conv(_conv(a, b), w)  # band 3n
    s23 = _zero_mode(b, w)
    s13 = _zero_mode(a, w)
    band = 3 * n
    out = full.copy()
    pad = band - n
    sl = slice(pad, pad + 2 * n + 1)
    out[sl] -= a * s23 + b * s13
    out[sl] += a * b * (-1j * xi) * np.conj(u3.coeffs)  # xi1 = xi2 = xi, xi3 = -xi
    return _finish(out / TWO_PI, band, out_cutoff)


def cubic_diagonal(
    u1: SpectralField,
    u2: SpectralField,
    u3: SpectralField,
    out_cutoff: int | None = None,
) -> SpectralField:
    """Diagonal complement: out(xi) = (2*pi)**-1 * c1(xi)*c2(xi)*i*xi*conj(u3)^(-xi)."""
    n = _require_shared_cutoff(u1, u2, u3)
    if out_cutoff is None:
        out_cutoff = n
    xi = u1.xi
    coeffs = u1.coeffs * u2.coeffs * (1j * xi) * np.conj(u3.coeffs) / TWO_PI
    return SpectralField(coeffs, n).truncate(out_cutoff)


def cubic_full(
    u1: SpectralField,
    u2: SpectralField,
    u3: SpectralField,
    out_cutoff: int | None = None,
) -> SpectralField:
    return cubic_restricted(u1, u2, u3, out_cutoff) + cubic_diagonal(u1, u2, u3, out_cutoff)


def product_restricted(
    u1: SpectralField,
    u2: SpectralField,
    u3: SpectralField,
    out_cutoff: int | None = None,
) -> SpectralField:
    """Triple convolution of u1*u2*conj(u3) with xi1 != xi and xi2 != xi,
    without the derivative weight."""
    n = _require_shared_cutoff(u1, u2, u3)
    if out_cutoff is None:
        out_cutoff = n
    a, b = u1.coeffs, u2.coeffs
    w = _conj_coeffs(u3)
    full = _conv(_conv(a, b), w)
    s23 = _zero_mode(b, w)
    s13 = _zero_mode(a, w)
    band = 3 * n
    out = full.copy()
    pad = band - n
    sl = slice(pad, pad + 2 * n + 1)
    out[sl] -= a * s23 + b * s13
    out[sl] += a * b * np.conj(u3.coeffs)
    return _finish(out / TWO_PI, band, out_cutoff)


def cubic_physical(v: SpectralField, out_cutoff: int | None = None) -> SpectralField:
    """v^2 * d/dx conj(v) minus 2i * mean(Im(v * d/dx conj(v))) * v, dealiased."""
    if out_cutoff is None:
        out_cutoff = v.cutoff
    dvbar = derivative(v.conjugate())
    prod = physical_product([v, v, dvbar], out_cutoff=out_cutoff)
    pair = physical_product([v, dvbar], out_cutoff=0)
    mean_im = mean_value(pair).imag
    return prod - (2j * mean_im) * v.pad_to(out_cutoff)


# ---------------------------------------------------------------------------
# quintic operators
# ---------------------------------------------------------------------------

def quintic_restricted(
    u1: SpectralField,
    u2: SpectralField,
    u3: SpectralField,
    u4: SpectralField,
    u5: SpectralField,
    out_cutoff: int | None = None,
) -> SpectralField:
    """Five-fold convolution of u1*conj(u2)*u3*conj(u4)*u5 with the resonant
    slices xi1+xi2+xi3+xi4 = 0, xi1+xi2 = 0 and xi3+xi4 = 0 removed,
    assembled by inclusion-exclusion.
    """
    n = _require_shared_cutoff(u1, u2, u3, u4, u5)
    if out_cutoff is None:
        out_cutoff = n

    a1, a3, a5 = u1.coeffs, u3.coeffs, u5.coeffs
    a2, a4 = _conj_coeffs(u2), _conj_coeffs(u4)
    conv12 = _conv(a1, a2)
    conv34 = _conv(a3, a4)
    full = _conv(_conv(conv12, conv34), a5)  # band 5n
    s12 = _zero_mode(a1, a2)
    s34 = _zero_mode(a3, a4)
    s1234 = _zero_mode(conv12, conv34)
    conv345 = _conv(conv34, a5)  # band 3n
    conv125 = _conv(conv12, a5)
    band = 5 * n
    out = full.copy()
    pad3 = band - 3 * n
    sl3 = slice(pad3, pad3 + 6 * n + 1)
    out[sl3] -= s12 * conv345 + s34 * conv125
    pad1 = band - n
    sl1 = slice(pad1, pad1 + 2 * n + 1)
    out[sl1] += (-s1234 + 2.0 * s12 * s34) * a5
    return _finish(out / TWO_PI**2, band, out_cutoff)


def quintic_physical(v: SpectralField, out_cutoff: int | None = None) -> SpectralField:
    """(|v|^4 - mean|v|^4) v - 2*mean|v|^2 * (|v|^2 - mean|v|^2) v, dealiased."""
    if out_cutoff is None:
        out_cutoff = v.cutoff
    m2 = v.mass_mean()
    sq = physical_product([v, v], conjugate=[False, True], out_cutoff=2 * v.cutoff)
    m4 = mean_value(physical_product([sq, sq], out_cutoff=0)).real
    quartic_term = physical_product([sq, sq, v], out_cutoff=out_cutoff)
    cubic_term = physical_product([sq, v], out_cutoff=out_cutoff)
    vpad = v.pad_to(out_cutoff)
    return quartic_term - m4 * vpad - 2.0 * m2 * (cubic_term - m2 * vpad)


# ---------------------------------------------------------------------------
# mean-shifted cubic nonlinearity
# ---------------------------------------------------------------------------

def mean_shifted_cubic(u: SpectralField, out_cutoff: int | None = None) -> SpectralField:
    """(|u|^2 - 2*mean|u|^2) * u, evaluated in physical space."""
    if out_cutoff is None:
        out_cutoff = u.cutoff
    m2 = u.mass_mean()
    cubic = physical_product([u, u, u], conjugate=[False, True, False], out_cutoff=out_cutoff)
    return cubic - (2.0 * m2) * u.pad_to(out_cutoff)


def mean_shifted_cubic_spectral(u: SpectralField, out_cutoff: int | None = None) -> SpectralField:
    """Convolution form: restricted triple product minus the double-diagonal term."""
    if out_cutoff is None:
        out_cutoff = u.cutoff
    rest = product_restricted(u, u, u, out_cutoff)
    diag = SpectralField(u.coeffs * u.coeffs * np.conj(u.coeffs) / TWO_PI, u.cutoff)
    return rest - diag.truncate(out_cutoff)


# ---------------------------------------------------------------------------
# resonance identity
# ---------------------------------------------------------------------------

def resonance_identity(
    xi: int, xi1: int, xi2: int, tau: float, tau1: float, tau2: float
) -> tuple[float, float]:
    """Both sides of the modulation identity.

    Left: sigma0 - sigma1 - sigma2 - sigma3 with sigma0 = tau + xi^2,
    sigma_i = tau_i + xi_i^2 (i = 1, 2), sigma3 = tau3 - xi3^2 where
    xi3 = xi - xi1 - xi2 and tau3 = tau - tau1 - tau2.
    Right: 2*(xi - xi1)*(xi - xi2), which also equals 2*(xi1*xi2 + xi*xi3).
    """
    xi3 = xi - xi1 - xi2
    tau3 = tau - tau1 - tau2
    sigma0 = tau + xi**2
    sigma1 = tau1 + xi1**2
    sigma2 = tau2 + xi2**2
    sigma3 = tau3 - xi3**2
    lhs = sigma0 - sigma1 - sigma2 - sigma3
    rhs = 2.0 * (xi - xi1) * (xi - xi2)
    return float(lhs), float(rhs)


def dnls_forcing(u: SpectralField, out_cutoff: int | None = None) -> SpectralField:
    """d/dx(|u|^2 u), the integral-equation forcing of the raw equation."""
    if out_cutoff is None:
        out_cutoff = u.cutoff
    cubic = physical_product([u, u, u], conjugate=[False, True, False], out_cutoff=out_cutoff)
    return derivative(cubic)
