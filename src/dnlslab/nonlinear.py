"""Restricted multilinear convolutions and their physical-space counterparts.

The cubic and quintic operators exclude resonant index tuples from the
convolution sum.  Masked sums are assembled by inclusion-exclusion: the full
convolution minus the excluded slices, each slice itself a lower-dimensional
convolution.  Conjugated factors are handled at the coefficient level,
conj(u)^(xi) = conj(coeff(-xi)), so the masks stay exact.
"""
from __future__ import annotations

import numpy as np

from .fields import (
    SpectralField,
    band_to_grid,
    derivative,
    grid_to_band,
    product_gridsize,
    xi_range,
)

TWO_PI = 2.0 * np.pi


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
    c1(xi1) * c2(xi2) * i*xi3 * conj(u3)^(xi3), the restricted product with
    d/dx conj(u3) = conj(d/dx u3) in the third slot.
    """
    return product_restricted(u1, u2, derivative(u3), out_cutoff)


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


def mean_shifted_cubic_spectral(u: SpectralField, out_cutoff: int | None = None) -> SpectralField:
    """Convolution form: restricted triple product minus the double-diagonal term."""
    if out_cutoff is None:
        out_cutoff = u.cutoff
    rest = product_restricted(u, u, u, out_cutoff)
    diag = SpectralField(u.coeffs * u.coeffs * np.conj(u.coeffs) / TWO_PI, u.cutoff)
    return rest - diag.truncate(out_cutoff)


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


# ---------------------------------------------------------------------------
# physical-space forcing operators on coefficient arrays
# ---------------------------------------------------------------------------
# These take and return coefficient arrays (..., 2*cutoff+1) with leading batch
# axes (one row per grid time, say).  Each transforms its input once onto one
# grid sized for its own band, multiplies pointwise and transforms back once.

def _cutoff_of(coeffs: np.ndarray) -> int:
    return (coeffs.shape[-1] - 1) // 2


def _pad(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficient arrays zero-padded along the last axis to |xi| <= cutoff."""
    extra = cutoff - _cutoff_of(coeffs)
    return np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(extra, extra)])


def _on_band(values: np.ndarray, band: int, out_cutoff: int) -> np.ndarray:
    """Coefficients on |xi| <= out_cutoff of grid samples of a product of band `band`."""
    return _pad(grid_to_band(values, min(out_cutoff, band)), out_cutoff)


def _mass_mean(coeffs: np.ndarray) -> np.ndarray:
    """Mean of |u|^2 over the torus for every row, kept as a trailing axis of length 1."""
    return np.sum(np.abs(coeffs) ** 2, axis=-1, keepdims=True) / TWO_PI


def _cubic_kernel(u: np.ndarray, out_cutoff: int) -> np.ndarray:
    """|u|^2 u on |xi| <= out_cutoff."""
    band = 3 * _cutoff_of(u)
    x = band_to_grid(u, product_gridsize(band, out_cutoff))
    return _on_band(x * np.conj(x) * x, band, out_cutoff)


def dnls_forcing(u: np.ndarray, out_cutoff: int | None = None) -> np.ndarray:
    """d/dx(|u|^2 u), the integral-equation forcing of the raw equation."""
    if out_cutoff is None:
        out_cutoff = _cutoff_of(u)
    return 1j * xi_range(out_cutoff) * _cubic_kernel(u, out_cutoff)


def mean_shifted_cubic(u: np.ndarray, out_cutoff: int | None = None) -> np.ndarray:
    """(|u|^2 - 2*mean|u|^2) * u, evaluated in physical space."""
    if out_cutoff is None:
        out_cutoff = _cutoff_of(u)
    return _cubic_kernel(u, out_cutoff) - (2.0 * _mass_mean(u)) * _pad(u, out_cutoff)


def cubic_physical(v: np.ndarray, out_cutoff: int | None = None) -> np.ndarray:
    """v^2 * d/dx conj(v) minus 2i * mean(Im(v * d/dx conj(v))) * v, dealiased."""
    n = _cutoff_of(v)
    if out_cutoff is None:
        out_cutoff = n
    gridsize = product_gridsize(3 * n, out_cutoff)
    x = band_to_grid(v, gridsize)
    pair = x * band_to_grid(1j * xi_range(n) * np.conj(v[..., ::-1]), gridsize)
    mean_im = np.mean(pair, axis=-1, keepdims=True).imag
    return _on_band(pair * x, 3 * n, out_cutoff) - (2j * mean_im) * _pad(v, out_cutoff)


def quintic_physical(v: np.ndarray, out_cutoff: int | None = None) -> np.ndarray:
    """(|v|^4 - mean|v|^4) v - 2*mean|v|^2 * (|v|^2 - mean|v|^2) v, dealiased."""
    n = _cutoff_of(v)
    if out_cutoff is None:
        out_cutoff = n
    m2 = _mass_mean(v)
    x = band_to_grid(v, product_gridsize(5 * n, out_cutoff))
    sq = x.real**2 + x.imag**2
    m4 = np.mean(sq * sq, axis=-1, keepdims=True)
    # the two terms share one grid: (|v|^4 - 2*m2*|v|^2) v - (m4 - 2*m2^2) v
    values = (sq - 2.0 * m2) * sq * x
    return _on_band(values, 5 * n, out_cutoff) - (m4 - 2.0 * m2 * m2) * _pad(v, out_cutoff)


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
