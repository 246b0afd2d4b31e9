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
    TWO_PI,
    cutoff_of,
    derivative,
    differentiate,
    mass_mean,
    product_coeffs,
    product_gridsize,
    resize,
    to_physical,
)

# Every operator here takes and returns coefficient arrays (..., 2*cutoff+1):
# the last axis holds the band, any leading axes are a batch.


def _shared_cutoff(*factors: np.ndarray) -> int:
    cut = cutoff_of(factors[0])
    if any(cutoff_of(f) != cut for f in factors):
        raise ValueError("operands must share one frequency cutoff")
    return cut


def _conj(u: np.ndarray) -> np.ndarray:
    """Coefficients of conj(u) on the same band: conj(coeff(-xi))."""
    return np.conj(u[..., ::-1])


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient convolution along the last axis; bands add.

    A direct sum, not an FFT, so the convolution forms stay an independent
    check of the physical-space forms."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    width = b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (a.shape[-1] + width - 1,), dtype=complex)
    for j in range(a.shape[-1]):
        out[..., j : j + width] += a[..., j : j + 1] * b
    return out


def _zero_mode(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over xi_a + xi_b = 0 of a(xi_a) * b(xi_b) for equal-band arrays,
    kept as a trailing axis of length 1."""
    return np.sum(a * b[..., ::-1], axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# cubic operators
# ---------------------------------------------------------------------------

def cubic_restricted(
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    out_cutoff: int,
) -> np.ndarray:
    """Derivative-weighted triple convolution with xi1 != xi and xi2 != xi.

    out(xi) = (2*pi)**-1 * sum over xi = xi1+xi2+xi3, xi1 != xi, xi2 != xi of
    c1(xi1) * c2(xi2) * i*xi3 * conj(u3)^(xi3), the restricted product with
    d/dx conj(u3) = conj(d/dx u3) in the third slot.
    """
    return product_restricted(u1, u2, derivative(u3), out_cutoff)


def cubic_diagonal(
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    out_cutoff: int,
) -> np.ndarray:
    """Diagonal complement: out(xi) = (2*pi)**-1 * c1(xi)*c2(xi)*i*xi*conj(u3)^(-xi)."""
    _shared_cutoff(u1, u2, u3)
    return resize(derivative(u1 * u2) * np.conj(u3) / TWO_PI, out_cutoff)


def cubic_full(
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    out_cutoff: int,
) -> np.ndarray:
    return cubic_restricted(u1, u2, u3, out_cutoff) + cubic_diagonal(u1, u2, u3, out_cutoff)


def product_restricted(
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    out_cutoff: int,
) -> np.ndarray:
    """Triple convolution of u1*u2*conj(u3) with xi1 != xi and xi2 != xi,
    without the derivative weight."""
    n = _shared_cutoff(u1, u2, u3)
    w = _conj(u3)
    out = _conv(_conv(u1, u2), w)  # band 3n
    diagonal = slice(2 * n, 4 * n + 1)
    out[..., diagonal] -= u1 * _zero_mode(u2, w) + u2 * _zero_mode(u1, w)
    out[..., diagonal] += u1 * u2 * np.conj(u3)
    return resize(out / TWO_PI, out_cutoff)


def mean_shifted_cubic_spectral(u: np.ndarray, out_cutoff: int) -> np.ndarray:
    """Convolution form: restricted triple product minus the double-diagonal term."""
    diag = u * u * np.conj(u) / TWO_PI
    return product_restricted(u, u, u, out_cutoff) - resize(diag, out_cutoff)


# ---------------------------------------------------------------------------
# quintic operators
# ---------------------------------------------------------------------------

def quintic_restricted(
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    u4: np.ndarray,
    u5: np.ndarray,
    out_cutoff: int,
) -> np.ndarray:
    """Five-fold convolution of u1*conj(u2)*u3*conj(u4)*u5 with the resonant
    slices xi1+xi2+xi3+xi4 = 0, xi1+xi2 = 0 and xi3+xi4 = 0 removed,
    assembled by inclusion-exclusion.
    """
    n = _shared_cutoff(u1, u2, u3, u4, u5)
    a2, a4 = _conj(u2), _conj(u4)
    conv12 = _conv(u1, a2)
    conv34 = _conv(u3, a4)
    out = _conv(_conv(conv12, conv34), u5)  # band 5n
    s12 = _zero_mode(u1, a2)
    s34 = _zero_mode(u3, a4)
    s1234 = _zero_mode(conv12, conv34)
    out[..., 2 * n : 8 * n + 1] -= s12 * _conv(conv34, u5) + s34 * _conv(conv12, u5)
    out[..., 4 * n : 6 * n + 1] += (-s1234 + 2.0 * s12 * s34) * u5
    return resize(out / TWO_PI**2, out_cutoff)


# ---------------------------------------------------------------------------
# physical-space forcing operators
# ---------------------------------------------------------------------------
# Each transforms its input once onto one grid sized for its own band,
# multiplies pointwise into the samples' own buffer, drops its other grid
# arrays and transforms back once.  Every product of two complex grids names
# its operand order with out=: numpy reuses a right-hand temporary of 256 KiB
# or more as the output of an implicit a * b, with the operands swapped, and
# complex multiplication is not bitwise commutative, so a matrix would get
# other bits than its rows.  The order named is the one numpy took on large
# arrays, so a trajectory keeps its bits.

def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b in this order, written over a unless the leading axes broadcast beyond it."""
    return np.multiply(a, b, out=a if a.shape == np.broadcast_shapes(a.shape, b.shape) else None)


def _cubic_kernel(u: np.ndarray, out_cutoff: int) -> np.ndarray:
    """|u|^2 u on |xi| <= out_cutoff."""
    band = 3 * cutoff_of(u)
    x = to_physical(u, product_gridsize(band, out_cutoff))
    square = np.conj(x)
    np.multiply(square, x, out=square)
    np.multiply(square, x, out=x)
    del square
    return product_coeffs(x, band, out_cutoff)


def dnls_forcing(u: np.ndarray, out_cutoff: int) -> np.ndarray:
    """d/dx(|u|^2 u) on |xi| <= out_cutoff, the integral-equation forcing of the raw equation."""
    return differentiate(_cubic_kernel(u, out_cutoff))


def mean_shifted_cubic(u: np.ndarray, out_cutoff: int) -> np.ndarray:
    """(|u|^2 - 2*mean|u|^2) * u, evaluated in physical space."""
    kernel = _cubic_kernel(u, out_cutoff)
    return np.subtract(kernel, resize(u, out_cutoff) * (2.0 * mass_mean(u)[..., None]), out=kernel)


def cubic_trilinear(
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
    out_cutoff: int,
) -> np.ndarray:
    """cubic_full in physical space: the dealiased u1*u2*d/dx conj(u3) minus its
    xi1 = xi and xi2 = xi slices.  The xi1 = xi2 = xi term that
    product_restricted adds back cancels cubic_diagonal, so none is added here.
    A u2 that is u1 is transformed and paired with d/dx conj(u3) once: (v, v, v)
    makes two inverse transforms.
    """
    n = _shared_cutoff(u1, u2, u3)
    top = max(out_cutoff, n)
    gridsize = product_gridsize(3 * n, top)
    w = differentiate(_conj(u3))  # d/dx conj(u3)
    y = to_physical(u1, gridsize)
    x = _times(to_physical(w, gridsize), y)
    if u2 is not u1:
        y = to_physical(u2, gridsize)
    x = _times(x, y)
    del y
    out = product_coeffs(x, 3 * n, top)
    z2 = _zero_mode(u2, w) / TWO_PI
    z1 = z2 if u2 is u1 else _zero_mode(u1, w) / TWO_PI
    band = out[..., top - n : top + n + 1]
    band -= u1 * z2
    band -= u2 * z1
    return out if top == out_cutoff else resize(out, out_cutoff)


def quintic_physical(v: np.ndarray, out_cutoff: int) -> np.ndarray:
    """(|v|^4 - mean|v|^4) v - 2*mean|v|^2 * (|v|^2 - mean|v|^2) v, dealiased."""
    n = cutoff_of(v)
    m2 = mass_mean(v)[..., None]
    x = to_physical(v, product_gridsize(5 * n, out_cutoff))
    sq = np.square(x.real)
    work = np.square(x.imag)
    sq += work
    m4 = np.mean(np.multiply(sq, sq, out=work), axis=-1, keepdims=True)
    # the two terms share one grid: (|v|^4 - 2*m2*|v|^2) v - (m4 - 2*m2^2) v
    np.subtract(sq, 2.0 * m2, out=work)
    work *= sq
    np.multiply(work, x, out=x)
    del sq, work
    kernel = product_coeffs(x, 5 * n, out_cutoff)
    return np.subtract(kernel, resize(v, out_cutoff) * (m4 - 2.0 * m2 * m2), out=kernel)


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
