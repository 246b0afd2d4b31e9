"""Periodic gauge transform: unimodular phase twist composed with a mass shift.

The phase factor exp(-i * primitive) is evaluated pointwise on a fine physical
grid (unimodular by construction) and the product is projected back to the
working band; the spatial translation is exact in Fourier space.
"""
from __future__ import annotations

import math

import numpy as np

from .fields import (
    ROOT_TWO_PI,
    _check_count,
    cutoff_of,
    mass_mean,
    plane_wave,
    product_coeffs,
    product_gridsize,
    smooth_gridsize,
    to_physical,
    xi_range,
)
from .norms import NormSpec, data_norms
from .reports import ScanReport

# The maps below take and return coefficient arrays (..., 2*cutoff+1) whose
# leading axes are a batch; the maps of one sample at time t take one time
# per row, or one scalar time for every row.


def gauge_gridsize(cutoff: int) -> int:
    """The grid of the phase twist of a band |xi| <= cutoff.

    The least smooth_gridsize of at least 4*cutoff + 1 points, so |u|^2 and the
    phase product are alias-free in the kept band, and of at least 8*cutoff,
    which keeps the aliasing of the non-polynomial phase factor negligible.
    """
    return smooth_gridsize(max(8 * cutoff, 4 * cutoff + 1))


def mass_primitive(u: np.ndarray) -> np.ndarray:
    """Mean-zero primitive of |u|^2 - mean(|u|^2), exact on the doubled band,
    from one transform of u: its samples times their conjugates, as in physical_product.

    In Fourier space: out(xi) = (i*xi)**-1 * coeff(|u|^2)(xi) for xi != 0 and 0
    at xi = 0.
    """
    n = 2 * cutoff_of(u)
    x = to_physical(u, product_gridsize(n, n))
    sq = product_coeffs(np.multiply(x, np.conj(x), out=x), n, n)
    xi = xi_range(n).astype(float)
    return np.divide(sq, 1j * xi, out=np.zeros_like(sq), where=xi != 0)


def _twist(u: np.ndarray, sign: float, keep: int) -> np.ndarray:
    """exp(sign * i * primitive(u)) * u on |xi| <= keep, from the gauge grid of u's band."""
    gridsize = gauge_gridsize(cutoff_of(u))
    phase = to_physical(mass_primitive(u), gridsize)
    # the primitive of a real function is real: its samples' imaginary part is round-off
    np.exp(np.multiply(sign * 1j, phase.real, out=phase), out=phase)
    samples = to_physical(u, gridsize)
    # the order as written, named with out= so that numpy cannot swap it on a
    # large matrix: a matrix gets its rows' bits (see nonlinear's note)
    np.multiply(phase, samples, out=samples)
    return product_coeffs(samples, keep, keep)


def translate(coeffs: np.ndarray, times, sign: int) -> np.ndarray:
    """Mass-dependent translation of every row at its time, by its own mass mean.

    sign -1 evaluates at x - 2*t*mean(|u|^2) (multiplier exp(-2i*t*m*xi));
    sign +1 applies the opposite shift.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    mass, n = mass_mean(coeffs), cutoff_of(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        amount = -sign * 2.0 * times * mass
        overflows = np.isfinite(mass) & ~np.isfinite(amount * n)
    if overflows.any():
        t = np.broadcast_to(times, overflows.shape)[overflows][0]
        raise ValueError(f"t = {t} makes the translation phase 2*t*mean(|u|^2)*N of a "
                         "sample non-finite")
    return np.exp(-1j * np.multiply.outer(amount, xi_range(n))) * coeffs


def gauge_field(u: np.ndarray, t) -> np.ndarray:
    """Gauge transform of samples at their times (phase twist, then shift).

    The shift uses each sample's own mass mean, which the twist leaves unchanged.
    """
    return translate(_twist(u, -1.0, cutoff_of(u)), t, -1)


def gauge_field_inv(v: np.ndarray, t) -> np.ndarray:
    """Inverse gauge transform of samples at their times (shift back, then untwist)."""
    return _twist(translate(v, t, +1), +1.0, cutoff_of(v))


def gauge_with_tail(u: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """gauge_field(u, t), bit for bit, and the l2 mass of each sample's phase
    product outside the working band (the truncation the twist makes).

    Both come from one transform of the phase product: its coefficients up to
    the grid's Nyquist band, whose middle 2*cutoff+1 columns are the twist.
    """
    n = cutoff_of(u)
    k = (gauge_gridsize(n) - 1) // 2
    full = _twist(u, -1.0, k)
    kept = full[..., k - n : k + n + 1].copy()
    full[..., k - n : k + n + 1] = 0.0
    return translate(kept, t, -1), np.linalg.norm(full, axis=-1)


# ---------------------------------------------------------------------------
# failure of uniform continuity of the translation map
# ---------------------------------------------------------------------------

def translation_probe_pair(amplitude: float, s: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe's two inputs at n: amplitude * n**-s * exp(i*n*x), with and
    without the constant n**-0.5."""
    wave = plane_wave(n, n, amplitude * float(n) ** (-s))
    return wave + plane_wave(n, 0, 1.0 / math.sqrt(n)), wave


def translation_gap_probe(
    amplitude: float,
    s: float,
    r: float,
    n_list: list[int],
    t_samples: int = 201,
) -> ScanReport:
    """Two-parameter family whose inputs merge while translated outputs do not.

    For each n the pair is amplitude * n**-s * exp(i*n*x) plus a constant
    n**-0.5 or 0.  The input gap is measured in the (s, r) data norm; the
    output gap is the sup over t in [-1, 1] of the same norm of the gap of
    the translated fields.
    """
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    for n in n_list:
        _check_count("n_list entry", n, 1)
    _check_count("t_samples", t_samples, 1)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    spec = NormSpec(s=s, r=r)
    probes = {}  # n -> (pair, masses): every n is checked for overflow before any for round-off
    for n in n_list:
        try:
            pair = translation_probe_pair(amplitude, s, n)
        except OverflowError:  # float ** raises where * gives inf
            pair = ()
        with np.errstate(over="ignore"):  # a mass that overflows is inf, rejected here
            masses = [mass_mean(u) for u in pair]
        if not (pair and np.isfinite(masses).all()):
            raise ValueError(f"amplitude {amplitude} with s {s} makes the mass mean(|u|^2) "
                             f"of the probe at n={n} non-finite")
        probes[n] = pair, masses
    tgrid = np.linspace(-1.0, 1.0, t_samples)
    rows = []
    for n, ((u1, u2), (m1, m2)) in probes.items():
        if m1 == m2:
            raise ValueError(
                f"amplitude {amplitude} with s {s} puts the probe's constant n**-0.5 below "
                f"the round-off of its wave at n={n}: both inputs have the same mass, so "
                "every gap it would report is meaningless")
        input_gap = float(data_norms(u1 - u2, spec))
        d = translate(u1, tgrid, -1) - translate(u2, tgrid, -1)
        out_gap = float(np.max(data_norms(d, spec)))
        g = gauge_field(u1, tgrid) - gauge_field(u2, tgrid)
        gauge_gap = float(np.max(data_norms(g, spec)))
        rows.append((n, input_gap, out_gap, gauge_gap))
    values = tuple(row[2] for row in rows)
    summary = {
        "n": [row[0] for row in rows],
        "input_gap": [row[1] for row in rows],
        "output_gap": [row[2] for row in rows],
        "gauge_gap": [row[3] for row in rows],
        "input_gap_exact": [ROOT_TWO_PI / math.sqrt(row[0]) for row in rows],
    }
    grid = {"amplitude": amplitude, "s": s, "r": r, "n_list": list(n_list)}
    return ScanReport(name="translation-gap", grid=grid, values=values, summary=summary)
