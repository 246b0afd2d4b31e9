"""Periodic gauge transform: unimodular phase twist composed with a mass shift.

The phase factor exp(-i * primitive) is evaluated pointwise on a fine physical
grid (unimodular by construction) and the product is projected back to the
working band; the spatial translation is exact in Fourier space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    ROOT_TWO_PI,
    TWO_PI,
    SpectralField,
    Trajectory,
    from_physical,
    physical_product,
    plane_wave,
    to_physical,
)
from .norms import NormSpec, h_norm
from .reports import ScanReport


@dataclass(frozen=True)
class GaugeContext:
    """Operational parameters for the gauge maps.

    gridsize must be at least 4*cutoff + 1 so |u|^2 and the phase product are
    evaluated without aliasing in the kept band; the default 8*cutoff keeps
    the aliasing of the non-polynomial phase factor negligible.
    """

    cutoff: int
    gridsize: int

    def __post_init__(self):
        if self.gridsize < 4 * self.cutoff + 1:
            raise ValueError("gauge gridsize must be >= 4*cutoff + 1")

    @classmethod
    def for_cutoff(cls, cutoff: int, oversample: int = 8) -> "GaugeContext":
        return cls(cutoff=cutoff, gridsize=max(oversample * cutoff, 4 * cutoff + 1))


def mass_primitive(u: SpectralField) -> SpectralField:
    """Mean-zero primitive of |u|^2 - mean(|u|^2), exact on the doubled band.

    In Fourier space: out(xi) = (i*xi)**-1 * coeff(|u|^2)(xi) for xi != 0 and 0
    at xi = 0.
    """
    sq = physical_product([u, u], conjugate=[False, True], out_cutoff=2 * u.cutoff)
    xi = sq.xi.astype(float)
    out = np.zeros_like(sq.coeffs)
    nz = xi != 0
    out[nz] = sq.coeffs[nz] / (1j * xi[nz])
    return SpectralField(out, sq.cutoff)


def _phase_values(u: SpectralField, ctx: GaugeContext, sign: float) -> np.ndarray:
    prim = mass_primitive(u)
    return np.exp(sign * 1j * to_physical(prim, ctx.gridsize))


def gauge_phase(u: SpectralField, ctx: GaugeContext) -> SpectralField:
    """exp(-i * primitive(u)) * u projected back to the working band."""
    values = _phase_values(u, ctx, -1.0) * to_physical(u, ctx.gridsize)
    return from_physical(values, u.cutoff)


def gauge_phase_inv(u: SpectralField, ctx: GaugeContext) -> SpectralField:
    """exp(+i * primitive(u)) * u projected back to the working band."""
    values = _phase_values(u, ctx, +1.0) * to_physical(u, ctx.gridsize)
    return from_physical(values, u.cutoff)


def gauge_phase_tail(u: SpectralField, ctx: GaugeContext) -> float:
    """l2 mass of the phase product outside the working band (truncation report)."""
    values = _phase_values(u, ctx, -1.0) * to_physical(u, ctx.gridsize)
    full = from_physical(values, (ctx.gridsize - 1) // 2)
    return full.tail_l2(u.cutoff)


def shift_field(u: SpectralField, amount: float) -> SpectralField:
    """u(x - amount) via the exact Fourier multiplier exp(-i*amount*xi)."""
    return SpectralField(np.exp(-1j * amount * u.xi) * u.coeffs, u.cutoff)


def translate_field(u: SpectralField, t: float, sign: int) -> SpectralField:
    """Mass-dependent translation of one sample at time t.

    sign -1 evaluates at x - 2*t*mean(|u|^2) (multiplier exp(-2i*t*m*xi));
    sign +1 applies the opposite shift.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    return shift_field(u, -sign * 2.0 * t * u.mass_mean())


def translate(traj: Trajectory, sign: int) -> Trajectory:
    """Mass-dependent translation of every sample, each by its own mass mean."""
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    mass_mean = np.sum(np.abs(traj.coeffs) ** 2, axis=1) / TWO_PI
    amount = -sign * 2.0 * traj.times * mass_mean
    xi = np.arange(-traj.cutoff, traj.cutoff + 1)
    return replace(traj, coeffs=np.exp(-1j * np.multiply.outer(amount, xi)) * traj.coeffs)


def gauge_field(u: SpectralField, t: float, ctx: GaugeContext) -> SpectralField:
    """Gauge transform of a single sample at time t (phase twist, then shift)."""
    return translate_field(gauge_phase(u, ctx), t, -1)


def gauge_field_inv(v: SpectralField, t: float, ctx: GaugeContext) -> SpectralField:
    return gauge_phase_inv(translate_field(v, t, +1), ctx)


def gauge(traj: Trajectory, ctx: GaugeContext) -> Trajectory:
    """Full gauge transform of a trajectory, sample by sample.

    The translation amount uses each sample's own mass mean, which both the
    phase twist and the shift leave unchanged.
    """
    return _map_rows(gauge_field, traj, ctx)


def gauge_inv(traj: Trajectory, ctx: GaugeContext) -> Trajectory:
    return _map_rows(gauge_field_inv, traj, ctx)


def _map_rows(fn, traj: Trajectory, ctx: GaugeContext) -> Trajectory:
    """Stack fn(sample, t, ctx) over the rows of the trajectory."""
    rows = [fn(SpectralField(c, traj.cutoff), t, ctx).coeffs
            for c, t in zip(traj.coeffs, traj.times)]
    return replace(traj, coeffs=np.array(rows))


def gauge_roundtrip_error(traj: Trajectory, ctx: GaugeContext) -> float:
    """sup over samples of the L^2 gap of inverse(gauge(traj)) from traj."""
    return gauge_inv(gauge(traj, ctx), ctx).sup_l2_distance(traj)


# ---------------------------------------------------------------------------
# failure of uniform continuity of the translation map
# ---------------------------------------------------------------------------

def translation_gap_probe(
    amplitude: float,
    s: float,
    r: float,
    n_list: list[int],
    t_samples: int = 201,
    include_gauge_gap: bool = True,
) -> ScanReport:
    """Two-parameter family whose inputs merge while translated outputs do not.

    For each n the pair is amplitude * n**-s * exp(i*n*x) plus a constant
    n**-0.5 or 0.  The input gap is measured in the (s, r) data norm; the
    output gap is the sup over t in [-1, 1] of the same norm of the gap of
    the translated fields.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    spec = NormSpec(s=s, r=r)
    tgrid = np.linspace(-1.0, 1.0, t_samples)
    rows = []
    for n in n_list:
        wave = plane_wave(n, n, amplitude * float(n) ** (-s))
        u1 = wave + plane_wave(n, 0, 1.0 / math.sqrt(n))
        u2 = wave
        input_gap = h_norm(u1 - u2, spec)
        out_gap = 0.0
        gauge_gap = 0.0
        ctx = GaugeContext.for_cutoff(n) if include_gauge_gap else None
        for t in tgrid:
            d = translate_field(u1, t, -1) - translate_field(u2, t, -1)
            out_gap = max(out_gap, h_norm(d, spec))
            if ctx is not None:
                g = gauge_field(u1, t, ctx) - gauge_field(u2, t, ctx)
                gauge_gap = max(gauge_gap, h_norm(g, spec))
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
