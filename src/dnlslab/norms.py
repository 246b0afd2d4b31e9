"""Weighted norms: spatial Fourier-Lebesgue norms and space-time restriction norms.

The space-time norm weights the full space-time transform by
<tau + xi^2>**b * <xi>**s and takes an l^{r'} norm over xi of L^{p'} norms
over tau.  The temporal transform is a zero-padded windowed DFT; tau
integrals use trapezoid weights on the resulting uniform tau grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ROOT_TWO_PI, Trajectory, bracket, cutoff_of, xi_range

INF = math.inf


def dual_exponent(p: float) -> float:
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormSpec:
    """Parameter bundle: (s, r) for spatial norms, (s, b, r, p) for space-time."""

    s: float
    r: float
    b: float | None = None
    p: float | None = None

    def __post_init__(self):
        for name in ("s", "b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (1.0 < self.r < INF):
            raise ValueError(f"r must lie strictly between 1 and infinity, got {self.r}")
        if self.p is not None and not (1.0 <= self.p <= INF):
            raise ValueError(f"p must lie in [1, inf], got {self.p}")

    @property
    def r_dual(self) -> float:
        return dual_exponent(self.r)

    @property
    def p_dual(self) -> float:
        if self.p is None:
            raise ValueError("space-time exponent p not set")
        return dual_exponent(self.p)


def _lp_sequence_norm(values: np.ndarray, p: float) -> np.ndarray:
    """l^p norm along the last axis; every caller has a finite p (r lies in (1, inf))."""
    return np.sum(values**p, axis=-1) ** (1.0 / p)


def data_norms(coeffs: np.ndarray, spec: NormSpec) -> np.ndarray:
    """|| <xi>**s coeff ||_{l^{r'}} of every coefficient row (..., 2*cutoff+1)."""
    weighted = bracket(xi_range(cutoff_of(coeffs))) ** spec.s * np.abs(coeffs)
    return _lp_sequence_norm(weighted, spec.r_dual)


# ---------------------------------------------------------------------------
# space-time transform
# ---------------------------------------------------------------------------

def space_time_transform(
    traj: Trajectory, pad_factor: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete full transform of the windowed trajectory.

    Returns (tau, F) with F[m, j] the transform at (tau_m, xi_j), tau ascending.
    The cutoff profile is applied here, exactly once.
    """
    if traj.cutoff_profile is None:
        raise ValueError("trajectory has no cutoff profile; attach one before transforming")
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    weights = traj.cutoff_profile.weights(traj.times)
    data = traj.coeffs * weights[:, None]
    n = data.shape[0]
    padded = pad_factor * n
    dt = traj.dt
    spec = np.fft.fft(data, n=padded, axis=0)
    tau = 2.0 * math.pi * np.fft.fftfreq(padded, d=dt)
    # quadrature phase for the grid starting at t_0 = -window
    phase = np.exp(-1j * tau * traj.times[0])
    F = (dt / ROOT_TWO_PI) * phase[:, None] * spec
    order = np.argsort(tau)
    return tau[order], F[order]


def _xst_norms(traj: Trajectory, specs: list[NormSpec], pad_factor: int = 4) -> list[float]:
    """Discrete X^{s,b}_{r,p} norms of the windowed trajectory, one per spec,
    all from one space-time transform."""
    if any(spec.b is None or spec.p is None for spec in specs):
        raise ValueError("space-time norm needs both b and p")
    tau, F = space_time_transform(traj, pad_factor)
    xi = np.arange(-traj.cutoff, traj.cutoff + 1)
    sigma_weight = bracket(tau[:, None] + xi[None, :] ** 2)
    xi_weight = bracket(xi)[None, :]
    size = np.abs(F)
    norms = []
    for spec in specs:
        weighted = sigma_weight**spec.b * xi_weight**spec.s * size
        p_dual = spec.p_dual
        if p_dual == INF:
            per_xi = np.max(weighted, axis=0)
        else:
            dtau = tau[1] - tau[0]
            per_xi = (np.sum(weighted**p_dual, axis=0) * dtau) ** (1.0 / p_dual)
        norms.append(float(_lp_sequence_norm(per_xi, spec.r_dual)))
    return norms


def xst_norm(traj: Trajectory, spec: NormSpec, pad_factor: int = 4) -> float:
    """Discrete X^{s,b}_{r,p} norm of the windowed trajectory."""
    return _xst_norms(traj, [spec], pad_factor)[0]


def z_norm(traj: Trajectory, s: float, r: float, pad_factor: int = 4) -> float:
    """Intersection norm: max of the (b=1/2, p=2) and (b=0, p=inf) norms."""
    return max(_xst_norms(traj, [NormSpec(s=s, r=r, b=0.5, p=2.0),
                                 NormSpec(s=s, r=r, b=0.0, p=INF)], pad_factor))


def l2_spacetime_norm(traj: Trajectory) -> float:
    """L^2(dt dx) norm of the windowed trajectory by trapezoid in time."""
    if traj.cutoff_profile is None:
        raise ValueError("trajectory has no cutoff profile")
    w = traj.cutoff_profile.weights(traj.times)
    per_t = np.sum(np.abs(traj.coeffs * w[:, None]) ** 2, axis=1)
    weights = np.full(per_t.shape, traj.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(math.sqrt(np.sum(per_t * weights)))

