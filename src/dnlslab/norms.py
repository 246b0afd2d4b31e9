"""Weighted norms: spatial Fourier-Lebesgue norms and space-time restriction norms.

The space-time norm weights the full space-time transform by
<tau + xi^2>**b * <xi>**s and takes an l^{r'} norm over xi of L^{p'} norms
over tau.  The temporal transform is a zero-padded windowed DFT; tau
integrals use trapezoid weights on the resulting uniform tau grid.
"""
from __future__ import annotations

import functools
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

@functools.lru_cache(maxsize=32)
def _transform_grid(samples: int, dt: float, pad_factor: int, t0: float):
    """The read-only grid arrays of the zero-padded temporal DFT, built once per grid.

    Returns (tau, order, scale): the ascending tau grid, the order that sorts the
    DFT's frequencies into it, and the quadrature scale
    (dt / sqrt(2*pi)) * exp(-i*tau*t0) as a column, for a grid starting at t0.
    """
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    tau = 2.0 * math.pi * np.fft.fftfreq(pad_factor * samples, d=dt)
    order = np.argsort(tau)
    tau = tau[order]
    scale = (dt / ROOT_TWO_PI) * np.exp(-1j * tau * t0)[:, None]
    for array in (tau, order, scale):
        array.setflags(write=False)
    return tau, order, scale


def space_time_transform(
    traj: Trajectory, pad_factor: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete full transform of the windowed trajectory.

    Returns (tau, F) with F[m, j] the transform at (tau_m, xi_j), tau ascending;
    tau is read-only and shared by every trajectory on the grid.
    The cutoff profile is applied here, exactly once.
    """
    if traj.cutoff_profile is None:
        raise ValueError("trajectory has no cutoff profile; attach one before transforming")
    data = traj.coeffs
    if traj.cutoff_profile.kind != "applied":  # an applied profile's weights are all 1.0
        data = data * traj.cutoff_profile.weights(traj.times)[:, None]
    # t_0 = -window starts the grid
    tau, order, scale = _transform_grid(data.shape[0], traj.dt, pad_factor, -traj.window)
    return tau, scale * np.fft.fft(data, n=len(tau), axis=0)[order]


class _NormTables:
    """Each spec's weights <tau + xi^2>**b * <xi>**s, built once for every trajectory on a grid."""

    def __init__(self, steps: int, window: float, cutoff: int, specs: list[NormSpec],
                 pad_factor: int = 4):
        if any(spec.b is None or spec.p is None for spec in specs):
            raise ValueError("space-time norm needs both b and p")
        self.pad_factor, self.xi = pad_factor, xi_range(cutoff)
        self.tau = _transform_grid(steps + 1, 2.0 * window / steps, pad_factor, -window)[0]
        sigma_weight = bracket(self.tau[:, None] + self.xi[None, :] ** 2)
        self.weights = {spec: sigma_weight**spec.b * bracket(self.xi)[None, :]**spec.s
                        for spec in specs}

    def norms(self, traj: Trajectory, specs=None, transform=None) -> list[float]:
        """X^{s,b}_{r,p} norms of the trajectory per spec (default: all), from one transform."""
        tau, F = transform or space_time_transform(traj, self.pad_factor)
        on_grid = tau is self.tau or np.array_equal(tau, self.tau)  # `is`: the memoized grid
        if not on_grid or F.shape[1] != len(self.xi):
            raise ValueError("the trajectory is not on the grid of these norm tables")
        size = np.abs(F)
        specs, norms = specs or list(self.weights), {}
        for spec in dict.fromkeys(specs):  # each distinct spec once
            weighted = self.weights[spec] * size
            p_dual = spec.p_dual
            if p_dual == INF:
                per_xi = np.max(weighted, axis=0)
            else:
                per_xi = (np.sum(weighted**p_dual, axis=0) * (tau[1] - tau[0])) ** (1.0 / p_dual)
            norms[spec] = float(_lp_sequence_norm(per_xi, spec.r_dual))
        return [norms[spec] for spec in specs]


def xst_norm(traj: Trajectory, spec: NormSpec, pad_factor: int = 4, transform=None) -> float:
    """Discrete X^{s,b}_{r,p} norm of the windowed trajectory, from its transform if given."""
    tables = _NormTables(traj.steps, traj.window, traj.cutoff, [spec], pad_factor)
    return tables.norms(traj, transform=transform)[0]


def z_norm(traj: Trajectory, s: float, r: float, pad_factor: int = 4, transform=None) -> float:
    """Intersection norm: max of the (b=1/2, p=2) and (b=0, p=inf) norms."""
    specs = [NormSpec(s=s, r=r, b=0.5, p=2.0), NormSpec(s=s, r=r, b=0.0, p=INF)]
    return max(_NormTables(traj.steps, traj.window, traj.cutoff, specs, pad_factor)
               .norms(traj, transform=transform))


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

