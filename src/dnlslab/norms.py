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

from .fields import ROOT_TWO_PI, bracket, cutoff_of, xi_range

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

PAD_FACTOR = 4  # the temporal transform zero-pads the samples to 4 times their count


class _NormTables:
    """The transform grid of one time grid and band, and each spec's weights
    <tau + xi^2>**b * <xi>**s, built once for every trajectory on the grid."""

    def __init__(self, steps: int, window: float, cutoff: int, specs: list[NormSpec]):
        if any(spec.b is None or spec.p is None for spec in specs):
            raise ValueError("space-time norm needs both b and p")
        dt, t0 = 2.0 * window / steps, -window  # t_0 = -window starts the grid
        tau = 2.0 * math.pi * np.fft.fftfreq(PAD_FACTOR * (steps + 1), d=dt)
        self.order = np.argsort(tau)
        self.tau, self.xi = tau[self.order], xi_range(cutoff)
        self.scale = (dt / ROOT_TWO_PI) * np.exp(-1j * self.tau * t0)[:, None]
        sigma_weight = bracket(self.tau[:, None] + self.xi[None, :] ** 2)
        self.weights = {spec: sigma_weight**spec.b * bracket(self.xi)[None, :]**spec.s
                        for spec in dict.fromkeys(specs)}

    def transform(self, samples: np.ndarray) -> np.ndarray:
        """F[m, j], the transform at (tau_m, xi_j) of windowed samples (steps+1, 2*cutoff+1)."""
        return self.scale * np.fft.fft(samples, n=len(self.tau), axis=0)[self.order]

    def norms(self, F: np.ndarray, specs: list[NormSpec]) -> list[float]:
        """X^{s,b}_{r,p} norms of the transform F, one per given spec."""
        size, norms = np.abs(F), {}
        dtau = self.tau[1] - self.tau[0]
        for spec in dict.fromkeys(specs):  # each distinct spec once
            weighted = self.weights[spec] * size
            p_dual = spec.p_dual
            if p_dual == INF:
                per_xi = np.max(weighted, axis=0)
            else:
                per_xi = (np.sum(weighted**p_dual, axis=0) * dtau) ** (1.0 / p_dual)
            norms[spec] = float(_lp_sequence_norm(per_xi, spec.r_dual))
        return [norms[spec] for spec in specs]


def z_specs(s: float, r: float) -> list[NormSpec]:
    """The two specs whose norms' max is the intersection norm Z: (b=1/2, p=2), (b=0, p=inf)."""
    return [NormSpec(s=s, r=r, b=0.5, p=2.0), NormSpec(s=s, r=r, b=0.0, p=INF)]


def xst_norm(samples: np.ndarray, window: float, specs: list[NormSpec]) -> list[float]:
    """Discrete X^{s,b}_{r,p} norms, one per spec, of windowed samples (steps+1, 2*cutoff+1)
    on the grid t_k = -window + k*dt; all specs share one table build and one transform."""
    tables = _NormTables(samples.shape[0] - 1, window, cutoff_of(samples), specs)
    return tables.norms(tables.transform(samples), specs)


def _l2_norm(samples: np.ndarray, dt: float) -> float:
    """L^2(dt dx) norm of windowed samples (steps+1, 2*cutoff+1) by trapezoid in time."""
    per_t = np.sum(np.abs(samples) ** 2, axis=1)
    weights = np.full(per_t.shape, dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(math.sqrt(np.sum(per_t * weights)))
