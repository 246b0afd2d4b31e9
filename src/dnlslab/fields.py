"""Band-limited periodic fields on the torus and their trajectories.

A field is stored as complex Fourier coefficients on the symmetric band
xi in {-N, ..., N} with the 1/sqrt(2*pi) transform convention:

    coeff(xi) = (2*pi)**-0.5 * integral_0^{2pi} u(x) exp(-i*x*xi) dx

so that Parseval gives  integral |u|^2 dx = sum |coeff|^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
ROOT_TWO_PI = math.sqrt(TWO_PI)


def bracket(x):
    """Japanese bracket <x> = sqrt(1 + x^2), vectorized."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


def xi_range(cutoff: int) -> np.ndarray:
    return np.arange(-cutoff, cutoff + 1)


@dataclass(frozen=True)
class SpectralField:
    """Immutable band-limited field: coeffs[k] is the amplitude at xi = k - cutoff."""

    coeffs: np.ndarray
    cutoff: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)  # a copy: the caller's array stays writable
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if c.shape != (2 * self.cutoff + 1,):
            raise ValueError(
                f"expected {2 * self.cutoff + 1} coefficients for cutoff {self.cutoff}, "
                f"got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, cutoff: int) -> "SpectralField":
        return cls(np.zeros(2 * cutoff + 1, dtype=complex), cutoff)

    @classmethod
    def from_coeff_dict(cls, cutoff: int, values: dict[int, complex]) -> "SpectralField":
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        for xi, v in values.items():
            if abs(xi) > cutoff:
                raise ValueError(f"frequency {xi} outside cutoff {cutoff}")
            c[xi + cutoff] = v
        return cls(c, cutoff)

    # -- accessors ----------------------------------------------------
    @property
    def xi(self) -> np.ndarray:
        return xi_range(self.cutoff)

    def coeff(self, xi: int) -> complex:
        if abs(xi) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[xi + self.cutoff])

    # -- algebra (pure, returns new fields) ----------------------------
    def __add__(self, other: "SpectralField") -> "SpectralField":
        a, b = match_cutoffs(self, other)
        return SpectralField(a.coeffs + b.coeffs, a.cutoff)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        a, b = match_cutoffs(self, other)
        return SpectralField(a.coeffs - b.coeffs, a.cutoff)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.coeffs * scalar, self.cutoff)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(-self.coeffs, self.cutoff)

    def conjugate(self) -> "SpectralField":
        """Field of conj(u): coefficients conj(coeff(-xi))."""
        return SpectralField(np.conj(self.coeffs[::-1]), self.cutoff)

    def pad_to(self, cutoff: int) -> "SpectralField":
        if cutoff < self.cutoff:
            raise ValueError("pad_to target smaller than current cutoff")
        extra = cutoff - self.cutoff
        return SpectralField(np.pad(self.coeffs, (extra, extra)), cutoff)

    def truncate(self, cutoff: int) -> "SpectralField":
        if cutoff >= self.cutoff:
            return self.pad_to(cutoff)
        drop = self.cutoff - cutoff
        return SpectralField(self.coeffs[drop:-drop].copy(), cutoff)

    def tail_l2(self, cutoff: int) -> float:
        """l2 mass carried by frequencies |xi| > cutoff."""
        if cutoff >= self.cutoff:
            return 0.0
        drop = self.cutoff - cutoff
        tail = np.concatenate([self.coeffs[:drop], self.coeffs[-drop:]])
        return float(np.linalg.norm(tail))

    # -- scalars -------------------------------------------------------
    def l2_norm(self) -> float:
        """L^2(0, 2pi) norm of the physical field (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    def mass_mean(self) -> float:
        """Mean value of |u|^2 over the torus, computed exactly from coefficients."""
        return float(np.sum(np.abs(self.coeffs) ** 2) / TWO_PI)


def match_cutoffs(a: SpectralField, b: SpectralField) -> tuple[SpectralField, SpectralField]:
    n = max(a.cutoff, b.cutoff)
    return a.pad_to(n), b.pad_to(n)


# ---------------------------------------------------------------------------
# physical <-> spectral conversion
# ---------------------------------------------------------------------------

# The array-level pair below maps every row of a batch on its own: leading axes
# are a batch, the last axis holds the band (2*cutoff+1) or the grid.

def band_to_grid(coeffs: np.ndarray, gridsize: int) -> np.ndarray:
    """Samples on the uniform grid x_j = 2*pi*j/gridsize of band coefficients."""
    cutoff = (coeffs.shape[-1] - 1) // 2
    if gridsize < 2 * cutoff + 1:
        raise ValueError(f"grid of size {gridsize} too small for cutoff {cutoff}")
    spectrum = np.zeros(coeffs.shape[:-1] + (gridsize,), dtype=complex)
    spectrum[..., : cutoff + 1] = coeffs[..., cutoff:]
    spectrum[..., gridsize - cutoff :] = coeffs[..., :cutoff]
    return np.fft.ifft(spectrum, axis=-1) * (gridsize / ROOT_TWO_PI)


def grid_to_band(samples: np.ndarray, cutoff: int) -> np.ndarray:
    """Band coefficients of uniform-grid samples; exact for data on a band that fits the grid."""
    gridsize = samples.shape[-1]
    if gridsize < 2 * cutoff + 1:
        raise ValueError(f"grid of size {gridsize} too small for cutoff {cutoff}")
    spectrum = np.fft.fft(samples, axis=-1) * (ROOT_TWO_PI / gridsize)
    return np.concatenate([spectrum[..., gridsize - cutoff :], spectrum[..., : cutoff + 1]], axis=-1)


def product_gridsize(band: int, out_cutoff: int) -> int:
    """Even grid on which a product of total band `band` is alias-free for |xi| <= out_cutoff."""
    gridsize = band + min(out_cutoff, band) + 1
    return gridsize + gridsize % 2


def from_physical(samples: np.ndarray, cutoff: int) -> SpectralField:
    """Field from samples on the uniform grid x_j = 2*pi*j/G, G = len(samples).

    Exact for band-limited data when G >= 2*cutoff + 1.
    """
    return SpectralField(grid_to_band(np.asarray(samples, dtype=complex), cutoff), cutoff)


def to_physical(f: SpectralField, gridsize: int) -> np.ndarray:
    """Samples of the field on the uniform grid of the given size."""
    return band_to_grid(f.coeffs, gridsize)


def x_grid(gridsize: int) -> np.ndarray:
    return TWO_PI * np.arange(gridsize) / gridsize


def derivative(f: SpectralField) -> SpectralField:
    """Exact spatial derivative: multiply coefficients by i*xi."""
    return SpectralField(1j * f.xi * f.coeffs, f.cutoff)


def mean_value(f: SpectralField) -> complex:
    """Mean of the field over the torus: (2*pi)**-0.5 * coeff(0)."""
    return f.coeff(0) / ROOT_TWO_PI


def plane_wave(cutoff: int, n: int, amplitude: complex = 1.0) -> SpectralField:
    """A * exp(i*n*x) as a spectral field."""
    return SpectralField.from_coeff_dict(cutoff, {n: amplitude * ROOT_TWO_PI})


def constant_field(cutoff: int, value: complex) -> SpectralField:
    return SpectralField.from_coeff_dict(cutoff, {0: value * ROOT_TWO_PI})


def physical_product(
    factors: Sequence[SpectralField],
    conjugate: Sequence[bool] | None = None,
    out_cutoff: int | None = None,
) -> SpectralField:
    """Pointwise product of fields, dealiased, truncated to out_cutoff.

    The working grid is large enough that the kept band is alias-free.
    """
    if conjugate is None:
        conjugate = [False] * len(factors)
    band = sum(f.cutoff for f in factors)
    if out_cutoff is None:
        out_cutoff = max(f.cutoff for f in factors)
    gridsize = product_gridsize(band, out_cutoff)
    values = np.ones(gridsize, dtype=complex)
    for f, cj in zip(factors, conjugate):
        v = band_to_grid(f.coeffs, gridsize)
        values *= np.conj(v) if cj else v
    keep = min(out_cutoff, band)
    return SpectralField(grid_to_band(values, keep), keep).pad_to(out_cutoff)


# ---------------------------------------------------------------------------
# time cutoff and trajectories
# ---------------------------------------------------------------------------

def bump(t):
    """Smooth cutoff: 1 on [-1, 1], exp(1 - 1/(1-(|t|-1)^2)) on 1<|t|<2, 0 beyond."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    s = t[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - s * s))
    return out


@dataclass(frozen=True)
class CutoffProfile:
    """Time window applied before space-time transforms.

    kind "bump": multiply by bump(t/scale) at transform time.
    kind "applied": samples are already compactly supported; use them as-is.
    """

    kind: str = "bump"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bump", "applied"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "bump" and self.scale <= 0:
            raise ValueError("cutoff scale must be positive")

    def weights(self, times: np.ndarray) -> np.ndarray:
        if self.kind == "applied":
            return np.ones_like(np.asarray(times, dtype=float))
        return bump(np.asarray(times, dtype=float) / self.scale)


@dataclass(frozen=True)
class Trajectory:
    """A field sampled on the uniform grid t_k = -window + k*dt, k = 0..steps.

    coeffs[k, j] is the coefficient at time t_k and xi = j - cutoff, so the
    read-only matrix has shape (steps+1, 2*cutoff+1); steps * dt == 2 * window.
    """

    coeffs: np.ndarray
    window: float
    cutoff_profile: CutoffProfile | None = None

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)  # a copy: the caller's array stays writable
        if c.ndim != 2 or c.shape[0] < 2 or c.shape[1] % 2 == 0:
            raise ValueError(
                "trajectory needs a (steps+1, 2*cutoff+1) coefficient matrix with "
                f"at least two samples, got shape {c.shape}"
            )
        if self.window <= 0:
            raise ValueError("window must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def cutoff(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def steps(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dt(self) -> float:
        return 2.0 * self.window / self.steps

    @property
    def times(self) -> np.ndarray:
        return -self.window + self.dt * np.arange(self.steps + 1)

    def coeff_matrix(self) -> np.ndarray:
        """The stored (steps+1, 2*cutoff+1) coefficient matrix (no copy)."""
        return self.coeffs

    def map_samples(self, fn: Callable[[SpectralField], SpectralField]) -> "Trajectory":
        """Apply fn to the field of every row."""
        rows = [fn(SpectralField(row, self.cutoff)).coeffs for row in self.coeffs]
        return replace(self, coeffs=np.array(rows))

    def windowed(self) -> "Trajectory":
        """Bake the cutoff profile into the samples."""
        if self.cutoff_profile is None:
            raise ValueError("trajectory has no cutoff profile to apply")
        w = self.cutoff_profile.weights(self.times)
        return Trajectory(self.coeffs * w[:, None], self.window, CutoffProfile(kind="applied"))

    def sup_l2_distance(self, other: "Trajectory") -> float:
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("trajectories have different sample counts or cutoffs")
        return float(np.linalg.norm(self.coeffs - other.coeffs, axis=1).max())


def free_phase(times, cutoff: int) -> np.ndarray:
    """The free Schroedinger multiplier exp(-i*t*xi^2) on the band, one row per time.

    A scalar time gives one row; an array of times gives a matrix.
    """
    xi_sq = xi_range(cutoff).astype(float) ** 2
    return np.exp(-1j * np.multiply.outer(times, xi_sq))


def free_wave_trajectory(
    n: int,
    cutoff: int,
    window: float = 2.0,
    steps: int = 256,
    amplitude: complex = 1.0,
) -> Trajectory:
    """exp(i*(n*x - n^2*t)) sampled on the grid, with the default bump profile.

    The profile scale window/2 makes the windowed samples vanish at the edges.
    """
    times = -window + (2.0 * window / steps) * np.arange(steps + 1)
    coeffs = amplitude * free_phase(times, cutoff) * plane_wave(cutoff, n).coeffs
    return Trajectory(coeffs, window, CutoffProfile(scale=window / 2.0))


# ---------------------------------------------------------------------------
# seeded random ensembles
# ---------------------------------------------------------------------------

def random_field(
    cutoff: int,
    rng: np.random.Generator,
    tilt: float = 1.0,
    active_cutoff: int | None = None,
    l2_norm: float | None = None,
) -> SpectralField:
    """i.i.d. complex Gaussian coefficients with a <xi>**-tilt spectral profile."""
    active = cutoff if active_cutoff is None else min(active_cutoff, cutoff)
    xi = xi_range(cutoff)
    z = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    c = z * bracket(xi) ** (-tilt)
    c[np.abs(xi) > active] = 0.0
    f = SpectralField(c, cutoff)
    if l2_norm is not None:
        cur = f.l2_norm()
        if cur > 0:
            f = f * (l2_norm / cur)
    return f


def random_trajectory(
    cutoff: int,
    rng: np.random.Generator,
    window: float = 2.0,
    steps: int = 64,
    tilt: float = 1.0,
    active_cutoff: int | None = None,
    modes: int = 3,
    max_rate: float = 8.0,
) -> Trajectory:
    """Random space-time field, smooth in t, with the default bump profile.

    Each spatial coefficient carries a random low-frequency temporal profile
    (a short sum of oscillations with rates up to max_rate).
    """
    active = cutoff if active_cutoff is None else min(active_cutoff, cutoff)
    xi = xi_range(cutoff)
    base = (rng.standard_normal((2 * cutoff + 1, modes))
            + 1j * rng.standard_normal((2 * cutoff + 1, modes)))
    rates = rng.uniform(-max_rate, max_rate, size=(2 * cutoff + 1, modes))
    tiltw = bracket(xi) ** (-tilt)
    times = -window + (2.0 * window / steps) * np.arange(steps + 1)
    waves = np.exp(1j * rates * times[:, None, None])
    coeffs = np.sum(base * waves, axis=2) * tiltw / math.sqrt(modes)
    coeffs[:, np.abs(xi) > active] = 0.0
    return Trajectory(coeffs, window, CutoffProfile(scale=window / 2.0))
