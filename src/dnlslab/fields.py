"""Band-limited periodic fields on the torus and their trajectories.

A field is a complex array of shape (2N+1,): coeffs[k] is its Fourier
coefficient at xi = k - N on the symmetric band xi in {-N, ..., N}, with the
1/sqrt(2*pi) transform convention:

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


# ---------------------------------------------------------------------------
# operators on coefficient arrays
# ---------------------------------------------------------------------------
# Every operator below takes and returns coefficient arrays (..., 2*cutoff+1):
# the last axis holds the band, any leading axes are a batch (one row per grid
# time, say), and the cutoff is read from the width of the last axis.

def cutoff_of(coeffs: np.ndarray) -> int:
    return (coeffs.shape[-1] - 1) // 2


def resize(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficient arrays zero-padded or truncated along the last axis to |xi| <= cutoff."""
    extra = cutoff - cutoff_of(coeffs)
    if extra < 0:
        return coeffs[..., -extra:extra]
    return np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(extra, extra)])


def _check_grid(gridsize: int, cutoff: int) -> None:
    if gridsize < 2 * cutoff + 1:
        raise ValueError(f"grid of size {gridsize} too small for cutoff {cutoff}")


def to_physical(coeffs: np.ndarray, gridsize: int) -> np.ndarray:
    """Samples on the uniform grid x_j = 2*pi*j/gridsize of band coefficients.

    The inverse FFT and its scaling run in place, in the spectrum array they
    return.
    """
    cutoff = cutoff_of(coeffs)
    _check_grid(gridsize, cutoff)
    spectrum = np.zeros(coeffs.shape[:-1] + (gridsize,), dtype=complex)
    spectrum[..., : cutoff + 1] = coeffs[..., cutoff:]
    spectrum[..., gridsize - cutoff :] = coeffs[..., :cutoff]
    np.fft.ifft(spectrum, axis=-1, out=spectrum)
    return np.multiply(spectrum, gridsize / ROOT_TWO_PI, out=spectrum)


def from_physical(samples: np.ndarray, cutoff: int) -> np.ndarray:
    """Band coefficients of samples on the uniform grid x_j = 2*pi*j/G, G = samples.shape[-1].

    Exact for band-limited data when G >= 2*cutoff + 1.  The samples are left
    untouched: the transform runs on a copy.
    """
    return product_coeffs(np.array(samples, dtype=complex), cutoff, cutoff)


def product_gridsize(band: int, out_cutoff: int) -> int:
    """The least smooth_gridsize on which a product of total band `band` is
    alias-free for |xi| <= out_cutoff: band + min(out_cutoff, band) + 1 points."""
    return smooth_gridsize(band + min(out_cutoff, band) + 1)


def smooth_gridsize(least: int) -> int:
    """The least grid of at least `least` points that is even and 5-smooth (no
    prime factor above 5), so the FFTs never run on 2 * a large prime."""
    gridsize = least + least % 2
    while True:
        rest = gridsize
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return gridsize
        gridsize += 2


def product_coeffs(values: np.ndarray, band: int, out_cutoff: int) -> np.ndarray:
    """Coefficients on |xi| <= out_cutoff of grid samples of a product of band `band`.

    It overwrites `values` (a complex array the caller no longer needs) with
    their unscaled spectrum, then scales the kept band straight into the
    result.
    """
    cutoff = min(out_cutoff, band)
    gridsize = values.shape[-1]
    _check_grid(gridsize, cutoff)
    np.fft.fft(values, axis=-1, out=values)
    scale = ROOT_TWO_PI / gridsize
    pad = out_cutoff - cutoff
    shape = values.shape[:-1] + (2 * out_cutoff + 1,)
    out = np.zeros(shape, dtype=complex) if pad else np.empty(shape, dtype=complex)
    zero = pad + cutoff  # the column of xi = 0
    np.multiply(values[..., gridsize - cutoff :], scale, out=out[..., pad:zero])
    np.multiply(values[..., : cutoff + 1], scale, out=out[..., zero : zero + cutoff + 1])
    return out


def x_grid(gridsize: int) -> np.ndarray:
    return TWO_PI * np.arange(gridsize) / gridsize


def derivative(coeffs: np.ndarray) -> np.ndarray:
    """Exact spatial derivative: multiply coefficients by i*xi."""
    return differentiate(np.array(coeffs, dtype=complex))


def differentiate(coeffs: np.ndarray) -> np.ndarray:
    """derivative(coeffs), written over the complex array `coeffs` and returned."""
    return np.multiply(1j * xi_range(cutoff_of(coeffs)), coeffs, out=coeffs)


def mass_mean(coeffs: np.ndarray) -> np.ndarray:
    """Mean of |u|^2 over the torus, exact from the coefficients, one value per row."""
    return np.sum(np.abs(coeffs) ** 2, axis=-1) / TWO_PI


def mean_value(coeffs: np.ndarray) -> np.ndarray:
    """Mean over the torus: (2*pi)**-0.5 * coeff(0), one value per row."""
    return coeffs[..., cutoff_of(coeffs)] / ROOT_TWO_PI


def physical_product(factors: Sequence[np.ndarray], conjugate: Sequence[bool],
                     out_cutoff: int) -> np.ndarray:
    """Pointwise product of the factors, each conjugated where conjugate says,
    dealiased, on |xi| <= out_cutoff.

    The factors may have different cutoffs, and their leading axes broadcast.
    The working grid is large enough that the kept band is alias-free.
    """
    band = sum(cutoff_of(f) for f in factors)
    gridsize = product_gridsize(band, out_cutoff)
    values = np.ones(gridsize, dtype=complex)
    for f, cj in zip(factors, conjugate):
        v = to_physical(f, gridsize)
        if cj:
            np.conj(v, out=v)
        # neither operand is a temporary, so numpy keeps this order at any size
        values = values * v
    return product_coeffs(values, band, out_cutoff)


def plane_wave(cutoff: int, n: int, amplitude: complex = 1.0) -> np.ndarray:
    """Coefficients of A * exp(i*n*x) on |xi| <= cutoff."""
    _check_count("cutoff", cutoff, None)
    _check_count("n", n, None)
    if abs(n) > cutoff:
        raise ValueError(f"frequency {n} outside cutoff {cutoff}")
    coeffs = np.zeros(2 * cutoff + 1, dtype=complex)
    coeffs[n + cutoff] = amplitude * ROOT_TWO_PI
    return coeffs


def constant_field(cutoff: int, value: complex) -> np.ndarray:
    return plane_wave(cutoff, 0, value)


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
class Trajectory:
    """A field sampled on the uniform grid t_k = -window + k*dt, k = 0..steps.

    coeffs[k, j] is the coefficient at time t_k and xi = j - cutoff, so the
    read-only matrix has shape (steps+1, 2*cutoff+1); steps * dt == 2 * window.
    """

    coeffs: np.ndarray
    window: float

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)  # a copy: the caller's array stays writable
        if c.ndim != 2 or c.shape[0] < 2 or c.shape[1] % 2 == 0:
            raise ValueError(
                "trajectory needs a (steps+1, 2*cutoff+1) coefficient matrix with "
                f"at least two samples, got shape {c.shape}"
            )
        _check_positive("window", self.window)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def cutoff(self) -> int:
        return cutoff_of(self.coeffs)

    @property
    def steps(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dt(self) -> float:
        return 2.0 * self.window / self.steps

    @property
    def times(self) -> np.ndarray:
        return time_grid(self.window, self.steps)

    def coeff_matrix(self) -> np.ndarray:
        """The stored (steps+1, 2*cutoff+1) coefficient matrix (no copy)."""
        return self.coeffs

    def map_samples(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Trajectory":
        """Apply fn to the coefficient row of every sample."""
        return replace(self, coeffs=np.array([fn(row) for row in self.coeffs]))

    def windowed(self) -> np.ndarray:
        """The coefficient matrix with the time cutoff applied to every sample."""
        return self.coeffs * time_cutoff(self.window, self.steps)

    def sup_l2_distance(self, other: "Trajectory") -> float:
        if self.coeffs.shape != other.coeffs.shape:
            raise ValueError("trajectories have different sample counts or cutoffs")
        return float(np.linalg.norm(self.coeffs - other.coeffs, axis=1).max())


def _check_positive(name: str, value: float) -> None:
    """Reject a number that is not finite or not above 0, naming it."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_count(name: str, value: int, least: int | None) -> None:
    """Reject a count that is not an integer (a bool is not one) or is below least, naming
    it; a least of None checks a signed integer, which has no floor."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def time_grid(window: float, steps: int) -> np.ndarray:
    """The uniform grid t_k = -window + k*dt, k = 0..steps, with dt = 2*window/steps."""
    _check_count("steps", steps, 1)
    return -window + (2.0 * window / steps) * np.arange(steps + 1)


def time_cutoff(window: float, steps: int) -> np.ndarray:
    """The time cutoff bump(t/(window/2)) on the grid, as a (steps+1, 1) column.

    It is 1 on the middle half of the window and vanishes at its edges.
    """
    return bump(time_grid(window, steps) / (window / 2.0))[:, None]


def free_phase(times, cutoff: int) -> np.ndarray:
    """The free Schroedinger multiplier exp(-i*t*xi^2) on the band, one row per time.

    A scalar time gives one row; an array of times gives a matrix.
    """
    _check_count("cutoff", cutoff, 0)
    xi_sq = xi_range(cutoff).astype(float) ** 2
    return np.exp(-1j * np.multiply.outer(times, xi_sq))


# ---------------------------------------------------------------------------
# seeded random ensembles
# ---------------------------------------------------------------------------

# Both ensembles give the coefficient at xi a <xi>**-1 spectral profile. A
# trajectory coefficient is a sum of TRAJECTORY_MODES oscillations in t with
# rates drawn uniformly from [-TRAJECTORY_MAX_RATE, TRAJECTORY_MAX_RATE]; its
# phases are built in blocks of TRAJECTORY_BLOCK time steps.
TRAJECTORY_MODES = 3
TRAJECTORY_MAX_RATE = 8.0
TRAJECTORY_BLOCK = 8


def random_field(
    cutoff: int,
    rng: np.random.Generator,
    active_cutoff: int | None = None,
    l2_norm: float | None = None,
) -> np.ndarray:
    """i.i.d. complex Gaussian coefficients with a <xi>**-1 spectral profile,
    zero beyond the active band and rescaled to the given l2 norm."""
    _check_count("cutoff", cutoff, 0)
    if active_cutoff is not None:
        _check_count("active_cutoff", active_cutoff, 0)
    if l2_norm is not None and not (math.isfinite(l2_norm) and l2_norm >= 0):
        raise ValueError(f"l2_norm must be finite and >= 0, got {l2_norm}")
    active = cutoff if active_cutoff is None else min(active_cutoff, cutoff)
    xi = xi_range(cutoff)
    z = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    c = z * bracket(xi) ** -1.0
    c[np.abs(xi) > active] = 0.0
    if l2_norm is not None:
        cur = float(np.linalg.norm(c))
        if cur > 0:
            c = c * (l2_norm / cur)
    return c


def random_trajectory(
    cutoff: int, rng: np.random.Generator, window: float = 2.0, steps: int = 64
) -> Trajectory:
    """Random space-time field, smooth in t, on the grid of the given window and steps.

    The coefficient at t_k and xi sums TRAJECTORY_MODES terms
    base * exp(i*rate*t_k) * <xi>**-1 / sqrt(TRAJECTORY_MODES), with a complex
    Gaussian base and a uniform rate per mode and xi.  Writing
    t_k = t_{B*a} + b*dt with B = TRAJECTORY_BLOCK and b = 0..B-1, each phase is
    taken as a coarse exp(i*rate*t_{B*a}), which also carries the amplitude,
    times a fine exp(i*rate*b*dt).  A draw thus evaluates steps//B + 1 + B
    exponentials per rate, not steps + 1, and each phase lies within a few ulp
    of exp(i*rate*t_k).
    """
    _check_count("cutoff", cutoff, 0)
    _check_positive("window", window)
    coarse_times = time_grid(window, steps)[::TRAJECTORY_BLOCK]  # t_{B*a}, a = 0..steps//B
    shape = (2 * cutoff + 1, TRAJECTORY_MODES)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rates = rng.uniform(-TRAJECTORY_MAX_RATE, TRAJECTORY_MAX_RATE, size=shape).T[:, None, :]
    amplitudes = base.T * (bracket(xi_range(cutoff)) ** -1.0 / math.sqrt(TRAJECTORY_MODES))
    # the temporary first: numpy may reuse it for the product, and swapping the
    # operands of a complex product can move its bits
    coarse = np.exp(1j * rates * coarse_times[:, None]) * amplitudes[:, None, :]
    fine = np.exp(1j * rates * ((2.0 * window / steps) * np.arange(TRAJECTORY_BLOCK))[:, None])
    # axes (mode, a, b, xi); rows a*B + b past steps are dropped
    terms = (coarse[:, :, None, :] * fine[:, None, :, :]).reshape(TRAJECTORY_MODES, -1, shape[0])
    total = terms[0, : steps + 1]
    for mode in range(1, TRAJECTORY_MODES):
        total = total + terms[mode, : steps + 1]
    return Trajectory(total, window)
