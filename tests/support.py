"""Test fixtures built on the public API: exact free waves, the gauge round-trip
gap, the X^{s,b} embedding ratio scan, the direct lattice kernels that the
product-indexed ones in ``dnlslab.estimates`` are checked against, the
per-truncation endpoint sums that its block-by-block sums are checked against,
and the per-call space-time norms that the norm tables are checked against."""
import math

import numpy as np

import dnlslab as lab
from dnlslab.estimates import BLOCK, PAIRING_SCALE
from dnlslab.fields import ROOT_TWO_PI, bracket, time_grid


def free_wave_trajectory(
    n: int,
    cutoff: int,
    window: float = 2.0,
    steps: int = 256,
    amplitude: complex = 1.0,
) -> lab.Trajectory:
    """exp(i*(n*x - n^2*t)) sampled on the grid.

    The time cutoff bump(t/(window/2)) makes the windowed samples vanish at the edges.
    """
    phase = lab.free_phase(time_grid(window, steps), cutoff)
    coeffs = amplitude * phase * lab.plane_wave(cutoff, n)
    return lab.Trajectory(coeffs, window)


def gauge_roundtrip_error(traj: lab.Trajectory) -> float:
    """sup over samples of the L^2 gap of inverse(gauge(traj)) from traj."""
    back = lab.gauge_field_inv(lab.gauge_field(traj.coeffs, traj.times), traj.times)
    return float(np.max(np.linalg.norm(back - traj.coeffs, axis=-1)))


def embedding_scan(
    trajectories: list[lab.Trajectory],
    s: float,
    r: float,
    b1: float,
    b2: float,
) -> lab.ScanReport:
    """Ratio of the (b2, p=inf) norm to the (b1, p=2) norm over a sample set.

    Requires b1 > b2 + 1/2; zero trajectories are excluded from the ratios.
    """
    if not b1 > b2 + 0.5:
        raise ValueError("embedding scan requires b1 > b2 + 1/2")
    lo_spec = lab.NormSpec(s=s, r=r, b=b1, p=2.0)
    hi_spec = lab.NormSpec(s=s, r=r, b=b2, p=lab.INF)
    ratios = []
    for traj in trajectories:
        lo, hi = lab.xst_norm(traj.windowed(), traj.window, [lo_spec, hi_spec])
        if lo != 0.0:
            ratios.append(hi / lo)
    values = tuple(float(x) for x in ratios)
    summary = {
        "max_ratio": max(values) if values else 0.0,
        "samples_used": len(values),
        "samples_given": len(trajectories),
    }
    grid = {"s": s, "r": r, "b1": b1, "b2": b2}
    return lab.ScanReport(name="embedding", grid=grid, values=values, summary=summary)


def near_diagonal_sweep(limit: int) -> dict:
    """Near-diagonal pair counts for every r <= limit by sweeping r: the summary
    of ``near_diagonal_scan``, from a window of trial divisors around isqrt(r).

    A qualifying pair has both members within r**(1/6)/3 < limit**(1/6)/3 of
    sqrt(r), so a fixed window of offsets around isqrt(r) finds every one.
    """
    r = np.arange(1, limit + 1, dtype=np.int64)
    s = np.sqrt(r.astype(float)).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= r, s + 1, s)
    s = np.where(s * s > r, s - 1, s)
    halfwidth = int(limit ** (1.0 / 6.0) / 3.0) + 2
    counts = np.zeros(limit, dtype=np.int64)
    for off in range(-halfwidth, halfwidth + 2):
        n1 = s + off
        ok = n1 >= 1
        ok &= np.where(ok, r % np.where(ok, n1, 1) == 0, False)
        n2 = np.where(ok, r // np.where(n1 > 0, n1, 1), 0)
        # zeroing dead lanes keeps diff**6 in range
        diff = np.where(ok, n1 - n2, 0)
        ok &= 729 * diff**6 <= r
        counts += ok.astype(np.int64)
    max_count = int(counts.max())
    return {
        "max_count": max_count,
        "argmax": int(r[np.argmax(counts)]),
        "count_histogram": {str(k): int(np.sum(counts == k)) for k in range(max_count + 1)},
    }


def _resonance_grid(variant: str, eps: float, anchor: int, truncation: int):
    """The frequencies (xi, xi1, xi2) of a lattice sum over the whole (2K+1)**2
    grid, its free frequencies as rows and columns, and each pair's weight."""
    idx = np.arange(-truncation, truncation + 1)
    v1, v2 = np.meshgrid(idx, idx, indexing="ij")
    if variant.endswith("_xi"):
        xi, xi1, xi2 = anchor, v1, v2
    else:
        xi, xi1, xi2 = v1, anchor, v2
    if variant.startswith("wdiff"):
        weight = bracket(xi - xi1) ** (-eps) * bracket(xi - xi2) ** (-eps)
    else:
        weight = bracket(xi1) ** (-eps) * bracket(xi2) ** (-eps)
    return xi, xi1, xi2, weight


def direct_resonance_sum(variant: str, eps: float, a: float, anchor: int,
                         truncation: int) -> float:
    """``resonance_weighted_sum`` as one masked sum over the whole (2K+1)**2 grid."""
    xi, xi1, xi2, weight = _resonance_grid(variant, eps, anchor, truncation)
    mask = (xi1 != xi) & (xi2 != xi)
    core = bracket(a + 2.0 * (xi - xi1) * (xi - xi2)) ** (-(1.0 + eps))
    return float(np.sum(np.where(mask, weight * core, 0.0)))


def direct_resonance_bins(variant: str, eps: float, anchor: int,
                          truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """``estimates._resonance_bins`` from one np.add.at over the whole grid in
    row-major order, with the occupied bins found by np.flatnonzero on the
    float bins themselves."""
    xi, xi1, xi2, weight = _resonance_grid(variant, eps, anchor, truncation)
    m = (xi - xi1) * (xi - xi2)
    span = int(np.abs(m).max())
    bins = np.zeros(2 * span + 1)
    np.add.at(bins, (m + span).ravel(), weight.ravel())
    bins[span] = 0.0
    nz = np.flatnonzero(bins)
    return (nz - span).astype(float), bins[nz]


def _log_bracket(br: np.ndarray, log_shift: float) -> np.ndarray:
    if not (math.isfinite(log_shift) and log_shift > 1.0 - math.sqrt(2.0)):
        raise ValueError(f"log_shift must be finite and > 1 - sqrt(2), got {log_shift}")
    return np.log(br + log_shift)


def _endpoint_weights(xi: np.ndarray, log_shift: float) -> np.ndarray:
    br = bracket(xi)
    return br ** (-0.25) / _log_bracket(br, log_shift) ** (1.0 / 3.0)


def endpoint_mass_terms(truncation: int, log_shift: float = 0.0) -> np.ndarray:
    """The mass sum's terms over 1 <= xi <= truncation, in ascending xi."""
    xi = np.arange(1, truncation + 1, dtype=float)
    br = bracket(xi)
    return 1.0 / (br * _log_bracket(br, log_shift) ** (2.0 / 3.0))


def endpoint_norm_terms(truncation: int, log_shift: float = 0.0) -> np.ndarray:
    """The fourth powers of the profile weights over 1 <= xi <= truncation, in ascending xi."""
    return _endpoint_weights(np.arange(1, truncation + 1, dtype=float), log_shift) ** 4.0


def endpoint_pairing_terms(truncation: int,
                           log_shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The pairing's summands over the signed xi1 with xi3 = -1 - xi1 and
    1 <= |xi3| <= truncation: xi1 = -2..-truncation, then xi1 = 1..truncation-1,
    each in ascending |xi1|."""
    def summand(xi1: np.ndarray) -> np.ndarray:
        xi3 = -1.0 - xi1
        w1 = _endpoint_weights(xi1, log_shift)
        w3 = _endpoint_weights(xi3, log_shift)
        sigma1_max = bracket(2.0 * np.abs(xi1) + 2.0)
        sigma2_max = bracket(2.0)
        sigma3_max = bracket(1.0)
        denom = (
            bracket(xi1) ** 0.5
            * bracket(1.0) ** 0.5
            * bracket(xi3) ** 0.5
            * sigma1_max**0.5
            * sigma2_max**0.5
            * sigma3_max**0.5
        )
        return 16.0 / 3.0 * w1 * w3 * np.abs(xi3) / denom

    return (summand(-np.arange(2, truncation + 1, dtype=float)),
            summand(np.arange(1, truncation, dtype=float)))


def endpoint_tables(truncation: int,
                    log_shift: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mass, fourth-power and pairing tables of ``estimates._endpoint_sums``
    over 1 <= |xi| <= truncation, from its own root chain in one piece: pairing
    entry k holds both signs of xi1 whose frequencies are |xi| = k + 1 and k + 2."""
    xi = np.arange(1, truncation + 2, dtype=float)
    br = bracket(xi)
    c = np.cbrt(_log_bracket(br, log_shift))
    c2 = c[:-1] * c[:-1]
    mass = 1.0 / (br[:-1] * c2)
    root = np.sqrt(br)
    g = 1.0 / (np.sqrt(root) * c * root)
    s = np.sqrt(bracket(2.0 * xi + 2.0))
    pair = (xi[:-1] / s[1:] + xi[1:] / s[:-1]) * g[1:] * g[:-1] * PAIRING_SCALE
    return mass, mass / c2, pair[:-1]


def block_fsum(table: np.ndarray) -> float:
    """math.fsum of one np.sum per BLOCK entries of the table: the order in
    which ``estimates._endpoint_sums`` adds a table's terms."""
    return math.fsum(np.sum(table[lo:lo + BLOCK]) for lo in range(0, table.size, BLOCK))


def direct_mass_sum(truncation: int, log_shift: float = 0.0) -> float:
    """Mass sum of ``estimates._endpoint_sums`` from its own table, 1 <= xi <= truncation."""
    return 2.0 * block_fsum(endpoint_tables(truncation, log_shift)[0])


def direct_pairing(truncation: int, log_shift: float = 0.0) -> float:
    """Pairing of ``estimates._endpoint_sums`` from its own table of both signs of xi1."""
    return block_fsum(endpoint_tables(truncation, log_shift)[2])


def direct_factor_norm(truncation: int, log_shift: float = 0.0) -> float:
    """Factor norm of ``estimates._endpoint_sums`` from its own fourth powers."""
    return (2.0 * block_fsum(endpoint_tables(truncation, log_shift)[1])) ** (1.0 / 4.0) \
        * 2.0 ** (1.0 / 2.0)


def direct_space_time_transform(samples: np.ndarray, window: float, pad_factor: int = 4):
    """The norm tables' transform of windowed samples on the grid t_k = -window + k*dt,
    in a second order of operations: the phase and the scaling applied on the
    unsorted tau grid, then both sorted."""
    dt = 2.0 * window / (samples.shape[0] - 1)
    padded = pad_factor * samples.shape[0]
    spec = np.fft.fft(samples, n=padded, axis=0)
    tau = 2.0 * math.pi * np.fft.fftfreq(padded, d=dt)
    phase = np.exp(-1j * tau * -window)
    F = (dt / ROOT_TWO_PI) * phase[:, None] * spec
    order = np.argsort(tau)
    return tau[order], F[order]


def direct_xst_norms(samples: np.ndarray, window: float, specs: list,
                     pad_factor: int = 4) -> list[float]:
    """The X^{s,b}_{r,p} norms of windowed samples with every weight built in the call:
    the per-call form that the norm tables must match bit for bit."""
    tau, F = direct_space_time_transform(samples, window, pad_factor)
    cutoff = samples.shape[1] // 2
    xi = np.arange(-cutoff, cutoff + 1)
    sigma_weight = bracket(tau[:, None] + xi[None, :] ** 2)
    xi_weight = bracket(xi)[None, :]
    size = np.abs(F)
    norms = []
    for spec in specs:
        weighted = sigma_weight**spec.b * xi_weight**spec.s * size
        p_dual = spec.p_dual
        if p_dual == lab.INF:
            per_xi = np.max(weighted, axis=0)
        else:
            dtau = tau[1] - tau[0]
            per_xi = (np.sum(weighted**p_dual, axis=0) * dtau) ** (1.0 / p_dual)
        norms.append(float(np.sum(per_xi**spec.r_dual) ** (1.0 / spec.r_dual)))
    return norms


class DirectNormTables:
    """Stands in for ``dnlslab.norms._NormTables`` and builds nothing: its
    ``transform`` keeps the windowed samples, and their norms come from
    ``direct_xst_norms``."""

    def __init__(self, steps, window, cutoff, specs):
        self.window = window

    def transform(self, samples):
        return samples

    def norms(self, samples, specs):
        return direct_xst_norms(samples, self.window, specs)
