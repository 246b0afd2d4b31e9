"""Test fixtures built on the public API: exact free waves, the gauge round-trip
gap and the X^{s,b} embedding ratio scan."""
import dnlslab as lab
from dnlslab.fields import time_grid


def free_wave_trajectory(
    n: int,
    cutoff: int,
    window: float = 2.0,
    steps: int = 256,
    amplitude: complex = 1.0,
) -> lab.Trajectory:
    """exp(i*(n*x - n^2*t)) sampled on the grid, with the default bump profile.

    The profile scale window/2 makes the windowed samples vanish at the edges.
    """
    phase = lab.free_phase(time_grid(window, steps), cutoff)
    coeffs = amplitude * phase * lab.plane_wave(cutoff, n)
    return lab.Trajectory(coeffs, window, lab.CutoffProfile(scale=window / 2.0))


def gauge_roundtrip_error(traj: lab.Trajectory) -> float:
    """sup over samples of the L^2 gap of inverse(gauge(traj)) from traj."""
    return lab.gauge_inv(lab.gauge(traj)).sup_l2_distance(traj)


def embedding_scan(
    trajectories: list[lab.Trajectory],
    s: float,
    r: float,
    b1: float,
    b2: float,
    pad_factor: int = 4,
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
        lo = lab.xst_norm(traj, lo_spec, pad_factor)
        if lo != 0.0:
            ratios.append(lab.xst_norm(traj, hi_spec, pad_factor) / lo)
    values = tuple(float(x) for x in ratios)
    summary = {
        "max_ratio": max(values) if values else 0.0,
        "samples_used": len(values),
        "samples_given": len(trajectories),
    }
    grid = {"s": s, "r": r, "b1": b1, "b2": b2}
    return lab.ScanReport(name="embedding", grid=grid, values=values, summary=summary)
