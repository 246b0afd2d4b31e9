"""Free Schroedinger evolution, Duhamel quadrature, and Picard iteration.

The integral equation solved on the symmetric window [-T, T] is

    u(t) = exp(i*t*d_xx) u0 + integral_0^t exp(i*(t-t')*d_xx) F(u)(t') dt'

where F is the forcing of the selected equation written on the right-hand
side of  d_t u - i*d_xx u = F,  i.e. F = -i * G for an equation
i*d_t u + d_xx u = G.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .fields import Trajectory, free_phase, plane_wave, resize, time_grid
from .gauge import gauge, gauge_field, gauge_inv, gauge_phase_tail
from .nonlinear import cubic_physical, dnls_forcing, mean_shifted_cubic, quintic_physical


class Equation(str, Enum):
    FREE = "free"
    DNLS = "dnls"
    GAUGED = "gauged"
    SHIFTED_NLS = "shifted-nls"


@dataclass(frozen=True)
class SolveConfig:
    cutoff: int
    horizon: float
    steps: int
    equation: Equation = Equation.DNLS
    max_iter: int = 100
    tol: float = 1e-10
    cross_check: bool = False

    def __post_init__(self):
        if not (0.0 < self.horizon <= 1.0):
            raise ValueError("time horizon must lie in (0, 1]")
        if self.steps % 2 != 0 or self.steps < 2:
            raise ValueError("steps must be even and >= 2")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        object.__setattr__(self, "equation", Equation(self.equation))


@dataclass(frozen=True)
class SolveReport:
    trajectory: Trajectory
    equation: Equation
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    mass_drift: float
    integral_residual: float
    truncated_tail_mass: float
    gauge_residual: float | None = None
    gauge_tail: float | None = None
    cross_check_gap: float | None = None

    def to_json_dict(self) -> dict:
        """The fields but the trajectory, a non-finite number as None (JSON null), and its grid."""
        out = {f.name: _finite_or_none(getattr(self, f.name))
               for f in fields(self) if f.name != "trajectory"}
        traj = self.trajectory
        return {**out, "cutoff": traj.cutoff, "window": traj.window, "steps": traj.steps}


def _finite_or_none(value):
    if isinstance(value, tuple):
        return tuple(map(_finite_or_none, value))
    return None if isinstance(value, float) and not math.isfinite(value) else value


def forcing_field(coeffs: np.ndarray, equation: Equation, out_cutoff: int | None = None) -> np.ndarray:
    """Right-hand side F for d_t u = i*d_xx u + F of the selected equation, for
    one coefficient row or a matrix of rows such as a trajectory's."""
    if out_cutoff is None:
        out_cutoff = (coeffs.shape[-1] - 1) // 2
    if equation is Equation.FREE:
        return np.zeros(coeffs.shape[:-1] + (2 * out_cutoff + 1,), dtype=complex)
    if equation is Equation.DNLS:
        return dnls_forcing(coeffs, out_cutoff)
    if equation is Equation.GAUGED:
        return -1.0 * cubic_physical(coeffs, out_cutoff) + 0.5j * quintic_physical(coeffs, out_cutoff)
    if equation is Equation.SHIFTED_NLS:
        return -1j * mean_shifted_cubic(coeffs, out_cutoff)
    raise ValueError(f"unknown equation {equation}")


def forcing_band(equation: Equation, cutoff: int) -> int:
    """Band of the exact (untruncated) forcing for band-limited input."""
    return {Equation.FREE: cutoff, Equation.DNLS: 3 * cutoff,
            Equation.GAUGED: 5 * cutoff, Equation.SHIFTED_NLS: 3 * cutoff}[equation]


# ---------------------------------------------------------------------------
# Duhamel quadrature
# ---------------------------------------------------------------------------

def duhamel(forcing: np.ndarray, phase: np.ndarray, dt: float) -> np.ndarray:
    """integral_0^{t_k} exp(i*(t_k - t')*d_xx) F(t') dt' at every grid time t_k.

    forcing[k] holds the coefficients of F(t_k) and phase[k] the free phase
    free_phase(t_k, cutoff) of the same grid, whose middle index is t = 0 and
    whose step is dt.  The integral is accumulated outward from t = 0 on each
    side, negative times with the signed measure: composite Simpson up to each
    even offset, and a trapezoid on the last cell for an odd offset.
    Returns an array like forcing.
    """
    m = forcing.shape[0] - 1
    if m % 2 != 0:
        raise ValueError("forcing grid must have an even step count (t = 0 on grid)")
    mid = m // 2
    # integrating-factor form: phases relative to t = 0
    up = np.conj(phase) * forcing
    out = np.zeros_like(up)
    for sign, side in ((-1.0, slice(mid, None, -1)), (1.0, slice(mid, None))):
        g, acc = up[side], out[side]  # offsets 0, 1, 2, ... from t = 0; acc is a view
        acc[2::2] = np.cumsum(g[:-2:2] + 4.0 * g[1:-1:2] + g[2::2], axis=0) * (sign * dt / 3.0)
        acc[1::2] = acc[:-1:2] + (g[:-1:2] + g[1::2]) * (sign * 0.5 * dt)
    return out * phase


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def _datum(u0: np.ndarray, cfg: SolveConfig) -> np.ndarray:
    """The datum, one coefficient row, resized to the solver band."""
    u0 = np.asarray(u0, dtype=complex)
    if u0.ndim != 1 or u0.shape[0] % 2 == 0:
        raise ValueError(f"datum must be one (2*cutoff+1,) coefficient row, got shape {u0.shape}")
    if not np.isfinite(u0).all():
        raise ValueError("datum has a non-finite coefficient")
    return resize(u0, cfg.cutoff)


def picard_solve(u0: np.ndarray, cfg: SolveConfig) -> SolveReport:
    """Global-in-time Picard iteration of the integral equation on [-T, T].

    The first iterate is the free evolution of the datum.  On blow-up the last
    finite iterate is kept, and iterations and residual describe that iterate;
    residual_history still lists every residual.
    """
    u0 = _datum(u0, cfg)
    phase = free_phase(time_grid(cfg.horizon, cfg.steps), cfg.cutoff)
    dt = 2.0 * cfg.horizon / cfg.steps  # Trajectory.dt of the solution
    current = linear = phase * u0
    history: list[float] = []
    converged, saved = False, 0
    for iterations in range(1, cfg.max_iter + 1):
        nxt = linear + duhamel(forcing_field(current, cfg.equation), phase, dt)
        residual = float(np.max(np.linalg.norm(nxt - current, axis=1)))
        history.append(residual)
        if not np.isfinite(residual) or residual > 1e8:
            break  # blow-up: keep the last finite iterate
        current, saved = nxt, iterations
        if residual <= cfg.tol:
            converged = True
            break

    traj = Trajectory(current, cfg.horizon)
    in_band_residual, tail = _full_band_diagnostics(traj, cfg.equation, phase)
    return SolveReport(
        trajectory=traj,
        equation=cfg.equation,
        converged=converged,
        iterations=saved,
        # the initial iterate has no predecessor to measure against
        residual=history[saved - 1] if saved else math.nan,
        residual_history=tuple(history),
        mass_drift=_mass_drift(traj, u0),
        integral_residual=in_band_residual,
        truncated_tail_mass=tail,
        cross_check_gap=_cross_check_gap(traj, u0, cfg),
    )


def _cross_check_gap(traj: Trajectory, u0: np.ndarray, cfg: SolveConfig) -> float | None:
    """With cfg.cross_check, the sup-in-time l2 gap to RK4 on cfg's equation."""
    return traj.sup_l2_distance(rk4_solve(u0, cfg)) if cfg.cross_check else None


def _mass_drift(traj: Trajectory, u0: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.norm(traj.coeffs, axis=1) - np.linalg.norm(u0))))


def _full_band_diagnostics(traj: Trajectory, equation: Equation,
                           phase: np.ndarray) -> tuple[float, float]:
    """integral_residual and the largest l2 mass the forcing truncation discards,
    from one evaluation of the untruncated forcing: kept band and tail.  phase
    is free_phase(traj.times, traj.cutoff)."""
    band = forcing_band(equation, traj.cutoff)
    full = forcing_field(traj.coeffs, equation, out_cutoff=band)
    kept = slice(band - traj.cutoff, band + traj.cutoff + 1)
    integ = duhamel(full[:, kept], phase, traj.dt)
    defect = traj.coeffs - phase * traj.coeffs[traj.steps // 2] - integ
    full[:, kept] = 0.0
    return float(np.max(np.linalg.norm(defect, axis=1))), float(np.max(np.linalg.norm(full, axis=1)))


def integral_residual(traj: Trajectory, equation: Equation) -> float:
    """sup over grid times of the L^2 defect in the integral equation."""
    return _full_band_diagnostics(traj, equation, free_phase(traj.times, traj.cutoff))[0]


# ---------------------------------------------------------------------------
# independent cross-check integrator
# ---------------------------------------------------------------------------

RK4_SUBSTEPS = 4  # RK4 steps per interval of the time grid


def rk4_solve(u0: np.ndarray, cfg: SolveConfig) -> Trajectory:
    """Classical RK4 on the integrating-factor form, marched from t = 0 both ways.

    With w(t) = exp(-i*t*d_xx) u(t) the equation becomes
    w'(t) = exp(-i*t*d_xx) F(exp(i*t*d_xx) w), which RK4 integrates directly.
    """
    u0 = _datum(u0, cfg)
    times = time_grid(cfg.horizon, cfg.steps)
    mid = cfg.steps // 2

    def rhs(t: float, w: np.ndarray) -> np.ndarray:
        phase = free_phase(t, cfg.cutoff)
        return np.conj(phase) * forcing_field(phase * w, cfg.equation)

    rows = np.empty((cfg.steps + 1, 2 * cfg.cutoff + 1), dtype=complex)
    rows[mid] = u0
    for direction in (+1, -1):
        w = u0.copy()
        k = mid
        end = cfg.steps if direction > 0 else 0
        while k != end:
            h = direction * (times[1] - times[0]) / RK4_SUBSTEPS
            t = times[k]
            for _ in range(RK4_SUBSTEPS):
                k1 = rhs(t, w)
                k2 = rhs(t + h / 2, w + h / 2 * k1)
                k3 = rhs(t + h / 2, w + h / 2 * k2)
                k4 = rhs(t + h, w + h * k3)
                w = w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            k += direction
            rows[k] = w
    return Trajectory(free_phase(times, cfg.cutoff) * rows, cfg.horizon)


# ---------------------------------------------------------------------------
# solving the raw equation through the gauge
# ---------------------------------------------------------------------------

def solve_via_gauge(u0: np.ndarray, cfg: SolveConfig) -> SolveReport:
    """Gauge the datum, solve the transformed equation, and ungauge.

    Returns a report for the raw-equation solution, including its own
    integral-equation residual, the gap between the gauged representation
    and the directly transformed trajectory, the worst out-of-band mass of
    the phase product that gauging the solution truncates, and with
    cfg.cross_check the gap to RK4 on the raw equation.
    """
    if cfg.equation is not Equation.DNLS:
        raise ValueError("the gauge pipeline solves the raw derivative equation")
    u0 = _datum(u0, cfg)
    v0 = gauge_field(u0, 0.0)
    gauged_report = picard_solve(v0, replace(cfg, equation=Equation.GAUGED, cross_check=False))
    u_traj = gauge_inv(gauged_report.trajectory)
    return replace(
        gauged_report,
        trajectory=u_traj,
        equation=Equation.DNLS,
        mass_drift=_mass_drift(u_traj, u0),
        integral_residual=integral_residual(u_traj, Equation.DNLS),
        gauge_residual=gauge(u_traj).sup_l2_distance(gauged_report.trajectory),
        gauge_tail=float(np.max(gauge_phase_tail(u_traj.coeffs))),
        cross_check_gap=_cross_check_gap(u_traj, u0, cfg),
    )


def plane_wave_solution(
    cutoff: int, n: int, amplitude: float, horizon: float, steps: int
) -> Trajectory:
    """Exact single-frequency solution of the raw equation.

    A*exp(i*(n*x + theta*t)) solves it exactly when theta = n*|A|^2 - n^2.
    """
    theta = n * amplitude**2 - n**2
    amplitudes = amplitude * np.exp(1j * theta * time_grid(horizon, steps))
    return Trajectory(np.outer(amplitudes, plane_wave(cutoff, n)), horizon)
