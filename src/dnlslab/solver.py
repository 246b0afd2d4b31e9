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

from .fields import (Trajectory, _check_count, _check_positive, free_phase, plane_wave, resize,
                     time_grid)
from .gauge import gauge_field, gauge_field_inv, gauge_with_tail
from .nonlinear import cubic_trilinear, dnls_forcing, mean_shifted_cubic, quintic_physical


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
            raise ValueError(f"horizon must lie in (0, 1], got {self.horizon}")
        if self.steps % 2 != 0 or self.steps < 4:
            raise ValueError(f"steps must be even and >= 4, got {self.steps}")
        _check_count("cutoff", self.cutoff, 0)
        _check_count("max_iter", self.max_iter, 1)
        _check_positive("tol", self.tol)
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


def forcing_field(coeffs: np.ndarray, equation: Equation | str, out_cutoff: int) -> np.ndarray:
    """Right-hand side F for d_t u = i*d_xx u + F of the equation (an Equation or
    its name), for one coefficient row or a matrix of rows such as a trajectory's."""
    equation = Equation(equation)
    if equation is Equation.FREE:
        return np.zeros(coeffs.shape[:-1] + (2 * out_cutoff + 1,), dtype=complex)
    if equation is Equation.DNLS:
        return dnls_forcing(coeffs, out_cutoff)
    if equation is Equation.GAUGED:
        cubic = cubic_trilinear(coeffs, coeffs, coeffs, out_cutoff)
        return -1.0 * cubic + 0.5j * quintic_physical(coeffs, out_cutoff)
    return -1j * mean_shifted_cubic(coeffs, out_cutoff)  # Equation.SHIFTED_NLS


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
    whose step is dt.  Each cell integrates the cubic through its four nearest
    nodes (the one-sided cubic at either end of the grid; fourth order in dt),
    and the integral to t_k is the cell sum up to t_k minus that up to t = 0.
    Returns an array like forcing.
    """
    m = forcing.shape[0] - 1
    if m % 2 != 0 or m < 4:
        raise ValueError(f"forcing grid must have an even step count >= 4 (t = 0 on grid), got {m}")
    # integrating-factor form: phases relative to t = 0
    g = np.conj(phase)
    np.multiply(g, forcing, out=g)
    acc = np.zeros_like(g)  # acc[j + 1] takes cell [t_j, t_{j+1}], in place to spare temporaries
    np.add(g[1:-2], g[2:-1], out=acc[2:-1])
    acc[2:-1] *= 13.0
    acc[2:-1] -= g[:-3] + g[3:]
    acc[1] = 9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3]
    acc[-1] = 9.0 * g[-1] + 19.0 * g[-2] - 5.0 * g[-3] + g[-4]
    np.cumsum(acc, axis=0, out=acc)
    acc -= acc[m // 2]
    np.multiply(phase, dt / 24.0, out=g)  # g is spent: it takes the scaled phase
    return np.multiply(acc, g, out=acc)


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
    # the loop's arrays are freed on its return, before the report's full-band
    # diagnostics, the solve's memory peak
    return _report(*_picard(u0, cfg), u0, cfg)


def _picard(u0: np.ndarray,
            cfg: SolveConfig) -> tuple[Trajectory, np.ndarray, list[float], bool, int]:
    """The Picard loop from the datum row u0: the last finite iterate as a
    trajectory, the grid's free phase, every residual, whether it converged,
    and how many iterations the kept iterate took."""
    phase = free_phase(time_grid(cfg.horizon, cfg.steps), cfg.cutoff)
    dt = 2.0 * cfg.horizon / cfg.steps  # Trajectory.dt of the solution
    current = linear = phase * u0
    history: list[float] = []
    converged, saved = False, 0
    for iterations in range(1, cfg.max_iter + 1):
        nxt = duhamel(forcing_field(current, cfg.equation, cfg.cutoff), phase, dt)
        nxt += linear
        residual = float(np.max(np.linalg.norm(nxt - current, axis=1)))
        history.append(residual)
        if not np.isfinite(residual) or residual > 1e8:
            break  # blow-up: keep the last finite iterate
        current, saved = nxt, iterations
        if residual <= cfg.tol:
            converged = True
            break
    return Trajectory(current, cfg.horizon), phase, history, converged, saved


def _report(traj: Trajectory, phase: np.ndarray, history: list[float], converged: bool,
            saved: int, u0: np.ndarray, cfg: SolveConfig, **gauge) -> SolveReport:
    """The report of the saved trajectory traj of cfg's equation from the datum
    row u0, with one evaluation of its untruncated forcing and, with
    cfg.cross_check, the sup-in-time l2 gap to RK4."""
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
        cross_check_gap=traj.sup_l2_distance(rk4_solve(u0, cfg)) if cfg.cross_check else None,
        **gauge,
    )


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
    defect = np.linalg.norm(traj.coeffs - phase * traj.coeffs[traj.steps // 2]
                            - duhamel(full[:, kept], phase, traj.dt), axis=1)
    full[:, kept] = 0.0
    return float(np.max(defect)), float(np.max(np.linalg.norm(full, axis=1)))


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
    step = 2.0 * cfg.horizon / cfg.steps / RK4_SUBSTEPS  # dt = 2T/M, as picard_solve takes it

    def rhs(t: float, w: np.ndarray) -> np.ndarray:
        phase = free_phase(t, cfg.cutoff)
        return np.conj(phase) * forcing_field(phase * w, cfg.equation, cfg.cutoff)

    rows = np.empty((cfg.steps + 1, 2 * cfg.cutoff + 1), dtype=complex)
    rows[mid] = u0
    for direction in (+1, -1):
        w, k, h = u0.copy(), mid, direction * step
        end = cfg.steps if direction > 0 else 0
        while k != end:
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

    Returns the report of the raw-equation solution, as picard_solve would
    describe it, with the gap between the gauged iterate and the regauged
    solution and the worst out-of-band mass of the phase product that
    regauging the solution truncates.
    """
    if cfg.equation is not Equation.DNLS:
        raise ValueError("the gauge pipeline solves the raw derivative equation")
    u0 = _datum(u0, cfg)
    gauged, phase, history, converged, saved = _picard(
        gauge_field(u0, 0.0), replace(cfg, equation=Equation.GAUGED))
    traj = replace(gauged, coeffs=gauge_field_inv(gauged.coeffs, gauged.times))
    regauged, tail = gauge_with_tail(traj.coeffs, traj.times)
    return _report(traj, phase, history, converged, saved, u0, cfg,
                   gauge_residual=float(np.max(np.linalg.norm(regauged - gauged.coeffs, axis=-1))),
                   gauge_tail=float(np.max(tail)))


def plane_wave_solution(
    cutoff: int, n: int, amplitude: float, horizon: float, steps: int
) -> Trajectory:
    """Exact single-frequency solution of the raw equation.

    A*exp(i*(n*x + theta*t)) solves it exactly when theta = n*|A|^2 - n^2.
    """
    theta = n * amplitude**2 - n**2
    amplitudes = amplitude * np.exp(1j * theta * time_grid(horizon, steps))
    return Trajectory(np.outer(amplitudes, plane_wave(cutoff, n)), horizon)
