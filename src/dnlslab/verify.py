"""Machine-readable verification battery behind the `verify` subcommand.

Each check is a named predicate with a scalar witness.  The battery is one
fixed list, cheap enough to run in full every time.
"""
from __future__ import annotations

import numpy as np

from .estimates import (
    divergence_report,
    divisor_pair_count,
    near_diagonal_pair_count,
    near_diagonal_scan,
    resonance_weighted_sum,
)
from .fields import (
    ROOT_TWO_PI,
    constant_field,
    derivative,
    from_physical,
    mean_value,
    plane_wave,
    random_field,
    to_physical,
    x_grid,
)
from .gauge import gauge_field, gauge_field_inv, mass_primitive, translation_gap_probe
from .nonlinear import (
    cubic_full,
    cubic_trilinear,
    mean_shifted_cubic,
    mean_shifted_cubic_spectral,
    quintic_physical,
    quintic_restricted,
    resonance_identity,
)
from .solver import Equation, SolveConfig, picard_solve, plane_wave_solution


def _check(name: str, passed: bool, witness: float, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "witness": float(witness), "detail": detail}


def run_battery() -> list[dict]:
    checks: list[dict] = []
    rng = np.random.default_rng(99)

    # spectral round trip and transform pins
    f = random_field(16, rng, l2_norm=1.0)
    back = from_physical(to_physical(f, 64), 16)
    err = float(np.linalg.norm(back - f))
    checks.append(_check("physical-spectral round trip", err <= 1e-12, err))

    c = from_physical(np.ones(33), 16)
    err = abs(c[16] - ROOT_TWO_PI)
    checks.append(_check("constant transform pin", err <= 1e-12, err))

    w = plane_wave(8, 2)
    err = float(np.linalg.norm(derivative(w) - 2j * w))
    checks.append(_check("derivative eigenvalue", err <= 1e-12, err))

    # mean-zero primitive of the squared modulus
    u = constant_field(4, 1.0) + plane_wave(4, 1)
    prim = mass_primitive(u)
    target = np.array(2.0 * np.sin(x_grid(32)), dtype=complex)
    err = float(np.max(np.abs(to_physical(prim, 32) - target)))
    checks.append(_check("mass primitive closed form", err <= 1e-12, err))
    err = abs(mean_value(prim))
    checks.append(_check("mass primitive mean zero", err <= 1e-13, err))

    # gauge phase round trip: at t = 0 the translation is the identity
    g = random_field(16, rng, active_cutoff=4, l2_norm=0.5)
    err = float(np.linalg.norm(gauge_field_inv(gauge_field(g, 0.0), 0.0) - g))
    checks.append(_check("gauge phase round trip", err <= 1e-8, err))

    # operator identities on a random field
    n = 8
    v = random_field(n, rng, l2_norm=0.8)
    err = float(np.linalg.norm(cubic_full(v, v, v, n) - cubic_trilinear(v, v, v, n)))
    checks.append(_check("cubic identity", err <= 1e-10, err))
    err = float(np.linalg.norm(quintic_restricted(v, v, v, v, v, n) - quintic_physical(v, n)))
    checks.append(_check("quintic identity", err <= 1e-10, err))
    err = float(np.linalg.norm(mean_shifted_cubic(v, n) - mean_shifted_cubic_spectral(v, n)))
    checks.append(_check("mean-shifted cubic identity", err <= 1e-12, err))

    # resonance identity on random tuples
    rng2 = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(10000):
        xi, xi1, xi2 = rng2.integers(-200, 201, size=3)
        tau, tau1, tau2 = rng2.uniform(-50, 50, size=3)
        lhs, rhs = resonance_identity(int(xi), int(xi1), int(xi2), tau, tau1, tau2)
        worst = max(worst, abs(lhs - rhs))
    checks.append(_check("resonance identity", worst <= 1e-9, worst))

    # divisor counts
    ok = (divisor_pair_count(12) == 6 and divisor_pair_count(1) == 1
          and near_diagonal_pair_count(16) == 1 and near_diagonal_pair_count(12) == 0)
    checks.append(_check("divisor count pins", ok, 0.0))
    scan = near_diagonal_scan(10**6)
    checks.append(_check("near-diagonal bound to 1000000",
                         scan.summary["max_count"] <= 2, scan.summary["max_count"]))

    # lattice sum decreases little under doubling
    s1 = resonance_weighted_sum("wabs_xi", 0.5, 0.0, 0, 128)
    s2 = resonance_weighted_sum("wabs_xi", 0.5, 0.0, 0, 256)
    rel = abs(s2 - s1) / s2
    checks.append(_check("lattice sum stability", rel <= 0.02, rel))

    # divergence vs bounded factor norm
    endpoint = divergence_report((10**3, 10**5)).summary
    d1, d2 = endpoint["divergent_sums"]
    f1, f2 = endpoint["factor_norms"]
    ok = (d2 - d1) / d1 >= 0.15 and abs(f2 - f1) / f2 <= 0.02
    checks.append(_check("endpoint sums trend", ok, (d2 - d1) / d1))

    # translation gap probe
    probe = translation_gap_probe(1.0, 0.5, 2.0, [4, 16], t_samples=41)
    gaps_in = probe.summary["input_gap"]
    gaps_out = probe.summary["output_gap"]
    ok = gaps_in[1] < 0.6 * gaps_in[0] and gaps_out[1] > 0.5 * gaps_out[0]
    checks.append(_check("translation gap probe", ok, gaps_out[1]))

    # small solver run against the exact single-frequency solution
    cfg = SolveConfig(cutoff=8, horizon=0.05, steps=60, equation=Equation.DNLS, tol=1e-11)
    rep = picard_solve(plane_wave(8, 1, 1.0), cfg)
    exact = plane_wave_solution(8, 1, 1.0, 0.05, 60)
    err = rep.trajectory.sup_l2_distance(exact)
    checks.append(_check("plane wave solve", rep.converged and err <= 1e-7, err))
    checks.append(_check("plane wave mass drift", rep.mass_drift <= 10 * cfg.tol, rep.mass_drift))

    return checks
