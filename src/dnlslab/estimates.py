"""Numerical checks of the counting bounds, lattice sums, and estimate ratios.

Everything here is a diagnostic: divisor counts and the refined near-diagonal
bound are exact, the lattice sums are truncated partial sums whose
stabilization is reported, and the ratio scans are labeled evidence.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fields import (_check_count, _check_positive, bracket, physical_product, random_trajectory,
                     time_cutoff)
from .nonlinear import cubic_trilinear
from .norms import NormSpec, _l2_norm, _NormTables
from .reports import EVIDENCE_CAVEAT, ScanReport


# ---------------------------------------------------------------------------
# divisor counting
# ---------------------------------------------------------------------------

def _divisor_pairs(r: int):
    """The divisor pairs (d, r // d) of r with d <= sqrt(r), by trial division."""
    _check_count("r", r, 1)
    d = 1
    while d * d <= r:
        if r % d == 0:
            yield d, r // d
        d += 1


def divisor_pair_count(r: int) -> int:
    """Number of ordered pairs (n1, n2) of naturals with n1*n2 = r."""
    return sum(1 if d == q else 2 for d, q in _divisor_pairs(r))


def near_diagonal_pair_count(r: int) -> int:
    """Ordered divisor pairs with 3*|n1 - n2| <= r**(1/6), counted exactly.

    The comparison is done in integers: 729*(n1 - n2)**6 <= r.
    """
    return sum(1 if d == q else 2 for d, q in _divisor_pairs(r) if 729 * (q - d) ** 6 <= r)


def near_diagonal_scan(limit: int) -> ScanReport:
    """Exhaustive near-diagonal pair counts for every r <= limit.

    The pairs are enumerated, not the r: a qualifying pair n1 <= n2 = n1 + d
    has 729*d**6 <= r = n1*(n1 + d) <= limit, so for each gap d with
    729*d**6 <= limit the admissible n1 form one interval.  Each such r
    counts 1 for d = 0 and 2 (both orders) otherwise; every r that no pair
    reaches counts 0.  The work is about limit**(2/3) pairs, and no array of
    length limit is formed.
    """
    _check_count("limit", limit, 1)
    products = []
    d = 0
    while 729 * d**6 <= limit:
        # n1*(n1 + d) <= x  <=>  n1 <= (isqrt(d*d + 4*x) - d) // 2, so the
        # first n1 with n1*(n1 + d) >= 729*d**6 is one past x = 729*d**6 - 1
        top = (math.isqrt(d * d + 4 * limit) - d) // 2
        low = (math.isqrt(d * d + 4 * (729 * d**6 - 1)) - d) // 2 + 1 if d else 1
        n1 = np.arange(low, top + 1, dtype=np.int64)
        products.extend([n1 * (n1 + d)] * (2 if d else 1))
        d += 1
    r, counts = np.unique(np.concatenate(products), return_counts=True)
    max_count = int(counts.max())
    histogram = np.bincount(counts, minlength=max_count + 1)
    histogram[0] = limit - len(r)
    summary = {
        "max_count": max_count,
        "argmax": int(r[np.argmax(counts)]),
        "count_histogram": {str(k): int(n) for k, n in enumerate(histogram)},
    }
    return ScanReport(
        name="near-diagonal-divisors",
        grid={"limit": limit},
        values=(float(max_count),),
        summary=summary,
    )


# ---------------------------------------------------------------------------
# resonance-weighted lattice sums
# ---------------------------------------------------------------------------

SUM_VARIANTS = ("wdiff_xi", "wdiff_xi1", "wabs_xi", "wabs_xi1")

# elements per block of the lattice tables and frequencies per block of the
# endpoint sums, so each block's temporaries stay in cache.  No lattice bin
# depends on it, but the endpoint sums do: their one np.sum per block fixes
# the bits that the divergence report records
BLOCK = 1 << 15

# a later grid point replaces the scan's best sum only when it is larger by
# more than this relative margin, so exact ties (wdiff_xi at anchor 0 is even
# in a, say) go to the first point in grid order, not to round-off
ARGMAX_MARGIN = 1e-12


def _resonance_bins(variant: str, eps: float, anchor: int,
                    truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero products m = (xi-xi1)*(xi-xi2) over the truncated box and
    the summed pair weights c(m) of each.

    The excluded pairs xi1 = xi or xi2 = xi are exactly those with m = 0.
    np.add.at bins the box BLOCK elements of whole rows at a time, in
    row-major order; it is unbuffered and adds in index order, so every bin
    sums its weights row by row, in the same order at any block size.  The
    occupied bins are found by np.flatnonzero on the mask bins != 0, which
    gives the indices that it gives on the float bins (a NaN bin counts as
    occupied and a -0.0 bin as empty either way), but numpy scans a boolean
    array several times faster.
    """
    K, reach = truncation, abs(anchor) + truncation
    # |m| <= span over the box; the bytes of the 2*span + 1 float bins and the
    # frequencies must fit an array index
    span = reach * (reach if variant.endswith("_xi") else 2 * K)
    if max(8 * (2 * span + 1), reach) > np.iinfo(np.intp).max:
        raise ValueError(f"anchor {anchor} at truncation {K} is too large for an array index")
    idx = np.arange(-K, K + 1)
    wdiff = variant.startswith("wdiff")
    if variant.endswith("_xi"):
        # xi = anchor, rows xi1, columns xi2: m = (xi - xi1)*(xi - xi2)
        diff = anchor - idx
        weight = bracket(diff if wdiff else idx) ** (-eps)

        def rows(r: slice) -> tuple[np.ndarray, np.ndarray]:
            return diff[r, None] * diff, weight[r, None] * weight
    else:
        # xi1 = anchor, rows xi, columns xi2: m = (xi - anchor)*(xi - xi2)
        diff = idx - anchor
        if wdiff:
            # gaps[g + 2K] is the weight of the gap xi - xi2 = g
            gaps = bracket(np.arange(-2 * K, 2 * K + 1)) ** (-eps)
            first = bracket(diff) ** (-eps)
        else:
            weight = bracket(anchor) ** (-eps) * bracket(idx) ** (-eps)

        def rows(r: slice) -> tuple[np.ndarray, np.ndarray]:
            gap = idx[r, None] - idx
            w = first[r, None] * gaps[gap + 2 * K] if wdiff else weight
            return diff[r, None] * gap, w
    bins = np.zeros(2 * span + 1)
    step = max(1, BLOCK // (2 * K + 1))
    for lo in range(0, 2 * K + 1, step):
        m, w = rows(slice(lo, lo + step))
        # flat indices take np.add.at's fast path, and flat values of the same
        # length avoid its misreading of broadcast values (numpy 2.4); the row
        # with xi1 = xi has m = 0 throughout, and bin 0 is cleared below
        np.add.at(bins, (m + span).ravel(), np.broadcast_to(w, m.shape).ravel())
    bins[span] = 0.0
    nz = np.flatnonzero(bins != 0)
    return (nz - span).astype(float), bins[nz]


def resonance_weighted_sum(
    variant: str, eps: float, a: float | np.ndarray, anchor: int, truncation: int
) -> float | np.ndarray:
    """Truncated lattice sum with weight <.>**-eps pairs against
    <a + 2*(xi-xi1)*(xi-xi2)>**-(1+eps), excluding xi1 = xi and xi2 = xi.

    Variants: "wdiff_*" weight the differences xi-xi1, xi-xi2; "wabs_*"
    weight xi1, xi2 themselves.  "*_xi" anchor the output frequency and sum
    over (xi1, xi2); "*_xi1" anchor xi1 and sum over (xi, xi2).

    The core depends on a pair only through m = (xi-xi1)*(xi-xi2), so the
    weights are binned by m once and each a costs one sum over the bins.  The
    sum is numpy's own, not a BLAS dot product, whose result depends on the
    BLAS thread count.  A scalar a gives a float, a 1-D array of a values an
    array.  An a that is not finite or exceeds 2**511 in size is rejected.
    """
    if variant not in SUM_VARIANTS:
        raise ValueError(f"variant must be one of {SUM_VARIANTS}")
    _check_positive("eps", eps)
    _check_count("anchor", anchor, None)
    _check_count("truncation", truncation, 0)
    a_arr = np.asarray(a, dtype=float)
    # bracket squares a + 2m, and every 2m an array index allows keeps
    # |a + 2m| < 2**512, below sqrt(DBL_MAX), so the square never overflows
    bad = a_arr[~(np.abs(a_arr) <= 2.0**511)]
    if bad.size:
        raise ValueError(f"a must be finite with |a| <= 2**511, got {bad[0]}")
    m, c = _resonance_bins(variant, eps, anchor, truncation)
    m2 = 2.0 * m
    sums = np.array([np.sum(c * bracket(x + m2) ** (-(1.0 + eps))) for x in a_arr.ravel()])
    return float(sums[0]) if a_arr.ndim == 0 else sums


def resonance_sum_scan(
    variant: str,
    eps: float,
    a_values: list[float],
    anchor_values: list[int],
    truncations: list[int],
) -> ScanReport:
    """Sup of the truncated sum over an (a, anchor) grid, per truncation.

    The truncations must be strictly increasing.  Each (anchor, truncation)
    bins its pairs once for every a.  The argmax is the first grid point,
    a-major, whose sum no later point exceeds by more than ARGMAX_MARGIN
    relative.
    """
    if not (len(a_values) and len(anchor_values)):
        raise ValueError(f"empty (a, anchor) grid: a_values={list(a_values)}, "
                         f"anchor_values={list(anchor_values)}")
    if not truncations or any(b <= a for a, b in zip(truncations, truncations[1:])):
        raise ValueError(f"truncations must be non-empty and strictly increasing, got "
                         f"{list(truncations)}")
    a_arr = np.asarray(a_values, dtype=float)
    sups, argmaxes = [], []
    for K in truncations:
        table = [resonance_weighted_sum(variant, eps, a_arr, anchor, K)
                 for anchor in anchor_values]
        best, arg = -math.inf, None
        for i, a in enumerate(a_values):
            for j, anchor in enumerate(anchor_values):
                val = float(table[j][i])
                if arg is None or val - best > ARGMAX_MARGIN * abs(best):
                    best, arg = val, (a, anchor)
        sups.append(best)
        argmaxes.append(arg)
    rel_changes = [abs(s2 - s1) / s2 if s2 else 0.0 for s1, s2 in zip(sups, sups[1:])]
    summary = {
        "sup_by_truncation": {str(k): sup for k, sup in zip(truncations, sups)},
        "argmax_by_truncation": {str(k): list(arg) for k, arg in zip(truncations, argmaxes)},
        "relative_changes": rel_changes,
    }
    grid = {
        "variant": variant,
        "eps": eps,
        "a_values": list(a_values),
        "anchor_values": list(anchor_values),
        "truncations": list(truncations),
    }
    return ScanReport(name="resonance-sum", grid=grid, values=tuple(sups), summary=summary)


# ---------------------------------------------------------------------------
# endpoint counterexample sums
# ---------------------------------------------------------------------------

# largest endpoint truncation: every integer up to it is a float, so the float
# frequency grid of the tables is exact
MAX_ENDPOINT_TRUNCATION = 2**53

# the factor of every pairing summand that does not depend on xi1: 16/3, the
# exact triple integral of the stacked unit windows, integral (3 - t^2) dt over
# [-1, 1], over <1>**1/2 (input frequency 1) and <2>**1/2 <1>**1/2 (modulations)
PAIRING_SCALE = (16.0 / 3.0) / float(bracket(1.0) * bracket(2.0) ** 0.5)


def _endpoint_terms(lo: int, hi: int, log_shift: float) -> tuple[np.ndarray, ...]:
    """The mass terms, fourth-power weights and pairing summands of lo < |xi| <= hi,
    entry k at |xi| = lo + k + 1, from one root chain with no powers: with
    c = cbrt(log(<xi> + log_shift)) and g = 1/(<xi>**1/4 c <xi>**1/2), they are
    1/(<xi> c^2), that over c^2, and PAIRING_SCALE g(|xi|) g(|xi| + 1) times
    |xi|/<2|xi| + 4>**1/2 + (|xi| + 1)/<2|xi| + 2>**1/2, both signs of xi1 at once."""
    # the last entry, |xi| = hi + 1, only feeds the pairing
    xi = np.arange(lo + 1, hi + 2, dtype=float)
    # each step writes into a row of one buffer: a freed temporary can shrink the
    # heap, and the next block's page faults then cost as much as its arithmetic
    br, c, mass, w4, g = np.empty((5, xi.size))
    np.sqrt(np.add(np.square(xi, out=br), 1.0, out=br), out=br)
    # positive at every |xi| >= 1, where <xi> >= sqrt(2)
    np.log(np.add(br, log_shift, out=c) if log_shift else br, out=c)
    np.cbrt(c, out=c)
    np.divide(1.0, np.multiply(br, np.square(c, out=w4), out=mass), out=mass)
    np.divide(mass, w4, out=w4)
    root = np.sqrt(br, out=br)
    np.multiply(np.sqrt(root, out=g), c, out=g)
    np.divide(1.0, np.multiply(g, root, out=g), out=g)
    # <2|xi| + 2>**1/2, written over <xi>**1/2
    s = np.add(np.multiply(xi, 2.0, out=br), 2.0, out=br)
    np.sqrt(np.sqrt(np.add(np.square(s, out=s), 1.0, out=s), out=s), out=s)
    pair = np.divide(xi[:-1], s[1:], out=c[:-1])
    pair += np.divide(xi[1:], s[:-1], out=xi[1:])
    pair *= g[1:]
    pair *= g[:-1]
    pair *= PAIRING_SCALE
    return mass[:-1], w4[:-1], pair


def _endpoint_sums(truncations, log_shift: float = 0.0) -> tuple[list[float], ...]:
    """The divergent mass sums, the factor norms and the pairing lower bounds
    at each truncation, in the order given, from one pass over
    1 <= |xi| <= max(truncations) in blocks of BLOCK frequencies.

    The mass sum runs over 1 <= |xi| <= n of <xi>**-1 L**-2/3, with
    L = log(<xi> + log_shift).  The factor norm is the l^4 norm over the same
    range of the profile weights <xi>**-1/4 L**-1/3, times the L^2 norm of the
    unit window (width 2).  The pairing is an explicit lower bound of the
    endpoint quadriform: the four profiles sit at output frequency 0 and
    second input frequency 1, the free frequency runs over 1 <= |xi1| <= n
    and the third is xi3 = -1 - xi1.  Each modulation weight is replaced by
    its supremum over the support, so the sum bounds the full integral
    expression from below.  It is empty at n = 1.

    A truncation's sum is the correctly rounded sum of one np.sum per block
    of the block's table (_endpoint_terms) over its part of the range.  The
    sums of the whole blocks before are held exactly as Fractions (their
    denominators are powers of two no larger than 2**1074), so memory does
    not grow with max(truncations), and a truncation's sums do not depend on
    which others share the pass.
    """
    if not truncations:
        raise ValueError("truncations must not be empty")
    for n in truncations:
        _check_count("truncations entry", n, 1)
        if n > MAX_ENDPOINT_TRUNCATION:
            raise ValueError(f"truncations entry must be <= {MAX_ENDPOINT_TRUNCATION}, got {n}")
    if not (math.isfinite(log_shift) and log_shift > 1.0 - math.sqrt(2.0)):
        raise ValueError(f"log_shift must be finite and > 1 - sqrt(2), got {log_shift}")
    ends = set(truncations)
    top = max(ends)
    # the exact mass, fourth-power and pairing sums of the whole blocks so far,
    # and each truncation's three sums
    exact, totals = [Fraction(0)] * 3, {}
    for lo in range(0, top, BLOCK):
        hi = min(lo + BLOCK, top)
        tables = _endpoint_terms(lo, hi, log_shift)
        for n in ends:
            if lo < n <= hi:
                # the pairing entry of |xi| = n needs |xi| = n + 1
                m = n - lo
                totals[n] = [float(total + Fraction(np.sum(table[:k])))
                             for total, table, k in zip(exact, tables, (m, m, m - 1))]
        exact = [total + Fraction(np.sum(table)) for total, table in zip(exact, tables)]
    return ([2.0 * totals[n][0] for n in truncations],
            [(2.0 * totals[n][1]) ** (1.0 / 4.0) * 2.0 ** (1.0 / 2.0) for n in truncations],
            [totals[n][2] for n in truncations])


def _fit_against_cuberoot_log(truncations: list[int], sums: list[float]) -> dict | None:
    """Least-squares line of the sums against log(n)**(1/3), or None below
    three distinct truncations, where a two-parameter line fits exactly."""
    if len(set(truncations)) < 3:
        return None
    x = np.array([math.log(n) ** (1.0 / 3.0) for n in truncations])
    y = np.array(sums)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    yhat = design @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return {
        "slope": float(coef[0]),
        "intercept": float(coef[1]),
        "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
    }


def divergence_report(
    truncations: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6),
    log_shift: float = 0.0,
) -> ScanReport:
    """Divergent mass sum against the bounded factor norm across truncations.

    The mass sum diverges like log(n)**(1/3), while the factor norms
    converge.  The optional shift inside the log is there for exploratory
    scans and defaults to off.  The report also records the pairing lower
    bounds.
    """
    truncs = sorted(truncations)
    sums, norms, pairings = _endpoint_sums(truncs, log_shift)
    fit = _fit_against_cuberoot_log(truncs, sums)
    norm_changes = [abs(b - a) / b for a, b in zip(norms, norms[1:])]
    summary = {
        "truncations": truncs,
        "divergent_sums": sums,
        "growth_first_to_last": sums[-1] / sums[0],
        "fit": fit,
        "factor_norms": norms,
        "factor_norm_step_changes": norm_changes,
        "pairing_lower_bounds": pairings,
    }
    return ScanReport(
        name="endpoint-divergence",
        grid={"truncations": truncs, "log_shift": log_shift},
        values=tuple(sums),
        summary=summary,
    )


# ---------------------------------------------------------------------------
# estimate-ratio scans
# ---------------------------------------------------------------------------

# half-width of the time grid of every ratio-scan trajectory
SCAN_WINDOW = 1.0
# samples and cutoff of the cubic scan that endpoint_injection_report compares against
ENDPOINT_BASELINE_SAMPLES = 50
ENDPOINT_BASELINE_CUTOFF = 8


def _check_finite(scan: str, group: int, what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{scan} scan: the {what} of sample group {group} is {value}; "
                         f"the norms overflow at these parameters")


@np.errstate(over="ignore", invalid="ignore")  # _check_finite raises on an overflow
def _ratio_scan(name: str, grid: dict, seed: int, slots: list[list[NormSpec]], operator,
                out_spec: NormSpec | None, rhs) -> ScanReport:
    """The evidence report of a ratio scan: per sample group, the output norm of
    the operator over the right-hand side, with their maximum and count.

    A group holds one random trajectory per slot, and the groups are drawn in
    turn from one seeded generator, so a longer scan extends a shorter one.
    Slot k is measured in each of slots[k]; rhs takes those norms, slot by slot,
    and a group whose rhs is 0 is skipped.  The operator takes the windowed
    slots and the output cutoff len(slots) * cutoff; its output is measured in
    out_spec, or in L^2(dt dx) when out_spec is None.  A norm that overflows
    would make the ratio 0 or NaN, so a group whose rhs or output norm is not
    finite raises a ValueError that names the scan and the group.
    """
    samples, cutoff, steps = grid["samples"], grid["cutoff"], grid["steps"]
    _check_count("samples", samples, 1)
    _check_count("steps", steps, 2)
    _check_count("cutoff", cutoff, 0)
    out_cutoff, dt = len(slots) * cutoff, 2.0 * SCAN_WINDOW / steps
    inputs = _NormTables(steps, SCAN_WINDOW, cutoff, [spec for specs in slots for spec in specs])
    output = None if out_spec is None else _NormTables(steps, SCAN_WINDOW, out_cutoff, [out_spec])
    weights = time_cutoff(SCAN_WINDOW, steps)  # the column that windowed() applies
    rng = np.random.default_rng(seed)
    ratios = []
    for group in range(samples):
        ws = [random_trajectory(cutoff, rng, window=SCAN_WINDOW, steps=steps).coeffs * weights
              for _ in slots]
        bound = rhs([inputs.norms(inputs.transform(w), specs) for w, specs in zip(ws, slots)])
        _check_finite(name, group, "right-hand side", bound)
        if bound == 0.0:
            continue
        out = operator(*ws, out_cutoff=out_cutoff)
        norm = (_l2_norm(out, dt) if output is None
                else output.norms(output.transform(out), [out_spec])[0])
        _check_finite(name, group, "output norm", norm)
        ratios.append(norm / bound)
    summary = {"max_ratio": max(ratios) if ratios else 0.0, "samples_used": len(ratios)}
    return ScanReport(name=name, grid=grid, values=tuple(ratios), summary=summary,
                      seed=seed, caveat=EVIDENCE_CAVEAT)


def cubic_ratio_scan(
    q: float,
    r: float,
    samples: int,
    cutoff: int,
    seed: int,
    steps: int = 64,
) -> ScanReport:
    """Ratio of the cubic operator's output norm to the product of input norms.

    LHS: (s=1/2, b=-1/2, r, p=2) norm of the per-sample full cubic operator at
    its full output band; RHS: the (1/2, 1/2, q, 2) norms of the first two
    inputs and the (1/2, 1/2, r, 2) norm of the third.  The time factor
    T**delta of the estimate is 1 here (delta = 0, recorded in the grid).
    """
    if not (4.0 / 3.0 < q <= r <= 2.0):
        raise ValueError("scan requires 4/3 < q <= r <= 2")
    rhs_q = NormSpec(s=0.5, r=q, b=0.5, p=2.0)
    rhs_r = NormSpec(s=0.5, r=r, b=0.5, p=2.0)
    grid = {"q": q, "r": r, "samples": samples, "cutoff": cutoff, "steps": steps,
            "window": SCAN_WINDOW, "delta": 0.0}
    return _ratio_scan("cubic-ratio", grid, seed, [[rhs_q], [rhs_q], [rhs_r]], cubic_trilinear,
                       NormSpec(s=0.5, r=r, b=-0.5, p=2.0),
                       lambda n: n[0][0] * n[1][0] * n[2][0])


def strichartz_ratio_scan(
    s: float,
    b: float,
    samples: int,
    cutoff: int,
    seed: int,
    steps: int = 64,
) -> ScanReport:
    """Trilinear smoothing ratio with no derivative weight on the third slot.

    LHS: space-time L^2 norm of u1*u2*conj(u3); RHS: (s, b) norms of the first
    two factors and the (0, b) norm of the third, all at r = p = 2.
    """
    if not (1.0 / 3.0 < b < 0.5):
        raise ValueError("scan requires 1/3 < b < 1/2")
    if not s > 3.0 * (0.5 - b):
        raise ValueError("scan requires s > 3*(1/2 - b)")
    spec_s = NormSpec(s=s, r=2.0, b=b, p=2.0)
    spec_0 = NormSpec(s=0.0, r=2.0, b=b, p=2.0)
    grid = {"s": s, "b": b, "samples": samples, "cutoff": cutoff, "steps": steps, "window": SCAN_WINDOW}
    return _ratio_scan(
        "strichartz-ratio", grid, seed, [[spec_s], [spec_s], [spec_0]],
        lambda *ws, out_cutoff: physical_product(ws, [False, False, True], out_cutoff),
        None, lambda n: n[0][0] * n[1][0] * n[2][0])


def quintic_ratio_scan(
    q: float,
    r: float,
    b: float,
    samples: int,
    cutoff: int,
    seed: int,
    steps: int = 64,
) -> ScanReport:
    """Quintic ratio with the sum-over-distinguished-slot right-hand side.

    LHS: (1/2, -b, r, 2) norm of the plain product u1*conj(u2)*u3*conj(u4)*u5;
    RHS: the sum over k of the (1/2, b, r, 2) norm of slot k times the
    (1/2, b, q, 2) norms of the rest.  The grid records masked = False: the
    product is not restricted to the quintic operator's frequency mask.
    """
    if not (4.0 / 3.0 < q <= r <= 2.0):
        raise ValueError("scan requires 4/3 < q <= r <= 2")
    if not b > 1.0 / 6.0 + 1.0 / (3.0 * q):
        raise ValueError("scan requires b > 1/6 + 1/(3q)")
    rhs_r = NormSpec(s=0.5, r=r, b=b, p=2.0)
    rhs_q = NormSpec(s=0.5, r=q, b=b, p=2.0)

    def rhs(norms):  # term by term in this order, which the reported bits depend on
        total = 0.0
        for k in range(5):
            term = norms[k][0]
            for i in range(5):
                if i != k:
                    term *= norms[i][1]
            total += term
        return total

    grid = {"q": q, "r": r, "b": b, "samples": samples, "cutoff": cutoff,
            "steps": steps, "window": SCAN_WINDOW, "masked": False}
    return _ratio_scan(
        "quintic-ratio", grid, seed, [[rhs_r, rhs_q]] * 5,
        lambda *ws, out_cutoff: physical_product(ws, [False, True, False, True, False],
                                                 out_cutoff),
        NormSpec(s=0.5, r=r, b=-b, p=2.0), rhs)


def endpoint_injection_report(
    truncations: tuple[int, ...] = (10**2, 10**3, 10**4), seed: int = 20240
) -> ScanReport:
    """Endpoint-family ratio lower bounds against a same-parameters baseline.

    The baseline runs the cubic ratio scan at the smallest admissible interior
    parameters; the family ratios are the analytic lower bounds at l^4 input
    indices (the endpoint): the pairing lower bound over the product of the
    four profile norms, where the two fixed single-frequency profiles each
    contribute sqrt(2) and the two free ones the factor norm.  The report
    records the family-to-baseline excess and the growth of the family ratio
    across truncations.  The pairing is empty below truncation 2.
    """
    for n in truncations:
        _check_count("truncations entry", n, 2)
    _, norms, pairings = _endpoint_sums(truncations)
    fixed = 2.0 ** 0.5 * 2.0 ** 0.5
    family = [pairing / (fixed * f * f) for f, pairing in zip(norms, pairings)]
    base = cubic_ratio_scan(
        q=1.3334, r=1.3334, samples=ENDPOINT_BASELINE_SAMPLES,
        cutoff=ENDPOINT_BASELINE_CUTOFF, seed=seed, steps=48,
    )
    baseline_max = base.summary["max_ratio"]
    summary = {
        "truncations": list(truncations),
        "family_ratios": family,
        "family_growth_first_to_last": family[-1] / family[0],
        "baseline_max_ratio": baseline_max,
        "family_over_baseline": [f / baseline_max if baseline_max else math.inf for f in family],
    }
    return ScanReport(
        name="endpoint-injection",
        grid={"truncations": list(truncations), "baseline_samples": ENDPOINT_BASELINE_SAMPLES,
              "baseline_cutoff": ENDPOINT_BASELINE_CUTOFF},
        values=tuple(family),
        summary=summary,
        seed=seed,
        caveat=EVIDENCE_CAVEAT,
    )
