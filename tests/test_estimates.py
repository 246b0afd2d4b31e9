"""Counting bounds, lattice sums, endpoint sums, and the evidence scans."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dnlslab as lab
from dnlslab.estimates import BLOCK, SUM_VARIANTS, _endpoint_terms, _resonance_bins
from support import (
    direct_factor_norm,
    direct_mass_sum,
    direct_pairing,
    direct_resonance_bins,
    direct_resonance_sum,
    endpoint_mass_terms,
    endpoint_norm_terms,
    endpoint_pairing_terms,
    free_wave_trajectory,
    near_diagonal_sweep,
)


# float.hex of resonance_sum_scan's sup_by_truncation at eps 0.5, a in
# (-40, 0, 3.5), anchors (-5, 0, 70) and truncations (16, 64): they pin the
# order in which each bin adds its weights, row by row, and numpy's pairwise
# sum over the bins
SCAN_BITS = {
    "wdiff_xi": {"16": "0x1.160c635b3011bp+2", "64": "0x1.35dcc84f6b886p+2"},
    "wdiff_xi1": {"16": "0x1.1522c22174f46p+2", "64": "0x1.35d145bde7e5fp+2"},
    "wabs_xi": {"16": "0x1.1e47e603c5669p+2", "64": "0x1.440c97dc152eap+2"},
    "wabs_xi1": {"16": "0x1.e86ee68fcabd6p+2", "64": "0x1.3a8278bf21675p+3"},
}

# float.hex of divergence_report()'s sums: they pin the order of each table
# sum's additions, math.fsum of one np.sum per block
DIVERGENCE_BITS = {
    "divergent_sums": [
        "0x1.2c69afcae4a21p+3",
        "0x1.5134b49b3932bp+3",
        "0x1.704849bb46a31p+3",
        "0x1.8b7285b4e2e79p+3",
    ],
    "factor_norms": [
        "0x1.41142738f6d44p+1",
        "0x1.4363a92e81685p+1",
        "0x1.4501725d774fep+1",
        "0x1.4639513db6218p+1",
    ],
    "pairing_lower_bounds": [
        "0x1.89ab98ccafffap+3",
        "0x1.cb48e72870874p+3",
        "0x1.015a1602880b9p+4",
        "0x1.1992db0c27a51p+4",
    ],
}


def naive_divisor_pairs(r):
    return sum(1 for n1 in range(1, r + 1) for n2 in range(1, r + 1) if n1 * n2 == r)


def naive_near_diagonal(r):
    return sum(
        1
        for n1 in range(1, r + 1)
        for n2 in range(1, r + 1)
        if n1 * n2 == r and 3 * abs(n1 - n2) <= r ** (1.0 / 6.0)
    )


class TestDivisorCounts:
    def test_pins(self):
        assert lab.divisor_pair_count(1) == 1
        assert lab.divisor_pair_count(12) == 6
        for p in (2, 3, 5, 7, 997):
            assert lab.divisor_pair_count(p) == 2

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="r must be >= 1, got 0"):
            lab.divisor_pair_count(0)

    def test_refined_pins(self):
        assert lab.near_diagonal_pair_count(16) == 1
        assert lab.near_diagonal_pair_count(12) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    def test_against_naive_enumeration(self, r):
        assert lab.divisor_pair_count(r) == naive_divisor_pairs(r)
        assert lab.near_diagonal_pair_count(r) == naive_near_diagonal(r)

    def test_scan_matches_per_value_function(self):
        # the windowed vectorized scan and the per-value trial division must
        # agree exactly, histogram included
        limit = 3000
        report = lab.near_diagonal_scan(limit)
        direct = [lab.near_diagonal_pair_count(r) for r in range(1, limit + 1)]
        hist = {str(k): direct.count(k) for k in range(max(direct) + 1)}
        assert report.summary["count_histogram"] == hist
        assert report.summary["max_count"] == max(direct)

    def test_scan_bound_holds_to_1e5(self):
        report = lab.near_diagonal_scan(10**5)
        assert report.summary["max_count"] == 2

    @pytest.mark.parametrize("limit", [1, 2, 16, 3000, 10**5])
    def test_pair_enumeration_matches_the_r_sweep(self, limit):
        assert lab.near_diagonal_scan(limit).summary == near_diagonal_sweep(limit)

    def test_scan_reaches_1e9(self):
        # the only r counted once are the squares (gap 0), every one of them
        summary = lab.near_diagonal_scan(10**9).summary
        assert summary["max_count"] <= 2
        assert summary["count_histogram"]["1"] == math.isqrt(10**9)
        assert sum(summary["count_histogram"].values()) == 10**9

    def test_growth_witness(self):
        # soft witness: counts grow slower than r**0.2 over the scanned range
        worst = max(lab.divisor_pair_count(r) / r**0.2 for r in range(1, 20001))
        assert worst < 12.0


class TestResonanceSums:
    def test_empty_truncation(self):
        assert lab.resonance_weighted_sum("wabs_xi", 0.5, 0.0, 0, 0) == 0.0

    def test_scan_of_all_zero_sums_reports_its_argmax(self):
        report = lab.resonance_sum_scan("wabs_xi", 0.5, [0.0], [0], [0])
        assert report.values == (0.0,)
        assert report.summary["argmax_by_truncation"] == {"0": [0.0, 0]}

    def test_scan_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            lab.resonance_sum_scan("wabs_xi", 0.5, [], [0], [8])

    @pytest.mark.parametrize("truncations", [[], [8, 4, 8], [512, 256], [8, 8]],
                             ids=["empty", "repeated", "decreasing", "equal"])
    def test_scan_rejects_truncations_that_do_not_increase(self, truncations):
        # the report would record a grid it did not compute
        with pytest.raises(ValueError) as info:
            lab.resonance_sum_scan("wdiff_xi", 0.5, [0.0], [0], truncations)
        assert str(info.value) == ("truncations must be non-empty and strictly increasing, "
                                   f"got {truncations}")

    @pytest.mark.parametrize("bad", [1e160, -math.inf, math.nan])
    def test_an_a_whose_weight_overflows_is_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            lab.resonance_weighted_sum("wdiff_xi", 0.5, np.array([0.0, bad]), 0, 4)
        assert str(info.value) == f"a must be finite with |a| <= 2**511, got {bad}"

    @pytest.mark.parametrize("variant", SUM_VARIANTS)
    def test_the_largest_a_gives_a_finite_positive_sum(self, variant):
        # RuntimeWarnings are errors in this suite, so <a + 2m>**2 must not overflow
        for a in (2.0**511, -(2.0**511)):
            value = lab.resonance_weighted_sum(variant, 0.5, a, 3, 4)
            assert math.isfinite(value) and value > 0.0

    def test_monotone_and_cauchy(self):
        vals = [lab.resonance_weighted_sum("wabs_xi", 0.5, 0.0, 0, k)
                for k in (128, 256, 512)]
        assert vals[0] < vals[1] < vals[2]
        assert (vals[2] - vals[1]) / vals[2] < 0.01

    def test_all_variants_finite_and_stable(self):
        for variant in SUM_VARIANTS:
            report = lab.resonance_sum_scan(
                variant, 0.5, a_values=[-10.0, 0.0, 10.0], anchor_values=[-5, 0, 5],
                truncations=[128, 256],
            )
            assert all(np.isfinite(v) for v in report.values)
            assert report.summary["relative_changes"][0] < 0.02

    @pytest.mark.parametrize("variant", SUM_VARIANTS)
    @pytest.mark.parametrize("truncation", [0, 1, 16, 64])
    def test_binned_sum_matches_the_direct_sum(self, variant, truncation):
        a_values = np.array([-300.0, -25.0, -1.5, 0.0, 0.5, 7.0, 130.0])
        for anchor in (0, -truncation, 3, truncation + 2, -90):
            got = lab.resonance_weighted_sum(variant, 0.5, a_values, anchor, truncation)
            assert got.shape == a_values.shape
            for a, value in zip(a_values, got):
                want = direct_resonance_sum(variant, 0.5, a, anchor, truncation)
                assert abs(value - want) <= 1e-12 * want
            scalar = lab.resonance_weighted_sum(variant, 0.5, a_values[1], anchor, truncation)
            assert isinstance(scalar, float) and scalar == got[1]

    @pytest.mark.parametrize("variant", SUM_VARIANTS)
    @pytest.mark.parametrize("anchor", [-9, 0, 23])
    def test_occupied_bins_equal_a_search_of_the_float_bins(self, variant, anchor):
        m, c = _resonance_bins(variant, 0.5, anchor, 64)
        want_m, want_c = direct_resonance_bins(variant, 0.5, anchor, 64)
        assert m.tobytes() == want_m.tobytes()
        assert c.tobytes() == want_c.tobytes()

    @pytest.mark.parametrize("variant", SUM_VARIANTS)
    def test_scan_keeps_its_bits(self, variant):
        # anchors on both sides of 0 and one beyond both truncations
        report = lab.resonance_sum_scan(variant, 0.5, [-40.0, 0.0, 3.5], [-5, 0, 70], [16, 64])
        got = {k: v.hex() for k, v in report.summary["sup_by_truncation"].items()}
        assert got == SCAN_BITS[variant]

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            lab.resonance_weighted_sum("nope", 0.5, 0.0, 0, 8)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            lab.resonance_weighted_sum("wabs_xi", 0.5, 0.0, 0, truncation=-1)


def convolution_tail_bound(alpha, beta, a, b, eps=0.1):
    """Adaptive quadrature of integral <s-a>**-alpha <s-b>**-beta ds and the
    matching decay bound <a-b>**-gamma.

    gamma is alpha+beta-1 for beta < 1, alpha-eps for beta = 1, alpha for
    beta > 1; requires 0 <= alpha <= beta and alpha + beta > 1.
    """
    if not (0.0 <= alpha <= beta):
        raise ValueError("need 0 <= alpha <= beta")
    if alpha + beta <= 1.0:
        raise ValueError("need alpha + beta > 1 for an integrable product")

    def integrand(s):
        return lab.bracket(s - a) ** (-alpha) * lab.bracket(s - b) ** (-beta)

    lo, hi = sorted((a, b))
    total = 0.0
    total += quad(integrand, -np.inf, lo, limit=200)[0]
    if hi > lo:
        total += quad(integrand, lo, hi, limit=200)[0]
    total += quad(integrand, hi, np.inf, limit=200)[0]
    if beta < 1.0:
        gamma = alpha + beta - 1.0
    elif beta == 1.0:
        gamma = alpha - eps
    else:
        gamma = alpha
    bound = float(lab.bracket(a - b) ** (-gamma))
    return float(total), bound


class TestConvolutionBound:
    def test_coincident_centers(self):
        integral, bound = convolution_tail_bound(0.75, 0.75, 1.0, 1.0)
        oracle = 2.0 * quad(lambda s: (1 + s * s) ** -0.75, 0, np.inf)[0]
        assert bound == 1.0
        assert abs(integral - oracle) < 1e-8

    def test_matching_decay_below_one(self):
        # the limiting ratio is the scale-invariant integral of
        # |x|**-3/4 |x-1|**-3/4, about 17.9; partial ratios approach it
        ratios = []
        for gap in (1.0, 10.0, 100.0, 1000.0):
            integral, bound = convolution_tail_bound(0.75, 0.75, 0.0, gap)
            ratios.append(integral / bound)
        assert all(r < 18.0 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2] < ratios[3]
        steps = [abs(b - a) / b for a, b in zip(ratios, ratios[1:])]
        assert steps[0] > steps[1] > steps[2]  # stabilizing toward the limit

    def test_beta_above_one_far_field(self):
        vals = []
        for gap in (10.0, 1000.0):
            integral, bound = convolution_tail_bound(0.0, 2.0, 0.0, gap)
            assert bound == 1.0
            vals.append(integral)
        # integral of <s>**-2 is pi; far apart centers barely interact
        assert abs(vals[-1] - math.pi) < 0.01

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            convolution_tail_bound(0.9, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            convolution_tail_bound(0.2, 0.3, 0.0, 1.0)


class TestEndpointSums:
    def test_first_term_only(self):
        b = math.sqrt(2.0)
        expected = 2.0 / (b * math.log(b) ** (2.0 / 3.0))
        assert abs(lab.divergence_report((1,)).summary["divergent_sums"][0] - expected) < 1e-13

    def test_strictly_increasing_and_unbounded(self):
        vals = lab.divergence_report((10**3, 10**4, 10**5, 10**6)).summary["divergent_sums"]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for threshold in (9.5, 11.0, 12.25):
            assert vals[-1] > threshold

    def test_log_fit_quality(self):
        report = lab.divergence_report()
        fit = report.summary["fit"]
        assert fit["r_squared"] >= 0.99
        assert 5.0 < fit["slope"] < 7.0

    def test_factor_norm_bounded(self):
        report = lab.divergence_report()
        changes = report.summary["factor_norm_step_changes"]
        assert max(changes) < 0.01
        # the sequence of norms is Cauchy while the divergent sums are not
        assert report.summary["growth_first_to_last"] >= 1.25

    def test_pairing_lower_bound_increases(self):
        vals = lab.divergence_report((100, 1000, 10000)).summary["pairing_lower_bounds"]
        assert vals[0] < vals[1] < vals[2]

    def test_log_shift_option(self):
        shifted = lab.divergence_report((100,), log_shift=math.e).summary["divergent_sums"][0]
        plain = lab.divergence_report((100,)).summary["divergent_sums"][0]
        assert shifted < plain  # larger log argument damps every term

    @pytest.mark.parametrize("log_shift", [0.0, math.e], ids=["plain", "shifted"])
    def test_one_table_pass_equals_the_per_truncation_sums(self, log_shift):
        # unsorted, with a duplicate; 1 and 2 give an empty and a two-term pairing,
        # and the last four end on either side of a table block's edge
        truncations = (12345, 3, 1, 1000, 7, 3, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
        summary = lab.divergence_report(truncations, log_shift=log_shift).summary
        ordered = sorted(truncations)
        assert summary["truncations"] == ordered
        assert summary["divergent_sums"] == [direct_mass_sum(n, log_shift) for n in ordered]
        assert summary["factor_norms"] == [direct_factor_norm(n, log_shift) for n in ordered]
        assert summary["pairing_lower_bounds"] == [direct_pairing(n, log_shift) for n in ordered]
        # each truncation alone gives the same sums as when it shares the pass.
        # BLOCK + 1 ends one frequency into the second block, where its pairing
        # takes no entry, and BLOCK + 2 takes one
        for n in (1, 2, 3, 7, 1000, 12345, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1,
                  2 * BLOCK + 3):
            alone = lab.divergence_report((n,), log_shift=log_shift).summary
            assert alone["divergent_sums"] == [direct_mass_sum(n, log_shift)]
            assert alone["factor_norms"] == [direct_factor_norm(n, log_shift)]
            assert alone["pairing_lower_bounds"] == [direct_pairing(n, log_shift)]
        assert lab.divergence_report((1,), log_shift=log_shift).summary[
            "pairing_lower_bounds"] == [0.0]

    def test_endpoint_ratios_equal_the_per_truncation_sums(self):
        fixed = 2.0 ** 0.5 * 2.0 ** 0.5
        expected = {n: direct_pairing(n) / (fixed * direct_factor_norm(n) * direct_factor_norm(n))
                    for n in (2, 3, 7, 1000)}
        for n, ratio in expected.items():
            alone = lab.endpoint_injection_report(truncations=(n,))
            assert alone.summary["family_ratios"] == [ratio]
        report = lab.endpoint_injection_report(truncations=(1000, 2, 7, 3), seed=3)
        assert report.summary["family_ratios"] == [expected[n] for n in (1000, 2, 7, 3)]

    @pytest.mark.parametrize("call", [
        lambda: lab.divergence_report((10**7, 0)),
        lambda: lab.divergence_report((10**7,), log_shift=math.nan),
        lambda: lab.divergence_report((10**7,), log_shift=-1.0),
        lambda: lab.divergence_report((-3,)),
    ], ids=["truncation-zero", "log-shift-nan", "log-shift-negative", "truncation-negative"])
    def test_bad_input_is_rejected_before_any_table(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncations|log_shift"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("truncations", [(1000,), (1000, 1000), (1000, 10000),
                                             (1000, 10000, 100000)],
                             ids=["one", "one-repeated", "two", "three"])
    def test_fit_needs_three_distinct_truncations(self, truncations):
        # a two-parameter line passes exactly through one or two points
        fit = lab.divergence_report(truncations).summary["fit"]
        if len(set(truncations)) < 3:
            assert fit is None
        else:
            assert 0.99 <= fit["r_squared"] < 1.0

    def test_default_report_memory_peak(self):
        # the per-truncation sums peaked at 124 MiB
        tracemalloc.start()
        try:
            lab.divergence_report()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_default_report_builds_its_tables_in_blocks(self):
        # the tables of one block of frequencies at a time; one buffer of 2e6
        # doubles for all tables peaked at 17.8 MiB
        tracemalloc.start()
        try:
            lab.divergence_report()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_memory_does_not_grow_with_the_truncation(self):
        peaks = []
        for n in (2 * BLOCK + 3, 10**6):
            tracemalloc.start()
            try:
                lab.divergence_report((n,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20

    @pytest.mark.parametrize("log_shift", [0.0, math.e], ids=["plain", "shifted"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 12345, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3, 10**5, 10**6])
    def test_sums_are_within_round_off_of_the_exact_sums(self, n, log_shift):
        # whatever the order of additions, each sum lies within a few eps of
        # the correctly rounded sum of all its terms
        summary = lab.divergence_report((n,), log_shift=log_shift).summary
        exact = {
            "divergent_sums": 2.0 * math.fsum(endpoint_mass_terms(n, log_shift)),
            "factor_norms": (2.0 * math.fsum(endpoint_norm_terms(n, log_shift))) ** (1.0 / 4.0)
            * 2.0 ** (1.0 / 2.0),
            "pairing_lower_bounds": math.fsum(np.concatenate(
                endpoint_pairing_terms(n, log_shift))),
        }
        for key, value in exact.items():
            assert abs(summary[key][0] - value) <= 4 * math.ulp(1.0) * value

    @pytest.mark.parametrize("log_shift", [0.0, math.e], ids=["plain", "shifted"])
    @pytest.mark.parametrize("lo,hi", [(0, 1), (0, 7), (0, BLOCK), (BLOCK, 2 * BLOCK + 3),
                                       (10**6 - BLOCK, 10**6)])
    def test_block_tables_are_within_round_off_of_the_paper_forms(self, lo, hi, log_shift):
        # the root chain against the ** forms, term by term.  Both round every
        # step, and the paper form's fourth powers w**4 carry four times the
        # rounding of w; the largest gaps on these blocks are 3.3, 8.4 and 6.7 eps
        mass, w4, pair = _endpoint_terms(lo, hi, log_shift)
        left, right = endpoint_pairing_terms(hi + 1, log_shift)
        for got, want, eps in [(mass, endpoint_mass_terms(hi, log_shift)[lo:], 4),
                               (w4, endpoint_norm_terms(hi, log_shift)[lo:], 10),
                               (pair, left[lo:] + right[lo:], 8)]:
            assert got.shape == want.shape == (hi - lo,)
            assert np.all(np.abs(got - want) <= eps * math.ulp(1.0) * want)

    def test_default_report_keeps_its_bits(self):
        summary = lab.divergence_report().summary
        got = {key: [x.hex() for x in summary[key]] for key in DIVERGENCE_BITS}
        assert got == DIVERGENCE_BITS

    def test_endpoint_ratio_growth_rate(self):
        # the family ratio grows at the cube-root-log rate, about 1.4x per
        # hundredfold truncation increase
        report = lab.endpoint_injection_report(truncations=(100, 10**4))
        r100, r10k = report.summary["family_ratios"]
        assert 1.2 < r10k / r100 < 1.6


class TestRatioScans:
    def test_cubic_scan_deterministic_and_bounded(self):
        a = lab.cubic_ratio_scan(q=2.0, r=2.0, samples=12, cutoff=8, seed=5, steps=48)
        b = lab.cubic_ratio_scan(q=2.0, r=2.0, samples=12, cutoff=8, seed=5, steps=48)
        assert a.values == b.values
        assert 0.0 < a.summary["max_ratio"] < 10.0
        assert a.caveat is not None

    @pytest.mark.parametrize("scan", [
        lambda samples: lab.cubic_ratio_scan(q=2.0, r=2.0, samples=samples, cutoff=8, seed=5,
                                             steps=48),
        lambda samples: lab.strichartz_ratio_scan(s=0.2, b=0.45, samples=samples, cutoff=8,
                                                  seed=5, steps=48),
        lambda samples: lab.quintic_ratio_scan(q=2.0, r=2.0, b=0.4, samples=samples, cutoff=8,
                                               seed=5, steps=48),
    ], ids=["cubic", "strichartz", "quintic"])
    def test_scan_nested_sampling(self, scan):
        small, big = scan(8), scan(16)
        assert big.values[: len(small.values)] == small.values

    @pytest.mark.parametrize("steps", [16.0, 2.5, True])
    def test_scan_needs_an_integer_step_count(self, steps):
        with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
            lab.cubic_ratio_scan(q=2.0, r=2.0, samples=2, cutoff=2, seed=1, steps=steps)

    @pytest.mark.parametrize("scan,hexes", [
        (lambda: lab.cubic_ratio_scan(q=2.0, r=2.0, samples=3, cutoff=4, seed=5, steps=16),
         ["0x1.d69e58b3c3659p-9", "0x1.35df9eba36b58p-9", "0x1.733fe1b272c1ep-9"]),
        (lambda: lab.strichartz_ratio_scan(s=0.2, b=0.45, samples=3, cutoff=4, seed=5, steps=16),
         ["0x1.45865e414d09bp-7", "0x1.31281f41e0bc9p-7", "0x1.77e58a5839236p-7"]),
        (lambda: lab.quintic_ratio_scan(q=2.0, r=2.0, b=0.4, samples=3, cutoff=4, seed=5,
                                        steps=16),
         ["0x1.875a3e41492a0p-17", "0x1.82a6550e3275dp-17", "0x1.a19eed9a3e3bep-17"]),
    ], ids=["cubic", "strichartz", "quintic"])
    def test_scan_values_keep_their_bits(self, scan, hexes):
        # recorded from draws whose phases come from the coarse and fine tables;
        # a reordered float operation shows here
        assert [value.hex() for value in scan().values] == hexes

    def test_a_group_whose_rhs_is_zero_is_skipped(self, monkeypatch):
        def scan():
            return lab.cubic_ratio_scan(q=2.0, r=2.0, samples=5, cutoff=4, seed=5, steps=16)

        full = scan()
        draws = []

        def zero_first_slot_of_groups_1_and_3(*args, **kwargs):
            traj = lab.random_trajectory(*args, **kwargs)  # drawn, so later groups keep theirs
            draws.append(traj)
            if len(draws) in (4, 10):  # three slots per group
                traj = lab.Trajectory(np.zeros_like(traj.coeffs), traj.window)
            return traj

        monkeypatch.setattr("dnlslab.estimates.random_trajectory",
                            zero_first_slot_of_groups_1_and_3)
        report = scan()
        assert len(draws) == 15
        assert report.summary["samples_used"] == 3
        assert report.values == tuple(full.values[i] for i in (0, 2, 4))

    def test_a_group_whose_rhs_overflows_is_rejected(self):
        # <xi>**150 * |F| squared overflows at |xi| = 16, so the rhs is inf and the
        # ratio would read 0; RuntimeWarnings are errors here, so none may escape
        with pytest.raises(ValueError, match="strichartz-ratio scan: the right-hand side "
                                             "of sample group 0 is inf"):
            lab.strichartz_ratio_scan(s=150.0, b=0.45, samples=3, cutoff=16, seed=1)
        # at s = 100 the ratios are tiny but finite
        report = lab.strichartz_ratio_scan(s=100.0, b=0.45, samples=3, cutoff=16, seed=1)
        assert [value.hex() for value in report.values] == [
            "0x1.a47efb0421b40p-805", "0x1.e507807834c56p-806", "0x1.2a6088c762e1dp-804"]

    def test_a_group_whose_output_norm_overflows_is_rejected(self, monkeypatch):
        monkeypatch.setattr("dnlslab.estimates.physical_product",
                            lambda ws, conj, out_cutoff: np.full((17, 2 * out_cutoff + 1), 1e300))
        with pytest.raises(ValueError, match="strichartz-ratio scan: the output norm "
                                             "of sample group 0 is inf"):
            lab.strichartz_ratio_scan(s=0.2, b=0.45, samples=2, cutoff=4, seed=5, steps=16)

    def test_cubic_parameter_guard(self):
        with pytest.raises(ValueError):
            lab.cubic_ratio_scan(q=1.2, r=2.0, samples=2, cutoff=4, seed=1)

    def test_strichartz_scan_and_slot_asymmetry(self):
        report = lab.strichartz_ratio_scan(s=0.2, b=0.45, samples=10, cutoff=8, seed=9,
                                           steps=48)
        assert 0.0 < report.summary["max_ratio"] < 10.0
        # free-wave triple: placing the high frequency in the unweighted slot
        # shrinks the right side while the product norm is symmetric
        hi, lo = 6, 1
        w_hi = free_wave_trajectory(hi, cutoff=8, window=1.0, steps=64).windowed()
        w_lo = free_wave_trajectory(lo, cutoff=8, window=1.0, steps=64).windowed()
        specs = [lab.NormSpec(s=0.2, r=2.0, b=0.45, p=2.0),
                 lab.NormSpec(s=0.0, r=2.0, b=0.45, p=2.0)]
        hi_s, hi_0 = lab.xst_norm(w_hi, 1.0, specs)
        lo_s, lo_0 = lab.xst_norm(w_lo, 1.0, specs)
        rhs_hi_in_slot3 = lo_s * lo_s * hi_0
        rhs_hi_in_slot1 = hi_s * lo_s * lo_0
        assert rhs_hi_in_slot3 < rhs_hi_in_slot1

    def test_strichartz_parameter_guards(self):
        with pytest.raises(ValueError):
            lab.strichartz_ratio_scan(s=0.2, b=0.6, samples=2, cutoff=4, seed=1)
        with pytest.raises(ValueError):
            lab.strichartz_ratio_scan(s=0.05, b=0.4, samples=2, cutoff=4, seed=1)

    def test_quintic_scan_bounded_and_plane_wave_invariance(self):
        report = lab.quintic_ratio_scan(q=2.0, r=2.0, b=0.4, samples=6, cutoff=6,
                                        seed=3, steps=48)
        assert 0.0 < report.summary["max_ratio"] < 10.0
        # single-frequency quintuples: the product is a free wave of amplitude
        # |A|**4 A, so both sides reduce to closed forms and their ratio is
        # amplitude-invariant and scales exactly like <n>**(1/2 - 5/2)
        def single_frequency_ratio(n, amp):
            ws = [free_wave_trajectory(n, cutoff=4, window=1.0,
                                       steps=96, amplitude=amp).windowed()
                  for _ in range(5)]
            spec_l = lab.NormSpec(s=0.5, r=2.0, b=-0.4, p=2.0)
            spec_r = lab.NormSpec(s=0.5, r=2.0, b=0.4, p=2.0)
            prod = lab.physical_product(ws, conjugate=[False, True, False, True, False],
                                        out_cutoff=4)
            [lhs] = lab.xst_norm(prod, 1.0, [spec_l])
            rhs = 5.0 * lab.xst_norm(ws[0], 1.0, [spec_r])[0] ** 5
            return lhs / rhs

        base = single_frequency_ratio(1, 1.0)
        assert abs(single_frequency_ratio(1, 2.0) - base) / base < 1e-10
        scaled = single_frequency_ratio(3, 1.0)
        expected = (lab.bracket(1) / lab.bracket(3)) ** 2
        assert abs(scaled / base - expected) / expected < 2e-2

    def test_endpoint_injection_report(self):
        report = lab.endpoint_injection_report(truncations=(100, 1000), seed=11)
        fam = report.summary["family_ratios"]
        assert fam[0] < fam[1]
        assert report.summary["baseline_max_ratio"] > 0.0
        assert min(report.summary["family_over_baseline"]) > 3.0
