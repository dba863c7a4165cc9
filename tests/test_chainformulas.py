import math

import numpy as np
import pytest

from qnd import chainformulas
from qnd.chainformulas import (ChainParams, decay_factor, det_swap_mean,
                               det_swap_mean_cutoff, det_swap_mean_harmonic,
                               geometric_level_mean, mean_only,
                               single_repeater, three_over_two)

# partial_links_mean stops once the survival function drops below this.
_PARTIAL_TAIL_TOL = 1e-12


def max_of_geometrics_mean(n, p, tail_tol=1e-15):
    """Oracle: mean of the max of n iid geometrics by PMF summation."""
    mean, t = 0.0, 0
    while True:
        survival = 1.0 - (1.0 - (1.0 - p) ** t) ** n
        mean += survival
        t += 1
        if survival < tail_tol:
            return mean


# The independent reference for det_swap_mean at 40-20000 segments.
def partial_links_mean(n_segments, k, p_g):
    """Mean time until the first ``k`` of ``n_segments`` parallel
    generations have succeeded.

    Summed from the survival function, truncating once the residual tail
    drops below 1e-12.  ``k = n_segments`` coincides with
    :func:`det_swap_mean`; ``k = 1`` is the minimum of the generations,
    itself geometric.
    """
    n_segments = int(n_segments)
    k = int(k)
    if not (1 <= k <= n_segments):
        raise ValueError(
            f"k must be between 1 and {n_segments}, got {k!r}")
    if not (0.0 < p_g <= 1.0):
        raise ValueError(f"p_g must be in (0, 1], got {p_g!r}")
    if p_g == 1.0:
        return 1.0
    q = 1.0 - p_g
    n = n_segments

    def cdf(t):
        # At least k generations done by t: at most n - k still missing.
        c = 1.0 - q ** t
        miss = 1.0 - c
        return math.fsum(math.comb(n, j) * miss ** j * c ** (n - j)
                         for j in range(0, n - k + 1))

    mean = 0.0
    t = 0
    while True:
        survival = 1.0 - cdf(t)
        mean += survival
        t += 1
        if survival < _PARTIAL_TAIL_TOL:
            return mean


class TestParams:
    def test_segments(self):
        assert ChainParams(n=3, p_g=0.5).segments == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainParams(n=-1, p_g=0.5)
        with pytest.raises(ValueError):
            ChainParams(n=1, p_g=0.0)
        with pytest.raises(ValueError):
            ChainParams(n=1, p_g=0.5, p_s=1.5)
        with pytest.raises(ValueError):
            ChainParams(n=1, p_g=0.5, tau=0)
        with pytest.raises(ValueError):
            ChainParams(n=1, p_g=0.5, t_coh=0.0)


class TestMeanOnly:
    def test_no_levels(self):
        assert mean_only(ChainParams(n=0, p_g=0.25)) == pytest.approx(4.0)

    def test_two_levels(self):
        params = ChainParams(n=2, p_g=0.1, p_s=0.5)
        assert mean_only(params) == pytest.approx(40.0)

    def test_deterministic(self):
        assert mean_only(ChainParams(n=5, p_g=1.0, p_s=1.0)) == 1.0


class TestThreeOverTwo:
    def test_no_swap_levels(self):
        p = ChainParams(n=0, p_g=0.3)
        assert three_over_two(p) == pytest.approx(1.0 / 0.3)

    def test_two_levels(self):
        p = ChainParams(n=2, p_g=0.01, p_s=1.0)
        assert three_over_two(p) == pytest.approx(225.0)

    def test_one_level(self):
        p = ChainParams(n=1, p_g=0.5, p_s=0.5)
        assert three_over_two(p) == pytest.approx(6.0)

    def test_dominates_mean_only(self):
        for n in range(0, 5):
            for p_g in (0.1, 0.5, 0.9):
                for p_s in (0.3, 0.8, 1.0):
                    params = ChainParams(n=n, p_g=p_g, p_s=p_s)
                    assert three_over_two(params) >= mean_only(params)


class TestGeometricLevel:
    def test_exact_at_level_one(self):
        p = ChainParams(n=1, p_g=0.5, p_s=0.5)
        assert geometric_level_mean(p) == pytest.approx(16.0 / 3.0)

    def test_level_zero(self):
        p = ChainParams(n=0, p_g=0.5)
        assert geometric_level_mean(p) == pytest.approx(2.0)

    def test_level_two_hand_iteration(self):
        # Seed 1/p_g = 2, level 1 gives 16/3, then p = 3/16:
        # (3 - 6/16) / ((2 - 3/16) (3/16) (1/2)) = 448/29.
        p = ChainParams(n=2, p_g=0.5, p_s=0.5)
        assert geometric_level_mean(p) == pytest.approx(448.0 / 29.0)

    def test_matches_single_repeater_mean(self):
        for p_g in (0.2, 0.5, 0.9):
            for p_s in (0.3, 1.0):
                p = ChainParams(n=1, p_g=p_g, p_s=p_s)
                assert geometric_level_mean(p) == pytest.approx(
                    single_repeater(p).mean_t1)

    def test_all_means_decreasing_in_probabilities(self):
        grid = np.linspace(0.1, 0.9, 9)
        estimators = (mean_only, three_over_two, geometric_level_mean)
        for n in (1, 2, 3):
            for estimate in estimators:
                means_g = [estimate(ChainParams(n=n, p_g=p, p_s=0.5))
                           for p in grid]
                assert all(b < a for a, b in zip(means_g, means_g[1:]))
                means_s = [estimate(ChainParams(n=n, p_g=0.5, p_s=p))
                           for p in grid]
                assert all(b < a for a, b in zip(means_s, means_s[1:]))


class TestSingleRepeater:
    def test_deterministic_generation(self):
        stats = single_repeater(ChainParams(n=1, p_g=1.0, p_s=0.5))
        assert stats.mean_m0 == pytest.approx(1.0)
        assert stats.gamma == pytest.approx(1.0)

    def test_half_half(self):
        stats = single_repeater(ChainParams(n=1, p_g=0.5, p_s=0.5))
        assert stats.mean_m0 == pytest.approx(8.0 / 3.0)
        assert stats.mean_t1 == pytest.approx(16.0 / 3.0)

    def test_gamma_closed_form(self):
        # decay per step 0.5 and p_g = 0.5 give 5/9.
        t_coh = 1.0 / math.log(2.0)
        stats = single_repeater(ChainParams(n=1, p_g=0.5, p_s=1.0,
                                            t_coh=t_coh))
        assert stats.gamma == pytest.approx(5.0 / 9.0)

    def test_gamma_monte_carlo_cross_check(self):
        rng = np.random.default_rng(99)
        p_g, x = 0.5, 0.5
        draws = rng.geometric(p_g, size=(200_000, 2))
        estimate = np.mean(x ** np.abs(draws[:, 0] - draws[:, 1]))
        assert decay_factor(p_g, x) == pytest.approx(estimate, abs=3e-3)

    def test_storage_pmf_normalizes(self):
        for p_g in (0.1, 0.5, 0.9):
            stats = single_repeater(ChainParams(n=1, p_g=p_g))
            total = stats.storage_pmf(0) + 2.0 * sum(
                stats.storage_pmf(j) for j in range(1, 4000))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_gamma_limits(self):
        for p_g in np.linspace(0.05, 1.0, 12):
            for x in np.linspace(0.0, 1.0, 12):
                g = decay_factor(p_g, x)
                assert 0.0 < g <= 1.0 + 1e-12
        # perfect memory and deterministic generation both give 1
        assert decay_factor(0.3, 1.0) == pytest.approx(1.0)
        assert decay_factor(1.0, 0.2) == pytest.approx(1.0)
        # gamma -> 1 as t_coh grows
        gammas = [decay_factor(0.3, math.exp(-1.0 / t))
                  for t in (1.0, 10.0, 100.0, 1e6)]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == pytest.approx(1.0, abs=1e-5)

    def test_requires_one_level(self):
        with pytest.raises(ValueError):
            single_repeater(ChainParams(n=2, p_g=0.5))


class TestDetSwap:
    def test_single_segment(self):
        assert det_swap_mean(1, 0.5) == pytest.approx(2.0)

    def test_two_segments_closed_forms_agree(self):
        # The alternating sum at N = 2 equals the two-link closed form
        # (3 - 2p) / ((2 - p) p).
        for p in np.linspace(0.05, 0.95, 19):
            assert det_swap_mean(2, p) == pytest.approx(
                (3.0 - 2.0 * p) / ((2.0 - p) * p), rel=1e-12)
        assert det_swap_mean(2, 0.5) == pytest.approx(8.0 / 3.0)

    def test_four_segments_against_pmf_oracle(self):
        value = det_swap_mean(4, 0.5)
        assert value == pytest.approx(max_of_geometrics_mean(4, 0.5),
                                      abs=1e-9)
        assert value == pytest.approx(3.50476, abs=5e-6)

    def test_large_n_extended_precision(self):
        # Stable beyond the float64 cancellation threshold.
        value = det_swap_mean(128, 0.2)
        assert value == pytest.approx(max_of_geometrics_mean(128, 0.2),
                                      rel=1e-10)

    def test_harmonic_approximation(self):
        assert det_swap_mean_harmonic(1, 0.5) == pytest.approx(2.0)
        approx = det_swap_mean_harmonic(4, 0.01)
        exact = det_swap_mean(4, 0.01)
        assert approx == pytest.approx(208.33, abs=0.01)
        assert exact == pytest.approx(207.79, abs=0.01)
        assert abs(approx - exact) / exact < 0.003
        assert det_swap_mean_harmonic(2, 0.001) == pytest.approx(1500.0)

    def test_monotone_in_p(self):
        grid = np.linspace(0.1, 0.9, 9)
        values = [det_swap_mean(8, p) for p in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n_segments", [40, 48, 56, 64, 1024])
    @pytest.mark.parametrize("p_g", [0.1, 0.5, 0.9])
    def test_many_segments_against_partial_links(self, n_segments, p_g):
        # An alternating binomial sum is 4.2x off at 64 segments in double
        # precision; the survival sum has no cancellation to lose.
        assert det_swap_mean(n_segments, p_g) == pytest.approx(
            partial_links_mean(n_segments, n_segments, p_g), rel=1e-9)

    def test_no_segment_limit(self):
        assert det_swap_mean(20_000, 0.5) == pytest.approx(
            partial_links_mean(20_000, 20_000, 0.5), rel=1e-9)

    @pytest.mark.parametrize("levels", [1021, 1022, 1024, 2000])
    def test_beyond_the_float_range(self, levels):
        # 2**1022 segments and more: 1e-16 / N underflows, and from 2**1024
        # on N is no float.  At p_g = 0.1 the mean is ln N / L + gamma / L
        # + 1/2 with L = -ln(1 - p_g), its log-periodic ripple far below
        # double precision; at p_g = 1/2 the ripple takes the same phase at
        # every power of two, so the mean is n + 1.3327 for all of them.
        slope = -math.log1p(-0.1)
        asymptote = (levels * math.log(2) + np.euler_gamma) / slope + 0.5
        assert det_swap_mean(2 ** levels, 0.1) == pytest.approx(
            asymptote, rel=1e-12)
        assert det_swap_mean(2 ** levels, 0.5) - levels == pytest.approx(
            det_swap_mean(2 ** 60, 0.5) - 60, abs=1e-9)

    @pytest.mark.parametrize("p_g", [1e-9, 1e-300, 1e-320, 5e-324])
    def test_too_many_terms_refused_at_once(self, p_g):
        # About ln(N / 1e-16) / p_g terms: 3.8e10 at 1e-9, and a count of
        # inf once log1p(-p_g) is subnormal.
        with pytest.raises(OverflowError,
                           match="terms, beyond the limit 536870912"):
            det_swap_mean(2, p_g)

    def test_term_limit_counts_the_terms(self, monkeypatch):
        # N = 2: 54.1 terms at p_g = 0.5 and 105.2 at p_g = 0.3.
        expected = det_swap_mean(2, 0.5)
        monkeypatch.setattr(chainformulas, "_DET_SWAP_TERM_LIMIT", 100)
        assert det_swap_mean(2, 0.5) == expected
        with pytest.raises(OverflowError, match="needs 105 terms"):
            det_swap_mean(2, 0.3)


class TestDetSwapCutoff:
    def test_deterministic_generation(self):
        for n in (1, 2, 4, 8):
            for tau in (1, 3, 10):
                assert det_swap_mean_cutoff(n, 1.0, tau) == pytest.approx(1.0)

    def test_large_cutoff_limit(self):
        assert det_swap_mean_cutoff(4, 0.5, 10_000) == pytest.approx(
            det_swap_mean(4, 0.5), abs=1e-9)

    def test_single_segment_never_waits(self):
        for tau in (1, 2, 50):
            assert det_swap_mean_cutoff(1, 0.5, tau) == pytest.approx(2.0)

    def test_monotone_convergence_in_tau(self):
        target = det_swap_mean(4, 0.3)
        values = [det_swap_mean_cutoff(4, 0.3, tau)
                  for tau in (1, 2, 4, 8, 16, 64, 512)]
        assert all(v >= target - 1e-12 for v in values)
        diffs = [abs(v - target) for v in values]
        assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))

    @pytest.mark.parametrize("n,tau", [(512, 1), (1024, 5)])
    def test_underflowed_denominator_is_an_overflow(self, n, tau):
        # The denominator underflowed to 0 and raised ZeroDivisionError.
        with pytest.raises(OverflowError, match="overflows the float range"):
            det_swap_mean_cutoff(n, 0.1, tau)


class TestPartialLinks:
    def test_all_links_matches_det_swap(self):
        for n in (1, 2, 4):
            assert partial_links_mean(n, n, 0.5) == pytest.approx(
                det_swap_mean(n, 0.5), abs=1e-9)

    def test_first_of_two_is_geometric_minimum(self):
        # min of two geometrics is geometric with p = 1 - q**2.
        assert partial_links_mean(2, 1, 0.5) == pytest.approx(4.0 / 3.0,
                                                              abs=1e-9)

    def test_single_link(self):
        assert partial_links_mean(1, 1, 0.5) == pytest.approx(2.0)

    def test_monotone_in_k(self):
        values = [partial_links_mean(5, k, 0.4) for k in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:]))
