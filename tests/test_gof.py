"""Uniformity-test machinery: exact statistic values, level correctness,
power, and PIT / Q-Q / P-P behavior."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from levypremium import gof
from levypremium import (
    DataError, PitSample, cdf_function, default_grid, fit_nig_mle,
    fit_normal_mle, frosini_test, invert_chf, ks_test_uniform,
    neyman_smooth_test, nig_chf, nig_moments, nig_sample, pit, qq_pp_data,
    std_normal_cdf,
)
from levypremium.cli import REFERENCE_MODELS

from oracles import frosini_asymptotic_cdf_mp

REF_NIG = REFERENCE_MODELS["nig"]
LEVEL_SEED_FAMILY = 202608
FROSINI_ORACLE_CSV = Path(__file__).parent / "data" / "frosini_asymptotic_oracle.csv"


def uniform_sample(seed: int, n: int) -> PitSample:
    return PitSample(values=np.random.default_rng([LEVEL_SEED_FAMILY, seed]).uniform(size=n))


class TestPit:
    def test_identity_cdf_is_identity(self):
        u = np.linspace(0.01, 0.99, 50)
        out = pit(u, lambda x: x)
        assert np.array_equal(out.values, u)

    def test_constant_data(self):
        out = pit(np.full(20, 1.5), lambda x: np.full_like(np.asarray(x), 0.75))
        assert np.all(out.values == 0.75)

    def test_nig_draws_through_own_cdf_pass_ks(self):
        d = invert_chf(lambda u: nig_chf(REF_NIG, u), default_grid(nig_moments(REF_NIG)))
        data = nig_sample(REF_NIG, 100_000, seed=30)
        sample = pit(data, cdf_function(d))
        assert ks_test_uniform(sample).p_value > 0.01

    def test_cdf_out_of_range_rejected(self):
        with pytest.raises(DataError, match="outside"):
            pit(np.array([0.0, 1.0]), lambda x: np.asarray(x) + 1.0)


class TestKs:
    def test_equispaced_statistic(self):
        n = 50
        u = (np.arange(1, n + 1) - 0.5) / n
        rep = ks_test_uniform(PitSample(values=u))
        assert rep.statistic == pytest.approx(0.5 / n, rel=1e-12)

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    def test_equispaced_large_n_p_is_one(self, n):
        # sqrt(n) D_n = 1/(2 sqrt(n)) is far below where the Kolmogorov tail
        # leaves 1; a truncated alternating series read 0.049 at n = 1e5.
        u = (np.arange(1, n + 1) - 0.5) / n
        assert ks_test_uniform(PitSample(values=u)).p_value == 1.0

    def test_degenerate_sample_tiny_p(self):
        rep = ks_test_uniform(PitSample(values=np.full(1000, 0.5)))
        assert rep.p_value < 1e-6

    def test_level_asymptotic_path(self):
        # n > 100 takes the asymptotic Kolmogorov p-value
        rej = sum(ks_test_uniform(uniform_sample(s, 10_000)).p_value <= 0.05
                  for s in range(1000))
        assert 0.04 <= rej / 1000 <= 0.06

    def test_level_exact_path(self):
        # n <= 100 takes the exact law of D_n
        rej = sum(ks_test_uniform(uniform_sample(s, 100)).p_value <= 0.05
                  for s in range(1000))
        assert 0.04 <= rej / 1000 <= 0.06

    @pytest.mark.parametrize("n", [8, 20, 100])
    def test_exact_law_matches_scipy_kstwo(self, n):
        # From D_n's floor 1/(2n), where the tail is 1, to 1, where it is 0.
        d = np.linspace(0.5 / n, 1.0, 61)
        got = [gof._ks_exact_sf(n, x) for x in d]
        assert np.max(np.abs(np.array(got) - stats.kstwo.sf(d, n))) <= 1e-12

    def test_permutation_invariant(self):
        u = uniform_sample(0, 200).values
        a = ks_test_uniform(PitSample(values=u)).statistic
        b = ks_test_uniform(PitSample(values=np.random.default_rng(1).permutation(u)))
        assert a == b.statistic

    def test_min_sample_size(self):
        with pytest.raises(DataError):
            ks_test_uniform(PitSample(values=np.linspace(0.1, 0.9, 5)))


class TestNeyman:
    def test_symmetric_sample_kills_first_component(self):
        u = np.concatenate([np.linspace(0.05, 0.45, 20),
                            1.0 - np.linspace(0.05, 0.45, 20)])
        rep1 = neyman_smooth_test(PitSample(values=u), order=1)
        assert rep1.statistic == pytest.approx(0.0, abs=1e-20)

    def test_statistic_mean_matches_chi_square(self):
        stats = [neyman_smooth_test(uniform_sample(s, 10_000)).statistic
                 for s in range(1000)]
        se = np.std(stats, ddof=1) / math.sqrt(len(stats))
        assert abs(np.mean(stats) - 4.0) <= 3 * se

    def test_level(self):
        rej = sum(neyman_smooth_test(uniform_sample(s, 100)).p_value <= 0.05
                  for s in range(1000))
        assert 0.04 <= rej / 1000 <= 0.06

    def test_power_against_trend_alternative(self):
        n = 500
        i = np.arange(1, n + 1)
        u = np.clip(i / (n + 1) + 0.1 * np.sin(2 * np.pi * i / n), 0.0, 1.0)
        rep = neyman_smooth_test(PitSample(values=u))
        assert rep.p_value < 0.05


class TestFrosini:
    def test_zero_at_perfect_spacing(self):
        n = 64
        u = (np.arange(1, n + 1) - 0.5) / n
        assert frosini_test(PitSample(values=u)).statistic == pytest.approx(0.0,
                                                                            abs=1e-14)

    def test_all_ones_closed_form(self):
        n = 36
        rep = frosini_test(PitSample(values=np.ones(n)))
        assert rep.statistic == pytest.approx(math.sqrt(n) / 2.0, rel=1e-12)

    def test_level(self):
        rej = sum(frosini_test(uniform_sample(s, 100)).p_value <= 0.05
                  for s in range(1000))
        assert 0.04 <= rej / 1000 <= 0.06

    def test_deterministic_p_value(self):
        u = uniform_sample(3, 64)
        assert frosini_test(u).p_value == frosini_test(u).p_value


class TestMonteCarloNulls:
    @pytest.mark.parametrize("n,frosini_exceed", [(20, 37256), (100, 45796)])
    def test_p_values_frozen(self, n, frosini_exceed):
        # Pins the Frosini null's seed stream, block layout and statistic: a
        # p-value is (number of null statistics >= observed + 1) / (1e5 + 1).
        # The KS p-value at these sizes is the exact law's.
        u = uniform_sample(7, n)
        ks = ks_test_uniform(u)
        assert ks.p_value == pytest.approx(stats.kstwo.sf(ks.statistic, n), abs=1e-12)
        assert frosini_test(u).p_value == (frosini_exceed + 1) / 100_001


def is_monte_carlo_p(p: float) -> bool:
    """p has the Monte-Carlo form (k + 1) / (1e5 + 1)."""
    return p == (round(p * 100_001 - 1) + 1) / 100_001


class TestFrosiniAsymptotic:
    """Above n = 200 the Frosini p-value comes from the limit law of B_n, the
    L1 norm of the Brownian bridge."""

    def test_cdf_against_frozen_mpmath_oracle(self):
        x, truth = np.loadtxt(FROSINI_ORACLE_CSV, delimiter=",", skiprows=1, unpack=True)
        got = np.array([gof._bridge_l1_cdf(t) for t in x])
        assert np.max(np.abs(got - truth)) <= 1e-10

    def test_cdf_within_4e_15_of_oracle(self):
        # The closed-form H (DLMF 13.3.27) leaves 1.05e-15 on this table.
        x, truth = np.loadtxt(FROSINI_ORACLE_CSV, delimiter=",", skiprows=1, unpack=True)
        got = np.array([gof._bridge_l1_cdf(t) for t in x])
        assert np.max(np.abs(got - truth)) <= 4e-15

    def test_frozen_oracle_matches_live_mpmath(self):
        x, truth = np.loadtxt(FROSINI_ORACLE_CSV, delimiter=",", skiprows=1, unpack=True)
        i = int(np.argmin(np.abs(truth - 0.5)))
        assert float(frosini_asymptotic_cdf_mp(x[i])) == pytest.approx(truth[i], abs=1e-15)

    def test_mean_is_sqrt_pi_over_32(self):
        # E xi = int_0^1 E|B(t)| dt = sqrt(pi/32); the tail beyond 4.5 is below 1e-50.
        mean, _ = integrate.quad(lambda t: 1.0 - gof._bridge_l1_cdf(t), 0.0, 4.5, limit=200)
        assert mean == pytest.approx(math.sqrt(math.pi / 32.0), abs=1e-8)

    def test_agrees_with_monte_carlo_at_n_500(self):
        null = gof._frosini_null(500)
        for s in range(50):
            rep = frosini_test(uniform_sample(s, 500))
            assert rep.null == "asymptotic"
            assert abs(rep.p_value - gof._mc_p_value(null, rep.statistic)) <= 0.01

    def test_p_value_shape(self):
        x = np.linspace(0.0, 6.0, 601)
        p = np.array([gof._bridge_l1_sf(t) for t in x])
        assert p[0] == 1.0
        assert np.all((p >= 0.0) & (p <= 1.0))
        # Nonincreasing up to the rounding of F near 1, which sets the tail's
        # resolution (about 1e-15).
        assert np.all(np.diff(p) <= 1e-15)
        assert np.all(np.diff(p)[p[1:] > 1e-12] <= 0.0)
        # xi <= sup|B|, so the Kolmogorov tail bounds p.
        assert np.all(p <= 2.0 * np.exp(-2.0 * x * x) * (1.0 + 1e-12))

    def test_statistic_zero_and_all_ones_at_n_5000(self):
        n = 5000
        spaced = frosini_test(PitSample(values=(np.arange(1, n + 1) - 0.5) / n))
        assert spaced.statistic == pytest.approx(0.0, abs=1e-12)
        assert spaced.p_value == 1.0
        ones = frosini_test(PitSample(values=np.ones(n)))
        assert ones.null == "asymptotic"
        assert 0.0 <= ones.p_value <= 1.0

    def test_deterministic(self):
        u = uniform_sample(3, 1000)
        assert frosini_test(u) == frosini_test(u)

    def test_crossover_at_200(self):
        at, above = frosini_test(uniform_sample(7, 200)), frosini_test(uniform_sample(7, 201))
        assert (at.null, above.null) == ("monte-carlo", "asymptotic")
        assert is_monte_carlo_p(at.p_value)
        assert not is_monte_carlo_p(above.p_value)

    def test_n_1e5_is_fast(self):
        u = uniform_sample(0, 100_000)
        start = time.perf_counter()
        rep = frosini_test(u)
        assert time.perf_counter() - start < 1.0
        assert rep.null == "asymptotic"


class TestNullSource:
    def test_each_report_names_its_null(self):
        small, large = uniform_sample(1, 100), uniform_sample(1, 101)
        assert ks_test_uniform(small).null == "exact"
        assert ks_test_uniform(large).null == "asymptotic"
        assert neyman_smooth_test(small).null == "chi-square"
        assert frosini_test(small).null == "monte-carlo"

    def test_empty_data_is_a_data_error(self):
        with pytest.raises(DataError):
            pit(np.array([]), lambda x: x)


class TestJointSelfConsistency:
    def test_model_generated_data_passes_all_three(self):
        # PIT of model draws through the same model's CDF: all three tests
        # pass at 1% in at least 98% of seeds.
        passes = 0
        seeds = 100
        for s in range(seeds):
            rng = np.random.default_rng([52000, s])
            data = rng.normal(0.2, 1.7, size=1000)
            sample = pit(data, lambda x: std_normal_cdf((x - 0.2) / 1.7))
            reports = (ks_test_uniform(sample), neyman_smooth_test(sample),
                       frosini_test(sample))
            passes += all(rep.p_value > 0.01 for rep in reports)
        assert passes >= 0.98 * seeds


class TestQqPp:
    def test_identity_model_on_uniforms(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(size=500)
        qq, pp = qq_pp_data(data, cdf=lambda x: x, quantile=lambda p: p)
        n = data.size
        probs = (np.arange(1, n + 1) - 0.5) / n
        assert qq[:, 0] == pytest.approx(probs)
        assert qq[:, 1] == pytest.approx(np.sort(data))
        assert pp[:, 1] == pytest.approx(np.sort(data))

    def test_pp_deviation_shrinks_with_n(self):
        devs = []
        for n in (1000, 100_000):
            data = nig_sample(REF_NIG, n, seed=31)
            d = invert_chf(lambda u: nig_chf(REF_NIG, u),
                           default_grid(nig_moments(REF_NIG)))
            _, pp = qq_pp_data(data, cdf_function(d), quantile=lambda p: p)
            devs.append(np.max(np.abs(pp[:, 1] - pp[:, 0])))
        assert devs[1] < devs[0]

    def test_normal_model_shows_larger_tail_deviation_than_nig(self):
        data = nig_sample(REF_NIG, 50_000, seed=32)
        nig_fit = fit_nig_mle(data).params
        norm_fit = fit_normal_mle(data).params

        d = invert_chf(lambda u: nig_chf(nig_fit, u),
                       default_grid(nig_moments(nig_fit)))
        _, pp_nig = qq_pp_data(data, cdf_function(d), quantile=lambda p: p)
        _, pp_norm = qq_pp_data(
            data, lambda x: std_normal_cdf((x - norm_fit.mu) / norm_fit.sigma),
            quantile=lambda p: p)
        dev_nig = np.max(np.abs(pp_nig[:, 1] - pp_nig[:, 0]))
        dev_norm = np.max(np.abs(pp_norm[:, 1] - pp_norm[:, 0]))
        assert dev_norm > dev_nig
