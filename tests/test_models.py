"""Distribution-level checks: densities, transforms, moments, and samplers
against quadrature and Monte-Carlo oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from levypremium import (
    DomainError, DoubleIgParams, bessel_k1e, IgParams, InvalidParameterError, NcigParams,
    NigParams, NigShape, double_ig_cumulants, double_ig_mgf_log, double_ig_sample,
    ig_laplace_exponent, ig_pdf, ig_sample, ncig_chf,
    ncig_cumulants, ncig_levy_exponent, ncig_mgf_log, ncig_sample, nig_chf,
    nig_log_pdf, nig_mgf_log, nig_moments, nig_pdf, nig_sample, nig_shape_log_pdf,
)
from levypremium.cli import REFERENCE_MODELS
from levypremium.models import _k0_k1_gap, _nig_shape_log_lik_score

from oracles import (double_ig_pdf, mc_mean_se, nig_chf_mp, nig_edge_derivative_mp,
                     nig_log_pdf_mp, quadrature_cdf)

REF_NIG = REFERENCE_MODELS["nig"]
REF_NCIG = REFERENCE_MODELS["ncig"]


def batch_se(values, statistic, n_batches=100):
    """Standard error of a statistic by batch means."""
    batches = np.array_split(np.asarray(values), n_batches)
    stats = np.array([statistic(b) for b in batches])
    return float(stats.mean()), float(stats.std(ddof=1) / math.sqrt(n_batches))


class TestNigDensity:
    def test_symmetric_case(self):
        p = NigParams(mu=0.0, alpha=2.0, beta=0.0, delta=1.5)
        x = np.linspace(0.1, 6.0, 25)
        assert nig_pdf(p, x) == pytest.approx(nig_pdf(p, -x), rel=1e-13)

    def test_reference_parameters_normalize(self):
        m = nig_moments(REF_NIG)
        sd = math.sqrt(m.variance)
        val, _ = integrate.quad(lambda x: nig_pdf(REF_NIG, x),
                                m.mean - 60 * sd, m.mean + 60 * sd,
                                points=[m.mean], limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            NigParams(mu=0.0, alpha=1.0, beta=2.0, delta=1.0)
        with pytest.raises(InvalidParameterError):
            NigParams(mu=0.0, alpha=1.0, beta=0.0, delta=-1.0)

    @pytest.mark.parametrize("alpha, beta", [(-3.0, 0.0), (-3.0, 1.0), (-3.0, -2.5)])
    def test_negative_alpha_rejected(self, alpha, beta):
        # alpha^2 > beta^2 holds for each, but the law needs alpha > |beta|.
        with pytest.raises(InvalidParameterError, match=r"alpha > \|beta\|"):
            NigParams(mu=0.0, alpha=alpha, beta=beta, delta=1.0)

    def test_underflowing_gamma_rejected(self):
        # alpha > |beta|, but (alpha - beta)(alpha + beta) underflows to 0, and
        # gamma divides the moments and the sampler's IG mean.
        with pytest.raises(InvalidParameterError, match="gamma > 0"):
            NigParams(mu=0.0, alpha=1e-170, beta=0.0, delta=1.0)

    def test_stable_at_extreme_alpha(self):
        # Near-normal regime: log pdf must match the Gaussian limit closely.
        sigma = 0.013
        alpha = 1e9
        p = NigParams(mu=0.0, alpha=alpha, beta=0.0, delta=sigma ** 2 * alpha)
        x = np.array([-0.03, -0.005, 0.0, 0.02])
        normal = -0.5 * np.log(2 * np.pi * sigma ** 2) - 0.5 * x ** 2 / sigma ** 2
        assert nig_log_pdf(p, x) == pytest.approx(normal, abs=1e-6)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("alpha", [1e4, 1e6, 1e8, 1.1e10, 1e12])
    def test_accurate_towards_inverse_gaussian_edge(self, alpha, sign):
        # alpha - |beta| = 1/2 and delta*gamma = 4 as alpha grows: a law of
        # mean 0, sd 2 and skewness ~1.5 sign that tends to a shifted IG law.
        beta = sign * (alpha - 0.5)
        gamma = math.sqrt(0.5 * (alpha + abs(beta)))
        p = NigParams(mu=-4.0 * beta / gamma ** 2, alpha=alpha, beta=beta,
                      delta=4.0 / gamma)
        x = sign * np.linspace(-1.5, 8.0, 12)
        exact = np.array([nig_log_pdf_mp(p.mu, p.alpha, p.beta, p.delta, xi) for xi in x])
        assert np.max(np.abs(nig_log_pdf(p, x) - exact)) <= 1e-12


class TestNigChf:
    def test_unit_at_zero(self):
        assert nig_chf(REF_NIG, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_symmetric_is_real(self):
        p = NigParams(mu=0.0, alpha=3.0, beta=0.0, delta=0.8)
        vals = nig_chf(p, np.linspace(-40.0, 40.0, 81))
        assert np.max(np.abs(vals.imag)) < 1e-14

    def test_modulus_bounded(self):
        vals = nig_chf(REF_NIG, np.linspace(-100.0, 100.0, 401))
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_conjugate_symmetry(self):
        u = np.linspace(0.5, 60.0, 40)
        assert nig_chf(REF_NIG, -u) == pytest.approx(np.conj(nig_chf(REF_NIG, u)),
                                                     rel=1e-13)

    def test_accurate_near_inverse_gaussian_edge(self):
        # A near-normal law next to the edge beta -> -alpha, as the NIG fit
        # returns for a normal sample whose likelihood peaks on that edge.
        p = NigParams(mu=2.905728963282559, alpha=433456263.7295439,
                      beta=-433447594.69095975, delta=0.018366696771092365)
        t = np.array([1.0, 10.0, 50.0, 100.0, 200.0])
        exact = np.array([nig_chf_mp(p.mu, p.alpha, p.beta, p.delta, ti) for ti in t])
        assert np.max(np.abs(nig_chf(p, t) - exact)) <= 1e-10


class TestNigMgf:
    def test_zero_at_zero(self):
        assert nig_mgf_log(REF_NIG, 0.0) == 0.0

    def test_reference_value_against_monte_carlo(self):
        draws = nig_sample(REF_NIG, 10_000_000, seed=2024)
        mean, se = mc_mean_se(np.exp(draws))
        assert abs(math.exp(nig_mgf_log(REF_NIG, 1.0)) - mean) <= 3.0 * se

    def test_domain_error_beyond_boundary(self):
        s_bad = REF_NIG.alpha - REF_NIG.beta + 0.1
        with pytest.raises(DomainError, match="NIG feasibility"):
            nig_mgf_log(REF_NIG, s_bad)

    def test_convex_and_zero_at_zero(self):
        s = np.linspace(-20.0, 25.0, 31)
        vals = np.array([nig_mgf_log(REF_NIG, v) for v in s])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-12)


class TestNigShape:
    def test_round_trip_and_density(self):
        shape = NigShape.from_params(REF_NIG)
        back = shape.params()
        for name in ("mu", "alpha", "beta", "delta"):
            assert getattr(back, name) == pytest.approx(getattr(REF_NIG, name), rel=1e-12)
        x = np.linspace(-0.05, 0.05, 21)
        assert nig_shape_log_pdf(shape, x) == pytest.approx(nig_log_pdf(REF_NIG, x),
                                                            rel=1e-13, abs=1e-12)

    def test_skew_coordinates_give_moments(self):
        shape = NigShape(mean=0.3, sd=1.7, pos=0.4, neg=1.1)
        m = nig_moments(shape.params())
        assert m.mean == pytest.approx(0.3, rel=1e-13)
        assert m.variance == pytest.approx(1.7 ** 2, rel=1e-13)
        assert m.skewness == pytest.approx(3 * (0.4 - 1.1), rel=1e-13)
        assert m.excess_kurtosis == pytest.approx(3 * 1.5 ** 2 + 12 * 0.7 ** 2, rel=1e-13)

    def test_normal_corner(self):
        shape = NigShape(mean=0.001, sd=0.013, pos=0.0, neg=0.0)
        assert shape.boundary == "normal limit"
        x = np.linspace(-0.04, 0.04, 9)
        normal = -0.5 * np.log(2 * np.pi * 0.013 ** 2) - 0.5 * ((x - 0.001) / 0.013) ** 2
        assert nig_shape_log_pdf(shape, x) == pytest.approx(normal, rel=1e-14)
        with pytest.raises(InvalidParameterError):
            shape.params()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_inverse_gaussian_edges_are_limits(self, sign):
        mean, sd, k = 0.2, 1.5, 0.3
        edge = NigShape(mean=mean, sd=sd, pos=k if sign > 0 else 0.0,
                        neg=0.0 if sign > 0 else k)
        assert edge.boundary == "inverse-Gaussian edge"
        # X = mean - sign sd/k + sign Y, Y ~ IG(mean sd/k, shape sd/k^3)
        x = mean + sign * np.linspace(-4.0, 12.0, 17)
        y = sign * (x - mean) + sd / k
        ig = np.log(ig_pdf(IgParams(lam=sd / k ** 3, mu=sd / k), y))
        assert nig_shape_log_pdf(edge, x) == pytest.approx(ig, rel=1e-12, abs=1e-12)
        # NIG laws next to the edge tend to it.
        near = NigShape(mean=mean, sd=sd, pos=edge.pos or 1e-11 * k, neg=edge.neg or 1e-11 * k)
        assert near.boundary is None
        assert nig_shape_log_pdf(near, x) == pytest.approx(ig, abs=1e-7)
        assert nig_shape_log_pdf(edge, mean - sign * (sd / k + 1.0)) == -np.inf

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            NigShape(mean=0.0, sd=1.0, pos=-0.1, neg=0.5)
        with pytest.raises(InvalidParameterError):
            NigShape(mean=0.0, sd=0.0, pos=0.1, neg=0.5)


class TestNigMoments:
    def test_symmetric_unit_delta(self):
        p = NigParams(mu=0.3, alpha=4.0, beta=0.0, delta=1.0)
        m = nig_moments(p)
        assert m.mean == pytest.approx(0.3)
        assert m.skewness == 0.0
        assert m.excess_kurtosis == pytest.approx(3.0 / 4.0)

    def test_reference_moments_match_sampler(self):
        draws = nig_sample(REF_NIG, 10_000_000, seed=7)
        m = nig_moments(REF_NIG)
        mean, se_mean = batch_se(draws, np.mean)
        assert abs(m.mean - mean) <= 3 * se_mean
        var, se_var = batch_se(draws, np.var)
        assert abs(m.variance - var) <= 3 * se_var
        sk, se_sk = batch_se(draws, lambda b: float(
            np.mean((b - b.mean()) ** 3) / np.var(b) ** 1.5))
        assert abs(m.skewness - sk) <= 3 * se_sk
        ku, se_ku = batch_se(draws, lambda b: float(
            np.mean((b - b.mean()) ** 4) / np.var(b) ** 2 - 3.0))
        assert abs(m.excess_kurtosis - ku) <= 4 * se_ku


class TestIg:
    def test_density_normalizes(self):
        p = IgParams(lam=1.0, mu=1.0)
        val, _ = integrate.quad(lambda x: ig_pdf(p, x), 0.0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_mode_matches_argmax(self):
        p = IgParams(lam=2.0, mu=1.0)
        formula = p.mu * (math.sqrt(1 + 9 * p.mu ** 2 / (4 * p.lam ** 2))
                          - 3 * p.mu / (2 * p.lam))
        grid = np.linspace(1e-4, 3.0, 30001)
        argmax = grid[np.argmax(ig_pdf(p, grid))]
        assert argmax == pytest.approx(formula, abs=2e-4)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ig_pdf(IgParams(1.0, 1.0), 0.0)

    def test_laplace_exponent_values(self):
        p = IgParams(lam=1.0, mu=1.0)
        assert ig_laplace_exponent(p, 0.0) == 0.0
        assert ig_laplace_exponent(p, 1.0) == pytest.approx(math.sqrt(3.0) - 1.0,
                                                            rel=1e-14)

    def test_laplace_exponent_against_monte_carlo(self):
        p = IgParams(lam=1.3, mu=0.7)
        draws = ig_sample(p, 10_000_000, seed=5)
        for s in (0.5, 2.0):
            mean, se = mc_mean_se(np.exp(-s * draws))
            assert abs(math.exp(-ig_laplace_exponent(p, s)) - mean) <= 3 * se


class TestIgSampler:
    def test_moments(self):
        p = IgParams(lam=2.0, mu=0.5)
        draws = ig_sample(p, 10_000_000, seed=11)
        mean, se_mean = batch_se(draws, np.mean)
        assert abs(mean - p.mu) <= 3 * se_mean
        var, se_var = batch_se(draws, np.var)
        assert abs(var - p.mu ** 3 / p.lam) <= 3 * se_var

    def test_seed_determinism(self):
        p = IgParams(lam=1.0, mu=2.0)
        assert np.array_equal(ig_sample(p, 1000, seed=3), ig_sample(p, 1000, seed=3))
        assert not np.array_equal(ig_sample(p, 1000, seed=3), ig_sample(p, 1000, seed=4))

    def test_ks_against_quadrature_cdf(self):
        p = IgParams(lam=1.0, mu=1.0)
        draws = np.sort(ig_sample(p, 100_000, seed=21))
        grid = np.linspace(1e-6, draws[-1] * 1.05, 4000)
        cdf_grid = quadrature_cdf(lambda x: ig_pdf(p, x), 0.0, grid)
        u = np.interp(draws, grid, cdf_grid)
        n = u.size
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        # asymptotic Kolmogorov p-value; must not reject at 1%
        t = math.sqrt(n) * d
        p_value = 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * t * t)
                          for k in range(1, 80))
        assert p_value > 0.01


class TestDoubleIg:
    P = DoubleIgParams(outer=IgParams(2.0, 0.5), inner=IgParams(2.0, 0.5))

    def test_mgf_zero_at_zero(self):
        assert double_ig_mgf_log(self.P, 0.0) == 0.0

    def test_equal_levels_reduce_to_constrained_form(self):
        lam, mu = 3.0, 0.8
        p = DoubleIgParams(outer=IgParams(lam, mu), inner=IgParams(lam, mu))
        for v in (-1.0, 0.0, 0.2, 0.9):
            inner = 1.0 - 2.0 * mu ** 2 * v / lam
            constrained = (lam / mu) * (1.0 - math.sqrt(
                1.0 - 2.0 * mu * (1.0 - math.sqrt(inner))))
            assert double_ig_mgf_log(p, v) == pytest.approx(constrained, abs=1e-14)

    def test_mgf_against_monte_carlo(self):
        draws = double_ig_sample(self.P, 10_000_000, seed=31)
        for v in (0.1, 0.5, -0.3):
            mean, se = mc_mean_se(np.exp(v * draws))
            assert abs(math.exp(double_ig_mgf_log(self.P, v)) - mean) <= 3 * se

    def test_mgf_convex_on_feasible_grid(self):
        v = np.linspace(-2.0, 2.5, 31)
        vals = np.array([double_ig_mgf_log(self.P, x) for x in v])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-12)

    def test_domain_error_names_level(self):
        with pytest.raises(DomainError, match="inner"):
            double_ig_mgf_log(self.P, 100.0)
        p = DoubleIgParams(outer=IgParams(10.0, 1.0), inner=IgParams(1.0, 1.0))
        with pytest.raises(DomainError, match="outer"):
            double_ig_mgf_log(p, 2.5)

    def test_density_normalizes(self):
        p = DoubleIgParams(outer=IgParams(1.0, 1.0), inner=IgParams(1.0, 1.0))
        val, _ = integrate.quad(lambda x: double_ig_pdf(p, x), 1e-10, 80.0,
                                limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_density_matches_sampler_deciles(self):
        draws = double_ig_sample(self.P, 10_000_000, seed=41)
        edges = np.quantile(draws, np.linspace(0.0, 1.0, 11))
        edges[0], edges[-1] = 1e-12, np.inf
        n = draws.size
        for left, right in zip(edges[:-1], edges[1:]):
            hi = min(right, draws.max() * 1.2)
            prob, _ = integrate.quad(lambda x: double_ig_pdf(self.P, x), left, hi,
                                     limit=300)
            frac = np.mean((draws >= left) & (draws < right))
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(frac - prob) <= 4 * se + 1e-6

    def test_density_nonnegative_and_domain(self):
        assert double_ig_pdf(self.P, 0.37) >= 0.0
        with pytest.raises(ValueError):
            double_ig_pdf(self.P, -1.0)

    def test_cumulants_match_sampler(self):
        draws = double_ig_sample(self.P, 10_000_000, seed=51)
        c1, c2, c3, _ = double_ig_cumulants(self.P)
        mean, se_mean = batch_se(draws, np.mean)
        assert abs(c1 - mean) <= 3 * se_mean
        var, se_var = batch_se(draws, np.var)
        assert abs(c2 - var) <= 3 * se_var
        m3, se_m3 = batch_se(draws, lambda b: float(np.mean((b - b.mean()) ** 3)))
        assert abs(c3 - m3) <= 4 * se_m3


class TestNcig:
    def test_levy_exponent_zero_at_zero(self):
        assert ncig_levy_exponent(REF_NCIG, 0.0) == 0.0

    def test_exp_of_negative_exponent_equals_chf(self):
        u = np.linspace(-50.0, 50.0, 101)
        lhs = np.exp(-ncig_levy_exponent(REF_NCIG, u))
        assert np.max(np.abs(lhs - ncig_chf(REF_NCIG, u))) < 1e-12

    def test_zero_drift_exponent_is_real(self):
        p = NcigParams(lam=5.0, mu=0.4, nu=0.0, sigma2=1.2)
        vals = ncig_levy_exponent(p, np.linspace(-30.0, 30.0, 61))
        assert np.max(np.abs(vals.imag)) < 1e-14

    def test_chf_unit_at_zero_and_bounded(self):
        assert ncig_chf(REF_NCIG, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
        vals = ncig_chf(REF_NCIG, np.linspace(-100.0, 100.0, 201))
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_chf_conjugate_symmetry(self):
        u = np.linspace(0.1, 20.0, 50)
        assert ncig_chf(REF_NCIG, -u) == pytest.approx(
            np.conj(ncig_chf(REF_NCIG, u)), rel=1e-13)

    def test_chf_matches_empirical_chf(self):
        draws = ncig_sample(REF_NCIG, 1_000_000, seed=61)
        n = draws.size
        for u in (0.5, 1.0, 2.0):
            emp = np.exp(1j * u * draws).mean()
            se = math.sqrt((np.cos(u * draws).var() + np.sin(u * draws).var()) / n)
            assert abs(ncig_chf(REF_NCIG, u) - emp) <= 3 * se

    def test_mgf_zero_at_zero(self):
        assert ncig_mgf_log(REF_NCIG, 0.0) == 0.0

    def test_mgf_against_monte_carlo(self):
        draws = ncig_sample(REF_NCIG, 10_000_000, seed=71)
        val = ncig_mgf_log(REF_NCIG, 1.0)
        assert np.isfinite(val)
        mean, se = mc_mean_se(np.exp(draws))
        assert abs(math.exp(val) - mean) <= 3 * se

    def test_mgf_domain_error_inner_radicand(self):
        with pytest.raises(DomainError, match="inner"):
            ncig_mgf_log(REF_NCIG, 50.0)

    def test_mgf_convex_on_feasible_grid(self):
        s = np.linspace(-6.0, 6.0, 25)
        vals = np.array([ncig_mgf_log(REF_NCIG, v) for v in s])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-12)

    @pytest.mark.parametrize("p", [
        NcigParams(lam=50.0, mu=0.9, nu=0.1, sigma2=1.0),
        NcigParams(lam=3.0, mu=0.3, nu=-0.4, sigma2=0.2),
    ])
    def test_mgf_is_the_clock_mgf_at_the_brownian_exponent(self, p):
        for s in (-3.0, 0.5, 1.0):
            q = s * p.nu + 0.5 * p.sigma2 * s * s
            assert ncig_mgf_log(p, s) == double_ig_mgf_log(p.clock, q)

    def test_chf_continues_to_the_mgf(self):
        # E[e^{sZ}] = chf(-i s) on the real MGF domain.
        for s in (-2.0, 0.5, 1.0):
            assert ncig_chf(REF_NCIG, -1j * s).real == pytest.approx(
                math.exp(ncig_mgf_log(REF_NCIG, s)), rel=1e-13)

    def test_complex_radicand_off_the_branch_raises(self):
        # chf(-i s) at s beyond the MGF domain: the inner radicand's real
        # part turns negative.
        with pytest.raises(DomainError, match="inner"):
            ncig_chf(REF_NCIG, np.array([0.0, 1.0, -50j]))
        with pytest.raises(DomainError, match="inner"):
            ncig_levy_exponent(REF_NCIG, -50j)


class TestNcigSampler:
    def test_seed_determinism(self):
        a = ncig_sample(REF_NCIG, 2000, seed=9)
        b = ncig_sample(REF_NCIG, 2000, seed=9)
        assert np.array_equal(a, b)

    def test_zero_drift_symmetry(self):
        p = NcigParams(lam=REF_NCIG.lam, mu=REF_NCIG.mu, nu=0.0,
                       sigma2=REF_NCIG.sigma2)
        draws = ncig_sample(p, 10_000_000, seed=81)
        sk, se = batch_se(draws, lambda b: float(
            np.mean((b - b.mean()) ** 3) / np.var(b) ** 1.5))
        assert abs(sk) <= 3 * se

    def test_moments_match_cumulants(self):
        draws = ncig_sample(REF_NCIG, 10_000_000, seed=91)
        k1, k2, _, _ = ncig_cumulants(REF_NCIG)
        mean, se_mean = batch_se(draws, np.mean)
        assert abs(k1 - mean) <= 3 * se_mean
        var, se_var = batch_se(draws, np.var)
        assert abs(k2 - var) <= 3 * se_var


SAMPLERS = [(ig_sample, IgParams(lam=1.0, mu=2.0)),
            (double_ig_sample, DoubleIgParams(IgParams(2.0, 0.5), IgParams(3.0, 0.7))),
            (nig_sample, REF_NIG), (ncig_sample, REF_NCIG)]


@pytest.mark.parametrize("sampler, params", SAMPLERS)
class TestSampleSize:
    def test_zero_draws_is_an_empty_array(self, sampler, params):
        draws = sampler(params, 0, seed=1)
        assert draws.shape == (0,) and draws.dtype == np.float64

    def test_negative_size_rejected(self, sampler, params):
        with pytest.raises(InvalidParameterError, match=">= 0"):
            sampler(params, -1, seed=1)


class TestStructuralIdentities:
    @pytest.mark.parametrize("p", [
        REF_NCIG,
        NcigParams(lam=3.0, mu=0.6, nu=-0.4, sigma2=2.0),
        NcigParams(lam=50.0, mu=1.5, nu=0.2, sigma2=0.5),
    ])
    def test_subordination_composition(self, p):
        # Levy exponent of Z equals the clock's Laplace exponent at the
        # Brownian exponent: psi_Z = phi_V(psi_B).
        u = np.linspace(-25.0, 25.0, 41).astype(complex)
        psi_b = -1j * u * p.nu + 0.5 * p.sigma2 * u * u
        inner = np.sqrt(1.0 + (2.0 * p.mu ** 2 / p.lam) * psi_b)
        phi_v = -(p.lam / p.mu) * (1.0 - np.sqrt(1.0 - 2.0 * p.mu * (1.0 - inner)))
        assert np.max(np.abs(ncig_levy_exponent(p, u.real) - phi_v)) < 1e-12

    def test_nig_normal_limit(self):
        mu, sigma2, alpha = 0.1, 0.8, 1e6
        p = NigParams(mu=mu, alpha=alpha, beta=0.0, delta=sigma2 * alpha)
        t = np.linspace(-5.0, 5.0, 41)
        normal = np.exp(1j * mu * t - 0.5 * sigma2 * t * t)
        rel = np.abs(nig_chf(p, t) - normal) / np.abs(normal)
        assert rel.max() <= 1e-4

    def test_ig_subordinated_brownian_is_nig(self):
        # Map (lam_T, mu_T, nu, sigma2) -> NIG(0, alpha, beta, delta) and match
        # the exponents on a grid.
        lam_t, mu_t, nu, sig = 2.0, 0.5, 0.3, 1.2
        beta = nu / sig ** 2
        gamma = math.sqrt(lam_t) / (sig * mu_t)
        p = NigParams(mu=0.0, alpha=math.hypot(gamma, beta), beta=beta,
                      delta=sig * math.sqrt(lam_t))
        u = np.linspace(-10.0, 10.0, 20)
        psi_b = -1j * u * nu + 0.5 * sig ** 2 * u * u
        sub = -(lam_t / mu_t) * (1.0 - np.sqrt(1.0 + (2.0 * mu_t ** 2 / lam_t) * psi_b))
        direct = -np.log(nig_chf(p, u))
        assert np.max(np.abs(sub - direct)) < 1e-10


def _summed_shape_log_pdf(theta, x):
    mean, ln_sd, pos, neg = theta
    return float(np.sum(nig_shape_log_pdf(NigShape(mean, math.exp(ln_sd), pos, neg), x)))


def _numeric_score(theta, x, one_sided=()):
    """Richardson-extrapolated differences of the summed log-density in
    (mean, ln sd, pos, neg): central, or forward for the coordinates in
    ``one_sided``; their error is O(h^2) either way."""
    theta = np.asarray(theta, dtype=float)
    f0 = _summed_shape_log_pdf(theta, x)
    out = []
    for i in range(4):
        h = 1e-4 * max(abs(theta[i]), 0.1)
        step = np.eye(4)[i]

        def diff(width):
            if i in one_sided:
                return (_summed_shape_log_pdf(theta + width * step, x) - f0) / width
            return (_summed_shape_log_pdf(theta + width * step, x)
                    - _summed_shape_log_pdf(theta - width * step, x)) / (2.0 * width)

        coarse, fine = diff(h), diff(h / 2.0)
        out.append(2.0 * fine - coarse if i in one_sided else (4.0 * fine - coarse) / 3.0)
    return np.array(out)


class TestNigShapeScore:
    """The closed-form score of the summed ``nig_shape_log_pdf`` behind the
    NIG MLE, in (mean, ln sd, pos, neg), one-sided on the boundary."""

    @staticmethod
    def standardized(data):
        return (data - data.mean()) / data.std()

    def check(self, theta, x, one_sided=()):
        value, score = _nig_shape_log_lik_score(
            NigShape(theta[0], math.exp(theta[1]), theta[2], theta[3]), x)
        assert value == _summed_shape_log_pdf(theta, x)
        numeric = _numeric_score(theta, x, one_sided)
        assert score == pytest.approx(numeric, rel=1e-6, abs=1e-6 * np.max(np.abs(numeric)))

    def test_interior(self):
        x = self.standardized(nig_sample(REF_NIG, 2000, seed=31))
        self.check([0.05, 0.02, 0.7, 1.2], x)

    def test_near_the_normal_corner(self):
        x = self.standardized(nig_sample(REF_NIG, 2000, seed=32))
        self.check([0.01, -0.01, 0.02, 0.03], x)

    @pytest.mark.parametrize("zero", [2, 3])
    def test_inverse_gaussian_edges(self, zero):
        x = self.standardized(np.random.default_rng(33).normal(size=2000))
        theta = [0.01, 0.01, 0.1, 0.1]
        theta[zero] = 0.0
        self.check(theta, x, one_sided=(zero,))

    @pytest.mark.parametrize("zero", [2, 3])
    def test_edge_derivative_matches_oracle(self, zero):
        # The zero coordinate's one-sided derivative on an edge is closed
        # form; the oracle differentiates the interior NIG law in mpmath.
        x = np.random.default_rng(3).normal(0.1, 1.3, size=20)
        shape = NigShape(0.1, 1.3, 0.07, 0.0)
        if zero == 2:                              # the mirrored sample and edge
            x, shape = -x, NigShape(-0.1, 1.3, 0.0, 0.07)
        score = _nig_shape_log_lik_score(shape, x)[1]
        truth = nig_edge_derivative_mp(x, shape.mean, shape.sd, shape.pos, shape.neg)
        assert score[zero] == pytest.approx(truth, rel=1e-9)

    def test_normal_corner(self):
        x = self.standardized(np.random.default_rng(34).normal(size=2000))
        theta = [0.01, 0.01, 0.0, 0.0]
        self.check(theta, x, one_sided=(2, 3))
        # There the pos, neg derivatives are +-(1/2) sum H3(u), u = (x - mean)/sd.
        u = (x - 0.01) / math.exp(0.01)
        half_h3 = 0.5 * float(np.sum(u ** 3 - 3.0 * u))
        score = _nig_shape_log_lik_score(NigShape(0.01, math.exp(0.01), 0.0, 0.0), x)[1]
        assert score[2:] == pytest.approx([half_h3, -half_h3], rel=1e-12)

    def test_continuous_towards_an_edge(self):
        # The interior score keeps its precision next to an edge, where the
        # NIG parameters diverge, and tends to the edge's one-sided score.
        x = self.standardized(np.random.default_rng(35).normal(size=2000))
        edge = _nig_shape_log_lik_score(NigShape(0.01, 1.01, 0.1, 0.0), x)[1]
        near = _nig_shape_log_lik_score(NigShape(0.01, 1.01, 0.1, 1e-8), x)[1]
        assert near == pytest.approx(edge, rel=1e-5)

    def test_outside_an_edge_support(self):
        x = np.array([-20.0, 0.0, 1.0])      # support of this edge law: x > -10
        value, score = _nig_shape_log_lik_score(NigShape(0.0, 1.0, 0.1, 0.0), x)
        assert value == -np.inf and np.all(score == 0.0)

    @pytest.mark.parametrize("z", [0.5, 10.0, 999.0, 1000.0, 1001.0, 3e4, 1e8])
    def test_bessel_ratio_gap(self, z):
        # 1 - K0/K1 on either side of the switch to the Hankel expansions.
        zz = np.array([z])
        with mpmath.workdps(40):
            truth = float(1 - mpmath.besselk(0, z) / mpmath.besselk(1, z))
        assert _k0_k1_gap(zz, bessel_k1e(zz))[0] == pytest.approx(truth, rel=1e-13)


def test_overflowing_nig_gamma_rejected():
    # alpha > |beta|, but (alpha - beta)(alpha + beta) overflows, so gamma is
    # inf: the sampler would draw NaN and the premium engine a CRRA of 1e154.
    with pytest.raises(InvalidParameterError, match="finite gamma > 0"):
        NigParams(mu=0.0, alpha=1e200, beta=0.0, delta=1.0)
