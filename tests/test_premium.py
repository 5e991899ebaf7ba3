"""Premium equations, the amplification ratio, and CRRA calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypremium import (
    CalibrationError, DomainError, NcigParams, NigParams, NormalParams,
    calibrate_crra, feasible_crra_max, log_premium, ncig_mgf_log,
    nig_mgf_log, premium_lognormal, premium_ncig, premium_nig, ratio_r,
)
from levypremium.cli import REFERENCE_MODELS

REF_NORMAL = REFERENCE_MODELS["normal"]
REF_NIG = REFERENCE_MODELS["nig"]
REF_NCIG = REFERENCE_MODELS["ncig"]

# Annual mean equity premium target and its per-month counterpart.
ANNUAL_TARGET = 0.05894
MONTHLY_TARGET = ANNUAL_TARGET / 12.0


def spread_identity_holds(res):
    return math.isclose(res.log_premium,
                        math.log(res.expected_return) - math.log(res.risk_free),
                        rel_tol=0.0, abs_tol=1e-14)


class TestLognormal:
    def test_zero_crra(self):
        res = premium_lognormal(0.97, 0.0, REF_NORMAL)
        assert res.log_premium == 0.0

    def test_vanishing_volatility_limit(self):
        res = premium_lognormal(0.9, 7.0, NormalParams(mu=0.01, sigma=1e-12))
        assert abs(res.log_premium) < 1e-20

    def test_exact_arithmetic(self):
        res = premium_lognormal(0.97, 10.0, NormalParams(mu=0.0, sigma=math.sqrt(0.001)))
        assert res.log_premium == pytest.approx(0.01, rel=1e-12)

    def test_spread_identity(self):
        assert spread_identity_holds(premium_lognormal(0.8, 3.0, REF_NORMAL))


class TestNigPremium:
    def test_zero_crra_cancels(self):
        assert premium_nig(0.97, 0.0, REF_NIG).log_premium == 0.0

    def test_gaussian_limit(self):
        sigma2, alpha = 0.001, 1e6
        p = NigParams(mu=0.0, alpha=alpha, beta=0.0, delta=alpha * sigma2)
        res = premium_nig(0.97, 10.0, p)
        assert res.log_premium == pytest.approx(0.01, abs=1e-5)

    def test_reference_value_per_period(self):
        # Frozen from this implementation; the published study quotes 0.2223%
        # at a = 10 under an unstated period convention (1.3439 vs 1.3417
        # gross returns), which is not recoverable from these parameters.
        res = premium_nig(0.97, 10.0, REF_NIG)
        assert res.log_premium == pytest.approx(0.0019157442867009007, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_b_and_mu_independence(self, b, mu):
        p = NigParams(mu=mu, alpha=REF_NIG.alpha, beta=REF_NIG.beta,
                      delta=REF_NIG.delta)
        res = premium_nig(b, 5.0, p)
        baseline = premium_nig(0.5, 5.0, REF_NIG)
        assert res.log_premium == pytest.approx(baseline.log_premium, rel=1e-13)

    def test_spread_identity(self):
        assert spread_identity_holds(premium_nig(0.97, 10.0, REF_NIG))

    def test_feasibility_error_names_radicand(self):
        a_bad = REF_NIG.alpha + REF_NIG.beta + 0.5
        with pytest.raises(DomainError, match="beta - a"):
            premium_nig(0.97, a_bad, REF_NIG)

    def test_monotone_in_crra(self):
        # P'(a) = g'(1-a) - g'(-a) >= 0 for every convex cumulant function g,
        # which is what lets calibrate_crra bisect on [0, a_max] unchecked.
        rng = np.random.default_rng(2024)
        models = [REF_NORMAL, REF_NIG, REF_NCIG]
        for _ in range(30):
            models.append(NormalParams(mu=rng.normal(0.0, 0.01),
                                       sigma=rng.uniform(0.005, 0.3)))
            alpha = rng.uniform(1.5, 100.0)
            beta = rng.uniform(-0.9, 0.9) * alpha
            if alpha ** 2 > (beta + 1.0) ** 2:
                models.append(NigParams(mu=rng.normal(0.0, 0.01), alpha=alpha,
                                        beta=beta, delta=rng.uniform(0.005, 1.0)))
            models.append(NcigParams(lam=rng.uniform(0.5, 500.0), mu=rng.uniform(0.05, 3.0),
                                     nu=rng.normal(0.0, 0.5), sigma2=rng.uniform(0.05, 4.0)))
        checked = 0
        for model in models:
            try:
                a_max = feasible_crra_max(model)
            except DomainError:   # the unit MGF argument lies outside the domain
                continue
            grid = np.linspace(0.0, 1e3 if math.isinf(a_max) else a_max, 200)
            vals = np.array([log_premium(model, float(a)) for a in grid])
            assert np.all(np.diff(vals) >= 0.0), model
            checked += 1
        assert checked >= 80

    @pytest.mark.parametrize("p", [
        REF_NIG,
        NigParams(mu=0.01, alpha=3.0, beta=1.5, delta=0.2),
        NigParams(mu=-0.002, alpha=80.0, beta=-40.0, delta=0.05),
        NigParams(mu=0.0, alpha=12.0, beta=0.0, delta=0.5),
    ])
    def test_pairwise_form_matches_mgf_composition(self, p):
        # The composition's roundoff scales with the cancelled magnitude
        # delta*gamma and grows like 1/r as a radical r approaches 0.
        eps = float(np.finfo(float).eps)
        g = p.gamma
        for a in np.linspace(0.0, p.alpha + p.beta, 41):
            a = float(a)
            composed = (nig_mgf_log(p, 1.0) - nig_mgf_log(p, 1.0 - a)
                        + nig_mgf_log(p, -a))
            radicals = [math.sqrt((p.alpha - p.beta - s) * (p.alpha + p.beta + s))
                        for s in (1.0, 1.0 - a, -a)]
            conditioning = p.alpha ** 2 / max(min(radicals), 1e-300)
            premium = premium_nig(0.97, a, p).log_premium
            assert abs(premium - composed) <= 1e-12 + 64.0 * eps * p.delta * (g + conditioning)


class TestNcigPremium:
    def test_zero_crra(self):
        assert premium_ncig(0.97, 0.0, REF_NCIG).log_premium == 0.0

    def test_reference_value_and_formulation_agreement(self):
        res = premium_ncig(0.97, 8.9626, REF_NCIG)
        # Frozen from this implementation (per the fitted-parameter period);
        # the published calibration quotes ln(1.0681) - ln(1.00987) under its
        # own unstated period convention.
        assert res.log_premium == pytest.approx(2.2364944220629033, rel=1e-10)
        composed = (ncig_mgf_log(REF_NCIG, 1.0) - ncig_mgf_log(REF_NCIG, 1.0 - 8.9626)
                    + ncig_mgf_log(REF_NCIG, -8.9626))
        assert abs(res.log_premium - composed) <= 1e-12

    def test_b_independence(self):
        a = premium_ncig(0.5, 4.0, REF_NCIG).log_premium
        b = premium_ncig(0.99, 4.0, REF_NCIG).log_premium
        assert a == b

    def test_spread_identity(self):
        assert spread_identity_holds(premium_ncig(0.97, 4.0, REF_NCIG))

    def test_feasibility_error_reports_argument(self):
        with pytest.raises(DomainError, match="NCIG feasibility"):
            premium_ncig(0.97, 40.0, REF_NCIG)


class TestLimitingCase:
    def test_gap_bound_and_true_rate(self):
        # The exact expansion is premium - a sigma^2 =
        # sigma^2 (a^4 + 1 - (1-a)^4) / (8 alpha^2) + O(alpha^-4): the gap is
        # bounded by C/alpha and the measured log-log slope is -2.
        sigma2 = 0.001
        alphas = np.array([1e2, 1e3, 1e4, 1e5])
        for a in (2.0, 5.0, 10.0):
            coeff = sigma2 * (a ** 4 + 1.0 - (1.0 - a) ** 4) / 8.0
            gaps = []
            for alpha in alphas:
                p = NigParams(mu=0.0, alpha=float(alpha), beta=0.0,
                              delta=float(alpha) * sigma2)
                gap = abs(premium_nig(0.97, a, p).log_premium - a * sigma2)
                gaps.append(gap)
                assert gap <= (coeff * 1.01 + 1e-12) / alpha        # C/alpha bound
                assert gap == pytest.approx(coeff / alpha ** 2, rel=1e-2)
            slope = np.polyfit(np.log(alphas), np.log(gaps), 1)[0]
            assert slope == pytest.approx(-2.0, abs=0.05)


class TestRatio:
    def test_limit_at_unit_crra(self):
        # R(1, alpha) = alpha (2 alpha - 2 sqrt(alpha^2 - 1)) -> 1
        for alpha, tol in ((10.0, 3e-3), (1e3, 3e-7), (1e6, 1e-12)):
            assert ratio_r(1.0, alpha) == pytest.approx(1.0, abs=tol)

    def test_limit_at_crra_ten(self):
        assert abs(ratio_r(10.0, 1e5) - 1.0) < 1e-3

    def test_amplification_exceeds_one(self):
        for a in (0.5, 2.0, 5.0, 10.0):
            for alpha in (max(a, 1.0) * 1.5, 50.0, 400.0):
                assert ratio_r(a, alpha) > 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ratio_r(10.0, 5.0)

    def test_is_scaled_nig_premium(self):
        # R(a, alpha) is alpha/a times the log premium of NIG(0, alpha, 0, 1),
        # on the premium's closed domain (a = alpha included).
        for alpha in (1.5, 3.0, 10.0, 33.5, 1e3, 1e6):
            for a in (0.25, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0, 33.5):
                if a > alpha:
                    continue
                expected = alpha * log_premium(NigParams(0.0, alpha, 0.0, 1.0), a) / a
                assert ratio_r(a, alpha) == expected


class TestFeasibleCrraMax:
    def test_nig_boundary_is_alpha_plus_beta(self):
        a_max = feasible_crra_max(REF_NIG)
        assert a_max == pytest.approx(REF_NIG.alpha + REF_NIG.beta, rel=1e-9)

    def test_normal_unbounded(self):
        assert math.isinf(feasible_crra_max(REF_NORMAL))

    def test_ncig_boundary_from_inner_radicand(self):
        # inner radicand of the MGF at s = -a hits zero:
        # sigma2 a^2/2 - nu a = lam/(2 mu^2)
        lam, mu, nu, s2 = (REF_NCIG.lam, REF_NCIG.mu, REF_NCIG.nu, REF_NCIG.sigma2)
        q_max = lam / (2.0 * mu ** 2)
        a_exact = (nu + math.sqrt(nu ** 2 + 2.0 * s2 * q_max)) / s2
        assert feasible_crra_max(REF_NCIG) == pytest.approx(a_exact, rel=1e-9)

    @pytest.mark.parametrize("model", [
        REF_NIG,
        NigParams(mu=0.0, alpha=3.0, beta=1.5, delta=0.2),
        REF_NCIG,
        NcigParams(lam=50.0, mu=0.9, nu=0.1, sigma2=1.0),    # outer radicand binds
        NcigParams(lam=400.0, mu=40.0, nu=-0.2, sigma2=0.3),
    ])
    def test_closed_form_is_the_edge_of_the_domain(self, model):
        if isinstance(model, NigParams):
            a_exact = model.alpha + model.beta
        else:
            f = max(0.0, 1.0 - 1.0 / (2.0 * model.mu))
            q_max = model.lam * (1.0 - f * f) / (2.0 * model.mu ** 2)
            a_exact = (model.nu + math.sqrt(model.nu ** 2 + 2.0 * model.sigma2 * q_max)) \
                / model.sigma2
        a_max = feasible_crra_max(model)
        assert a_max <= a_exact and a_max == pytest.approx(a_exact, rel=1e-13)
        assert math.isfinite(log_premium(model, a_max))
        with pytest.raises(DomainError):
            log_premium(model, a_exact * (1.0 + 1e-9))

    def test_nig_edge_is_exact(self):
        assert feasible_crra_max(REF_NIG) == REF_NIG.alpha + REF_NIG.beta

    @pytest.mark.parametrize("model", [REF_NORMAL, REF_NIG, REF_NCIG])
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_crra_outside_domain_raises(self, model, a):
        with pytest.raises(DomainError, match="CRRA must be finite and nonnegative"):
            log_premium(model, a)

    def test_unit_argument_outside_domain(self):
        with pytest.raises(DomainError, match="infeasible even at a = 0"):
            feasible_crra_max(NigParams(mu=0.0, alpha=1.5, beta=0.5, delta=0.1))


class TestCalibrate:
    def test_zero_target(self):
        assert calibrate_crra(0.0, 0.97, REF_NIG) == 0.0

    @pytest.mark.parametrize("model,expected", [
        ("normal", 29.666448758487117),
        ("nig", 20.504211398251044),
        ("ncig", 0.02075031926632024),
    ])
    def test_reference_calibrations_frozen(self, model, expected):
        # Frozen from this implementation under the monthly-period convention;
        # the published study quotes 2582.6 / 33.5 / 8.9626 under conventions
        # that could not be reverse-engineered (33.5 even exceeds the NIG
        # feasibility bound alpha + beta = 33.243 for these parameters).
        a = calibrate_crra(MONTHLY_TARGET, 0.97, REFERENCE_MODELS[model])
        assert a == pytest.approx(expected, abs=1e-6)

    def test_roundtrip_random_instances(self):
        rng = np.random.default_rng(55)
        models = []
        for _ in range(20):
            sigma = rng.uniform(0.005, 0.2)
            models.append(NormalParams(mu=rng.normal(0, 0.01), sigma=sigma))
        for _ in range(20):
            alpha = rng.uniform(2.0, 80.0)
            beta = rng.uniform(-0.6, 0.6) * alpha
            if alpha ** 2 <= (beta + 1.0) ** 2:
                continue
            models.append(NigParams(mu=rng.normal(0, 0.01), alpha=alpha,
                                    beta=beta, delta=rng.uniform(0.005, 0.5)))
        for _ in range(20):
            models.append(NcigParams(lam=rng.uniform(1.0, 500.0),
                                     mu=rng.uniform(0.05, 2.0),
                                     nu=rng.normal(0.0, 0.3),
                                     sigma2=rng.uniform(0.1, 4.0)))
        checked = 0
        for model in models:
            a_max = feasible_crra_max(model)
            hi = 50.0 if math.isinf(a_max) else 0.9 * a_max
            a_star = rng.uniform(0.05, hi)
            try:
                target = log_premium(model, a_star)
            except DomainError:
                continue
            if target <= 0.0:
                continue
            a_back = calibrate_crra(target, 0.97, model)
            assert abs(a_back - a_star) < 1e-8, (model, a_star, a_back)
            checked += 1
        assert checked >= 40

    def test_unattainable_target_reports_maximum(self):
        with pytest.raises(CalibrationError, match="unattainable"):
            calibrate_crra(0.06, 0.97, REF_NIG)   # feasible max is ~0.0566

    def test_large_crra_returns(self):
        # a = 1e6 = target / sigma^2 in closed form: the premium crosses the
        # target between a's neighbouring floats.
        model = NormalParams(mu=0.0, sigma=0.04)
        a = calibrate_crra(1600.0, 0.97, model)
        assert log_premium(model, math.nextafter(a, 0.0)) <= 1600.0 \
            <= log_premium(model, math.nextafter(a, math.inf))

    @pytest.mark.parametrize("sigma", [1e-3, 0.0128671292, 0.04, 0.7, 3.0])
    def test_normal_crra_is_target_over_variance(self, sigma):
        model = NormalParams(mu=0.01, sigma=sigma)
        for target in np.geomspace(1e-6, 10.0, 29):
            a = calibrate_crra(float(target), 0.97, model)
            assert a == float(target) / sigma ** 2
            assert abs(log_premium(model, a) - target) <= 2.0 * math.ulp(float(target))

    def test_normal_crra_past_1e12_returns(self):
        model = NormalParams(mu=0.0, sigma=1e-7)
        assert calibrate_crra(1.0, 0.97, model) == pytest.approx(1e14, rel=1e-15)

    @pytest.mark.parametrize("sigma", [1e-200, 1e-160])
    def test_normal_variance_too_small_is_unattainable(self, sigma):
        # sigma^2 underflows to 0 (1e-200) or target / sigma^2 overflows (1e-160,
        # sigma^2 subnormal): no finite a reaches the target.
        with pytest.raises(CalibrationError, match="unattainable"):
            calibrate_crra(0.01, 0.97, NormalParams(mu=0.0, sigma=sigma))

    def test_grid_reaches_the_feasibility_edge(self):
        model = NcigParams(lam=50.0, mu=0.9, nu=0.1, sigma2=1.0)
        attainable = log_premium(model, feasible_crra_max(model))
        a = calibrate_crra(attainable, 0.97, model)
        assert a == pytest.approx(feasible_crra_max(model), abs=1e-9)

    def test_negative_target_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_crra(-0.01, 0.97, REF_NIG)

    @pytest.mark.parametrize("model", [REF_NORMAL, REF_NIG, REF_NCIG])
    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, model, target):
        with pytest.raises(CalibrationError, match="finite"):
            calibrate_crra(target, 0.97, model)

