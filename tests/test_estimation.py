"""Estimation checks: closed-form normal MLE, NIG MLE recovery, moment
initializations, ECF objective properties, and the NCIG ECF fit."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from levypremium import (
    DataError, FeasibilityError, IgParams, NcigParams, NigParams, apply_selection_rule,
    bootstrap_se, default_ecf_config, ecf_objective, fit_ncig_ecf, fit_nig_mle,
    fit_normal_mle, moment_init_ncig, moment_init_nig, ncig_chf, ncig_cumulants,
    ig_pdf, ncig_sample, nig_log_pdf, nig_moments, nig_sample, normal_log_likelihood,
)
from levypremium.cli import REFERENCE_MODELS

REF_NORMAL = REFERENCE_MODELS["normal"]
REF_NIG = REFERENCE_MODELS["nig"]
REF_NCIG = REFERENCE_MODELS["ncig"]


class TestNormalMle:
    def test_two_point_case(self):
        fit = fit_normal_mle([-1.0, 1.0])
        assert fit.params.mu == 0.0
        assert fit.params.sigma == 1.0

    def test_recovers_reference_parameters(self):
        rng = np.random.default_rng(12)
        data = rng.normal(REF_NORMAL.mu, REF_NORMAL.sigma, size=1_000_000)
        fit = fit_normal_mle(data)
        n = data.size
        se_mu = REF_NORMAL.sigma / math.sqrt(n)
        se_sigma = REF_NORMAL.sigma / math.sqrt(2 * n)
        assert abs(fit.params.mu - REF_NORMAL.mu) <= 3 * se_mu
        assert abs(fit.params.sigma - REF_NORMAL.sigma) <= 3 * se_sigma

    def test_closed_form_log_likelihood(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=500)
        fit = fit_normal_mle(data)
        n = data.size
        expected = -0.5 * n * math.log(2 * math.pi * fit.params.sigma ** 2) - 0.5 * n
        assert fit.objective == pytest.approx(expected, rel=1e-14)
        assert fit.objective == pytest.approx(
            normal_log_likelihood(data, fit.params), rel=1e-12)

    def test_degenerate_data(self):
        with pytest.raises(DataError):
            fit_normal_mle(np.full(100, 3.25))


class TestMomentInitNig:
    def test_roundtrip_reference_moments(self):
        # Invert the analytic moments directly: the round trip is exact.
        m = nig_moments(REF_NIG)
        from levypremium.estimation import _invert_nig_moments
        back = _invert_nig_moments(m.mean, m.variance, m.skewness, m.excess_kurtosis)
        assert back.mu == pytest.approx(REF_NIG.mu, rel=1e-10)
        assert back.alpha == pytest.approx(REF_NIG.alpha, rel=1e-10)
        assert back.beta == pytest.approx(REF_NIG.beta, rel=1e-10)
        assert back.delta == pytest.approx(REF_NIG.delta, rel=1e-10)

    def test_symmetric_data_gives_zero_beta(self):
        rng = np.random.default_rng(8)
        half = rng.standard_t(df=6, size=20000)
        data = np.concatenate([half, -half])  # exactly symmetric
        p = moment_init_nig(data)
        assert p.beta == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_moments_raise(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(size=5000)   # platykurtic: excess kurtosis ~ -1.2
        with pytest.raises(FeasibilityError):
            moment_init_nig(data)


class TestFitNigMle:
    def test_recovery_from_reference_parameters(self):
        data = nig_sample(REF_NIG, 100_000, seed=100)
        fit = fit_nig_mle(data)
        assert fit.converged
        for name in ("mu", "alpha", "beta", "delta"):
            est = getattr(fit.params, name)
            truth = getattr(REF_NIG, name)
            assert abs(est - truth) <= 0.10 * abs(truth), (name, est, truth)

    def test_likelihood_beats_normal_on_heavy_tails(self):
        data = nig_sample(REF_NIG, 20_000, seed=5)
        nig_fit = fit_nig_mle(data)
        normal_fit = fit_normal_mle(data)
        assert nig_fit.objective > normal_fit.objective

    def test_nesting_on_exactly_normal_data(self):
        rng = np.random.default_rng(77)
        data = rng.normal(0.001, 0.013, size=5000)
        nig_fit = fit_nig_mle(data)
        normal_fit = fit_normal_mle(data)
        assert nig_fit.objective >= normal_fit.objective - 1e-6

    def test_never_below_initialization(self):
        data = nig_sample(REF_NIG, 5000, seed=6)
        init = NigParams(mu=0.0, alpha=60.0, beta=5.0, delta=0.01)
        fit = fit_nig_mle(data, init=init)
        init_ll = float(np.sum(
            __import__("levypremium").nig_log_pdf(init, data)))
        assert fit.objective >= init_ll - 1e-9

    def test_deterministic(self):
        data = nig_sample(REF_NIG, 4000, seed=13)
        a = fit_nig_mle(data)
        b = fit_nig_mle(data)
        assert a == b

    def test_small_sample_rejected(self):
        with pytest.raises(DataError):
            fit_nig_mle(np.arange(5.0))


def ig_edge_supremum(data) -> float:
    """Supremum of the log-likelihood over the shifted, scaled and signed
    inverse-Gaussian laws X = c + sign*Y, Y ~ IG: for a given shift c the IG
    MLE is closed-form, so only c is searched."""
    sd = float(np.std(data))
    best = -np.inf
    for sign in (1.0, -1.0):
        edge = np.min(data) if sign > 0 else np.max(data)

        def neg_profile(log_gap):
            y = sign * (data - edge) + math.exp(log_gap) * sd
            mean = float(np.mean(y))
            lam = 1.0 / float(np.mean(1.0 / y - 1.0 / mean))
            return -float(np.sum(np.log(ig_pdf(IgParams(lam=lam, mu=mean), y))))

        res = optimize.minimize_scalar(neg_profile, bounds=(math.log(1e-3), math.log(1e6)),
                                       method="bounded", options={"xatol": 1e-10})
        best = max(best, -res.fun)
    return best


class TestFitNigMleBoundary:
    def test_inverse_gaussian_edge_on_near_normal_sample(self):
        # The sample of the CLI nesting test (simulate --reference normal
        # --n 10000 --seed 5): skewness -0.013, excess kurtosis -0.028, outside
        # the NIG moment region; the likelihood rises towards |beta| -> alpha.
        data = np.random.default_rng(5).normal(REF_NORMAL.mu, REF_NORMAL.sigma, size=10_000)
        fit = fit_nig_mle(data)
        assert fit.converged
        assert "inverse-Gaussian edge" in fit.flags
        supremum = ig_edge_supremum(data)
        assert abs(fit.objective - supremum) <= 1e-6
        assert supremum - fit_normal_mle(data).objective > 0.1
        assert fit.objective == pytest.approx(float(np.sum(nig_log_pdf(fit.params, data))),
                                              abs=1e-9)

    def test_normal_limit_on_symmetric_platykurtic_sample(self):
        n = 10_000
        data = stats.norm.ppf((np.arange(n) + 0.5) / n, REF_NORMAL.mu, REF_NORMAL.sigma)
        fit = fit_nig_mle(data)
        assert fit.converged
        assert "normal limit" in fit.flags
        assert fit.iterations < 500
        assert abs(fit.objective - fit_normal_mle(data).objective) <= 1e-6

    def test_well_posed_fit_has_no_boundary_flag(self):
        fit = fit_nig_mle(nig_sample(REF_NIG, 5000, seed=7))
        assert fit.converged and fit.flags == ()


class TestEcfObjective:
    def test_zero_when_model_matches_ecf(self):
        data = np.array([-1.0, -0.25, 0.5, 1.75])
        cfg = default_ecf_config(np.random.default_rng(0).normal(size=2000))

        def ecf_as_model(u):
            return np.exp(1j * np.outer(u, data)).mean(axis=1)

        assert ecf_objective(ecf_as_model, data, cfg) == pytest.approx(0.0, abs=1e-28)

    def test_truth_beats_perturbation(self):
        data = ncig_sample(REF_NCIG, 100_000, seed=14)
        cfg = default_ecf_config(data)
        perturbed = NcigParams(lam=REF_NCIG.lam * 1.5, mu=REF_NCIG.mu,
                               nu=REF_NCIG.nu, sigma2=REF_NCIG.sigma2)
        at_truth = ecf_objective(lambda u: ncig_chf(REF_NCIG, u), data, cfg)
        at_perturbed = ecf_objective(lambda u: ncig_chf(perturbed, u), data, cfg)
        assert at_truth < at_perturbed

    def test_permutation_invariant(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=3000)
        cfg = default_ecf_config(data)
        chf = lambda u: np.exp(-0.5 * np.asarray(u, complex) ** 2)
        a = ecf_objective(chf, data, cfg)
        b = ecf_objective(chf, rng.permutation(data), cfg)
        assert a == pytest.approx(b, rel=1e-12)

    def test_consistency_objective_decreases_with_n(self):
        # Median over seeds of the ECF distance at the true parameters
        # shrinks toward 0 as n grows.
        cfg = default_ecf_config(ncig_sample(REF_NCIG, 50_000, seed=999))
        meds = []
        for n in (1000, 10_000, 100_000):
            vals = []
            for seed in range(20):
                data = ncig_sample(REF_NCIG, n, seed=1000 + seed)
                vals.append(ecf_objective(lambda u: ncig_chf(REF_NCIG, u),
                                          data, cfg))
            meds.append(float(np.median(vals)))
        assert meds[0] > meds[1] > meds[2]


class TestMomentInitNcig:
    def test_cumulant_match_when_solve_succeeds(self):
        # A pronounced-skew parameter set: the sample third/fourth cumulants
        # carry real signal and the exact solve is well-posed.  (For the
        # near-Gaussian reference parameters those cumulants are noise at any
        # practical n and the fixed fallback fires instead, by design.)
        skewed = NcigParams(lam=3.0, mu=0.6, nu=1.2, sigma2=0.8)
        data = ncig_sample(skewed, 200_000, seed=16)
        init = moment_init_ncig(data)
        model = np.array(ncig_cumulants(init))
        m = float(np.mean(data))
        c = data - m
        sample = np.array([m, np.mean(c ** 2), np.mean(c ** 3),
                           np.mean(c ** 4) - 3 * np.mean(c ** 2) ** 2])
        rel = np.abs(model - sample) / np.maximum(np.abs(sample), 1e-12)
        assert rel.max() < 1e-6

    def test_symmetric_data_near_zero_drift(self):
        rng = np.random.default_rng(17)
        half = rng.normal(size=50_000)
        data = np.concatenate([half, -half])
        init = moment_init_ncig(data)
        assert abs(init.nu) < 1e-6

    def test_reference_data_within_factor_three(self):
        data = ncig_sample(REF_NCIG, 100_000, seed=18)
        init = moment_init_ncig(data)
        for name in ("lam", "mu", "nu", "sigma2"):
            est = getattr(init, name)
            truth = getattr(REF_NCIG, name)
            ratio = est / truth
            assert 1.0 / 3.0 <= ratio <= 3.0, (name, est, truth)

    def test_constant_data_is_a_data_error(self):
        with pytest.raises(DataError, match="zero sample variance"):
            moment_init_ncig(np.full(100, 2.0))

    def test_never_raises_on_platykurtic_data(self):
        rng = np.random.default_rng(19)
        data = rng.uniform(-1.0, 1.0, size=5000)
        init = moment_init_ncig(data)
        assert isinstance(init, NcigParams)


class TestFitNcigEcf:
    def test_recovery_smoke(self):
        data = ncig_sample(REF_NCIG, 100_000, seed=20)
        fit = fit_ncig_ecf(data, n_starts=4)
        assert fit.objective_kind == "ecf_distance"
        assert fit.log_likelihood is not None and np.isfinite(fit.log_likelihood)
        # loose recovery sanity; the acceptance suite runs the strict version
        for name in ("mu", "sigma2"):
            est = getattr(fit.params, name)
            truth = getattr(REF_NCIG, name)
            assert 0.5 <= est / truth <= 2.0, (name, est, truth)

    def test_multi_start_selects_highest_fft_likelihood(self):
        data = ncig_sample(REF_NCIG, 20_000, seed=21)
        fit = fit_ncig_ecf(data, n_starts=4)
        # rerun the same fit and confirm determinism of the selection
        again = fit_ncig_ecf(data, n_starts=4)
        assert fit == again

    def test_selection_rule_flags_below_baseline(self):
        data = ncig_sample(REF_NCIG, 20_000, seed=22)
        fit = fit_ncig_ecf(data, n_starts=2)
        flagged = apply_selection_rule([fit], nig_log_likelihood=fit.log_likelihood + 10.0)
        assert "likelihood below NIG baseline" in flagged.flags
        clean = apply_selection_rule([fit], nig_log_likelihood=fit.log_likelihood - 10.0)
        assert "likelihood below NIG baseline" not in clean.flags

    def test_small_sample_rejected(self):
        with pytest.raises(DataError):
            fit_ncig_ecf(np.arange(10.0))


class TestBootstrapSe:
    def test_normal_mle_se_matches_theory(self):
        rng = np.random.default_rng(23)
        data = rng.normal(0.0, 2.0, size=4000)
        ses = bootstrap_se(data, lambda d: fit_normal_mle(d).params,
                           n_resamples=200, seed=1)
        assert ses["mu"] == pytest.approx(2.0 / math.sqrt(4000), rel=0.2)
        assert ses["sigma"] == pytest.approx(2.0 / math.sqrt(2 * 4000), rel=0.25)


class TestFitNigMleSearch:
    """The L-BFGS-B search of the NIG MLE, given the closed-form score."""

    @pytest.mark.parametrize("s", range(6))
    def test_near_normal_samples_reach_the_supremum(self, s):
        # Near-normal samples put the supremum on the boundary or just inside
        # it: at the normal law, on an inverse-Gaussian edge, or in the
        # interior above both.
        data = np.random.default_rng(1000 + s).normal(REF_NORMAL.mu, REF_NORMAL.sigma, 10_000)
        fit = fit_nig_mle(data)
        assert fit.converged
        normal = fit_normal_mle(data).objective
        if "normal limit" in fit.flags:
            assert abs(fit.objective - normal) <= 1e-6
        elif "inverse-Gaussian edge" in fit.flags:
            assert abs(fit.objective - ig_edge_supremum(data)) <= 1e-6
        else:
            assert fit.objective >= max(ig_edge_supremum(data), normal) - 1e-6

    def test_few_evaluations_at_n_1e5(self):
        fit = fit_nig_mle(nig_sample(REF_NIG, 100_000, seed=100))
        assert fit.converged and fit.flags == ()
        assert fit.nfev <= 40
        assert fit.iterations <= fit.nfev

    def test_ncig_fit_reports_the_winning_start(self):
        ncig = fit_ncig_ecf(ncig_sample(REF_NCIG, 2000, seed=4), n_starts=2)
        assert ncig.nfev > ncig.iterations > 0
        assert isinstance(ncig.message, str) and ncig.message

    def test_symmetric_bimodal_sample_reaches_the_edge(self):
        # Skewness 2.6e-4 puts the moment start, an edge point, next to the
        # normal corner, where the interior score is formed by cancellation;
        # moved inside from there, the search stopped 31 nats short.
        rng = np.random.default_rng(73)
        data = np.concatenate([rng.normal(-1.0, 0.3, 1500), rng.normal(1.0, 0.3, 1500)])
        fit = fit_nig_mle(data)
        assert fit.converged and "inverse-Gaussian edge" in fit.flags
        assert abs(fit.objective - ig_edge_supremum(data)) <= 1e-6
