"""FFT density inversion against closed-form and sampler oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from levypremium import (
    GridError, GriddedDensity, InvalidParameterError, InversionGrid, Moments,
    cdf_function, default_grid, invert_chf, log_likelihood_from_grid, ncig_chf,
    ncig_moments, ncig_sample, nig_chf, nig_log_pdf, nig_moments, nig_pdf,
    quantile_function,
)
from levypremium.cli import REFERENCE_MODELS

REF_NIG = REFERENCE_MODELS["nig"]
REF_NCIG = REFERENCE_MODELS["ncig"]


def normal_chf(u):
    return np.exp(-0.5 * np.asarray(u, dtype=complex) ** 2)


def normal_pdf(x):
    return np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)


class TestInvertChf:
    def test_standard_normal_sup_norm(self):
        grid = InversionGrid(n_points=2 ** 14, x_min=-8.0, x_max=8.0)
        d = invert_chf(normal_chf, grid)
        err = np.abs(d.pdf_values - normal_pdf(grid.nodes))
        assert err.max() < 1e-8
        assert abs(d.total_mass - 1.0) < 1e-6

    def test_nig_reference_sup_norm(self):
        grid = default_grid(nig_moments(REF_NIG))
        d = invert_chf(lambda u: nig_chf(REF_NIG, u), grid)
        err = np.abs(d.pdf_values - nig_pdf(REF_NIG, grid.nodes))
        assert err.max() < 1e-6

    def test_ncig_reference_mass_and_ks(self):
        grid = default_grid(ncig_moments(REF_NCIG))
        d = invert_chf(lambda u: ncig_chf(REF_NCIG, u), grid)
        assert abs(d.total_mass - 1.0) <= 1e-4
        draws = np.sort(ncig_sample(REF_NCIG, 1_000_000, seed=17))
        cdf = cdf_function(d)(draws)
        n = draws.size
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert ks < 1.628 / math.sqrt(n)   # 1% asymptotic critical value

    @pytest.mark.parametrize("bounds", [(-2.0, 2.0), (-8.0, 0.0)])
    def test_support_too_narrow(self, bounds):
        grid = InversionGrid(n_points=2 ** 10, x_min=bounds[0], x_max=bounds[1])
        with pytest.raises(GridError, match="support too narrow"):
            invert_chf(normal_chf, grid)

    def test_chf_decay_too_slow(self):
        grid = InversionGrid(n_points=2 ** 10, x_min=-800.0, x_max=800.0)
        with pytest.raises(GridError, match="decay too slow"):
            invert_chf(normal_chf, grid)

    def test_cdf_monotone_and_capped(self):
        grid = InversionGrid(n_points=2 ** 12, x_min=-10.0, x_max=10.0)
        d = invert_chf(normal_chf, grid)
        assert np.all(np.diff(d.cdf_values) >= 0.0)
        assert d.cdf_values[-1] <= 1.0
        assert d.cdf_values[-1] >= 1.0 - 1e-4
        assert d.clipped_mass >= 0.0

    def test_refinement_error_non_increasing(self):
        # NIG reference parameters: chf truncation dominates at the coarsest
        # grid and falls to the roundoff floor as n doubles.
        m = nig_moments(REF_NIG)
        errors = []
        for k in (11, 12, 13, 14):
            grid = default_grid(m, n_points=2 ** k)
            d = invert_chf(lambda u: nig_chf(REF_NIG, u), grid)
            errors.append(np.abs(d.pdf_values - nig_pdf(REF_NIG, grid.nodes)).max())
        floor = 1e-10
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert fine <= max(coarse, floor)
        assert errors[-1] < 1e-6


class TestLogLikelihoodFromGrid:
    def test_exact_at_grid_nodes(self):
        grid = InversionGrid(n_points=2 ** 12, x_min=-8.0, x_max=8.0)
        d = invert_chf(normal_chf, grid)
        nodes = grid.nodes[100:200]
        expected = float(np.sum(np.log(d.pdf_values[100:200])))
        assert log_likelihood_from_grid(d, nodes) == pytest.approx(expected, rel=1e-14)

    def test_normal_per_point_agreement(self):
        grid = InversionGrid(n_points=2 ** 14, x_min=-6.0, x_max=6.0)
        d = invert_chf(normal_chf, grid)
        rng = np.random.default_rng(3)
        data = rng.normal(size=1000)
        for x in data[:50]:
            got = log_likelihood_from_grid(d, [x])
            assert got == pytest.approx(math.log(normal_pdf(x)), abs=1e-6)
        total = log_likelihood_from_grid(d, data)
        assert total == pytest.approx(float(np.sum(np.log(normal_pdf(data)))),
                                      abs=1e-6 * data.size)

    def test_nig_per_point_agreement(self):
        # The reference NIG has a quasi-cusp at the mode (log-curvature
        # ~ 1/delta^2), so the 1e-5 per-point target needs the finer grid.
        grid = default_grid(nig_moments(REF_NIG), n_points=2 ** 16)
        d = invert_chf(lambda u: nig_chf(REF_NIG, u), grid)
        from levypremium import nig_sample
        data = nig_sample(REF_NIG, 1000, seed=5)
        interp = np.array([log_likelihood_from_grid(d, [x]) for x in data])
        exact = nig_log_pdf(REF_NIG, data)
        assert np.max(np.abs(interp - exact)) <= 1e-5

    def test_datum_outside_grid(self):
        grid = InversionGrid(n_points=2 ** 10, x_min=-8.0, x_max=8.0)
        d = invert_chf(normal_chf, grid)
        with pytest.raises(GridError, match="datum outside grid.*9.5"):
            log_likelihood_from_grid(d, [0.0, 9.5])


class TestDefaultGrid:
    def test_normal_summary_spans_12_sigma(self):
        g = default_grid(Moments(mean=0.0, variance=1.0, skewness=0.0,
                                 excess_kurtosis=0.0))
        assert g.x_min <= -12.0 and g.x_max >= 12.0
        assert g.n_points == 2 ** 14

    def test_covers_nig_reference_mass(self):
        g = default_grid(nig_moments(REF_NIG))
        mass, _ = integrate.quad(lambda x: nig_pdf(REF_NIG, x), g.x_min, g.x_max,
                                 points=[nig_moments(REF_NIG).mean], limit=400)
        assert mass >= 1.0 - 1e-10

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            InversionGrid(n_points=3000, x_min=-1.0, x_max=1.0)
        with pytest.raises(InvalidParameterError):
            InversionGrid(n_points=2 ** 10, x_min=1.0, x_max=-1.0)
        with pytest.raises(InvalidParameterError):
            InversionGrid(n_points=2 ** 8, x_min=-1.0, x_max=1.0)


class TestCdfQuantile:
    def test_roundtrip(self):
        grid = InversionGrid(n_points=2 ** 13, x_min=-10.0, x_max=10.0)
        d = invert_chf(normal_chf, grid)
        quantile = quantile_function(d)
        cdf = cdf_function(d)
        for p in (0.05, 0.25, 0.5, 0.9, 0.99):
            x = quantile(p)
            assert cdf(x) == pytest.approx(p, abs=1e-6)

    def test_quantile_domain(self):
        grid = InversionGrid(n_points=2 ** 10, x_min=-10.0, x_max=10.0)
        d = invert_chf(normal_chf, grid)
        with pytest.raises(GridError):
            quantile_function(d)(1.5)


def stepped_density():
    """A hand-made gridded CDF on [0, 1): flat at 0 up to node 100, flat at
    0.5 from node 400 to 600 and flat at 1 - 5e-5 from node 900 on."""
    grid = InversionGrid(n_points=2 ** 10, x_min=0.0, x_max=1.0)
    cdf = np.interp(np.arange(grid.n_points), [0, 100, 400, 600, 900, 1023],
                    [0.0, 0.0, 0.5, 0.5, 1.0 - 5e-5, 1.0 - 5e-5])
    return GriddedDensity(grid=grid, pdf_values=np.gradient(cdf, grid.spacing),
                          cdf_values=cdf)


@pytest.fixture(scope="module", params=["nig", "ncig"])
def reference_density(request):
    if request.param == "nig":
        return invert_chf(lambda u: nig_chf(REF_NIG, u), default_grid(nig_moments(REF_NIG)))
    return invert_chf(lambda u: ncig_chf(REF_NCIG, u), default_grid(ncig_moments(REF_NCIG)))


def bisect_quantile(d, p, steps=60):
    """inf{x : cdf(x) >= p} by bisection of cdf_function on the grid span."""
    cdf = cdf_function(d)
    lo = np.full_like(p, d.grid.x_min)
    hi = np.full_like(p, d.grid.nodes[-1])
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestQuantileClosedForm:
    def test_zero_gives_x_min(self, reference_density):
        d = reference_density
        assert quantile_function(d)(0.0) == d.grid.x_min
        assert quantile_function(stepped_density())(0.0) == 0.0

    def test_above_last_cdf_value_gives_last_node(self):
        d = stepped_density()
        quantile = quantile_function(d)
        for p in (1.0 - 4e-5, 1.0):
            assert quantile(p) == d.grid.nodes[-1]

    def test_flat_step_gives_its_left_end(self):
        d = stepped_density()
        quantile = quantile_function(d)
        assert quantile(0.5) == d.grid.nodes[400]
        assert quantile(1.0 - 5e-5) == d.grid.nodes[900]

    def test_cdf_inverts_on_rising_steps(self, reference_density):
        d = reference_density
        cdf = d.cdf_values
        rising = np.flatnonzero(np.diff(cdf) > 0.0)
        j = np.random.default_rng(11).choice(rising, size=2000)
        w = np.random.default_rng(12).uniform(size=j.size)
        p = cdf[j] + w * (cdf[j + 1] - cdf[j])
        assert np.max(np.abs(cdf_function(d)(quantile_function(d)(p)) - p)) <= 1e-15

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_matches_bisection_at_qq_probabilities(self, reference_density, n):
        d = reference_density
        probs = (np.arange(1, n + 1) - 0.5) / n
        span = d.grid.x_max - d.grid.x_min
        gap = np.abs(quantile_function(d)(probs) - bisect_quantile(d, probs))
        assert gap.max() <= 1e-12 * span

    def test_scalar_in_float_out(self, reference_density):
        quantile = quantile_function(reference_density)
        assert type(quantile(0.3)) is float
        assert type(quantile(np.float64(0.3))) is float
        assert quantile(np.array([0.3, 0.7])).shape == (2,)
