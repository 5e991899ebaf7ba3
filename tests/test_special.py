"""Special-function checks against the quadrature and series oracles."""

import csv
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypremium import (DomainError, bessel_k0e, bessel_k1, bessel_k1e, log_bessel_k1,
                         std_normal_cdf)

from oracles import bessel_kn_quadrature, log_bessel_k1_quadrature, std_normal_cdf_series

ORACLE_CSV = Path(__file__).parent / "data" / "bessel_k1_oracle.csv"


def load_oracle():
    with open(ORACLE_CSV, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    x = np.array([float(r["x"]) for r in rows])
    k1 = np.array([float(r["k1"]) for r in rows])
    return x, k1


class TestBesselK1:
    def test_spec_values(self):
        assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-14)
        assert bessel_k1(10.0) == pytest.approx(1.8648773453825585e-5, rel=1e-13)

    def test_against_frozen_quadrature_oracle(self):
        x, truth = load_oracle()
        rel = np.abs(bessel_k1(x) - truth) / truth
        assert rel.max() < 1e-10

    def test_frozen_oracle_matches_live_quadrature(self):
        # Spot-check that the frozen table really is the quadrature oracle.
        x, truth = load_oracle()
        for i in range(0, x.size, 125):
            live = bessel_kn_quadrature(1, float(x[i]), dps=30)
            assert abs(float(live) - truth[i]) <= 1e-15 * truth[i]

    def test_asymptotic_form(self):
        # K1(x) e^x sqrt(x) -> sqrt(pi/2); evaluate via the scaled function
        # so no overflow enters the check.
        target = math.sqrt(math.pi / 2.0)
        for x, tol in ((1e4, 1e-4), (1e6, 1e-6)):
            assert bessel_k1e(x) * math.sqrt(x) == pytest.approx(target, rel=tol)

    def test_underflow_to_zero_far_right(self):
        assert bessel_k1(800.0) >= 0.0
        assert bessel_k1(50000.0) == 0.0

    @given(st.floats(min_value=1e-6, max_value=700.0),
           st.floats(min_value=1e-6, max_value=700.0))
    @settings(max_examples=200, deadline=None)
    def test_positive_and_strictly_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        va, vb = bessel_k1(lo), bessel_k1(hi)
        assert va > 0.0
        if hi > lo * (1.0 + 1e-12):
            assert va > vb

    def test_recurrence_k2_equals_k0_plus_2_over_x_k1(self):
        for x in (0.05, 0.3, 1.0, 2.0, 5.0, 25.0, 120.0):
            k0 = float(bessel_kn_quadrature(0, x))
            k2 = float(bessel_kn_quadrature(2, x))
            assert k2 == pytest.approx(k0 + (2.0 / x) * bessel_k1(x), rel=1e-8)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            bessel_k1(bad)


class TestLogBesselK1:
    def test_matches_log_of_linear_value(self):
        x = np.logspace(-1, np.log10(500.0), 300)
        rel = np.abs(np.exp(log_bessel_k1(x)) - bessel_k1(x)) / bessel_k1(x)
        assert rel.max() < 1e-9

    def test_value_at_one(self):
        assert log_bessel_k1(1.0) == pytest.approx(math.log(0.6019072301972346),
                                                   rel=1e-12)

    def test_large_argument_asymptotic_oracle(self):
        # -x + 0.5 ln(pi/(2x)) + ln(1 + 3/(8x) + ...) via scaled quadrature.
        for x in (1000.0, 1e5, 1e6):
            truth = log_bessel_k1_quadrature(x)
            assert log_bessel_k1(x) == pytest.approx(truth, rel=1e-9)

    def test_no_underflow_up_to_1e6(self):
        vals = log_bessel_k1(np.array([1e3, 1e4, 1e5, 1e6]))
        assert np.all(np.isfinite(vals))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_bessel_k1(-2.0)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_spec_value(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-14)

    def test_against_erf_series_oracle(self):
        for x in (-5.0, -1.3, -0.2, 0.7, 2.4, 4.8):
            assert std_normal_cdf(x) == pytest.approx(std_normal_cdf_series(x),
                                                      abs=1e-12)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_complement_identity(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_array_and_scalar_agree(self):
        xs = np.array([-2.0, 0.0, 1.5])
        arr = std_normal_cdf(xs)
        assert arr == pytest.approx([std_normal_cdf(float(v)) for v in xs], abs=1e-15)

    def test_scalar_and_array_equal_exactly(self):
        xs = np.linspace(-40.0, 40.0, 1601)
        arr = std_normal_cdf(xs)
        scalars = [std_normal_cdf(float(v)) for v in xs]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(arr, scalars)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            std_normal_cdf(math.nan)
        with pytest.raises(DomainError):
            std_normal_cdf(np.array([0.0, math.nan, 1.0]))


class TestBesselK0e:
    @pytest.mark.parametrize("x", [0.05, 1.0, 7.5, 120.0, 900.0])
    def test_against_quadrature(self, x):
        truth = float(bessel_kn_quadrature(0, x, dps=30) * mpmath.exp(x))
        assert bessel_k0e(x) == pytest.approx(truth, rel=1e-13)

    def test_array_in_array_out(self):
        x = np.array([0.5, 2.0, 40.0])
        out = bessel_k0e(x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        assert isinstance(bessel_k0e(2.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            bessel_k0e(bad)
