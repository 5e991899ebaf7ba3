"""Heavy-tailed Lévy growth models (IG, NIG, doubly subordinated IG, NCIG),
estimation by maximum likelihood and empirical characteristic function, FFT
density inversion, goodness-of-fit tests, and equity-premium CRRA calibration.
"""

__version__ = "0.1.0"

from .errors import (CalibrationError, DataError, DomainError, GridError,
                     InvalidParameterError, LevyPremiumError)
from .models import (DoubleIgParams, IgParams, Moments, NcigParams, NigParams,
                     NigShape, NormalParams, double_ig_cumulants, double_ig_mgf_log,
                     double_ig_sample, ig_laplace_exponent, ig_pdf, ig_sample,
                     ncig_chf, ncig_cumulants, ncig_levy_exponent, ncig_mgf_log,
                     ncig_moments, ncig_sample, nig_chf, nig_log_pdf, nig_mgf_log,
                     nig_moments, nig_pdf, nig_sample, nig_shape_log_pdf)
from .special import bessel_k0e, bessel_k1, bessel_k1e, std_normal_cdf
from .inversion import (GriddedDensity, InversionGrid, cdf_function, default_grid,
                        invert_chf, log_likelihood_from_grid, quantile_function)
from .estimation import (FitResult, bootstrap_se, default_ecf_config, ecf_objective,
                         fit_ncig_ecf, fit_nig_mle, fit_normal_mle, moment_init_ncig)
from .gof import (PitSample, TestReport, frosini_test, ks_test_uniform,
                  neyman_smooth_test, pit, qq_pp_data)
from .premium import (PremiumResult, calibrate_crra, feasible_crra_max,
                      log_premium, premium_lognormal, premium_ncig, premium_nig,
                      ratio_r)
from .data_io import (GrowthSeries, SeriesRecord, load_csv, log_growth,
                      resample_monthly_locf, write_series_csv)
