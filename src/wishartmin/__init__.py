"""Smallest-eigenvalue distributions of correlated Wishart random matrices.

Exact finite-size gap probability and density for real (beta=1) and complex
(beta=2) Gaussian Wishart ensembles with arbitrary population spectra, their
universal hard-edge limit, a reproducible Monte Carlo sampler of the
ensemble, and goodness-of-fit machinery tying the two together.
"""

from .exactlaw import (
    ExactLaw,
    KernelPolynomial,
    build_q_polynomials,
    gap_probability,
    pmin_density,
    pmin_density_detailed,
    q_prefactor,
)
from .linalg import (
    SignedLogMatrix,
    gram,
    logdet_lu,
    smallest_singular_value,
    sqrt_det_antisymmetric,
)
from .microlaw import (
    MicroConfig,
    l_kernel,
    make_micro_config,
    micro_gap,
    micro_pmin,
    micro_pmin_detailed,
    micro_rescale,
    micro_unscale,
)
from .numerics import (
    SignedLog,
    adaptive_quadrature,
    bessel_i,
    log_factorial,
    signedlog_add,
    signedlog_mul,
)
from .sampler import (
    RngStream,
    SampleBatch,
    gaussian_pair,
    sample_batch,
    sample_wishart,
    spectrum_hash,
)
from .spectra import (
    EmpiricalSpectrum,
    EnsembleConfig,
    elementary_symmetric,
    eta_scale,
    inverse_trace_half_beta,
    load_spectrum,
    make_config,
    parse_spectrum,
)
from .stats import Histogram, KsReport, build_histogram, derivative_check, ks_statistic

__version__ = "0.1.0"

__all__ = [
    "EmpiricalSpectrum",
    "EnsembleConfig",
    "ExactLaw",
    "Histogram",
    "KernelPolynomial",
    "KsReport",
    "MicroConfig",
    "RngStream",
    "SampleBatch",
    "SignedLog",
    "SignedLogMatrix",
    "adaptive_quadrature",
    "bessel_i",
    "build_histogram",
    "build_q_polynomials",
    "derivative_check",
    "elementary_symmetric",
    "eta_scale",
    "gap_probability",
    "gaussian_pair",
    "gram",
    "inverse_trace_half_beta",
    "ks_statistic",
    "l_kernel",
    "load_spectrum",
    "log_factorial",
    "logdet_lu",
    "make_config",
    "make_micro_config",
    "micro_gap",
    "micro_pmin",
    "micro_pmin_detailed",
    "micro_rescale",
    "micro_unscale",
    "parse_spectrum",
    "pmin_density",
    "pmin_density_detailed",
    "q_prefactor",
    "sample_batch",
    "sample_wishart",
    "signedlog_add",
    "signedlog_mul",
    "smallest_singular_value",
    "spectrum_hash",
    "sqrt_det_antisymmetric",
]
