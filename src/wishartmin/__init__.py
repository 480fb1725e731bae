"""Smallest-eigenvalue distributions of correlated Wishart random matrices.

Exact finite-size gap probability and density for real (beta=1) and complex
(beta=2) Gaussian Wishart ensembles with arbitrary population spectra, their
universal hard-edge limit, a reproducible Monte Carlo sampler of the
ensemble, and goodness-of-fit machinery tying the two together.  The
package exports what the README's quick start imports; everything else
lives in the submodules.
"""

from .exactlaw import ExactLaw
from .microlaw import make_micro_config, micro_gap, micro_pmin
from .sampler import sample_batch
from .spectra import EmpiricalSpectrum, make_config
from .stats import ks_statistic

__version__ = "0.1.0"

__all__ = [
    "EmpiricalSpectrum",
    "make_config",
    "ExactLaw",
    "make_micro_config",
    "micro_gap",
    "micro_pmin",
    "sample_batch",
    "ks_statistic",
]
