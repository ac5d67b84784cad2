"""rmtlab: a numerical laboratory for random matrix concentration phenomena.

Subpackages follow the pipeline: ``ensembles`` (seeded sampling and
truncation), ``spectral`` (spectra, limiting densities, Stieltjes
transforms), ``concentration`` (projection/quadratic-form statistics and
tail envelopes), ``locallaw`` (windowed count laws and threshold scans),
``delocalization`` (eigenvector infinity norms and minor identities),
``covariance`` (singular-value analogs), ``seeds`` (seed derivation and
the trial engine), ``harness`` (experiment orchestration and outputs) and
``cli`` (the command-line front end).
"""

__version__ = "0.1.0"

from . import concentration, covariance, delocalization, ensembles, harness, locallaw, spectral
from .ensembles import DistSpec
from .seeds import derive_seed

__all__ = [
    "DistSpec",
    "__version__",
    "concentration",
    "covariance",
    "delocalization",
    "derive_seed",
    "ensembles",
    "harness",
    "locallaw",
    "spectral",
]
