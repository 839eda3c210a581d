"""Signal-count estimation from sample covariance eigenvalues.

The package bundles three detectors (a random-matrix AIC variant plus the
classical information-theoretic AIC and MDL rules), the asymptotic theory
needed to predict when they succeed, and a seeded Monte Carlo harness.
"""

from . import asymptotics, core, covariance, estimators, montecarlo, snapshots
from .asymptotics import *
from .core import *
from .covariance import *
from .estimators import *
from .montecarlo import *
from .snapshots import *

__version__ = "0.1.0"

# Each public name is listed once, in its module's __all__.
__all__ = ["__version__"] + [
    name
    for module in (core, snapshots, covariance, estimators, asymptotics, montecarlo)
    for name in module.__all__
]
