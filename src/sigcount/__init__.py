"""Signal-count estimation from sample covariance eigenvalues.

The package bundles three detectors (a random-matrix AIC variant plus the
classical information-theoretic AIC and MDL rules), the asymptotic theory
needed to predict when they succeed, and a seeded Monte Carlo harness.
"""

from .asymptotics import (
    MomentCLT,
    SpikedPrediction,
    bulk_edge,
    clt_statistics,
    detection_threshold,
    effective_num_signals,
    identifiability_check,
    moment_clt,
    q_matrix,
    spiked_limit,
    two_source_eigenvalues,
)
from .core import (
    CLAMP_RTOL,
    VALID_BETAS,
    ConvergenceFailure,
    DetectionResult,
    DomainError,
    EstimatorId,
    NegativeEigenvalue,
    NonFiniteInput,
    SampleSpectrum,
    ScenarioSpec,
    UnsupportedField,
    validate_spectrum,
)
from .covariance import (
    HermitianMatrix,
    hermitian_eigenvalues,
    sample_covariance,
    snapshot_spectrum,
)
from .estimators import (
    ESTIMATORS,
    estimate_new,
    estimate_wk_aic,
    estimate_wk_mdl,
    window_statistics,
)
from .montecarlo import (
    CltCheckReport,
    ExperimentPlan,
    TrialSummary,
    detection_probability,
    run_clt_check,
    run_experiment,
)
from .snapshots import (
    SeedPolicy,
    SnapshotMatrix,
    generate_snapshots,
    standard_gaussian_stream,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "NonFiniteInput",
    "NegativeEigenvalue",
    "UnsupportedField",
    "ConvergenceFailure",
    "DomainError",
    "VALID_BETAS",
    "CLAMP_RTOL",
    "EstimatorId",
    "ScenarioSpec",
    "SampleSpectrum",
    "DetectionResult",
    "validate_spectrum",
    # snapshots
    "SeedPolicy",
    "SnapshotMatrix",
    "standard_gaussian_stream",
    "generate_snapshots",
    # covariance
    "HermitianMatrix",
    "sample_covariance",
    "hermitian_eigenvalues",
    "snapshot_spectrum",
    # estimators
    "window_statistics",
    "estimate_wk_aic",
    "estimate_wk_mdl",
    "estimate_new",
    "ESTIMATORS",
    # asymptotics
    "MomentCLT",
    "SpikedPrediction",
    "q_matrix",
    "clt_statistics",
    "moment_clt",
    "spiked_limit",
    "detection_threshold",
    "bulk_edge",
    "effective_num_signals",
    "two_source_eigenvalues",
    "identifiability_check",
    # monte carlo
    "ExperimentPlan",
    "TrialSummary",
    "run_experiment",
    "detection_probability",
    "CltCheckReport",
    "run_clt_check",
]
