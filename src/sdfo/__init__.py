"""Stochastic derivative-free optimization with tail-bound oracle auditing.

The package bundles two noisy-objective optimizers (direct search and a
trust-region method with an exact subproblem solver), oracle constructions
whose sample-averaging counts provably satisfy the tail-bound conditions
the optimizers assume, a statistical auditor that verifies those
conditions empirically, and a CLI harness emitting reproducible CSV
traces.
"""

from .diagnostics import (
    RunSummary,
    UnsupportedProblemError,
    alignment_profile,
    stationarity_proxy,
    summarize,
)
from .direct_search import (
    DirectSearchConfig,
    ds_run,
)
from .directions import (
    DirectionGenerator,
    FixedCycle,
    QuasiRandomSphere,
    UniformRandomSphere,
    halton_point,
)
from .oracle import (
    EstimatePair,
    NoiseModel,
    StochasticOracle,
    estimate_pair,
    fixed_sample_policy,
    moment_oracle_samples,
    moment_sample_policy,
    required_samples,
    sample_policy,
    variance_sample_policy,
)
from .problems import TestProblem, get_problem, list_problems
from .subproblem import (
    QuadraticModel,
    SubproblemSolution,
    brute_force_min,
    kkt_residuals,
    model_value,
    solve_exact,
)
from .tail_audit import (
    AuditReport,
    ExceedanceCell,
    MomentCell,
    TailAuditSpec,
    audit_a1,
    audit_conditions,
    sampler_estimator,
)
from .trace import IterationRecord, read_trace_csv, write_trace_csv
from .trust_region import (
    RegressionClipped,
    ThetaVerdict,
    TrustRegionConfig,
    TrustRegionState,
    ZeroHessian,
    tr_run,
    validate_theta_tr,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "DirectSearchConfig",
    "DirectionGenerator",
    "EstimatePair",
    "ExceedanceCell",
    "FixedCycle",
    "IterationRecord",
    "MomentCell",
    "NoiseModel",
    "QuadraticModel",
    "QuasiRandomSphere",
    "RegressionClipped",
    "RunSummary",
    "StochasticOracle",
    "SubproblemSolution",
    "TailAuditSpec",
    "TestProblem",
    "ThetaVerdict",
    "TrustRegionConfig",
    "TrustRegionState",
    "UniformRandomSphere",
    "UnsupportedProblemError",
    "ZeroHessian",
    "alignment_profile",
    "audit_a1",
    "audit_conditions",
    "brute_force_min",
    "ds_run",
    "estimate_pair",
    "fixed_sample_policy",
    "get_problem",
    "halton_point",
    "kkt_residuals",
    "list_problems",
    "model_value",
    "moment_oracle_samples",
    "moment_sample_policy",
    "read_trace_csv",
    "required_samples",
    "sample_policy",
    "sampler_estimator",
    "solve_exact",
    "stationarity_proxy",
    "summarize",
    "tr_run",
    "validate_theta_tr",
    "variance_sample_policy",
    "write_trace_csv",
]
