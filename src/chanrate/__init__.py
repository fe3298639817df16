"""Bandit-driven joint channel and rate selection for lossy links.

The package models a transmitter that must pick, per packet, a channel and
a modulation rate; a packet at rate ``r`` succeeds with an unknown
channel-and-rate-dependent probability and delivers reward ``r`` when it
does.  It provides the decision policies (a structure-blind KL-UCB over
all pairs, a per-channel leader policy, and a graph-guided variant that
only races the current leader against its neighborhood), the supporting
confidence-bound machinery, structural diagnostics, closed-form
performance constants, reproducible simulation environments, and an
experiment harness with a CLI.
"""

from .bounds import (
    BoundOutcome,
    BoundReport,
    BoundTerm,
    CrsTConstants,
    c_GU,
    c_I,
    c_U_prime,
    compute_bound_report,
    crst_constants,
)
from .environments import (
    DriftEnvironment,
    Environment,
    OutcomeTape,
    StationaryEnvironment,
    SyntheticDriftSpec,
    TraceEnvironment,
    TraceTable,
    accelerate,
    drift_to_trace,
)
from .graph import (
    GraphicalUnimodalityReport,
    NeighborhoodGraph,
    UnimodalityReport,
    build_graph,
    check_graphically_unimodal,
    check_monotone,
    check_unimodal,
)
from .harness import (
    AccountingReport,
    ExperimentConfig,
    ExperimentResult,
    PolicyAccounting,
    PolicyRunResult,
    PolicySpec,
    accounting_check,
    default_checkpoints,
    emit_outputs,
    run_experiment,
)
from .klstats import (
    allowance,
    kl_bernoulli,
    lcb_probability,
    ucb_probability,
)
from .model import (
    DecisionPair,
    DegenerateOptimumError,
    LinkModel,
    OptimaSummary,
    RateSet,
    compute_optima,
    demo_model,
    flat_to_pair,
    load_rates_json,
    load_theta_csv,
    pair_to_flat,
    save_theta_csv,
    throughput_matrix,
)
from .policies import (
    BasePolicy,
    CrsTPolicy,
    KlUcbPolicy,
    KlUcbUPolicy,
    build_policy,
)

__version__ = "0.1.0"

__all__ = [
    "AccountingReport",
    "BasePolicy",
    "BoundOutcome",
    "BoundReport",
    "BoundTerm",
    "CrsTConstants",
    "CrsTPolicy",
    "DecisionPair",
    "DegenerateOptimumError",
    "DriftEnvironment",
    "Environment",
    "ExperimentConfig",
    "ExperimentResult",
    "GraphicalUnimodalityReport",
    "KlUcbPolicy",
    "KlUcbUPolicy",
    "LinkModel",
    "NeighborhoodGraph",
    "OptimaSummary",
    "OutcomeTape",
    "PolicyAccounting",
    "PolicyRunResult",
    "PolicySpec",
    "RateSet",
    "StationaryEnvironment",
    "SyntheticDriftSpec",
    "TraceEnvironment",
    "TraceTable",
    "UnimodalityReport",
    "accelerate",
    "accounting_check",
    "allowance",
    "build_graph",
    "build_policy",
    "c_GU",
    "c_I",
    "c_U_prime",
    "check_graphically_unimodal",
    "check_monotone",
    "check_unimodal",
    "compute_bound_report",
    "compute_optima",
    "crst_constants",
    "default_checkpoints",
    "demo_model",
    "drift_to_trace",
    "emit_outputs",
    "flat_to_pair",
    "kl_bernoulli",
    "lcb_probability",
    "load_rates_json",
    "load_theta_csv",
    "pair_to_flat",
    "run_experiment",
    "save_theta_csv",
    "throughput_matrix",
    "ucb_probability",
    "__version__",
]
