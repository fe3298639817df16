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

The root exports what a run needs; everything else is imported from its
submodule (``chanrate.policies``, ``chanrate.environments`` and so on).
"""

from .harness import ExperimentConfig, PolicySpec, accounting_check, emit_outputs, run_experiment
from .model import RateSet, demo_model

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "PolicySpec",
    "RateSet",
    "accounting_check",
    "demo_model",
    "emit_outputs",
    "run_experiment",
    "__version__",
]
