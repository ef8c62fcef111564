"""Belief-state transmission scheduling for remote estimation over a
two-mode hidden Markov channel.

Pieces: Kalman steady state and holding-time costs (lti_estimation), the
TP2 check of kernels (stochastic_orders), channel models (channel),
outcome-folded kernels and their order properties (folding), the belief-grid
solver with structural verification (belief_mdp), the optimal-stopping layer
(stopping), a closed-loop Monte Carlo simulator (sim), and a CLI (cli).

Each export and each submodule is imported on first access (PEP 562):
``import txsched`` imports none of the submodules, and loading a config
imports config, channel, lti_estimation and stochastic_orders only.
"""

import importlib

_EXPORTS = {
    "belief_mdp": ("ContractionReport", "Solution", "StageCost", "check_contraction",
                   "success_margin", "value_iterate", "verify_update_monotonicity",
                   "verify_value_monotonicity", "weight_profile"),
    "channel": ("ChannelModel", "check_mode_kernel_tp2", "make_gilbert_elliott",
                "make_persistent_failure"),
    "config": ("ConfigError", "OutputConfig", "RunConfig", "SimConfig", "SolverConfig",
               "load_config", "parse_config"),
    "folding": ("FoldEquivalenceReport", "FoldedTP2Report", "composite_kernel",
                "composite_kernel_folded", "folded_observation", "folded_outcome_prob",
                "unfolded_tp2_counterexample", "verify_fold_equivalence",
                "verify_folded_tp2"),
    "lti_estimation": ("ConvergenceError", "HoldingCostTable", "LtiSystem",
                       "SteadyStateCov", "holding_cost_table", "measurement_update",
                       "steady_state_covariance", "time_update"),
    "sim": ("FixedThresholdPolicy", "LatticePolicy", "SimStats", "never_stop", "run_batch",
            "splitmix64", "stop_immediately"),
    "stochastic_orders": ("CheckResult", "StructureViolationError", "ZeroLikelihoodError",
                          "is_tp2"),
    "stopping": ("StoppingProblem", "ThresholdFunction", "extract_threshold",
                 "solve_stopping", "verify_submodularity", "verify_threshold_monotone"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
