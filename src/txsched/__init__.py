"""Belief-state transmission scheduling for remote estimation over a
two-mode hidden Markov channel.

Pieces: Kalman steady state and holding-time costs (lti_estimation), the
TP2 check of kernels (stochastic_orders), channel models (channel),
outcome-folded kernels and their order properties (folding), the belief-grid
solver with structural verification (belief_mdp), the optimal-stopping layer
(stopping), a closed-loop Monte Carlo simulator (sim), and a CLI (cli).
"""

from .belief_mdp import (ContractionReport, SolverConfig, Solution, StageCost,
                         check_contraction, success_margin, value_iterate,
                         verify_update_monotonicity, verify_value_monotonicity,
                         weight_profile)
from .channel import (ChannelModel, check_mode_kernel_tp2, make_gilbert_elliott,
                      make_persistent_failure)
from .config import ConfigError, RunConfig, load_config, parse_config
from .folding import (FoldEquivalenceReport, FoldedTP2Report, composite_kernel,
                      composite_kernel_folded, folded_observation,
                      folded_outcome_prob, unfolded_tp2_counterexample,
                      verify_fold_equivalence, verify_folded_tp2)
from .lti_estimation import (ConvergenceError, HoldingCostTable, LtiSystem,
                             SteadyStateCov, holding_cost_table, measurement_update,
                             steady_state_covariance, time_update)
from .sim import (FixedThresholdPolicy, LatticePolicy, SimConfig, SimStats,
                  never_stop, run_batch, splitmix64, stop_immediately)
from .stochastic_orders import CheckResult, ZeroLikelihoodError, is_tp2
from .stopping import (StoppingProblem, StructureViolationError,
                       ThresholdFunction, extract_threshold, solve_stopping,
                       verify_submodularity, verify_threshold_monotone)

__version__ = "0.1.0"
