"""Test oracles that nothing in ``txsched`` calls: the Bellman operator on a
whole Q lattice and the solver's weighted sup-norm, both built from
``txsched.belief_mdp``'s own kernel and weights, and a replay of a simulated
trace's beliefs through the scalar Bayes update.
"""

import numpy as np

from txsched.belief_mdp import (SolverConfig, StageCost, _bellman, _check_problem,
                                _over_actions, _stencil, _weighted_sup, belief_update,
                                weight_profile)
from txsched.channel import ChannelModel
from txsched.sim import SimTrace


def weighted_norm(f, spectral_radius: float, eps: float) -> float:
    """Sup over the lattice of |f| / s(tau); axis 0 of f indexes tau."""
    f = np.asarray(f, dtype=float)
    return _weighted_sup(np.abs(f), weight_profile(spectral_radius, eps, f.shape[0] - 1))


def bellman_apply(ch: ChannelModel, cost: StageCost, cfg: SolverConfig,
                  Q: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator on the (tau, grid, action)
    lattice.

    The observation sum runs over the two-point support; the continuation
    value at the updated belief is read from min over actions of Q by
    piecewise-linear interpolation, and a failure at tau = tau_max is clamped
    back to tau_max. Pure Jacobi update: every output entry depends only on
    the input Q.
    """
    Q = np.asarray(Q, dtype=float)
    expected = (cfg.tau_max + 1, cfg.grid_n + 1, cost.n_actions)
    if Q.shape != expected:
        raise ValueError(f"Q must have shape {expected}, got {Q.shape}")
    _check_problem(ch, cost, cfg)
    return _bellman(_over_actions(np.minimum, Q), _stencil(ch, cfg.belief_grid()),
                    cost.holding.costs, cost.action_costs, cfg.gamma)


def validate_belief_consistency(trace: SimTrace, ch: ChannelModel) -> bool:
    """Recompute the belief sequence from (tau, action, outcome) and compare
    bitwise against the logged beliefs."""
    b = ch.initial_belief
    for i in range(len(trace)):
        if trace.belief[i] != b:
            return False
        if trace.action[i] == 1:
            return True
        y = 0 if trace.success[i] == 1 else int(trace.tau[i]) + 1
        b = belief_update(ch, int(trace.tau[i]), b, y, 0)
    return True
