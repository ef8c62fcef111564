"""Optimal stopping over the belief lattice: continue (action 0) pays the
holding cost and keeps transmitting; stop (action 1) pays a one-time terminal
cost and ends the process.

The stop branch of the Q-function is pinned to the stopping cost on every
sweep (stopping has no continuation), so the converged stop values carry no
drift. The stop region at each holding time must be an upper belief interval;
its lower edge is the threshold, with ties counted as stop.
"""

from dataclasses import dataclass

import numpy as np

from .belief_mdp import (Solution, StageCost, _check_problem, _iterate, _over_actions,
                         _require_contraction)
from .channel import ChannelModel
from .config import SolverConfig
from .lti_estimation import HoldingCostTable
from .stochastic_orders import CheckResult, StructureViolationError


@dataclass(frozen=True)
class StoppingProblem:
    """Two-action stopping problem bound to a single-action channel.

    Continuation incurs no action fee; the channel's only action drives the
    transmissions while continuing.
    """

    channel: ChannelModel
    holding: HoldingCostTable
    cfg: SolverConfig
    c_stop: float

    def __post_init__(self):
        if self.channel.n_actions != 1:
            raise ValueError("stopping problems use a single-action channel "
                             "(the continue action)")

    def stage_cost_bundle(self) -> StageCost:
        return StageCost(holding=self.holding, action_costs=np.array([0.0]))


def solve_stopping(prob: StoppingProblem) -> Solution:
    """Value iteration for the stopping problem, from the solve on a 10 times
    coarser grid when that grid has at least 20 cells and from Q = 0
    otherwise.

    The continue branch is swept by the shared Bellman kernel with the
    continuation value min(Q_continue, c_stop), until the span bound (for a
    stable plant; the stop branch is pinned) certifies the error below
    cfg.vi_tol. Returns a two-action Solution whose stop slice equals c_stop
    exactly at every lattice point; the policy stops on ties, matching the
    threshold convention.
    """
    ch, cfg = prob.channel, prob.cfg
    cost = prob.stage_cost_bundle()
    _require_contraction(ch, cost.spectral_radius, cfg.weight_eps)
    _check_problem(ch, cost, cfg)
    Q, sweeps, history, certified, levels = _iterate(
        lambda Q: np.minimum(Q[:, :, 0], prob.c_stop), ch, cost, cfg,
        "stopping value iteration", pinned=True)
    Qc = Q[:, :, 0]
    Qfun = np.stack([Qc, np.full_like(Qc, prob.c_stop)], axis=2)
    policy = (Qfun[:, :, 1] <= Qfun[:, :, 0]).astype(np.int64)
    return Solution(Qfun=Qfun, V=_over_actions(np.minimum, Qfun), policy=policy,
                    belief_grid=cfg.belief_grid(), sweeps_used=sweeps,
                    final_residual=history[-1], residual_history=tuple(history),
                    certified_error=certified, coarse_levels=levels)


@dataclass(frozen=True)
class ThresholdFunction:
    """Per-holding-time stop threshold on the belief grid.

    b_th[tau] is the smallest grid belief at which stopping is optimal (ties
    stop); entries where stopping is never optimal carry NaN and are flagged
    in is_sentinel (a distinct encoding, since b = 1 can be a genuine
    threshold). Threshold precision equals the grid resolution.
    """

    b_th: np.ndarray
    is_sentinel: np.ndarray
    grid_resolution: float

    def __post_init__(self):
        b = np.asarray(self.b_th, dtype=float)
        m = np.asarray(self.is_sentinel, dtype=bool)
        if b.shape != m.shape or b.ndim != 1:
            raise ValueError("b_th and is_sentinel must be 1-D and aligned")
        b = b.copy()
        m = m.copy()
        b.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "b_th", b)
        object.__setattr__(self, "is_sentinel", m)

    @property
    def tau_max(self) -> int:
        return len(self.b_th) - 1

    def as_extended(self) -> np.ndarray:
        """Thresholds with sentinels mapped to +inf, for comparisons."""
        out = np.array(self.b_th)
        out[self.is_sentinel] = np.inf
        return out


def extract_threshold(sol: Solution) -> ThresholdFunction:
    """Lower edge of the stop region at each holding time.

    Raises StructureViolationError if the stop region {b : stop value <=
    continue value} is not an upper interval of the grid at some tau; that
    signals either a grid artifact or a failed model assumption.
    """
    if sol.n_actions != 2:
        raise ValueError("threshold extraction needs a two-action solution")
    n_tau = sol.tau_max + 1
    b_th = np.full(n_tau, np.nan)
    sentinel = np.ones(n_tau, dtype=bool)
    for tau in range(n_tau):
        stop = sol.Qfun[tau, :, 1] <= sol.Qfun[tau, :, 0]
        if not stop.any():
            continue
        first = int(np.argmax(stop))
        if not stop[first:].all():
            hole = first + int(np.argmin(stop[first:]))
            raise StructureViolationError(
                f"stop region at tau={tau} is not an upper interval: stop at "
                f"grid index {first} but continue at {hole}", tau=tau)
        b_th[tau] = sol.belief_grid[first]
        sentinel[tau] = False
    return ThresholdFunction(b_th=b_th, is_sentinel=sentinel,
                             grid_resolution=1.0 / sol.grid_n)


def verify_threshold_monotone(th: ThresholdFunction, tol: float = 0.0) -> CheckResult:
    """Thresholds must be nonincreasing in the holding time; sentinel entries
    count as +inf (stopping never optimal)."""
    ext = th.as_extended()
    for tau in range(len(ext) - 1):
        if ext[tau + 1] > ext[tau] + tol:
            return CheckResult(False, witness=(tau, float(ext[tau]), float(ext[tau + 1])),
                               value=float(ext[tau + 1] - ext[tau]))
    return CheckResult(True)


def verify_submodularity(sol: Solution, tol: float = 1e-8) -> CheckResult:
    """The stop advantage (stop value minus continue value) must be
    nonincreasing in both the holding time and the belief: the mechanism that
    makes the optimal policy a monotone threshold."""
    if sol.n_actions != 2:
        raise ValueError("submodularity check needs a two-action solution")
    D = sol.Qfun[:, :, 1] - sol.Qfun[:, :, 0]
    for axis, label in ((0, "tau"), (1, "b")):
        d = np.diff(D, axis=axis)
        if np.any(d > tol):
            ij = np.unravel_index(int(np.argmax(d)), d.shape)
            return CheckResult(False, witness=(label, int(ij[0]), int(ij[1])),
                               value=float(d[ij]))
    return CheckResult(True)
