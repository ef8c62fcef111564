"""Optimal stopping over the belief lattice: continue (action 0) pays the
holding cost and keeps transmitting; stop (action 1) pays a one-time terminal
cost c_stop and ends the process.

It is the belief MDP with one more action, stop, whose Q column is pinned to
c_stop (stopping has no continuation), on belief_mdp's one solve path, so the
converged stop values carry no drift. The stop region at each holding time
must be an upper belief interval; its lower edge is the threshold, ties stop.
Both verdicts are array passes over the whole (tau, belief) lattice: the stop
region is one boolean array, a hole is a stop -> continue step along its
belief axis, and monotonicity compares the thresholds shifted by one tau.
"""

from dataclasses import dataclass

import numpy as np

from .belief_mdp import Solution, StageCost, _solve
from .channel import ChannelModel
from .config import SolverConfig
from .lti_estimation import HoldingCostTable, _finite, _frozen
from .stochastic_orders import CheckResult, StructureViolationError


@dataclass(frozen=True)
class StoppingProblem:
    """Two-action stopping problem bound to a single-action channel.

    Continuation incurs no action fee; the channel's only action drives the
    transmissions while continuing. c_stop must be a finite number.
    """

    channel: ChannelModel
    holding: HoldingCostTable
    cfg: SolverConfig
    c_stop: float

    def __post_init__(self):
        if self.channel.n_actions != 1:
            raise ValueError("stopping problems use a single-action channel "
                             "(the continue action)")
        c_stop = _finite(self.c_stop, "c_stop")
        if c_stop.ndim != 0:
            raise ValueError(f"c_stop must be a number, got shape {c_stop.shape}")
        object.__setattr__(self, "c_stop", float(c_stop))


def solve_stopping(prob: StoppingProblem) -> Solution:
    """Value iteration for the stopping problem, as in value_iterate: continue
    at no fee, or stop at c_stop. The Solution's stop slice equals c_stop
    exactly at every lattice point, and its policy stops on ties, matching
    the threshold convention."""
    cost = StageCost(holding=prob.holding, action_costs=np.array([0.0]))
    return _solve(prob.channel, cost, prob.cfg, prob.c_stop)


@dataclass(frozen=True)
class ThresholdFunction:
    """Per-holding-time stop threshold on the belief grid.

    b_th[tau] is the smallest grid belief at which stopping is optimal (ties
    stop); a row where stopping is never optimal carries NaN, the sentinel,
    which is_sentinel reads (a distinct encoding, since b = 1 can be a
    genuine threshold). Threshold precision equals the grid resolution.
    """

    b_th: np.ndarray
    grid_resolution: float

    def __post_init__(self):
        b = _frozen(self.b_th, float)
        if b.ndim != 1:
            raise ValueError(f"b_th must be 1-D, got shape {b.shape}")
        object.__setattr__(self, "b_th", b)

    @property
    def tau_max(self) -> int:
        return len(self.b_th) - 1

    @property
    def is_sentinel(self) -> np.ndarray:
        return np.isnan(self.b_th)

    def as_extended(self) -> np.ndarray:
        """Thresholds with sentinels mapped to +inf, for comparisons."""
        return np.where(self.is_sentinel, np.inf, self.b_th)


def extract_threshold(sol: Solution) -> ThresholdFunction:
    """Lower edge of the stop region at each holding time.

    Raises StructureViolationError if the stop region {b : stop value <=
    continue value} is not an upper interval of the grid at some tau; that
    signals either a grid artifact or a failed model assumption.
    """
    if sol.n_actions != 2:
        raise ValueError("threshold extraction needs a two-action solution")
    stop = sol.Qfun[:, :, 1] <= sol.Qfun[:, :, 0]
    falls = np.argwhere(np.diff(stop.view(np.int8), axis=1) < 0)
    if falls.size:  # the first in row-major order: lowest tau, then lowest belief
        tau, last = (int(i) for i in falls[0])
        raise StructureViolationError(
            f"stop region at tau={tau} is not an upper interval: stop at grid "
            f"index {int(stop[tau].argmax())} but continue at {last + 1}", tau=tau)
    b_th = np.where(stop.any(axis=1), sol.belief_grid[stop.argmax(axis=1)], np.nan)
    return ThresholdFunction(b_th=b_th, grid_resolution=1.0 / sol.grid_n)


def verify_threshold_monotone(th: ThresholdFunction, tol: float = 0.0) -> CheckResult:
    """Thresholds must be nonincreasing in the holding time; sentinel entries
    count as +inf (stopping never optimal). The witness is the first rise."""
    ext = th.as_extended()
    rises = np.flatnonzero(ext[1:] > ext[:-1] + tol)
    if not rises.size:
        return CheckResult(True)
    tau = int(rises[0])
    return CheckResult(False, witness=(tau, float(ext[tau]), float(ext[tau + 1])),
                       value=float(ext[tau + 1] - ext[tau]))


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
