"""Belief MDP over (holding time, unfavorable-mode belief).

State is the pair (tau, b): tau counts steps since the last delivered packet
and b is the posterior probability of the unfavorable channel mode given the
acknowledgement history. A step under action a observes the next holding time
y, which is 0 (success) or tau+1 (failure); the observation likelihood and
the belief update are channel.bayes, the Bayes step the simulator takes too.

The solver discretizes b on a uniform grid and runs value iteration with the
Bellman operator; continuation values off the grid are read by piecewise
linear interpolation, and next holding times beyond the truncation level are
clamped to it (self-loop at the boundary). So the lattice problem is a finite
discounted MDP with bounded costs for every plant, and one stopping rule, the
MacQueen/Porteus span bound, certifies every solve in the sup norm; the
sweep returns the bound's midpoint. The weighted sup-norm, whose weight
grows along tau only when the plant is unstable, serves the paper's
contraction check (check_contraction), which computes the exact moduli L_j
of T^j on the lattice (_lattice_moduli).
Every solve reports the error it certifies (Solution.certified_error): an
exact-arithmetic bound plus a bound on the sweep's float rounding.
cfg.vi_tol is the target for that error. A solve starts from the solve on a
10 times coarser grid, carried onto its own grid, when that grid has at
least 20 cells (nested grids: 2000 cells are solved on 20, 200, then 2000).
One solve path, _solve, serves value_iterate and the stopping problem, whose
stop action is a Q column pinned to c_stop. One kernel, _bellman, evaluates
the operator for every solve and check, all actions in one pass over an
action-major (tau, action, belief) lattice, from a per-solve interpolation
stencil; the Solution holds Q as (tau, belief, action). _require_contraction
states the model's hypothesis, checked before every solve and contraction
check. The structural checks are closed forms over the whole lattice:
verify_update_monotonicity decides the likelihood order on every ordered
pair of states from one suffix minimum per action.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelModel, bayes
from .config import SolverConfig
from .lti_estimation import ConvergenceError, HoldingCostTable, LtiSystem, _finite, _frozen


@dataclass(frozen=True)
class StageCost:
    """Per-step cost: holding cost of the current tau plus the action fee."""

    holding: HoldingCostTable
    action_costs: np.ndarray

    def __post_init__(self):
        ca = _finite(self.action_costs, "action_costs")
        if ca.ndim != 1 or ca.size < 1:
            raise ValueError("action_costs must be a nonempty 1-D array")
        object.__setattr__(self, "action_costs", _frozen(ca))

    @property
    def n_actions(self) -> int:
        return self.action_costs.size


def _weight_base(spectral_radius: float, eps: float) -> float:
    return spectral_radius + eps if spectral_radius >= 1.0 else 1.0


def weight_profile(spectral_radius: float, eps: float, tau_max: int) -> np.ndarray:
    """Weights s(tau) = base^(2 tau) with base = rho + eps for an unstable
    plant (rho >= 1) and 1 for a stable one.

    The weight grows only for an unstable plant: that is the regime where the
    holding cost is unbounded and the plain sup-norm fails. For a stable plant
    the norm is the ordinary sup-norm, also when rho + eps exceeds 1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _weight_base(spectral_radius, eps) ** (2.0 * np.arange(tau_max + 1))


def _weighted_sup(abs_f, s) -> float:
    """Sup over the lattice of abs_f / s(tau), given abs_f >= 0 and the
    weights s; axis 0 of abs_f indexes tau."""
    flat = abs_f.reshape(abs_f.shape[0], -1)
    return float(np.max(flat.max(axis=1) / s)) if flat.size else 0.0


def _action_tables(ch: ChannelModel, grid: np.ndarray, a: int):
    """Per-action grid tables: success likelihood and the two posterior
    branches (tau-independent), by channel.bayes; an outcome of likelihood 0
    reads posterior 0 after a success and 1 after a failure."""
    p_succ, t_succ = bayes(ch, grid, np.ones(grid.shape, dtype=bool), a)
    p_fail, t_fail = bayes(ch, grid, np.zeros(grid.shape, dtype=bool), a)
    return p_succ, np.where(p_succ > 0.0, t_succ, 0.0), np.where(p_fail > 0.0, t_fail, 1.0)


def _cell(t, grid):
    """Left and right grid indices, cell width and offset of each t; at
    t == grid[-1] the cell collapses (lo == hi, width 1, offset 0)."""
    n = grid.size - 1
    lo = np.searchsorted(grid, t, side="right") - 1  # grid[lo] <= t < grid[lo + 1]
    hi = np.minimum(lo + 1, n)
    dx = np.where(hi > lo, grid[hi] - grid[lo], 1.0)
    return lo, hi, dx, t - grid[lo]


def _stencil(ch: ChannelModel, grid: np.ndarray):
    """Interpolation stencil, fixed for a whole solve: the success and
    failure probabilities and the cells of the two posterior branches, each
    an (n_actions, grid size) table or a cell of such tables."""
    p_succ, t_succ, t_fail = (np.stack(t) for t in zip(
        *(_action_tables(ch, grid, a) for a in range(ch.n_actions))))
    return p_succ, 1.0 - p_succ, _cell(t_succ, grid), _cell(t_fail, grid)


def _interp(V, cell, w=None, v_lo=None):
    """Piecewise-linear read of the rows of V at the cell's points, in
    numpy.interp's own arithmetic ((V[hi] - V[lo]) / dx * off + V[lo]), so
    the result matches it bit for bit; into w, with V[lo] held in v_lo, when
    those buffers are given. The cell's indices lie in the rows' range
    (_cell), so the gathers clip none."""
    lo, hi, dx, off = cell
    w = V.take(hi, axis=-1, out=w, mode="clip")
    v_lo = V.take(lo, axis=-1, out=v_lo, mode="clip")
    w -= v_lo
    w /= dx
    w *= off
    w += v_lo
    return w


def _bellman(V, stencil, c, gamma, out, w):
    """Bellman expectation on the action-major (tau, action, belief) lattice
    into out, given the continuation values V[tau, i] and the stage costs
    c[tau, a]: stage cost plus the discounted success branch (back to tau =
    0) and failure branch (tau + 1, clamped at tau_max), every action at
    once. w is scratch of out[1:]'s shape. The only code that evaluates the
    operator."""
    p_succ, p_fail, succ, fail = stencil
    # row r of w: the value after a failure into tau = r + 1; out's rows hold
    # V[lo] until the stage cost is added
    _interp(V[1:], fail, w, out[:-1])
    w *= p_fail
    w += p_succ * _interp(V[0], succ)
    w *= gamma
    np.add(c[:-1, :, None], w, out=out[:-1])
    np.add(c[-1, :, None], w[-1], out=out[-1])
    return out


# Every solve on a grid of grid_n cells starts from the solve on grid_n //
# _COARSEN cells, carried onto its grid, while that grid has at least
# _MIN_COARSE_GRID cells: grid 2000 is solved on 20, then 200, then 2000.
_COARSEN, _MIN_COARSE_GRID = 10, 20
_U = 2.0 ** -53  # unit roundoff of float64
_SWEEP_ROUNDING = 16  # bound on one sweep's rounding per entry, in u * M (_magnitude)


def _prolong(Q, coarse_grid, grid):
    """Q on coarse_grid read at the points of grid along the belief axis
    (the last), by piecewise-linear interpolation in np.interp's arithmetic."""
    return _interp(Q, _cell(grid, coarse_grid))


def _magnitude(V, Qn):
    """M = max(|V|, |Qn|) for the sweep Qn = fl(T Q) from the continuation
    values V; the sweep errs by at most _SWEEP_ROUNDING u M at
    every entry, u the unit roundoff.

    An interpolation (V[hi] - V[lo]) / dx * off + V[lo] is a convex
    combination of two values of V (0 <= off <= dx), so its exact value is at
    most M, and its four roundings err by at most (2 * 3 + 1) u M to first
    order (the difference can reach 2M, and three roundings act on it). The
    branch products, their sum and the factor gamma add 3 u M (p_succ +
    p_fail <= 1 + u keeps the branch sum within M to first order). The sum
    cs + ca, which can reach 2M since it is Qn less a value within M, and
    the last addition add 3 u M. That is 13 u M to first order; 16 leaves
    room for the terms of order u^2."""
    return max(float(np.abs(V).max()), float(np.abs(Qn).max()))


def _iterate(ch: ChannelModel, cost: StageCost, cfg: SolverConfig,
             c_stop: float | None = None, final: bool = True):
    """Q <- _bellman(V), with V = min(min_a Q, c_stop) (min_a Q when c_stop
    is None), until the error is certified below cfg.vi_tol; returns (Q,
    sweeps, residual history, certified error, coarse levels), where the
    levels list the coarser grids solved first as (grid_n, sweeps) pairs,
    the coarsest first. Q is action-major, (tau, action, belief), and holds
    the swept actions only, not the stop column. A grid allocates its sweep
    buffers once: the increment d is written into the retired iterate, whose
    buffer then takes the next sweep's output.

    The sweep starts from the solve on a grid _COARSEN times coarser, carried
    onto this grid by _prolong, when that grid has at least _MIN_COARSE_GRID
    cells, and from Q = 0 otherwise (nested or one-way multigrid iteration).
    A coarse level (``final`` False) that exhausts cfg.max_sweeps hands on its
    last iterate; only the final grid raises ConvergenceError. A coarse level
    solves to cfg.vi_tol as well, because a looser coarse start can cost a
    fine grid more sweeps than the coarse level saves (on an unstable plant
    at grid 2000, 3 fine sweeps become 31 to 102). The stopping rule reads
    only Qn = T(Q) and Q, so it certifies the same bound whatever Q the
    sweep started from.

    The residual of a sweep is the sup of |d|, d = Qn - Q. The stopping rule
    is the MacQueen/Porteus span bound, which needs only T(Q + c) = TQ +
    gamma * c for a constant c; that holds on the lattice for every plant,
    since the outcome probabilities and the interpolation weights each sum
    to 1. With k = gamma / (1 - gamma), the fixed point lies between Qn +
    k * min d and Qn + k * max d, so the sweep stops once the half-width
    k * (max d - min d) / 2 is below vi_tol and returns the midpoint. With
    c_stop set, the stop action is a branch pinned to that constant, so the
    shift rule weakens to TQ <= T(Q + c) <= TQ + gamma * c for c >= 0, and
    the bound holds once [min d, max d] is widened to include 0, the stop
    branch's own increment.

    The bound holds for exact arithmetic; the certified error adds the
    rounding of the float sweep. Let |fl(TQ) - TQ| <= delta = 16 u M at every
    entry (_magnitude) and D = max |d|. The exact increment is within
    delta + u D of the computed d, which moves each end of the span interval
    by at most (1 + k) delta + k u D in all; rounding k, the half-width and
    the shift adds at most 8 u k D, and the midpoint's own sum u (M + k D).
    So a solve certifies half-width + (1 + k) delta + u (M + 10 k D).
    It stops once that is below vi_tol, or, for a vi_tol below about twice
    the rounding floor, once the half-width is below both vi_tol and the
    rounding term: further sweeps could at most halve the bound, and a float
    fixed point has half-width 0; a failure reports the last two terms.
    """
    grid = cfg.belief_grid()
    stencil = _stencil(ch, grid)
    c = cost.holding.costs[:cfg.tau_max + 1, None] + cost.action_costs
    k = cfg.gamma / (1.0 - cfg.gamma)
    if cfg.grid_n // _COARSEN >= _MIN_COARSE_GRID:
        coarse = replace(cfg, grid_n=cfg.grid_n // _COARSEN)
        Qc, sweeps, _, _, levels = _iterate(ch, cost, coarse, c_stop, final=False)
        Q = _prolong(Qc, coarse.belief_grid(), grid)
        levels += ((coarse.grid_n, sweeps),)
    else:
        Q, levels = np.zeros((cfg.tau_max + 1, cost.n_actions, cfg.grid_n + 1)), ()
    Qn, w, V = np.empty_like(Q), np.empty_like(Q[1:]), np.empty_like(Q[:, 0])
    history = []
    for sweep in range(1, cfg.max_sweeps + 1):
        np.minimum.reduce(Q, axis=1, out=V)
        if c_stop is not None:
            np.minimum(V, c_stop, out=V)
        d = np.subtract(_bellman(V, stencil, c, cfg.gamma, Qn, w), Q, out=Q)
        lo, hi = float(d.min()), float(d.max())
        history.append(max(hi, -lo))
        if c_stop is not None:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        half = k * (hi - lo) / 2.0
        if half < cfg.vi_tol or sweep == cfg.max_sweeps:  # a failure reports the term
            M = _magnitude(V, Qn)
            rounding = ((1.0 + k) * _SWEEP_ROUNDING * _U * M
                        + _U * (M + 10.0 * k * history[-1]))
            if half < cfg.vi_tol and (half + rounding < cfg.vi_tol or half < rounding):
                Qn += k * (hi + lo) / 2.0
                return Qn, sweep, history, half + rounding, levels
        Q, Qn = Qn, Q
    if not final:
        return Q, cfg.max_sweeps, history, math.inf, levels
    raise ConvergenceError(
        f"value iteration did not reach tol {cfg.vi_tol} in {cfg.max_sweeps} sweeps "
        f"(span half-width {half:.3e}, rounding term {rounding:.3e}, gamma {cfg.gamma}"
        + ("; vi_tol is below this rounding floor" if rounding >= cfg.vi_tol else "") + ")",
        residual=history[-1], history=history)


def _lattice_moduli(stencil, s, gamma, m):
    """L_1..L_m: the Lipschitz moduli of T, T^2, ..., T^m on the lattice in
    the weighted sup norm with weights s.

    T is a stage cost plus gamma times a nonnegative kernel K_a
    (interpolation weights times outcome probabilities) applied to min_a Q,
    and min_a is 1-Lipschitz and monotone. So |T^j Q1 - T^j Q2| <= A_j *
    ||Q1 - Q2|| entrywise, with A_0 = s and A_j = max_a gamma K_a A_{j-1}:
    _bellman with zero costs. L_j = max(A_j / s), exact for the lattice
    operator, so no pair of inputs can show a larger ratio."""
    n_actions, n_b = stencil[0].shape
    zeros, out = np.zeros((s.size, n_actions)), np.empty((s.size, n_actions, n_b))
    w, A = np.empty_like(out[1:]), np.repeat(s[:, None], n_b, axis=1)
    moduli = []
    for _ in range(m):
        _bellman(A, stencil, zeros, gamma, out, w).max(axis=1, out=A)
        moduli.append(_weighted_sup(A, s))
    return moduli


def _check_problem(ch: ChannelModel, cost: StageCost, cfg: SolverConfig):
    if cost.n_actions != ch.n_actions:
        raise ValueError("cost and channel disagree on the number of actions")
    if cost.holding.tau_max < cfg.tau_max:
        raise ValueError("holding cost table is shorter than cfg.tau_max")


@dataclass(frozen=True)
class Solution:
    """Converged Q-function, value function, and greedy policy on the lattice.

    certified_error bounds the sup-norm distance of Qfun from the lattice
    fixed point (inf for a Solution that no solve certified). sweeps_used
    and residual_history are those of the final grid; coarse_levels lists
    the coarser grids solved first to start it, as (grid_n, sweeps) pairs,
    the coarsest first. The arrays are frozen read-only views of the ones
    given, not copies: the caller hands them over."""

    Qfun: np.ndarray
    V: np.ndarray
    policy: np.ndarray
    belief_grid: np.ndarray
    sweeps_used: int
    final_residual: float
    residual_history: tuple = ()
    certified_error: float = math.inf
    coarse_levels: tuple = ()

    def __post_init__(self):
        for name in ("Qfun", "V", "policy", "belief_grid"):
            a = np.asarray(getattr(self, name)).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def tau_max(self) -> int:
        return self.Qfun.shape[0] - 1

    @property
    def grid_n(self) -> int:
        return self.Qfun.shape[1] - 1

    @property
    def n_actions(self) -> int:
        return self.Qfun.shape[2]


def greedy_policy(Q: np.ndarray, tie_break: str = "low") -> tuple:
    """(V, policy): the minimum over actions and the argmin, whose ties go to
    the smallest index ('low') or the largest ('high').

    One elementwise pass over the action slices in index order, moving to
    action a on a strict < ('low') or on <= ('high') against the running
    minimum V, as np.argmin does on Q or on Q's reversed actions, which is
    several times slower over a short action axis. The policy takes a by a
    maximum, since a exceeds every earlier index, in the smallest unsigned
    type that holds the last index. np.argmin takes the first NaN, which no
    comparison does, so a Q holding a NaN (V then holds one) goes to
    np.argmin and np.minimum.reduce themselves."""
    better = np.less if tie_break == "low" else np.less_equal
    index = np.min_scalar_type(Q.shape[2] - 1).type
    best = Q[:, :, 0].copy()
    policy = np.zeros(best.shape, dtype=index)
    for a in range(1, Q.shape[2]):
        np.maximum(policy, better(Q[:, :, a], best) * index(a), out=policy)
        np.minimum(best, Q[:, :, a], out=best)
    if np.isnan(best).any():
        low = tie_break == "low"
        first = np.argmin(Q if low else Q[:, :, ::-1], axis=2)
        best, policy = np.minimum.reduce(Q, axis=2), first if low else Q.shape[2] - 1 - first
    return best, policy.astype(np.int64)


def success_margin(ch: ChannelModel, spectral_radius: float) -> tuple:
    """(lam_min, bound) of the success margin lam_min > bound = 1 - 1/rho(A)^2:
    the least success probability of the channel, and the bound it must
    exceed for the expected holding cost to stay summable. The bound is
    negative for a stable plant (-inf where rho^2 is 0 in floats, as for rho
    below 1e-162), so any channel passes."""
    rho2 = spectral_radius**2
    return ch.min_success_prob(), -math.inf if rho2 == 0.0 else 1.0 - 1.0 / rho2


def _require_contraction(ch: ChannelModel, spectral_radius: float, eps: float):
    """The hypothesis under which the untruncated model's discounted cost is
    finite and check_contraction certifies the operator, stated once; the
    clamped lattice has bounded costs without it, but the solver refuses a
    model that breaks it. A stable plant (rho(A) < 1) has bounded costs,
    and the operator contracts by gamma in the sup norm whatever lam is. An
    unstable plant needs (1 - lam_min) * (rho + eps)^2 < 1, which implies the
    success margin (success_margin) and alpha = (1 - lam_min) * (rho^2 +
    eps) < 1. Raises ValueError when the hypothesis fails."""
    lam_min, bound = success_margin(ch, spectral_radius)
    rho, fail = spectral_radius, 1.0 - lam_min
    if rho >= 1.0 and fail * (rho + eps) ** 2 >= 1.0:
        cause = ("the success margin lam_min > 1 - 1/rho(A)^2 fails, so the "
                 "discounted cost need not be finite" if lam_min <= bound
                 else "the success margin holds; decrease weight_eps")
        raise ValueError(
            f"contraction hypothesis violated: (1-lam_min)*(rho+eps)^2 = "
            f"{fail * (rho + eps) ** 2} >= 1 (min success prob {lam_min}, rho(A) = "
            f"{rho}, weight_eps = {eps}, alpha = {fail * (rho**2 + eps)}); {cause}")


def _solve(ch: ChannelModel, cost: StageCost, cfg: SolverConfig,
           c_stop: float | None = None) -> Solution:
    """value_iterate; with c_stop set, the solution gains a last action,
    stop, whose Q column is c_stop at every lattice point, and its policy
    stops on ties."""
    _require_contraction(ch, cost.holding.spectral_radius, cfg.weight_eps)
    _check_problem(ch, cost, cfg)
    Q, sweeps, history, certified, levels = _iterate(ch, cost, cfg, c_stop)
    Q = Q.transpose(0, 2, 1)  # into Solution's (tau, belief, action) layout
    if c_stop is not None:
        Q = np.concatenate([Q, np.full_like(Q[:, :, :1], c_stop)], axis=2)
    Q = np.ascontiguousarray(Q)  # frees the action-major lattice
    return solution_from_q(Q, cfg, c_stop is not None, sweeps_used=sweeps,
                           final_residual=history[-1], residual_history=tuple(history),
                           certified_error=certified, coarse_levels=levels)


def solution_from_q(Q: np.ndarray, cfg: SolverConfig, stopping: bool, **solve) -> Solution:
    """The Solution holding Q on cfg's lattice: V is Q's minimum over the
    actions and the policy is greedy in Q, stopping on ties when stopping
    (stop is Q's last action) and breaking ties by cfg.tie_break otherwise.
    solve gives the other Solution fields. _solve builds every solution
    here, so a Q read back from a solve's q_values.npy gives the same V and
    policy bit for bit."""
    V, policy = greedy_policy(Q, "high" if stopping else cfg.tie_break)
    return Solution(Qfun=Q, V=V, policy=policy, belief_grid=cfg.belief_grid(), **solve)


def value_iterate(ch: ChannelModel, cost: StageCost, cfg: SolverConfig) -> Solution:
    """Value iteration until the span bound certifies the error below
    cfg.vi_tol, from the solve on a 10 times coarser grid when that grid has
    at least 20 cells and from Q = 0 otherwise; see _iterate.

    Raises ConvergenceError (with the residual history) if max_sweeps is
    exhausted, and ValueError if the contraction hypothesis fails.
    """
    return _solve(ch, cost, cfg)


@dataclass(frozen=True)
class UpdateMonotonicityReport:
    """Exhaustive verdicts on the belief update and observation likelihood.

    The belief update must be nondecreasing separately in tau, b, and y; the
    observation likelihood must move up in first-order stochastic dominance
    as (tau, b) increase. n_fsd_checks counts the ordered state pairs
    certified.
    """

    ok: bool
    update_violations: tuple
    fsd_violations: tuple
    n_update_checks: int
    n_fsd_checks: int

    def __bool__(self) -> bool:
        return self.ok


def verify_update_monotonicity(ch: ChannelModel, tau_max: int = 60,
                               grid_n: int = 200, tol: float = 1e-12,
                               max_witnesses: int = 20) -> UpdateMonotonicityReport:
    """Check the posterior update for monotonicity in b and y on every grid
    point, and the likelihood order on every ordered pair of lattice states.

    Monotonicity in tau holds identically: the update reads tau only through
    the support label {0, tau+1}, so there is nothing to check.

    For (tau1, b1) <= (tau2, b2) the two likelihoods live on the union support
    {0, tau1+1, tau2+1}. Their upper-tail gaps are 0 up to rounding at cut 0,
    -p_fail(b2) at cut tau2+1, and p_fail(b1) - p_fail(b2) at cut tau1+1,
    whatever the taus. So FSD holds on all T(T+1)/2 * G(G+1)/2 pairs of an
    action (T = tau_max + 1, G = grid_n + 1) exactly when no p_fail[i1]
    exceeds min(p_fail[i1:]) by more than tol: one suffix minimum decides
    them all, with the same arithmetic as a pairwise tail-sum check. Each
    violating b1 yields the witness (a, 0, b1, 0, b2, (cut,), gap) at the b2
    of largest gap.
    """
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    update_viol, fsd_viol = [], []
    for a in range(ch.n_actions):
        p_succ, t_succ, t_fail = _action_tables(ch, grid, a)
        for name, t in (("b:success", t_succ), ("b:failure", t_fail)):
            drops = np.nonzero(np.diff(t) < -tol)[0]
            for i in drops[:max_witnesses]:
                update_viol.append((name, a, float(grid[i]), float(t[i + 1] - t[i])))
        gaps = np.nonzero(t_succ - t_fail > tol)[0]
        for i in gaps[:max_witnesses]:
            update_viol.append(("y", a, float(grid[i]), float(t_succ[i] - t_fail[i])))
        p_fail = 1.0 - p_succ
        suffix_min = np.minimum.accumulate(p_fail[::-1])[::-1]
        for i in np.nonzero(p_fail - suffix_min > tol)[0][:max_witnesses - len(fsd_viol)]:
            j = i + int(np.argmin(p_fail[i:]))
            fsd_viol.append((a, 0, float(grid[i]), 0, float(grid[j]), (1.0,),
                             float(p_fail[i] - p_fail[j])))
    n_tau, n_b = tau_max + 1, grid_n + 1
    return UpdateMonotonicityReport(
        ok=not update_viol and not fsd_viol, update_violations=tuple(update_viol),
        fsd_violations=tuple(fsd_viol),
        n_update_checks=ch.n_actions * (3 * grid_n + 1),
        n_fsd_checks=ch.n_actions * n_tau * (n_tau + 1) // 2 * n_b * (n_b + 1) // 2)


@dataclass(frozen=True)
class ValueMonotonicityReport:
    """Lattice monotonicity verdict for a converged solution."""

    ok: bool
    n_violations: int
    worst_drop: float
    witness: tuple | None

    def __bool__(self) -> bool:
        return self.ok


def verify_value_monotonicity(sol: Solution, tol: float = 1e-8) -> ValueMonotonicityReport:
    """Check that V and every action slice of Q are nondecreasing in both the
    holding time and the belief coordinate."""
    n_viol = 0
    worst = 0.0
    witness = None
    surfaces = [("V", sol.V)] + [(f"Q[a={a}]", sol.Qfun[:, :, a])
                                 for a in range(sol.n_actions)]
    for name, F in surfaces:
        for axis, label in ((0, "tau"), (1, "b")):
            d = np.diff(F, axis=axis)
            bad = d < -tol
            n_viol += int(bad.sum())
            if bad.any():
                drop = float(d.min())
                if drop < worst:
                    worst = drop
                    ij = np.unravel_index(int(np.argmin(d)), d.shape)
                    witness = (name, label, int(ij[0]), int(ij[1]), drop)
    return ValueMonotonicityReport(ok=(n_viol == 0), n_violations=n_viol,
                                   worst_drop=worst, witness=witness)


@dataclass(frozen=True)
class ContractionReport:
    """Analytic m-stage contraction certificate plus the exact modulus of
    T^m on the lattice."""

    m: int
    certified_bound: float
    alpha: float
    weight_base: float
    lattice_modulus: float

    @property
    def ok(self) -> bool:
        return self.certified_bound < 1.0 and self.lattice_modulus < 1.0

    def __bool__(self) -> bool:
        return self.ok


def _mass_ratio_bound(tau: int, m: int, lam_min: float, base: float) -> float:
    """Worst-case E[s(tau_m)] / s(tau) over all outcome distributions
    consistent with the per-state probability caps.

    After m steps the holding time is either tau+m (m straight failures,
    probability at most (1-lam_min)^m) or some y < m (last success at step
    m-y, probability at most (1-lam_min)^y). Those caps alone sum to more
    than 1, so the bound maximizes the weighted mass over probability vectors
    that respect both the caps and total mass 1: fill from the largest weight
    ratio down. The atoms are built in that order, tau+m first, then y = m-1
    down to 0, since base >= 1 makes the weights nondecreasing.
    """
    atoms = [(base ** (2.0 * m), (1.0 - lam_min) ** m)]
    for y in range(m - 1, -1, -1):
        atoms.append((base ** (2.0 * (y - tau)), (1.0 - lam_min) ** y))
    budget = 1.0
    total = 0.0
    for ratio, cap in atoms:
        take = min(cap, budget)
        total += take * ratio
        budget -= take
        if budget <= 0.0:
            break
    return total


def _contraction_stage(lam_min: float, base: float, gamma: float, m_max: int = 500):
    """The smallest m <= m_max with gamma^m * sup over tau of the worst-case
    weighted outcome mass below 1, and that bound; (None, inf) when there is
    none.

    The sup is the value at tau = 0: base >= 1, so every atom's weight ratio
    base^(2(y - tau)) is nonincreasing in tau, while the caps do not depend
    on tau, and the capped maximum cannot grow as its ratios shrink."""
    for m in range(1, m_max + 1):
        value = gamma**m * _mass_ratio_bound(0, m, lam_min, base)
        if value < 1.0:
            return m, value
    return None, math.inf


def check_contraction(ch: ChannelModel, sys: LtiSystem, cfg: SolverConfig,
                      m_max: int = 500) -> ContractionReport:
    """Certify the m-stage contraction of the Bellman operator in the
    weighted sup-norm.

    Analytic part: the smallest m with gamma^m * sup over tau of the
    worst-case weighted outcome mass below 1 (_contraction_stage); it
    certifies the untruncated operator. Lattice part: the exact modulus L_m
    of T^m on the solver's lattice (_lattice_moduli), which bounds the ratio
    ||T^m Q1 - T^m Q2|| / ||Q1 - Q2|| for every pair; no solve computes it.
    Raises ValueError when the solver's contraction hypothesis
    fails (see _require_contraction) and ConvergenceError when no m <= m_max
    qualifies.
    """
    lam_min = ch.min_success_prob()
    rho = sys.spectral_radius()
    eps = cfg.weight_eps
    _require_contraction(ch, rho, eps)
    alpha = (1.0 - lam_min) * (rho**2 + eps)
    base = _weight_base(rho, eps)
    m, bound = _contraction_stage(lam_min, base, cfg.gamma, m_max)
    if m is None:
        raise ConvergenceError(f"no contraction stage found up to m={m_max}")
    moduli = _lattice_moduli(_stencil(ch, cfg.belief_grid()),
                             weight_profile(rho, eps, cfg.tau_max), cfg.gamma, m)
    return ContractionReport(m=m, certified_bound=bound, alpha=alpha,
                             weight_base=base, lattice_modulus=moduli[-1])
