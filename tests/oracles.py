"""Test oracles that nothing in ``txsched`` calls: the Bellman operator on a
whole Q lattice and the solver's weighted sup-norm, both built from
``txsched.belief_mdp``'s own kernel and weights; the scalar Bayes update of
the belief; the two array forms of the Bayes step that ``channel.bayes``
replaced, the solver's grid tables and the simulator's bitwise select,
which it must equal bit for bit; the scalar episode simulator that the
lockstep ``run_batch``
must equal bit for bit, with its per-episode trace; a replay of a
trace's beliefs through the scalar Bayes update; a reader of
value_policy.csv by ``np.loadtxt``, whose policy column the policy that
``simulate --policy solved`` takes from q_values.npy must equal; the
per-tau loops of the
threshold extraction and its monotonicity check, which the whole-lattice
passes of ``txsched.stopping`` must equal bit for bit; and the per-matrix
minor pass and the slice-by-slice folded-TP2 battery, which the stacked
passes of ``txsched.stochastic_orders`` and ``txsched.folding`` must equal
check by check; and an exact solve of the lattice problem by policy
iteration, against which value iteration's certified error is judged.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from txsched.belief_mdp import (SolverConfig, StageCost, _bellman, _check_problem, _stencil,
                                _weighted_sup, weight_profile)
from txsched.channel import ChannelModel
from txsched.cli import StalePolicyError
from txsched.folding import (FoldedTP2Report, PairCheck, composite_kernel, folded_observation,
                             folded_outcome_prob)
from txsched.sim import _ZERO_LIKELIHOOD, _holding_table, splitmix64
from txsched.stochastic_orders import (ORDER_TOL, CheckResult, StructureViolationError,
                                      ZeroLikelihoodError)
from txsched.stopping import ThresholdFunction


def weighted_norm(f, spectral_radius: float, eps: float) -> float:
    """Sup over the lattice of |f| / s(tau); axis 0 of f indexes tau."""
    f = np.asarray(f, dtype=float)
    return _weighted_sup(np.abs(f), weight_profile(spectral_radius, eps, f.shape[0] - 1))


def bellman_sweep(V: np.ndarray, stencil, c: np.ndarray, gamma: float) -> np.ndarray:
    """The solver's kernel _bellman into fresh buffers: the action-major
    (tau, action, belief) lattice from the continuation values V[tau, i]
    and the stage costs c[tau, a]."""
    out = np.empty((V.shape[0], c.shape[1], V.shape[1]))
    return _bellman(V, stencil, c, gamma, out, np.empty_like(out[1:]))


def bellman_apply(ch: ChannelModel, cost: StageCost, cfg: SolverConfig,
                  Q: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator on the (tau, grid, action)
    lattice.

    The observation sum runs over the two-point support; the continuation
    value at the updated belief is read from min over actions of Q by
    piecewise-linear interpolation, and a failure at tau = tau_max is clamped
    back to tau_max. Pure Jacobi update: every output entry depends only on
    the input Q. Q and the result are in Solution's (tau, belief, action)
    layout; the kernel sweeps the action-major one.
    """
    Q = np.asarray(Q, dtype=float)
    expected = (cfg.tau_max + 1, cfg.grid_n + 1, cost.n_actions)
    if Q.shape != expected:
        raise ValueError(f"Q must have shape {expected}, got {Q.shape}")
    _check_problem(ch, cost, cfg)
    c = cost.holding.costs[:cfg.tau_max + 1, None] + cost.action_costs
    return bellman_sweep(Q.min(axis=2), _stencil(ch, cfg.belief_grid()), c,
                         cfg.gamma).transpose(0, 2, 1)


def predictive_belief(ch: ChannelModel, b: float, a: int = 0) -> float:
    """One-step-ahead probability of the unfavorable mode before observing
    the transmission outcome."""
    Pc = ch.mode_kernel[a]
    out = Pc[0, 1] * (1.0 - b) + Pc[1, 1] * b
    return min(max(out, 0.0), 1.0)


def observation_likelihood(ch: ChannelModel, tau: int, b: float, y: int,
                           a: int = 0) -> float:
    """Probability of observing next holding time y from (tau, b, a).

    Supported on {0, tau+1}: the success probability mixes the per-mode
    success rates by the predictive belief, and the two branches sum to 1.
    """
    bhat = predictive_belief(ch, b, a)
    lam0, lam1 = ch.lam[0, a], ch.lam[1, a]
    p_succ = lam0 * (1.0 - bhat) + lam1 * bhat
    if y == 0:
        return float(p_succ)
    if y == tau + 1:
        return float(1.0 - p_succ)
    return 0.0


def belief_update(ch: ChannelModel, tau: int, b: float, y: int, a: int = 0) -> float:
    """Posterior unfavorable-mode belief after observing y from (tau, b, a).

    Success conditions on the per-mode success rates, failure on their
    complements. Raises ZeroLikelihoodError when y is off the two-point
    support or the observed branch has probability 0.
    """
    bhat = predictive_belief(ch, b, a)
    lam0, lam1 = ch.lam[0, a], ch.lam[1, a]
    p_succ = lam0 * (1.0 - bhat) + lam1 * bhat
    if y == 0:
        num, den = lam1 * bhat, p_succ
    elif y == tau + 1:
        num, den = (1.0 - lam1) * bhat, 1.0 - p_succ
    else:
        raise ZeroLikelihoodError(f"y={y} is outside the support {{0, {tau + 1}}}")
    if den <= 0.0:
        raise ZeroLikelihoodError(f"observation y={y} has zero likelihood")
    return min(max(num / den, 0.0), 1.0)


def _kernel(ch: ChannelModel) -> tuple:
    """(p00, p10, p01, p11, lam0, lam1) of the channel's continue action."""
    return tuple(float(x) for x in (ch.mode_kernel[0, 0, 0], ch.mode_kernel[0, 1, 0],
                                    ch.mode_kernel[0, 0, 1], ch.mode_kernel[0, 1, 1],
                                    ch.lam[0, 0], ch.lam[1, 0]))


def grid_action_tables(ch: ChannelModel, grid: np.ndarray, a: int):
    """The solver's per-action grid tables as np.where and np.clip computed
    them: success likelihood and the posteriors after a success and a
    failure, 0 and 1 where that outcome has likelihood 0."""
    Pc = ch.mode_kernel[a]
    lam0, lam1 = ch.lam[0, a], ch.lam[1, a]
    bhat = np.clip(Pc[0, 1] * (1.0 - grid) + Pc[1, 1] * grid, 0.0, 1.0)
    p_succ = lam0 * (1.0 - bhat) + lam1 * bhat
    with np.errstate(divide="ignore", invalid="ignore"):
        t_succ = np.where(p_succ > 0.0, lam1 * bhat / np.where(p_succ > 0, p_succ, 1.0), 0.0)
        p_fail = 1.0 - p_succ
        t_fail = np.where(p_fail > 0.0, (1.0 - lam1) * bhat / np.where(p_fail > 0, p_fail, 1.0), 1.0)
    return p_succ, np.clip(t_succ, 0.0, 1.0), np.clip(t_fail, 0.0, 1.0)


def _select(mask, x, y):
    """x where the uint64 ``mask`` is all ones, y where it is 0, bit by bit."""
    x, y = x.view(np.uint64), y.view(np.uint64)
    return (((x ^ y) & mask) ^ y).view(np.float64)


def select_bayes(ch: ChannelModel, b: np.ndarray, success: np.ndarray) -> np.ndarray:
    """The simulator's posteriors of beliefs ``b`` on the outcomes
    ``success`` (bools) under the continue action, as its bitwise select
    computed them from the ``_kernel`` floats; ZeroLikelihoodError if an
    outcome has likelihood 0."""
    _, _, p01, p11, lam0, lam1 = _kernel(ch)
    bhat = np.minimum(np.maximum(p01 * (1.0 - b) + p11 * b, 0.0), 1.0)
    succ_mass = lam1 * bhat
    p_succ = lam0 * (1.0 - bhat) + succ_mass
    pick = np.negative(success.view(np.uint8), dtype=np.uint64)  # all ones on success
    den = _select(pick, p_succ, 1.0 - p_succ)
    if (den <= 0.0).any():
        raise ZeroLikelihoodError(_ZERO_LIKELIHOOD)
    num = _select(pick, succ_mass, (1.0 - lam1) * bhat)
    return np.minimum(np.maximum(num / den, 0.0), 1.0)


@dataclass(frozen=True)
class SimTrace:
    """Per-step record of one episode.

    ``success`` in row t is the outcome of the transmission initiated at step
    t (-1 on the stop row, where nothing is transmitted); ``theta_next`` is
    the mode that governed that outcome. ``stage_cost`` is the undiscounted
    cost incurred at the step (the stopping fee on the stop row).
    """

    t: np.ndarray
    theta: np.ndarray
    action: np.ndarray
    success: np.ndarray
    tau: np.ndarray
    belief: np.ndarray
    stage_cost: np.ndarray
    theta_next: np.ndarray
    stopped: bool
    stop_time: int | None
    discounted_cost: float

    def __len__(self) -> int:
        return len(self.t)


def _stream(seed: int, k: int) -> np.random.Generator:
    """Random stream of replication k."""
    return np.random.default_rng(splitmix64(seed, k))


def run_episode(ch: ChannelModel, holding_costs: np.ndarray, c_stop: float,
                gamma: float, policy, horizon: int,
                rng: np.random.Generator) -> SimTrace:
    """Simulate one episode of at most ``horizon`` steps.

    The initial state is tau = 0, mode drawn from the channel's initial mode
    law, belief equal to the initial unfavorable-mode probability. The
    uniform variates for the whole horizon are drawn up front (one for the
    initial mode, two per step), so the stream consumed is fixed regardless
    of early stopping.
    """
    holding = _holding_table(holding_costs, horizon)
    p00, p10, p01, p11, lam0, lam1 = _kernel(ch)
    u = rng.random(2 * horizon + 1).tolist()
    theta = 0 if u[0] < ch.initial_mode_dist[0] else 1
    tau = 0
    b = ch.initial_belief
    rec_t, rec_theta, rec_a, rec_succ = [], [], [], []
    rec_tau, rec_b, rec_cost, rec_theta_next = [], [], [], []
    J = 0.0
    disc = 1.0
    stopped = False
    stop_time = None
    for t in range(horizon):
        a = policy(tau, b)
        rec_t.append(t)
        rec_theta.append(theta)
        rec_a.append(a)
        rec_tau.append(tau)
        rec_b.append(b)
        if a == 1:
            rec_succ.append(-1)
            rec_theta_next.append(-1)
            rec_cost.append(c_stop)
            J += disc * c_stop
            stopped = True
            stop_time = t
            break
        if a != 0:
            raise ValueError(f"policy returned unknown action {a}")
        cost_t = holding[tau]
        rec_cost.append(cost_t)
        J += disc * cost_t
        theta = 0 if u[2 * t + 1] < (p00 if theta == 0 else p10) else 1
        success = u[2 * t + 2] < (lam0 if theta == 0 else lam1)
        rec_succ.append(1 if success else 0)
        rec_theta_next.append(theta)
        tau = 0 if success else tau + 1
        # posterior on the observed next holding time, exact (no grid);
        # operation order mirrors belief_update so the logged beliefs match
        # a recomputation bit for bit
        bhat = min(max(p01 * (1.0 - b) + p11 * b, 0.0), 1.0)
        p_succ = lam0 * (1.0 - bhat) + lam1 * bhat
        if success:
            num, den = lam1 * bhat, p_succ
        else:
            num, den = (1.0 - lam1) * bhat, 1.0 - p_succ
        if den <= 0.0:
            raise ZeroLikelihoodError(_ZERO_LIKELIHOOD)
        b = min(max(num / den, 0.0), 1.0)
        disc *= gamma
    return SimTrace(t=np.array(rec_t, dtype=np.int64),
                    theta=np.array(rec_theta, dtype=np.int8),
                    action=np.array(rec_a, dtype=np.int8),
                    success=np.array(rec_succ, dtype=np.int8),
                    tau=np.array(rec_tau, dtype=np.int64),
                    belief=np.array(rec_b, dtype=float),
                    stage_cost=np.array(rec_cost, dtype=float),
                    theta_next=np.array(rec_theta_next, dtype=np.int8),
                    stopped=stopped, stop_time=stop_time, discounted_cost=J)


def validate_belief_consistency(trace, ch: ChannelModel) -> bool:
    """Recompute the belief sequence from (tau, action, outcome) and compare
    bitwise against the logged beliefs; ``trace`` is a SimTrace or anything
    with its belief, action, success and tau arrays."""
    b = ch.initial_belief
    for i in range(len(trace.belief)):
        if trace.belief[i] != b:
            return False
        if trace.action[i] == 1:
            return True
        y = 0 if trace.success[i] == 1 else int(trace.tau[i]) + 1
        b = belief_update(ch, int(trace.tau[i]), b, y, 0)
    return True


def loadtxt_read_value_policy_csv(path):
    """(policy lattice, grid_n, tau_max) of a value_policy.csv read by
    np.loadtxt's tau and policy columns; StalePolicyError for a bad header,
    a row without a fourth field, a tau or policy that is not an integer, rows
    that do not cover tau = 0, ..., tau_max with one row per belief, or an
    action other than 0 and 1. np.loadtxt skips blank and '#' lines and
    spaces around a number, reads CRLF line endings and a last row without
    LF, and takes the policy from the fourth of any number of fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if header != "tau,belief,value,policy":
            raise ValueError(f"unexpected header {header!r}")
        with warnings.catch_warnings():  # an empty table is refused below
            warnings.simplefilter("ignore", UserWarning)
            cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 3),
                              dtype=np.int64, ndmin=2)
        tau, policy = cols[:, 0], cols[:, 1]
        n_tau = int(tau[-1]) + 1 if tau.size else 0
        if n_tau < 1 or tau.size % n_tau or not np.array_equal(
                tau, np.repeat(np.arange(n_tau), tau.size // n_tau)):
            raise ValueError(f"{tau.size} rows do not cover tau = 0, ..., "
                             "tau_max with one row per belief grid point")
        if not np.isin(policy, (0, 1)).all():
            raise ValueError("the policy column holds an action other than 0 and 1")
    except ValueError as exc:
        raise StalePolicyError(f"{path} is malformed ({exc}); run solve first") from None
    grid_n = tau.size // n_tau - 1
    return policy.reshape(n_tau, grid_n + 1), grid_n, n_tau - 1


def loop_extract_threshold(sol) -> ThresholdFunction:
    """``stopping.extract_threshold`` one holding time at a time: the lowest
    stop index of each row, after checking that every index above it stops."""
    n_tau = sol.tau_max + 1
    b_th = np.full(n_tau, np.nan)
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
    return ThresholdFunction(b_th=b_th, grid_resolution=1.0 / sol.grid_n)


def loop_verify_threshold_monotone(th: ThresholdFunction, tol: float = 0.0) -> CheckResult:
    """``stopping.verify_threshold_monotone`` one holding time at a time,
    returning at the first rise."""
    ext = th.as_extended()
    for tau in range(len(ext) - 1):
        if ext[tau + 1] > ext[tau] + tol:
            return CheckResult(False, witness=(tau, float(ext[tau]), float(ext[tau + 1])),
                               value=float(ext[tau + 1] - ext[tau]))
    return CheckResult(True)


def matrix_tp2_pass(M, tol: float = ORDER_TOL) -> tuple[CheckResult, float]:
    """``stochastic_orders._tp2_pass`` on one matrix: every 2x2 minor as a
    (x1, y1, x2, y2) array, kept where x1 < x2 and y1 < y2. Returns the
    verdict with the first violating minor and the smallest minor, 0.0 when
    there is none."""
    M = np.asarray(M, dtype=float)
    if np.any(M < 0):
        raise ValueError("TP2 is defined for nonnegative matrices")
    n, m = M.shape
    minors = M[:, :, None, None] * M - M[:, None, None, :] * M.T[:, :, None]
    ordered = (np.less.outer(np.arange(n), np.arange(n))[:, None, :, None]
               & np.less.outer(np.arange(m), np.arange(m))[None, :, None, :])
    vals = minors[ordered]
    smallest = float(vals.min()) if vals.size else 0.0
    bad = np.flatnonzero(vals < -tol)
    if not bad.size:
        return CheckResult(True), smallest
    x1, y1, x2, y2 = (int(i[bad[0]]) for i in np.nonzero(ordered))
    return (CheckResult(False, witness=((x1, y1), (x2, y2)), value=float(vals[bad[0]])),
            smallest)


def loop_verify_folded_tp2(ch: ChannelModel, tau_check: int = 6) -> FoldedTP2Report:
    """``folding.verify_folded_tp2`` one slice at a time, each materialized
    at its own shape and checked by ``matrix_tp2_pass``."""
    checks = []
    taus = np.arange(tau_check + 1)
    both = np.array([0, 1])
    for a in range(ch.n_actions):
        for delta in (0, 1):
            M = np.broadcast_to(folded_outcome_prob(ch, delta, both, a), (taus.size, 2))
            checks.append(PairCheck("folded_outcome", "(tau,theta)", *matrix_tp2_pass(M)))
        for theta in (0, 1):
            M = np.broadcast_to(folded_outcome_prob(ch, both, theta, a), (taus.size, 2))
            checks.append(PairCheck("folded_outcome", "(tau,delta)", *matrix_tp2_pass(M)))
        M = folded_outcome_prob(ch, both, both[:, None], a)
        checks.append(PairCheck("folded_outcome", "(theta,delta)", *matrix_tp2_pass(M)))
        for y in range(tau_check + 2):
            M = composite_kernel(ch, taus[:, None], both, y, a)
            checks.append(PairCheck("composite", "(tau,theta)", *matrix_tp2_pass(M)))
        for tau in taus:
            M = composite_kernel(ch, tau, both[:, None], np.arange(tau + 2), a)
            checks.append(PairCheck("composite", "(theta,y)", *matrix_tp2_pass(M)))
    for delta in (0, 1):
        for tau in taus:
            M = np.broadcast_to(folded_observation(delta, tau, np.arange(tau + 2)),
                                (2, tau + 2))
            checks.append(PairCheck("folded_observation", "(theta,y)", *matrix_tp2_pass(M)))
    for tau in taus:
        M = folded_observation(both[:, None], tau, np.arange(tau + 2))
        checks.append(PairCheck("folded_observation", "(delta,y)", *matrix_tp2_pass(M)))
    return FoldedTP2Report(checks=tuple(checks))


def policy_iteration(ch: ChannelModel, cost: StageCost, cfg: SolverConfig,
                     c_stop: float | None = None, max_iter: int = 100):
    """The lattice problem solved by policy iteration (Howard 1960; Puterman
    1994, section 6.4), with no sweep and no span rule: one scipy.sparse
    transition matrix per action, four nonzeros a row, from the solver's own
    _stencil, and one sparse LU solve of (I - gamma P) V = c per policy. The
    greedy improvement keeps the current action on ties, so the iteration
    ends when no action is strictly better anywhere. With c_stop set, the
    stop action is a last action of cost c_stop and no transition.

    Returns (Q, bound), Q of the solver's (tau, belief, action) shape. Q is
    the span-rule midpoint T Q_pi + k (max d + min d) / 2 of the last
    policy's Q_pi, with d = T Q_pi - Q_pi and k = gamma / (1 - gamma), so in
    exact arithmetic it lies within k * span(d) / 2 of the fixed point; the
    bound is k * span(d), twice that, to cover the oracle's own rounding."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    n_tau, n_b = cfg.tau_max + 1, cfg.grid_n + 1
    n = n_tau * n_b
    after_failure = np.minimum(np.arange(n_tau) + 1, cfg.tau_max)[:, None] * n_b
    P, c = [], []
    p_succ, p_fail, succ, fail = _stencil(ch, cfg.belief_grid())
    for a in range(ch.n_actions):
        cols, vals = [], []
        for p, (lo, hi, dx, off), start in ((p_succ[a], (x[a] for x in succ), 0),
                                            (p_fail[a], (x[a] for x in fail), after_failure)):
            w = off / dx  # the interpolation weight of the right end of the cell
            for col, val in ((start + lo, p * (1.0 - w)), (start + hi, p * w)):
                cols.append(np.broadcast_to(col, (n_tau, n_b)).ravel())
                vals.append(np.broadcast_to(val, (n_tau, n_b)).ravel())
        P.append(sp.csr_matrix((np.concatenate(vals), (np.tile(np.arange(n), 4),
                                                       np.concatenate(cols))), shape=(n, n)))
        c.append(np.repeat(cost.holding.costs[:n_tau] + cost.action_costs[a], n_b))
    if c_stop is not None:
        P.append(sp.csr_matrix((n, n)))
        c.append(np.full(n, float(c_stop)))

    def bellman(V):
        return np.stack([ca + cfg.gamma * (Pa @ V) for Pa, ca in zip(P, c)], axis=1)

    states, eye = np.arange(n), sp.identity(n, format="csc")
    policy = np.argmin(np.stack(c, axis=1), axis=1)
    for _ in range(max_iter):
        P_pi = sum(sp.diags((policy == a).astype(float)) @ Pa for a, Pa in enumerate(P))
        V = splu((eye - cfg.gamma * P_pi).tocsc()).solve(np.choose(policy, c))
        Q = bellman(V)
        better = Q.min(axis=1) < Q[states, policy]
        if not better.any():
            break
        policy = np.where(better, Q.argmin(axis=1), policy)
    else:
        raise AssertionError(f"policy iteration did not end in {max_iter} iterations")
    TQ = bellman(Q.min(axis=1))
    d = TQ - Q
    k = cfg.gamma / (1.0 - cfg.gamma)
    lo, hi = float(d.min()), float(d.max())
    return (TQ + k * (hi + lo) / 2.0).reshape(n_tau, n_b, -1), k * (hi - lo)
