"""Belief MDP over (holding time, unfavorable-mode belief).

State is the pair (tau, b): tau counts steps since the last delivered packet
and b is the posterior probability of the unfavorable channel mode given the
acknowledgement history. A step under action a observes the next holding time
y, which is 0 (success) or tau+1 (failure); the belief update and observation
likelihood follow from the channel's success table and mode kernel.

The solver discretizes b on a uniform grid and runs value iteration with the
Bellman operator; continuation values off the grid are read by piecewise
linear interpolation, and next holding times beyond the truncation level are
clamped to it (self-loop at the boundary; for a stable plant the holding cost
converges, so the truncation error is bounded). Convergence is measured in a
weighted sup-norm whose weight grows along tau only when the plant is
unstable, which is what keeps the operator an m-stage contraction despite
unbounded costs.
One kernel, _bellman, evaluates the operator for every solve and check, from
a per-solve interpolation stencil; _require_contraction states the hypothesis
they all rely on. The structural checks are closed forms over the whole
lattice: verify_update_monotonicity decides the likelihood order on every
ordered pair of states from one suffix minimum per action.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .lti_estimation import ConvergenceError, HoldingCostTable, LtiSystem
from .stochastic_orders import ZeroLikelihoodError


def _frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True)
class StageCost:
    """Per-step cost: holding cost of the current tau plus the action fee."""

    holding: HoldingCostTable
    action_costs: np.ndarray

    def __post_init__(self):
        ca = np.asarray(self.action_costs, dtype=float)
        if ca.ndim != 1 or ca.size < 1:
            raise ValueError("action_costs must be a nonempty 1-D array")
        object.__setattr__(self, "action_costs", _frozen(ca))

    @property
    def n_actions(self) -> int:
        return self.action_costs.size

    @property
    def spectral_radius(self) -> float:
        return self.holding.spectral_radius


def stage_cost(cost: StageCost, tau: int, b: float, a: int) -> float:
    """Expected instantaneous cost at (tau, b, a). The belief does not enter:
    the holding cost is mode-independent, so averaging over modes cancels."""
    return float(cost.holding.costs[tau] + cost.action_costs[a])


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the belief-grid value iteration."""

    gamma: float
    tau_max: int = 60
    grid_n: int = 200
    vi_tol: float = 1e-9
    max_sweeps: int = 2000
    weight_eps: float = 0.01
    tie_break: str = "low"

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.tau_max < 1:
            raise ValueError("tau_max must be >= 1")
        if self.grid_n < 2:
            raise ValueError("grid_n must be >= 2")
        if self.vi_tol <= 0:
            raise ValueError("vi_tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.weight_eps <= 0:
            raise ValueError("weight_eps must be positive")
        if self.tie_break not in ("low", "high"):
            raise ValueError("tie_break must be 'low' or 'high'")

    def belief_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_n + 1)


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


def weighted_norm(f, spectral_radius: float, eps: float) -> float:
    """Sup over the lattice of |f| / s(tau); axis 0 of f indexes tau."""
    f = np.asarray(f, dtype=float)
    s = weight_profile(spectral_radius, eps, f.shape[0] - 1)
    flat = np.abs(f).reshape(f.shape[0], -1)
    return float(np.max(flat.max(axis=1) / s)) if flat.size else 0.0


def _action_tables(ch: ChannelModel, grid: np.ndarray, a: int):
    """Per-action grid tables: success likelihood and the two posterior
    branches (tau-independent)."""
    Pc = ch.mode_kernel[a]
    lam0, lam1 = ch.lam[0, a], ch.lam[1, a]
    bhat = np.clip(Pc[0, 1] * (1.0 - grid) + Pc[1, 1] * grid, 0.0, 1.0)
    p_succ = lam0 * (1.0 - bhat) + lam1 * bhat
    with np.errstate(divide="ignore", invalid="ignore"):
        t_succ = np.where(p_succ > 0.0, lam1 * bhat / np.where(p_succ > 0, p_succ, 1.0), 0.0)
        p_fail = 1.0 - p_succ
        t_fail = np.where(p_fail > 0.0, (1.0 - lam1) * bhat / np.where(p_fail > 0, p_fail, 1.0), 1.0)
    return p_succ, np.clip(t_succ, 0.0, 1.0), np.clip(t_fail, 0.0, 1.0)


def _cell(t, grid):
    """Left and right grid indices, cell width and offset of each t; at
    t == grid[-1] the cell collapses (lo == hi, width 1, offset 0)."""
    n = grid.size - 1
    lo = np.searchsorted(grid, t, side="right") - 1  # grid[lo] <= t < grid[lo + 1]
    hi = np.minimum(lo + 1, n)
    dx = np.where(hi > lo, grid[hi] - grid[lo], 1.0)
    return lo, hi, dx, t - grid[lo]


def _stencil(ch: ChannelModel, grid: np.ndarray):
    """Per-action interpolation stencil, fixed for a whole solve: the success
    and failure probabilities and the cells of the two posterior branches."""
    stencil = []
    for a in range(ch.n_actions):
        p_succ, t_succ, t_fail = _action_tables(ch, grid, a)
        stencil.append((p_succ, 1.0 - p_succ, _cell(t_succ, grid), _cell(t_fail, grid)))
    return stencil


def _interp(V, cell):
    """Piecewise-linear read of the rows of V at the cell's points, in
    numpy.interp's own arithmetic ((V[hi] - V[lo]) / dx * off + V[lo]), so
    the result matches it bit for bit."""
    lo, hi, dx, off = cell
    w = V.take(hi, axis=-1)
    v_lo = V.take(lo, axis=-1)
    w -= v_lo
    w /= dx
    w *= off
    w += v_lo
    return w


def _bellman(V, stencil, cs, ca, gamma):
    """Bellman expectation on the (tau, grid, action) lattice given the
    continuation values V[tau, i]: stage cost plus the discounted success
    branch (back to tau = 0) and failure branch (tau + 1, clamped at tau_max).
    The only code that evaluates the operator."""
    tau_max = V.shape[0] - 1
    out = np.empty(V.shape + (len(stencil),))
    for a, (p_succ, p_fail, succ, fail) in enumerate(stencil):
        w = _interp(V[1:], fail)  # row r holds the value after a failure into tau = r + 1
        w *= p_fail
        w += p_succ * _interp(V[0], succ)
        w *= gamma
        c = cs[:tau_max + 1] + ca[a]
        np.add(c[:tau_max, None], w, out=out[:tau_max, :, a])
        np.add(c[tau_max], w[-1], out=out[tau_max, :, a])
    return out


def _iterate(values, stencil, cs, ca, cfg, spectral_radius, what):
    """Q <- _bellman(values(Q)) from Q = 0 until the weighted residual of a
    sweep drops below cfg.vi_tol; returns (Q, sweeps, residual history)."""
    Q = np.zeros((cfg.tau_max + 1, cfg.grid_n + 1, len(ca)))
    history = []
    for sweep in range(1, cfg.max_sweeps + 1):
        Qn = _bellman(values(Q), stencil, cs, ca, cfg.gamma)
        residual = weighted_norm(Qn - Q, spectral_radius, cfg.weight_eps)
        history.append(residual)
        Q = Qn
        if residual < cfg.vi_tol:
            return Q, sweep, history
    raise ConvergenceError(
        f"{what} did not reach tol {cfg.vi_tol} in {cfg.max_sweeps} sweeps "
        f"(last residual {history[-1]:.3e})", residual=history[-1], history=history)


def _check_problem(ch: ChannelModel, cost: StageCost, cfg: SolverConfig):
    if cost.n_actions != ch.n_actions:
        raise ValueError("cost and channel disagree on the number of actions")
    if cost.holding.tau_max < cfg.tau_max:
        raise ValueError("holding cost table is shorter than cfg.tau_max")


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
    return _bellman(Q.min(axis=2), _stencil(ch, cfg.belief_grid()),
                    cost.holding.costs, cost.action_costs, cfg.gamma)


@dataclass(frozen=True)
class Solution:
    """Converged Q-function, value function, and greedy policy on the lattice."""

    Qfun: np.ndarray
    V: np.ndarray
    policy: np.ndarray
    belief_grid: np.ndarray
    sweeps_used: int
    final_residual: float
    residual_history: tuple = ()

    def __post_init__(self):
        for name in ("Qfun", "V", "policy", "belief_grid"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def tau_max(self) -> int:
        return self.Qfun.shape[0] - 1

    @property
    def grid_n(self) -> int:
        return self.Qfun.shape[1] - 1

    @property
    def n_actions(self) -> int:
        return self.Qfun.shape[2]


def greedy_policy(Q: np.ndarray, tie_break: str = "low") -> np.ndarray:
    """Argmin over actions; ties go to the smallest index ('low') or the
    largest ('high')."""
    if tie_break == "low":
        return np.argmin(Q, axis=2).astype(np.int64)
    return (Q.shape[2] - 1) - np.argmin(Q[:, :, ::-1], axis=2).astype(np.int64)


def _require_contraction(lam_min: float, spectral_radius: float, eps: float):
    """The convergence hypothesis of the solver and of its contraction
    certificate, stated once. A stable plant (rho(A) < 1) has bounded costs,
    and the operator contracts by gamma in the sup norm whatever lam is. An
    unstable plant needs (1 - lam_min) * (rho + eps)^2 < 1, which implies the
    success margin lam_min > 1 - 1/rho^2 and alpha = (1 - lam_min) * (rho^2 +
    eps) < 1. Raises ValueError when the hypothesis fails."""
    rho, fail = spectral_radius, 1.0 - lam_min
    if rho >= 1.0 and fail * (rho + eps) ** 2 >= 1.0:
        cause = ("the success margin lam_min > 1 - 1/rho(A)^2 fails, so the "
                 "discounted cost need not be finite" if fail * rho**2 >= 1.0
                 else "the success margin holds; decrease weight_eps")
        raise ValueError(
            f"contraction hypothesis violated: (1-lam_min)*(rho+eps)^2 = "
            f"{fail * (rho + eps) ** 2} >= 1 (min success prob {lam_min}, rho(A) = "
            f"{rho}, weight_eps = {eps}, alpha = {fail * (rho**2 + eps)}); {cause}")


def value_iterate(ch: ChannelModel, cost: StageCost, cfg: SolverConfig) -> Solution:
    """Value iteration from Q = 0 until the weighted-norm residual of one
    sweep drops below cfg.vi_tol.

    Raises ConvergenceError (with the residual history) if max_sweeps is
    exhausted, and ValueError if the contraction hypothesis fails.
    """
    _require_contraction(ch.min_success_prob(), cost.spectral_radius, cfg.weight_eps)
    _check_problem(ch, cost, cfg)
    grid = cfg.belief_grid()
    Q, sweeps, history = _iterate(lambda Q: Q.min(axis=2), _stencil(ch, grid),
                                  cost.holding.costs, cost.action_costs, cfg,
                                  cost.spectral_radius, "value iteration")
    return Solution(Qfun=Q, V=Q.min(axis=2), policy=greedy_policy(Q, cfg.tie_break),
                    belief_grid=grid, sweeps_used=sweeps, final_residual=history[-1],
                    residual_history=tuple(history))


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
    """Analytic m-stage contraction certificate plus an empirical check."""

    m: int
    certified_bound: float
    alpha: float
    weight_base: float
    empirical_max_ratio: float
    trials: int

    @property
    def ok(self) -> bool:
        return self.certified_bound < 1.0 and self.empirical_max_ratio < 1.0

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
    ratio down (the weights are nondecreasing, so tau+m first, then y = m-1
    down to 0).
    """
    atoms = [(base ** (2.0 * m), (1.0 - lam_min) ** m)]
    for y in range(m - 1, -1, -1):
        atoms.append((base ** (2.0 * (y - tau)), (1.0 - lam_min) ** y))
    atoms.sort(key=lambda t: -t[0])
    budget = 1.0
    total = 0.0
    for ratio, cap in atoms:
        take = min(cap, budget)
        total += take * ratio
        budget -= take
        if budget <= 0.0:
            break
    return total


def check_contraction(ch: ChannelModel, sys: LtiSystem, cost: StageCost,
                      cfg: SolverConfig, trials: int = 100, seed: int = 20260811,
                      m_max: int = 500) -> ContractionReport:
    """Certify the m-stage contraction of the Bellman operator in the
    weighted sup-norm and measure it empirically.

    Analytic part: the smallest m with gamma^m * sup over the truncated tau
    range of the worst-case weighted outcome mass below 1. Empirical part:
    the max over seeded random bounded Q pairs of the ratio
    ||T^m Q1 - T^m Q2|| / ||Q1 - Q2|| in the same norm. Raises ValueError
    when the solver's contraction hypothesis fails (see _require_contraction).
    """
    lam_min = ch.min_success_prob()
    rho = sys.spectral_radius()
    eps = cfg.weight_eps
    _require_contraction(lam_min, rho, eps)
    alpha = (1.0 - lam_min) * (rho**2 + eps)
    base = _weight_base(rho, eps)
    m_found = None
    bound_found = np.inf
    for m in range(1, m_max + 1):
        worst = max(_mass_ratio_bound(tau, m, lam_min, base)
                    for tau in range(cfg.tau_max + 1))
        value = cfg.gamma**m * worst
        if value < 1.0:
            m_found, bound_found = m, value
            break
    if m_found is None:
        raise ConvergenceError(f"no contraction stage found up to m={m_max}")
    rng = np.random.default_rng(seed)
    shape = (cfg.tau_max + 1, cfg.grid_n + 1, ch.n_actions)
    stencil = _stencil(ch, cfg.belief_grid())
    cs, ca = cost.holding.costs, cost.action_costs
    worst_ratio = 0.0
    for _ in range(trials):
        Q1 = rng.uniform(0.0, 10.0, size=shape)
        Q2 = rng.uniform(0.0, 10.0, size=shape)
        denom = weighted_norm(Q1 - Q2, rho, eps)
        A, B = Q1, Q2
        for _ in range(m_found):
            A = _bellman(A.min(axis=2), stencil, cs, ca, cfg.gamma)
            B = _bellman(B.min(axis=2), stencil, cs, ca, cfg.gamma)
        ratio = weighted_norm(A - B, rho, eps) / denom if denom > 0 else 0.0
        worst_ratio = max(worst_ratio, ratio)
    return ContractionReport(m=m_found, certified_bound=bound_found, alpha=alpha,
                             weight_base=base, empirical_max_ratio=worst_ratio,
                             trials=trials)
