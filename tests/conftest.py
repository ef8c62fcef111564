import numpy as np
import pytest
from hypothesis import strategies as st

import txsched as tx

# reference configuration used across the suite
A, C, Q, R = 0.85, 1.0, 0.3, 0.3
LAM_GOOD, LAM_BAD = 0.9, 0.2
P00, P11 = 0.9, 1.0
GAMMA = 0.95
C_STOP = 10.0
TAU_MAX = 60
GRID_N = 200


@pytest.fixture(scope="session")
def plant():
    return tx.LtiSystem(A=A, C=C, Q=Q, R=R)


@pytest.fixture(scope="session")
def steady(plant):
    return tx.steady_state_covariance(plant)


@pytest.fixture(scope="session")
def cost_table(plant, steady):
    return tx.holding_cost_table(plant, steady, TAU_MAX)


@pytest.fixture(scope="session")
def ge_channel():
    return tx.make_gilbert_elliott(p00=P00, p11=P11, lam_good=LAM_GOOD,
                                   lam_bad=LAM_BAD, b0=0.0)


@pytest.fixture(scope="session")
def solver_cfg():
    return tx.SolverConfig(gamma=GAMMA, tau_max=TAU_MAX, grid_n=GRID_N,
                           vi_tol=1e-9, max_sweeps=2000)


@pytest.fixture(scope="session")
def stopping_solution(ge_channel, cost_table, solver_cfg):
    prob = tx.StoppingProblem(channel=ge_channel, holding=cost_table,
                              cfg=solver_cfg, c_stop=C_STOP)
    return tx.solve_stopping(prob)


def fixed_point_oracle(a, c, q, r, tol=1e-12, max_iter=100_000):
    """Independent scalar covariance fixed point: straight-line iteration of
    the measurement update composed with the time update, from 0."""
    x = 0.0
    for _ in range(max_iter):
        pred = a * x * a + q
        upd = pred - pred * c * (c * pred * c + r) ** -1 * c * pred
        if abs(upd - x) < tol:
            return upd
        x = upd
    raise AssertionError("oracle did not converge")


def bayes_enumeration_oracle(ch, tau, b, y, a=0):
    """Brute-force posterior: enumerate the joint law of (next mode, next
    holding time) explicitly and condition on y. Independent of the library's
    likelihood shortcuts."""
    joint = {}
    for theta_next in (0, 1):
        p_theta = (ch.mode_kernel[a, 0, theta_next] * (1.0 - b)
                   + ch.mode_kernel[a, 1, theta_next] * b)
        lam = ch.lam[theta_next, a]
        for y_val, p_y in ((0, lam), (tau + 1, 1.0 - lam)):
            joint[(theta_next, y_val)] = joint.get((theta_next, y_val), 0.0) \
                + p_theta * p_y
    evidence = joint.get((0, y), 0.0) + joint.get((1, y), 0.0)
    if evidence <= 0.0:
        return None
    return joint.get((1, y), 0.0) / evidence


def random_channel(rng, force_tp2=False):
    """Random single-action channel with lam_good >= lam_bad; force_tp2 also
    enforces p00 + p11 >= 1 so the mode kernel is TP2."""
    lam = np.sort(rng.random(2))[::-1]
    p00, p11 = rng.random(2)
    if force_tp2 and p00 + p11 < 1.0:
        p00, p11 = 1.0 - p00, 1.0 - p11
    b0 = rng.random()
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tx.make_gilbert_elliott(p00=float(p00), p11=float(p11),
                                       lam_good=float(lam[0]),
                                       lam_bad=float(lam[1]), b0=float(b0))


def _sigma_dist(ch, tau, b, a, union_support):
    pmf = [tx.observation_likelihood(ch, tau, b, y, a) for y in union_support]
    return tx.FiniteDist(np.asarray(pmf), support=np.asarray(union_support, dtype=float))


def sampled_update_monotonicity(ch, tau_max=60, grid_n=200, n_samples=10_000,
                                seed=20260811, tol=1e-12, max_witnesses=20):
    """Sampled reference for verify_update_monotonicity: the b and y clauses
    on the full grid, the tau clause on sampled tau pairs with scalar
    belief_update calls, and the likelihood order on n_samples sampled state
    pairs per action with FiniteDist and fsd_dominates."""
    from txsched.belief_mdp import UpdateMonotonicityReport, _action_tables
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    update_viol = []
    n_update = 0
    for a in range(ch.n_actions):
        p_succ, t_succ, t_fail = _action_tables(ch, grid, a)
        for name, t in (("b:success", t_succ), ("b:failure", t_fail)):
            n_update += grid_n
            drops = np.nonzero(np.diff(t) < -tol)[0]
            for i in drops[:max_witnesses]:
                update_viol.append((name, a, float(grid[i]), float(t[i + 1] - t[i])))
        n_update += grid_n + 1
        gaps = np.nonzero(t_succ - t_fail > tol)[0]
        for i in gaps[:max_witnesses]:
            update_viol.append(("y", a, float(grid[i]), float(t_succ[i] - t_fail[i])))
    rng = np.random.default_rng(seed)
    for a in range(ch.n_actions):
        taus = np.sort(rng.integers(0, tau_max + 1, size=(n_samples // 4, 2)), axis=1)
        bs = rng.random(n_samples // 4)
        ys = rng.integers(0, 2, size=n_samples // 4)
        for (t1, t2), b, ybr in zip(taus, bs, ys):
            n_update += 1
            u1 = tx.belief_update(ch, int(t1), float(b), 0 if ybr == 0 else int(t1) + 1, a)
            u2 = tx.belief_update(ch, int(t2), float(b), 0 if ybr == 0 else int(t2) + 1, a)
            if u2 - u1 < -tol and len(update_viol) < max_witnesses:
                update_viol.append(("tau", a, (int(t1), int(t2), float(b)), float(u2 - u1)))
    fsd_viol = []
    n_fsd = 0
    for a in range(ch.n_actions):
        taus = np.sort(rng.integers(0, tau_max + 1, size=(n_samples, 2)), axis=1)
        idx = np.sort(rng.integers(0, grid_n + 1, size=(n_samples, 2)), axis=1)
        for (t1, t2), (i1, i2) in zip(taus, idx):
            n_fsd += 1
            union = sorted({0, int(t1) + 1, int(t2) + 1})
            d1 = _sigma_dist(ch, int(t1), float(grid[i1]), a, union)
            d2 = _sigma_dist(ch, int(t2), float(grid[i2]), a, union)
            res = tx.fsd_dominates(d1, d2)
            if not res and len(fsd_viol) < max_witnesses:
                fsd_viol.append((a, int(t1), float(grid[i1]), int(t2), float(grid[i2]),
                                 res.witness, res.value))
    return UpdateMonotonicityReport(ok=not update_viol and not fsd_viol,
                                    update_violations=tuple(update_viol),
                                    fsd_violations=tuple(fsd_viol),
                                    n_update_checks=n_update, n_fsd_checks=n_fsd)


# exact 0 and 1 entries give absorbing modes and degenerate success rates
_prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def channels(draw, lam_prob=_prob, max_actions=2):
    """Channel with one or more actions, each with lam_good >= lam_bad drawn
    from lam_prob and a mode kernel that is TP2 (p00 + p11 >= 1) or not
    (p00 + p11 <= 1), half each."""
    lam, kernels = [], []
    for _ in range(draw(st.integers(1, max_actions))):
        p00 = draw(_prob)
        p11 = draw(st.floats(1.0 - p00, 1.0) if draw(st.booleans())
                   else st.floats(0.0, 1.0 - p00))
        lam.append(sorted((draw(lam_prob), draw(lam_prob)), reverse=True))
        kernels.append([[p00, 1.0 - p00], [1.0 - p11, p11]])
    return tx.ChannelModel(lam=np.array(lam).T, mode_kernel=np.array(kernels))
