import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import txsched as tx
from conftest import (bayes_enumeration_oracle, channels, random_channel,
                      sampled_contraction_ratio, sampled_update_monotonicity)
from oracles import (bellman_apply, bellman_sweep, belief_update, observation_likelihood,
                     policy_iteration, predictive_belief, weighted_norm)
from orders import FiniteDist, fsd_dominates, stage_cost
from txsched.belief_mdp import (_action_tables, _cell, _contraction_stage, _lattice_moduli,
                                _prolong, _stencil, greedy_policy)

ROOT = Path(__file__).resolve().parents[1]


class TestBeliefPrimitives:
    def test_predictive_examples(self, ge_channel):
        assert predictive_belief(ge_channel, 0.0) == pytest.approx(0.1, abs=1e-15)
        assert predictive_belief(ge_channel, 0.5) == pytest.approx(0.55, abs=1e-15)
        pers = tx.make_persistent_failure(0.1, 0.9, 0.2)
        assert predictive_belief(pers, 1.0) == 1.0

    def test_likelihood_examples(self, ge_channel):
        assert observation_likelihood(ge_channel, 3, 0.5, 0) == pytest.approx(0.515, abs=1e-15)
        assert observation_likelihood(ge_channel, 3, 0.5, 4) == pytest.approx(0.485, abs=1e-15)
        assert observation_likelihood(ge_channel, 3, 0.5, 2) == 0.0

    def test_likelihood_normalization_exact(self, ge_channel):
        for b in np.linspace(0.0, 1.0, 101):
            for tau in (0, 3, 17):
                s = observation_likelihood(ge_channel, tau, float(b), 0) \
                    + observation_likelihood(ge_channel, tau, float(b), tau + 1)
                assert s == 1.0

    def test_update_examples(self, ge_channel):
        assert belief_update(ge_channel, 3, 0.5, 0) == pytest.approx(0.2135922330097087, rel=1e-12)
        assert belief_update(ge_channel, 3, 0.5, 4) == pytest.approx(0.9072164948453608, rel=1e-12)

    def test_update_absorbing(self):
        pers = tx.make_persistent_failure(0.1, 0.9, 0.2)
        assert belief_update(pers, 2, 1.0, 0) == 1.0
        assert belief_update(pers, 2, 1.0, 3) == 1.0

    def test_update_off_support(self, ge_channel):
        with pytest.raises(tx.ZeroLikelihoodError):
            belief_update(ge_channel, 3, 0.5, 2)

    def test_update_matches_enumeration_oracle(self):
        rng = np.random.default_rng(20260811)
        worst = 0.0
        for _ in range(2000):
            ch = random_channel(rng)
            tau = int(rng.integers(0, 80))
            b = float(rng.random())
            y = 0 if rng.random() < 0.5 else tau + 1
            expected = bayes_enumeration_oracle(ch, tau, b, y)
            if expected is None:
                continue
            worst = max(worst, abs(belief_update(ch, tau, b, y) - expected))
        assert worst < 1e-12

    def test_bayes_consistency(self, ge_channel):
        # total probability: E[posterior] over the observation equals the
        # predictive belief
        for b in np.linspace(0.0, 1.0, 41):
            for tau in (0, 5, 30):
                s0 = observation_likelihood(ge_channel, tau, float(b), 0)
                s1 = observation_likelihood(ge_channel, tau, float(b), tau + 1)
                t0 = belief_update(ge_channel, tau, float(b), 0)
                t1 = belief_update(ge_channel, tau, float(b), tau + 1)
                bhat = predictive_belief(ge_channel, float(b))
                assert t0 * s0 + t1 * s1 == pytest.approx(bhat, abs=1e-12)


class TestStageCost:
    def test_belief_independent(self, cost_table):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0, 2.5]))
        assert stage_cost(cost, 4, 0.2, 1) == stage_cost(cost, 4, 0.9, 1)
        assert stage_cost(cost, 4, 0.2, 1) == cost_table.costs[4] + 2.5

    def test_zero_holding(self, cost_table):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        assert stage_cost(cost, 0, 0.5, 0) == cost_table.costs[0]


class TestWeightedNorm:
    def test_zero(self):
        assert weighted_norm(np.zeros((5, 3)), 1.2, 0.01) == 0.0

    def test_weight_profile_normalization(self):
        s = tx.weight_profile(1.2, 0.01, 10)
        f = np.tile(s[:, None], (1, 4))
        assert weighted_norm(f, 1.2, 0.01) == pytest.approx(1.0, rel=1e-12)

    def test_stable_plant_plain_sup(self, cost_table):
        # base clamps to 1 for a stable plant: the norm is the plain sup
        f = cost_table.costs[:, None] + np.array([[0.0, 1.5]])
        norm = weighted_norm(f, cost_table.spectral_radius, 0.01)
        assert norm == pytest.approx(np.max(cost_table.costs) + 1.5, rel=1e-12)

    def test_unstable_weights_grow(self):
        s = tx.weight_profile(1.05, 0.01, 5)
        assert np.all(np.diff(s) > 0)
        assert s[1] == pytest.approx(1.06**2, rel=1e-12)


def reference_bellman(ch, cost, cfg, Q):
    """Straight-line scalar evaluation of the Bellman operator: explicit
    loops, scalar belief primitives, pointwise interpolation."""
    grid = np.linspace(0.0, 1.0, cfg.grid_n + 1)
    Vmin = Q.min(axis=2)
    out = np.zeros_like(Q)
    for tau in range(cfg.tau_max + 1):
        for i, b in enumerate(grid):
            for a in range(ch.n_actions):
                total = 0.0
                for y in (0, tau + 1):
                    sig = observation_likelihood(ch, tau, float(b), y, a)
                    if sig == 0.0:
                        continue
                    t_new = belief_update(ch, tau, float(b), y, a)
                    row = min(y, cfg.tau_max)
                    total += sig * np.interp(t_new, grid, Vmin[row])
                out[tau, i, a] = (cost.holding.costs[tau]
                                  + cost.action_costs[a] + cfg.gamma * total)
    return out


class TestBellman:
    def test_zero_input_gives_stage_cost(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=0.95, tau_max=10, grid_n=8)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        Q = np.zeros((11, 9, 1))
        out = bellman_apply(ge_channel, cost, cfg, Q)
        expected = np.broadcast_to(cost_table.costs[:11, None, None], out.shape)
        assert np.array_equal(out, expected)

    def test_matches_reference_evaluator(self, cost_table):
        rng = np.random.default_rng(3)
        ch = tx.ChannelModel(
            lam=np.array([[0.9, 0.7], [0.2, 0.1]]),
            mode_kernel=np.array([[[0.9, 0.1], [0.0, 1.0]],
                                  [[0.8, 0.2], [0.3, 0.7]]]))
        cfg = tx.SolverConfig(gamma=0.9, tau_max=4, grid_n=4)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0, 1.0]))
        for _ in range(5):
            Q = rng.uniform(0.0, 10.0, size=(5, 5, 2))
            fast = bellman_apply(ch, cost, cfg, Q)
            slow = reference_bellman(ch, cost, cfg, Q)
            assert np.max(np.abs(fast - slow)) < 1e-13

    def test_preserves_monotonicity(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=0.95, tau_max=20, grid_n=40)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        Q = np.zeros((21, 41, 1))
        for _ in range(30):
            Q = bellman_apply(ge_channel, cost, cfg, Q)
            assert np.all(np.diff(Q, axis=0) >= -1e-12)
            assert np.all(np.diff(Q, axis=1) >= -1e-12)

    def test_monotone_operator(self, ge_channel, cost_table):
        rng = np.random.default_rng(4)
        cfg = tx.SolverConfig(gamma=0.9, tau_max=8, grid_n=10)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        for _ in range(10):
            Q1 = rng.uniform(0.0, 5.0, size=(9, 11, 1))
            Q2 = Q1 + rng.uniform(0.0, 3.0, size=Q1.shape)
            out1 = bellman_apply(ge_channel, cost, cfg, Q1)
            out2 = bellman_apply(ge_channel, cost, cfg, Q2)
            assert np.all(out1 <= out2 + 1e-12)


def rowwise_sweep(Q, tables, cs, ca, gamma, grid):
    """Row-wise Bellman sweep with one np.interp call per tau row and action:
    the reference the stencil kernel must match bit for bit."""
    tau_max = Q.shape[0] - 1
    Vmin = Q.min(axis=2)
    out = np.empty_like(Q)
    for a, (p_succ, t_succ, t_fail) in enumerate(tables):
        w_succ = np.interp(t_succ, grid, Vmin[0])
        w_fail_rows = np.zeros((tau_max + 1, grid.size))
        for r in range(1, tau_max + 1):  # row 0 unused: a failure always advances tau
            w_fail_rows[r] = np.interp(t_fail, grid, Vmin[r])
        cont = p_succ * w_succ
        for tau in range(tau_max + 1):
            nxt = min(tau + 1, tau_max)
            out[tau, :, a] = (cs[tau] + ca[a]
                              + gamma * (cont + (1.0 - p_succ) * w_fail_rows[nxt]))
    return out


def rowwise_stopping_sweep(Qc, c_stop, table, cs, gamma, grid):
    """Row-wise sweep of the continue branch of a stopping problem; the stop
    branch is the constant c_stop."""
    tau_max = Qc.shape[0] - 1
    Vmin = np.minimum(Qc, c_stop)
    p_succ, t_succ, t_fail = table
    w_succ = np.interp(t_succ, grid, Vmin[0])
    out = np.empty_like(Qc)
    w_fail = np.zeros((tau_max + 1, grid.size))
    for r in range(1, tau_max + 1):
        w_fail[r] = np.interp(t_fail, grid, Vmin[r])
    cont = p_succ * w_succ
    for tau in range(tau_max + 1):
        nxt = min(tau + 1, tau_max)
        out[tau] = cs[tau] + gamma * (cont + (1.0 - p_succ) * w_fail[nxt])
    return out


def rowwise_prolong(Q, coarse_grid, grid):
    """Q on coarse_grid read at the points of grid by one np.interp call per
    tau row (and action)."""
    return np.apply_along_axis(lambda row: np.interp(grid, coarse_grid, row), 1, Q)


U = 2.0 ** -53


def rowwise_solve(make_sweep, values, tail, cfg, pinned=False, nested=True, final=True):
    """Reference value iteration: make_sweep(grid) is the row-wise sweep on a
    belief grid and values(Q) its continuation values.

    With ``nested`` the solve starts from its own solve on grid_n // 10
    cells, when that has at least 20, carried over by rowwise_prolong (a
    coarse level out of sweeps hands on its last iterate), and otherwise from
    zeros of shape (tau_max + 1, grid_n + 1) + tail. Every plant, stable or
    not, stops on the span bound k * (max d - min d) / 2 (k = gamma /
    (1 - gamma), d the sweep's increment, widened to include 0 when a branch
    is pinned) plus the rounding term (1 + k) 16 u M + u (M + 10 k max|d|),
    M = max(|values(Q)|, |Qn|), once that is below cfg.vi_tol or the
    half-width is below the rounding term, and returns the bound's midpoint.
    Returns (Q, residual history, certified error, coarse levels)."""
    k = cfg.gamma / (1.0 - cfg.gamma)
    grid = cfg.belief_grid()
    sweep = make_sweep(grid)
    if nested and cfg.grid_n // 10 >= 20:
        coarse = replace(cfg, grid_n=cfg.grid_n // 10)
        Qc, hist, _, levels = rowwise_solve(make_sweep, values, tail, coarse, pinned,
                                            final=False)
        Q = rowwise_prolong(Qc, coarse.belief_grid(), grid)
        levels += ((coarse.grid_n, len(hist)),)
    else:
        Q, levels = np.zeros((cfg.tau_max + 1, cfg.grid_n + 1) + tail), ()
    history = []
    for _ in range(cfg.max_sweeps):
        Qn = sweep(Q)
        M = max(np.abs(values(Q)).max(), np.abs(Qn).max())
        d = Qn - Q
        history.append(float(np.abs(d).max()))
        lo, hi = float(d.min()), float(d.max())
        if pinned:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        half = k * (hi - lo) / 2.0
        rounding = (1.0 + k) * 16 * U * M + U * (M + 10.0 * k * history[-1])
        if half < cfg.vi_tol and (half + rounding < cfg.vi_tol or half < rounding):
            return Qn + k * (hi + lo) / 2.0, history, half + rounding, levels
        Q = Qn
    if final:
        raise AssertionError("reference value iteration did not converge")
    return Q, history, np.inf, levels


# exact 0 and 1 entries give absorbing modes and posteriors at the grid ends
_prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def tp2_channels(draw, max_actions=4):
    """Channel with one or more actions, each with a TP2 mode kernel
    (p00 + p11 >= 1) and lam_good >= lam_bad."""
    lam, kernels = [], []
    for _ in range(draw(st.integers(1, max_actions))):
        p00 = draw(_prob)
        p11 = draw(st.one_of(st.just(1.0), st.floats(1.0 - p00, 1.0)))
        lam_bad = draw(_prob)
        lam_good = draw(st.one_of(st.just(1.0), st.floats(lam_bad, 1.0)))
        lam.append([lam_good, lam_bad])
        kernels.append([[p00, 1.0 - p00], [1.0 - p11, p11]])
    return tx.ChannelModel(lam=np.array(lam).T, mode_kernel=np.array(kernels))


def _first_action(ch):
    return tx.ChannelModel(lam=ch.lam[:, :1], mode_kernel=ch.mode_kernel[:1])


def _random_costs(rng, tau_max):
    return tx.HoldingCostTable(costs=np.cumsum(rng.uniform(0.0, 1.0, tau_max + 1)),
                               spectral_radius=0.85)


class TestStencilKernel:
    """The stencil kernel against the row-wise np.interp sweep, with
    np.array_equal: the stencil reproduces np.interp's arithmetic, so no
    tolerance is needed."""

    def test_posterior_at_grid_end(self, cost_table):
        # absorbing unfavorable mode with lam_bad = 0: at b = 1 the failure
        # posterior is exactly 1.0, where np.interp returns the last value
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.0)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=6, grid_n=7)
        grid = cfg.belief_grid()
        tables = [_action_tables(ch, grid, 0)]
        assert tables[0][2][-1] == 1.0
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.5]))
        Q = np.random.default_rng(1).uniform(0.0, 10.0, (7, 8, 1))
        assert np.array_equal(bellman_apply(ch, cost, cfg, Q),
                              rowwise_sweep(Q, tables, cost_table.costs,
                                            np.array([0.5]), 0.95, grid))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ch=tp2_channels(), grid_n=st.integers(2, 2000), tau_max=st.integers(1, 80),
           gamma=st.floats(0.01, 0.999), c_stop=st.floats(0.0, 20.0),
           seed=st.integers(0, 2**32 - 1))
    def test_one_sweep_equals_rowwise_interp(self, ch, grid_n, tau_max, gamma,
                                             c_stop, seed):
        rng = np.random.default_rng(seed)
        holding = _random_costs(rng, tau_max)
        ca = rng.uniform(0.0, 2.0, ch.n_actions)
        cfg = tx.SolverConfig(gamma=gamma, tau_max=tau_max, grid_n=grid_n)
        grid = cfg.belief_grid()
        tables = [_action_tables(ch, grid, a) for a in range(ch.n_actions)]
        Q = rng.uniform(0.0, 10.0, (tau_max + 1, grid_n + 1, ch.n_actions))
        cost = tx.StageCost(holding=holding, action_costs=ca)
        assert np.array_equal(bellman_apply(ch, cost, cfg, Q),
                              rowwise_sweep(Q, tables, holding.costs, ca, gamma, grid))
        # the stopping solver's sweep: continuation value min(Q, c_stop), no fee
        Qc = Q[:, :, 0]
        got = bellman_sweep(np.minimum(Qc, c_stop), _stencil(_first_action(ch), grid),
                            holding.costs[:, None], gamma)
        assert np.array_equal(got[:, 0], rowwise_stopping_sweep(
            Qc, c_stop, tables[0], holding.costs, gamma, grid))
        # the kernel's gathers clip their indices, so no cell may need it
        _, _, succ, fail = _stencil(ch, grid)
        for lo, hi, _, _ in (succ, fail):
            assert 0 <= lo.min() and np.all(lo <= hi) and hi.max() <= grid_n

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(ch=tp2_channels(), grid_n=st.integers(2, 300), tau_max=st.integers(1, 30),
           gamma=st.floats(0.3, 0.9), c_stop=st.floats(0.5, 20.0),
           seed=st.integers(0, 2**32 - 1))
    def test_solves_equal_rowwise_value_iteration(self, ch, grid_n, tau_max, gamma,
                                                  c_stop, seed):
        rng = np.random.default_rng(seed)
        holding = _random_costs(rng, tau_max)
        ca = rng.uniform(0.0, 2.0, ch.n_actions)
        cfg = tx.SolverConfig(gamma=gamma, tau_max=tau_max, grid_n=grid_n, vi_tol=1e-7)

        sol = tx.value_iterate(ch, tx.StageCost(holding=holding, action_costs=ca), cfg)
        Q, hist, certified, levels = rowwise_solve(
            lambda grid: _general_sweep(ch, holding, ca, gamma, grid),
            lambda Q: Q.min(axis=2), (ch.n_actions,), cfg)
        assert np.array_equal(sol.Qfun, Q)
        assert sol.residual_history == tuple(hist)
        assert sol.sweeps_used == len(hist)
        assert sol.certified_error == certified
        assert sol.coarse_levels == levels

        sol = tx.solve_stopping(tx.StoppingProblem(channel=_first_action(ch),
                                                   holding=holding, cfg=cfg,
                                                   c_stop=c_stop))
        Qc, hist, certified, levels = rowwise_solve(
            lambda grid: _stopping_sweep(ch, holding, c_stop, gamma, grid),
            lambda Qc: np.minimum(Qc, c_stop), (), cfg, pinned=True)
        assert np.array_equal(sol.Qfun[:, :, 0], Qc)
        assert sol.residual_history == tuple(hist)
        assert sol.sweeps_used == len(hist)
        assert sol.certified_error == certified
        assert sol.coarse_levels == levels

    @pytest.mark.parametrize("coarse_n, grid_n", [(20, 200), (200, 2000), (7, 73), (2, 3)])
    def test_prolongation_equals_rowwise_interp(self, coarse_n, grid_n):
        rng = np.random.default_rng(grid_n)
        coarse_grid, grid = np.linspace(0.0, 1.0, coarse_n + 1), np.linspace(0.0, 1.0, grid_n + 1)
        lo, hi, _, _ = _cell(grid, coarse_grid)
        assert 0 <= lo.min() and np.all(lo <= hi) and hi.max() <= coarse_n
        for shape in ((5, 1, coarse_n + 1), (3, 3, coarse_n + 1)):  # (tau, action, belief)
            Q = rng.uniform(-10.0, 10.0, shape)
            got = _prolong(Q, coarse_grid, grid)
            assert got.flags.c_contiguous
            assert np.array_equal(got.swapaxes(1, 2),
                                  rowwise_prolong(Q.swapaxes(1, 2), coarse_grid, grid))


def _general_sweep(ch, holding, ca, gamma, grid):
    tables = [_action_tables(ch, grid, a) for a in range(ch.n_actions)]
    return lambda Q: rowwise_sweep(Q, tables, holding.costs, ca, gamma, grid)


def _stopping_sweep(ch, holding, c_stop, gamma, grid):
    table = _action_tables(ch, grid, 0)
    return lambda Qc: rowwise_stopping_sweep(Qc, c_stop, table, holding.costs, gamma, grid)


def _unstable_problem(tau_max, grid_n):
    sys_u = tx.LtiSystem(A=1.05, C=1.0, Q=0.3, R=0.3)
    table = tx.holding_cost_table(sys_u, tx.steady_state_covariance(sys_u), tau_max)
    ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.5)
    return sys_u, table, ch, tx.SolverConfig(gamma=0.95, tau_max=tau_max, grid_n=grid_n)


class TestCertifiedError:
    """Every solve's certified_error bounds its sup-norm distance from a
    solve with a much tighter tolerance (which carries its own bound), for
    stable and unstable plants alike."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ch=tp2_channels(), grid_n=st.integers(2, 40), tau_max=st.integers(1, 20),
           gamma=st.floats(0.3, 0.95), c_stop=st.floats(0.5, 20.0),
           vi_tol=st.sampled_from([1e-3, 1e-5, 1e-7]), seed=st.integers(0, 2**32 - 1))
    def test_span_bound_on_stable_plants(self, ch, grid_n, tau_max, gamma, c_stop,
                                         vi_tol, seed):
        rng = np.random.default_rng(seed)
        holding = _random_costs(rng, tau_max)
        cost = tx.StageCost(holding=holding, action_costs=rng.uniform(0.0, 2.0, ch.n_actions))
        cfg = tx.SolverConfig(gamma=gamma, tau_max=tau_max, grid_n=grid_n, vi_tol=vi_tol)
        tight = replace(cfg, vi_tol=1e-11, max_sweeps=20_000)
        solvers = (lambda cfg: tx.value_iterate(ch, cost, cfg),
                   lambda cfg: tx.solve_stopping(tx.StoppingProblem(
                       channel=_first_action(ch), holding=holding, cfg=cfg, c_stop=c_stop)))
        for solve in solvers:
            sol, ref = solve(cfg), solve(tight)
            assert sol.certified_error < vi_tol
            assert np.max(np.abs(sol.Qfun - ref.Qfun)) \
                <= sol.certified_error + ref.certified_error

    @pytest.mark.parametrize("stopping", [False, True])
    def test_span_bound_on_unstable_plant(self, stopping):
        # tau is clamped at tau_max, so the lattice problem of an unstable
        # plant is a finite discounted MDP too, and the span rule certifies
        # its absolute error; the weighted distance is no larger (s >= 1)
        sys_u, table, ch, cfg = _unstable_problem(30, 30)
        cfg = replace(cfg, vi_tol=1e-5)
        tight = replace(cfg, vi_tol=1e-12)
        if stopping:
            sol, ref = (tx.solve_stopping(tx.StoppingProblem(
                channel=ch, holding=table, cfg=c, c_stop=10.0)) for c in (cfg, tight))
        else:
            cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
            sol, ref = (tx.value_iterate(ch, cost, c) for c in (cfg, tight))
        assert sol.certified_error < cfg.vi_tol
        dist = np.max(np.abs(sol.Qfun - ref.Qfun))
        assert dist <= sol.certified_error + ref.certified_error
        assert weighted_norm(sol.Qfun - ref.Qfun, sys_u.spectral_radius(),
                             cfg.weight_eps) <= dist

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(ch=tp2_channels(), unstable=st.booleans(), grid_n=st.integers(200, 420),
           tau_max=st.integers(1, 10), gamma=st.floats(0.3, 0.9),
           c_stop=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_nested_solve_within_certified_errors_of_cold_solve(
            self, ch, unstable, grid_n, tau_max, gamma, c_stop, seed):
        rng = np.random.default_rng(seed)
        rho = 1.05 if unstable else 0.85
        growth = rho ** (2 * np.arange(tau_max + 1))
        holding = tx.HoldingCostTable(
            costs=np.cumsum(rng.uniform(0.0, 1.0, tau_max + 1)) * growth, spectral_radius=rho)
        if unstable:  # success at least 0.5 meets (1 - lam_min) (rho + eps)^2 < 1
            ch = tx.ChannelModel(lam=0.5 + 0.5 * ch.lam, mode_kernel=ch.mode_kernel)
        ca = rng.uniform(0.0, 2.0, ch.n_actions)
        cfg = tx.SolverConfig(gamma=gamma, tau_max=tau_max, grid_n=grid_n, vi_tol=1e-7)
        stop_ch = _first_action(ch)
        nested = (tx.value_iterate(ch, tx.StageCost(holding=holding, action_costs=ca), cfg),
                  tx.solve_stopping(tx.StoppingProblem(channel=stop_ch, holding=holding,
                                                       cfg=cfg, c_stop=c_stop)))
        references = ((lambda grid: _general_sweep(ch, holding, ca, gamma, grid),
                       lambda Q: Q.min(axis=2), (ch.n_actions,), False),
                      (lambda grid: _stopping_sweep(ch, holding, c_stop, gamma, grid),
                       lambda Qc: np.minimum(Qc, c_stop), (), True))
        for sol, (make_sweep, values, tail, pinned) in zip(nested, references):
            Q, hist, certified, levels = rowwise_solve(make_sweep, values, tail, cfg, pinned)
            assert np.array_equal(sol.Qfun[:, :, 0] if pinned else sol.Qfun, Q)
            assert sol.residual_history == tuple(hist)
            assert (sol.certified_error, sol.coarse_levels) == (certified, levels)
            assert levels[-1][0] == grid_n // 10
            Q, _, certified, levels = rowwise_solve(make_sweep, values, tail, cfg, pinned,
                                                    nested=False)
            assert levels == ()
            Q = Q.reshape(sol.Qfun.shape[:2] + (-1,))  # the stopping reference: continue only
            dist = np.max(np.abs(sol.Qfun[:, :, :Q.shape[2]] - Q))
            assert dist <= sol.certified_error + certified

    def test_coarse_levels_hand_on_their_last_iterate(self):
        # a cold solve of this problem needs 183 sweeps: within 150 only the
        # nested solve certifies, after grid 20 ran out of sweeps
        sys_u, table, ch, cfg = _unstable_problem(60, 2000)
        cfg = replace(cfg, max_sweeps=150)
        prob = tx.StoppingProblem(channel=ch, holding=table, cfg=cfg, c_stop=10.0)
        sol = tx.solve_stopping(prob)
        assert sol.coarse_levels[0] == (20, 150)
        assert [g for g, _ in sol.coarse_levels] == [20, 200]
        assert sol.sweeps_used < 150 and sol.final_residual < cfg.vi_tol
        assert np.isfinite(sol.certified_error)
        with pytest.raises(tx.ConvergenceError):
            tx.solve_stopping(replace(prob, cfg=replace(cfg, grid_n=20)))
        # the handed-on iterate sits in a buffer the sweep reuses: the solve
        # equals the row-wise reference, which allocates every array afresh
        Q, hist, certified, levels = rowwise_solve(
            lambda grid: _stopping_sweep(ch, table, 10.0, cfg.gamma, grid),
            lambda Qc: np.minimum(Qc, 10.0), (), cfg, pinned=True)
        assert np.array_equal(sol.Qfun[:, :, 0], Q)
        assert (sol.residual_history, sol.certified_error) == (tuple(hist), certified)
        assert sol.coarse_levels == levels
        # a general problem with two actions: grids 20 and 200 both run out
        # of their 60 sweeps (a cold grid 20 needs 133) and hand on
        cfg = replace(cfg, max_sweeps=60)
        ch = tx.ChannelModel(lam=np.array([[0.9, 0.95], [0.5, 0.7]]),
                             mode_kernel=np.array([[[0.9, 0.1], [0.0, 1.0]],
                                                   [[0.95, 0.05], [0.2, 0.8]]]))
        ca = np.array([0.0, 1.0])
        sol = tx.value_iterate(ch, tx.StageCost(holding=table, action_costs=ca), cfg)
        assert sol.coarse_levels == ((20, 60), (200, 60))
        assert sol.certified_error < cfg.vi_tol
        Q, hist, certified, levels = rowwise_solve(
            lambda grid: _general_sweep(ch, table, ca, cfg.gamma, grid),
            lambda Q: Q.min(axis=2), (ch.n_actions,), cfg)
        assert np.array_equal(sol.Qfun, Q)
        assert (sol.residual_history, sol.certified_error) == (tuple(hist), certified)
        assert sol.coarse_levels == levels

    def test_unstable_solve_computes_no_lattice_moduli(self, monkeypatch):
        # every grid of an unstable plant stops on the span rule, which
        # needs no lattice moduli: the solve never computes them
        sys_u, table, ch, cfg = _unstable_problem(60, 2000)
        grids = []

        def spy(stencil, *args):
            grids.append(stencil[0].shape[1] - 1)
            return _lattice_moduli(stencil, *args)

        monkeypatch.setattr("txsched.belief_mdp._lattice_moduli", spy)
        sol = tx.solve_stopping(tx.StoppingProblem(channel=ch, holding=table, cfg=cfg,
                                                   c_stop=10.0))
        assert grids == []
        assert (sol.sweeps_used, sol.coarse_levels) == (3, ((20, 200), (200, 4)))
        assert sol.certified_error <= cfg.vi_tol
        Q, _, certified, levels = rowwise_solve(
            lambda grid: _stopping_sweep(ch, table, 10.0, cfg.gamma, grid),
            lambda Qc: np.minimum(Qc, 10.0), (), cfg, True)
        assert np.array_equal(sol.Qfun[:, :, 0], Q)
        assert (sol.certified_error, sol.coarse_levels) == (certified, levels)

    def test_rounding_floor_is_certified(self, ge_channel, cost_table, solver_cfg):
        # vi_tol 1e-14 lies below the sweep's rounding: the solve reaches a
        # float fixed point, and its bound is the rounding term, not 0
        for grid_n in (20, 200):
            cfg = replace(solver_cfg, grid_n=grid_n, vi_tol=1e-14)
            sol = tx.solve_stopping(tx.StoppingProblem(channel=ge_channel, holding=cost_table,
                                                       cfg=cfg, c_stop=10.0))
            assert sol.residual_history[-1] == 0.0
            assert 16 * U * 10.0 < sol.certified_error < 1e-12

    def test_lattice_modulus_is_attained(self):
        # with one action T^m is affine, so Q1 - Q2 = s attains the modulus
        # exactly; the sampled ratio stays far below it
        sys_u, table, ch, cfg = _unstable_problem(60, 60)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        s = tx.weight_profile(sys_u.spectral_radius(), cfg.weight_eps, cfg.tau_max)
        moduli = _lattice_moduli(_stencil(ch, cfg.belief_grid()), s, cfg.gamma, 4)
        Q1 = np.repeat(s[:, None, None], cfg.grid_n + 1, axis=1)
        Q2 = np.zeros_like(Q1)
        for m in range(1, 5):
            Q1 = bellman_apply(ch, cost, cfg, Q1)
            Q2 = bellman_apply(ch, cost, cfg, Q2)
            ratio = weighted_norm(Q1 - Q2, sys_u.spectral_radius(), cfg.weight_eps)
            assert ratio == pytest.approx(moduli[m - 1], rel=1e-9)
        assert moduli[0] > 1.0 > moduli[3]
        rep = tx.check_contraction(ch, sys_u, cfg)
        assert rep.m == 4 and rep.lattice_modulus == moduli[3]
        assert sampled_contraction_ratio(ch, sys_u, cost, cfg, 4, trials=5) < moduli[3]

    def test_general_problem_at_gamma_099_within_default_sweeps(self, plant, steady):
        # two actions, gamma 0.99: the old residual rule needed 2 022 sweeps
        ch = tx.ChannelModel(lam=np.array([[0.6, 0.95], [0.1, 0.5]]),
                             mode_kernel=np.array([[[0.9, 0.1], [0.0, 1.0]],
                                                   [[0.95, 0.05], [0.2, 0.8]]]))
        cost = tx.StageCost(holding=tx.holding_cost_table(plant, steady, 60),
                            action_costs=np.array([0.0, 1.0]))
        cfg = tx.SolverConfig(gamma=0.99)
        sol = tx.value_iterate(ch, cost, cfg)
        assert sol.sweeps_used <= cfg.max_sweeps == 2000
        assert sol.certified_error < cfg.vi_tol


# NaNs with three payloads (one negative, one signaling), signed zeros,
# infinities, the smallest subnormal and two ordinary values that tie often
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000ABC, 0x7FF0000000000001,
                0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x0000000000000001, 0x3FF0000000000000,
                0xBFF0000000000000]


def assert_argmin_policies(Q):
    """greedy_policy against np.argmin: the first minimizer for tie_break
    'low', the last for 'high' (the first of the reversed actions); its V
    is Q.min(axis=2) bit for bit."""
    (v_low, low), (v_high, high) = greedy_policy(Q, "low"), greedy_policy(Q, "high")
    for v in (v_low, v_high):
        assert np.array_equal(v.view(np.uint64), Q.min(axis=2).view(np.uint64))
    assert low.dtype == high.dtype == np.int64
    assert np.array_equal(low, np.argmin(Q, axis=2))
    assert np.array_equal(high, Q.shape[2] - 1 - np.argmin(Q[:, :, ::-1], axis=2))


class TestActionReduction:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n_actions=st.integers(1, 4), n_tau=st.integers(1, 4), n_b=st.integers(1, 12),
           data=st.data())
    def test_bit_identical_to_numpy_reduction(self, n_actions, n_tau, n_b, data):
        # compared as bits, so the sign of a zero and a NaN's payload count
        words = data.draw(st.lists(
            st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
            min_size=n_tau * n_b * n_actions, max_size=n_tau * n_b * n_actions))
        Q = np.array(words, dtype=np.uint64).view(np.float64).reshape(n_tau, n_b, n_actions)
        assert_argmin_policies(Q)

    @pytest.mark.parametrize("n_actions", [1, 2, 3, 4])
    def test_every_tuple_of_special_values(self, n_actions):
        cells = list(itertools.product(SPECIAL_BITS, repeat=n_actions))
        Q = np.array(cells, dtype=np.uint64).view(np.float64).reshape(1, -1, n_actions)
        assert_argmin_policies(Q)
        # the NaN-free lattice takes the elementwise path, also for a long row
        assert_argmin_policies(np.where(np.isnan(Q), 0.0, Q).repeat(8, axis=1))


class TestExactLatticeOracle:
    """Value iteration against an exact solve of the same lattice problem by
    policy iteration (oracles.policy_iteration), which carries its own bound:
    the certified error bounds the distance between them, and the policies
    agree wherever the exact solve's action gap is wider than twice the two
    bounds together."""

    @staticmethod
    def solve_both(ch, plant, cfg, c_stop=None, action_fee=0.0):
        table = tx.holding_cost_table(plant, tx.steady_state_covariance(plant), cfg.tau_max)
        if c_stop is None:
            cost = tx.StageCost(holding=table, action_costs=[0.0, action_fee][:ch.n_actions])
            sol = tx.value_iterate(ch, cost, cfg)
        else:
            cost = tx.StageCost(holding=table, action_costs=[0.0])
            sol = tx.solve_stopping(tx.StoppingProblem(channel=ch, holding=table, cfg=cfg,
                                                       c_stop=c_stop))
        return sol, policy_iteration(ch, cost, cfg, c_stop)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ch=channels(), stopping=st.booleans(),
           a=st.one_of(st.floats(-0.95, 0.95), st.floats(1.0, 1.3)),
           tau_max=st.integers(10, 20), gamma=st.floats(0.5, 0.99),
           grid_n=st.one_of(st.integers(10, 60), st.integers(200, 230)),
           c_stop=st.floats(0.5, 20.0), action_fee=st.floats(0.0, 2.0))
    def test_certificate_and_policy_against_the_exact_solve(self, ch, stopping, a, tau_max,
                                                             gamma, grid_n, c_stop, action_fee):
        # grids from 200 are solved on nested grids, smaller ones on one level
        plant = tx.LtiSystem(A=a, C=1.0, Q=0.3, R=0.3)
        if a >= 1.0:  # success at least 0.5 meets (1 - lam_min) (rho + eps)^2 < 1
            ch = tx.ChannelModel(lam=0.5 + 0.5 * ch.lam, mode_kernel=ch.mode_kernel)
        if stopping:
            ch = _first_action(ch)
        cfg = tx.SolverConfig(gamma=gamma, tau_max=tau_max, grid_n=grid_n, max_sweeps=20_000)
        sol, (Q, bound) = self.solve_both(ch, plant, cfg, c_stop if stopping else None,
                                          action_fee)
        within = sol.certified_error + bound
        assert np.max(np.abs(sol.Qfun - Q)) <= within
        ranked = np.sort(Q, axis=2)
        gap = ranked[:, :, 1] - ranked[:, :, 0] if Q.shape[2] > 1 else np.inf
        wide = np.broadcast_to(gap > 2.0 * within, sol.policy.shape)
        assert np.array_equal(sol.policy[wide], Q.argmin(axis=2)[wide])

    @pytest.mark.xfail(strict=True, raises=tx.ConvergenceError,
                       reason="ROADMAP item 4: at gamma 0.9999 the nested grid's start "
                              "keeps the rounding term above vi_tol")
    def test_gamma_near_one_certifies(self):
        cfg = tx.load_config(ROOT / "bench/workloads/general-slow.yaml")
        solver = replace(cfg.solver, gamma=0.9999, max_sweeps=2000)
        sol, (Q, bound) = self.solve_both(cfg.channel, cfg.system, solver,
                                          action_fee=float(cfg.action_costs[1]))
        assert np.max(np.abs(sol.Qfun - Q)) <= sol.certified_error + bound
        assert sol.certified_error <= solver.vi_tol


class TestValueIterate:
    def test_myopic_limit(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=1e-9, tau_max=60, grid_n=50, vi_tol=1e-12)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        sol = tx.value_iterate(ge_channel, cost, cfg)
        assert np.max(np.abs(sol.V - cost_table.costs[:, None])) < 1e-6

    def test_cheapest_action_dominates(self, cost_table):
        ch = tx.ChannelModel(
            lam=np.array([[0.9, 0.9], [0.2, 0.2]]),
            mode_kernel=np.array([[[0.9, 0.1], [0.0, 1.0]]] * 2))
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0, 5.0]))
        cfg = tx.SolverConfig(gamma=0.9, tau_max=20, grid_n=30, vi_tol=1e-8)
        sol = tx.value_iterate(ch, cost, cfg)
        assert np.all(sol.policy == 0)
        assert np.all(sol.Qfun[:, :, 1] - sol.Qfun[:, :, 0] == pytest.approx(5.0, abs=1e-9))

    def test_residuals_decrease_and_meet_tol(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=0.9, tau_max=20, grid_n=30, vi_tol=1e-9)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        sol = tx.value_iterate(ge_channel, cost, cfg)
        hist = np.array(sol.residual_history)
        assert sol.certified_error < cfg.vi_tol
        assert np.all(np.diff(hist[2:]) <= 1e-15)

    def test_solution_invariants(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=0.9, tau_max=10, grid_n=12, vi_tol=1e-9)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        sol = tx.value_iterate(ge_channel, cost, cfg)
        assert np.array_equal(sol.V, sol.Qfun.min(axis=2))
        assert np.all(sol.policy == 0)

    def test_max_sweeps_exhausted(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=0.95, tau_max=10, grid_n=10, vi_tol=1e-12,
                              max_sweeps=3)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        with pytest.raises(tx.ConvergenceError) as err:
            tx.value_iterate(ge_channel, cost, cfg)
        assert len(err.value.history) == 3

    def test_margin_precondition(self, ge_channel):
        sys_u = tx.LtiSystem(A=1.2, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_u)
        table = tx.holding_cost_table(sys_u, ss, 20)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        cfg = tx.SolverConfig(gamma=0.9, tau_max=20, grid_n=10)
        with pytest.raises(ValueError, match="margin"):
            tx.value_iterate(ge_channel, cost, cfg)

    def test_fixed_policy_value_is_grid_exact(self, ge_channel, cost_table):
        # with no decisions the value is linear in the belief, so the grid
        # solver is exact: refining the grid must not move V at common points
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        cfg1 = tx.SolverConfig(gamma=0.95, tau_max=30, grid_n=25, vi_tol=1e-10)
        cfg2 = tx.SolverConfig(gamma=0.95, tau_max=30, grid_n=50, vi_tol=1e-10)
        v1 = tx.value_iterate(ge_channel, cost, cfg1).V
        v2 = tx.value_iterate(ge_channel, cost, cfg2).V
        assert np.max(np.abs(v2[:, ::2] - v1)) < 1e-8


class TestSolverMemory:
    """The solver's own peak allocation, traced by tracemalloc (numpy reports
    its array buffers to it), in units of one iterate: (tau_max + 1) x
    (grid_n + 1) floats per swept action. A sweep holds two iterates, one
    interpolation buffer and V; a stopping solve peaks while its Solution
    copies Q with the stop column, V and the policy (8 units)."""

    @staticmethod
    def peak_iterates(workload, solve):
        cfg = tx.load_config(ROOT / "bench/workloads" / f"{workload}.yaml")
        table = tx.holding_cost_table(cfg.system, tx.steady_state_covariance(cfg.system),
                                      cfg.solver.tau_max)
        unit = (cfg.solver.tau_max + 1) * (cfg.solver.grid_n + 1) * cfg.channel.n_actions * 8
        solve(cfg, table)  # warm up: first calls may fill lazy caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve(cfg, table)
            return (tracemalloc.get_traced_memory()[1] - start) / unit
        finally:
            tracemalloc.stop()

    def test_general_solve(self):
        def solve(cfg, table):
            cost = tx.StageCost(holding=table, action_costs=cfg.action_costs)
            return tx.value_iterate(cfg.channel, cost, cfg.solver)
        assert self.peak_iterates("general-slow", solve) <= 5.0

    def test_stopping_solve(self):
        def solve(cfg, table):
            return tx.solve_stopping(tx.StoppingProblem(channel=cfg.channel, holding=table,
                                                        cfg=cfg.solver, c_stop=cfg.c_stop))
        assert self.peak_iterates("fine-unstable", solve) <= 8.1


class TestUpdateMonotonicity:
    def test_reference_channel_clean(self, ge_channel):
        rep = tx.verify_update_monotonicity(ge_channel, tau_max=40, grid_n=100)
        assert rep.ok
        assert rep.update_violations == ()
        assert rep.fsd_violations == ()
        assert rep.n_fsd_checks == 41 * 42 // 2 * 101 * 102 // 2

    def test_update_values_increase_in_y(self, ge_channel):
        t0 = belief_update(ge_channel, 3, 0.5, 0)
        t1 = belief_update(ge_channel, 3, 0.5, 4)
        assert t0 <= t1

    def test_non_tp2_mode_kernel_not_asserted(self):
        # hypothesis withdrawn: the predictive belief falls as b rises, so
        # the failure probability falls too and the likelihood order breaks
        ch = tx.ChannelModel(lam=np.array([[0.9], [0.2]]),
                             mode_kernel=np.array([[[0.4, 0.6], [0.7, 0.3]]]))
        rep = tx.verify_update_monotonicity(ch, tau_max=10, grid_n=40)
        assert rep.n_fsd_checks == 11 * 12 // 2 * 41 * 42 // 2
        assert rep.fsd_violations
        assert not rep.ok

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ch=channels(lam_prob=st.floats(0.001, 0.999)), grid_n=st.integers(2, 60),
           tau_max=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_covers_sampled_oracle(self, ch, grid_n, tau_max, seed):
        rep = tx.verify_update_monotonicity(ch, tau_max=tau_max, grid_n=grid_n)
        oracle = sampled_update_monotonicity(ch, tau_max=tau_max, grid_n=grid_n,
                                             n_samples=400, seed=seed)
        # the update reads tau only through the support label
        assert not [v for v in oracle.update_violations if v[0] == "tau"]
        assert rep.update_violations == oracle.update_violations
        assert bool(rep.fsd_violations) >= bool(oracle.fsd_violations)
        assert rep.ok == (not rep.update_violations and not rep.fsd_violations)
        n_tau, n_b = tau_max + 1, grid_n + 1
        assert rep.n_fsd_checks == (ch.n_actions * n_tau * (n_tau + 1) // 2
                                    * n_b * (n_b + 1) // 2)
        for a, t1, b1, t2, b2, cut, gap in rep.fsd_violations:
            union = sorted({0, t1 + 1, t2 + 1})
            d1, d2 = (FiniteDist([observation_likelihood(ch, t, b, y, a)
                                  for y in union], support=union)
                      for t, b in ((t1, b1), (t2, b2)))
            res = fsd_dominates(d1, d2)
            assert not res
            assert (res.witness, res.value) == (cut, gap)


class TestValueMonotonicity:
    def test_reference_solution(self, stopping_solution):
        rep = tx.verify_value_monotonicity(stopping_solution)
        assert rep.ok
        assert rep.n_violations == 0

    def test_detects_violation(self, stopping_solution):
        Q = np.array(stopping_solution.Qfun)
        Q[5, 3, 0] = Q[5, 2, 0] - 1.0
        bad = tx.Solution(Qfun=Q, V=Q.min(axis=2),
                          policy=np.zeros(Q.shape[:2], dtype=int),
                          belief_grid=stopping_solution.belief_grid,
                          sweeps_used=1, final_residual=0.0)
        rep = tx.verify_value_monotonicity(bad)
        assert not rep.ok
        assert rep.worst_drop < -0.9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_degenerate_constant_cost_passes_weakly(self, ge_channel):
        # memoryless noiseless plant: the holding cost is identically zero,
        # so the value surface is constant and monotone only weakly
        sys_ = tx.LtiSystem(A=0.0, C=1.0, Q=0.0, R=0.3)
        ss = tx.steady_state_covariance(sys_)
        table = tx.holding_cost_table(sys_, ss, 20)
        assert np.all(table.costs == 0.0)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        cfg = tx.SolverConfig(gamma=0.9, tau_max=20, grid_n=20, vi_tol=1e-10)
        sol = tx.value_iterate(ge_channel, cost, cfg)
        assert np.all(sol.V == 0.0)
        assert tx.verify_value_monotonicity(sol).ok

    def test_random_instances(self):
        rng = np.random.default_rng(20260811)
        for _ in range(20):
            ch = random_channel(rng, force_tp2=True)
            a = float(rng.uniform(0.3, 0.95))
            sys_ = tx.LtiSystem(A=a, C=1.0, Q=float(rng.uniform(0.1, 1.0)),
                                R=float(rng.uniform(0.1, 1.0)))
            ss = tx.steady_state_covariance(sys_)
            table = tx.holding_cost_table(sys_, ss, 30)
            cfg = tx.SolverConfig(gamma=0.9, tau_max=30, grid_n=60, vi_tol=1e-8)
            prob = tx.StoppingProblem(channel=ch, holding=table, cfg=cfg,
                                      c_stop=float(rng.uniform(2.0, 20.0)))
            sol = tx.solve_stopping(prob)
            assert tx.verify_value_monotonicity(sol).ok


class TestContraction:
    def test_reference_configuration(self, plant, ge_channel, cost_table, solver_cfg):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        rep = tx.check_contraction(ge_channel, plant, solver_cfg)
        ratio = sampled_contraction_ratio(ge_channel, plant, cost, solver_cfg, rep.m,
                                          trials=30)
        assert rep.m == 1
        assert rep.certified_bound == pytest.approx(solver_cfg.gamma, rel=1e-12)
        assert rep.lattice_modulus <= solver_cfg.gamma + 1e-12
        assert ratio <= rep.lattice_modulus + 1e-12
        assert rep.ok

    def test_equal_inputs(self, plant, ge_channel, cost_table, solver_cfg):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        Q = np.random.default_rng(0).uniform(0, 5, (61, 201, 1))
        out1 = bellman_apply(ge_channel, cost, solver_cfg, Q)
        out2 = bellman_apply(ge_channel, cost, solver_cfg, Q)
        assert np.array_equal(out1, out2)

    def test_unstable_case(self):
        sys_u = tx.LtiSystem(A=1.05, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_u)
        table = tx.holding_cost_table(sys_u, ss, 60)
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.5)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=60)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        rep = tx.check_contraction(ch, sys_u, cfg)
        ratio = sampled_contraction_ratio(ch, sys_u, cost, cfg, rep.m, trials=20)
        assert rep.alpha == pytest.approx(0.5 * (1.05**2 + 0.01), rel=1e-12)
        assert rep.alpha < 1
        assert rep.m >= 1
        assert rep.certified_bound < 1.0
        assert rep.lattice_modulus < 1.0
        assert ratio <= rep.lattice_modulus + 1e-12

    def test_hypothesis_violation(self, ge_channel, cost_table, solver_cfg):
        sys_u = tx.LtiSystem(A=2.0, C=1.0, Q=0.3, R=0.3)
        with pytest.raises(ValueError, match="alpha"):
            tx.check_contraction(ge_channel, sys_u, solver_cfg)

    def test_stable_plant_with_lam_bad_zero(self, plant, cost_table, solver_cfg):
        # stable plant: the norm is the plain sup norm and the operator
        # contracts by gamma whatever the success probabilities are
        ch = tx.make_gilbert_elliott(1.0, 1.0, 1.0, 0.0, b0=0.5)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        rep = tx.check_contraction(ch, plant, solver_cfg)
        assert sampled_contraction_ratio(ch, plant, cost, solver_cfg, rep.m,
                                         trials=5) <= rep.lattice_modulus + 1e-12
        assert rep.m == 1
        assert rep.weight_base == 1.0
        assert rep.certified_bound == pytest.approx(solver_cfg.gamma, rel=1e-12)
        assert rep.ok

    def test_stable_plant_near_unit_radius(self):
        # 1 - weight_eps <= rho < 1: rho + eps exceeds 1, but the plant is
        # stable, so the norm stays the sup norm and one stage contracts
        sys_ = tx.LtiSystem(A=0.995, C=1.0, Q=0.3, R=0.3)
        table = tx.holding_cost_table(sys_, tx.steady_state_covariance(sys_), 60)
        ch = tx.make_gilbert_elliott(1.0, 1.0, 1.0, 0.0, b0=0.5)
        cfg = tx.SolverConfig(gamma=0.999, tau_max=60, grid_n=20)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        rep = tx.check_contraction(ch, sys_, cfg)
        assert sampled_contraction_ratio(ch, sys_, cost, cfg, rep.m,
                                         trials=3) <= rep.lattice_modulus + 1e-12
        assert rep.m == 1
        assert rep.weight_base == 1.0
        assert rep.certified_bound == pytest.approx(0.999, rel=1e-12)
        assert rep.ok
        assert np.array_equal(tx.weight_profile(0.995, 0.01, 60), np.ones(61))

    @pytest.mark.parametrize("A, lam_bad, eps, accepted", [
        (0.85, 0.0, 0.01, True),  # stable: no condition on the success probabilities
        (1.05, 0.5, 0.01, True),  # (1 - 0.5) * 1.06^2 < 1
        (1.05, 0.5, 0.9, False),  # success margin holds, weight_eps too large
        (1.2, 0.2, 0.01, False),  # success margin 1 - 1/1.2^2 > 0.2 fails
    ])
    def test_one_hypothesis_for_every_solver(self, A, lam_bad, eps, accepted):
        sys_ = tx.LtiSystem(A=A, C=1.0, Q=0.3, R=0.3)
        table = tx.holding_cost_table(sys_, tx.steady_state_covariance(sys_), 10)
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, lam_bad)
        cfg = tx.SolverConfig(gamma=0.9, tau_max=10, grid_n=4, weight_eps=eps)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        calls = (lambda: tx.value_iterate(ch, cost, cfg),
                 lambda: tx.solve_stopping(tx.StoppingProblem(
                     channel=ch, holding=table, cfg=cfg, c_stop=10.0)),
                 lambda: tx.check_contraction(ch, sys_, cfg))
        messages = set()
        for call in calls:
            if accepted:
                call()
                continue
            with pytest.raises(ValueError, match="contraction hypothesis") as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == (0 if accepted else 1)

    def test_growth_rate_reaches_the_hypothesis_from_the_cost_table(self):
        # a table once defaulted rho(A) to 0: the same costs without the
        # plant's rate solved A = 1.5 as if stable, certifying 4.2e-3 against
        # vi_tol 1e-9. Both routes to a table now carry rho and are refused
        sys_ = tx.LtiSystem(A=1.5, C=1.0, Q=0.3, R=0.3)
        table = tx.holding_cost_table(sys_, tx.steady_state_covariance(sys_), 30)
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.5, 0.1)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=30, grid_n=40)
        for holding in (table, tx.HoldingCostTable(costs=table.costs, spectral_radius=1.5)):
            for solve in (lambda: tx.value_iterate(ch, tx.StageCost(holding, [0.0]), cfg),
                          lambda: tx.solve_stopping(tx.StoppingProblem(ch, holding, cfg, 10.0))):
                with pytest.raises(ValueError, match=r"^contraction hypothesis violated: "
                                                     r"\(1-lam_min\)\*\(rho\+eps\)\^2 = 2\.05209"):
                    solve()

    def test_contraction_stage_is_the_sup_over_tau(self):
        # the stage reads only tau = 0; the search that takes the sup over
        # every truncated tau must find the same (m, bound), bit for bit
        from txsched.belief_mdp import _mass_ratio_bound
        rng = np.random.default_rng(14)
        for trial in range(40):
            lam_min = float(rng.uniform(0.05, 0.95))
            base = 1.0 if trial % 5 == 0 else float(rng.uniform(1.0, 1.2))
            gamma = float(rng.uniform(0.5, 0.999))
            tau_max, m_max = int(rng.integers(1, 25)), 40
            expected = (None, np.inf)
            for m in range(1, m_max + 1):
                value = gamma**m * max(_mass_ratio_bound(tau, m, lam_min, base)
                                       for tau in range(tau_max + 1))
                if value < 1.0:
                    expected = (m, value)
                    break
            assert _contraction_stage(lam_min, base, gamma, m_max) == expected

    def test_mass_ratio_bound_matches_lp(self):
        # the greedy fill must solve the capped weighted-mass maximization;
        # cross-check against a generic LP solver
        from scipy.optimize import linprog
        from txsched.belief_mdp import _mass_ratio_bound
        rng = np.random.default_rng(12)
        for _ in range(40):
            lam_min = float(rng.uniform(0.05, 0.95))
            base = float(rng.uniform(1.0, 1.2))
            m = int(rng.integers(1, 7))
            tau = int(rng.integers(0, 12))
            ratios = [base ** (2.0 * m)] \
                + [base ** (2.0 * (y - tau)) for y in range(m)]
            caps = [(1.0 - lam_min) ** m] \
                + [(1.0 - lam_min) ** y for y in range(m)]
            res = linprog(c=-np.array(ratios), A_eq=[np.ones(len(ratios))],
                          b_eq=[1.0], bounds=[(0, c) for c in caps],
                          method="highs")
            assert res.success
            assert _mass_ratio_bound(tau, m, lam_min, base) \
                == pytest.approx(-res.fun, rel=1e-10)


class TestTruncation:
    def test_doubling_tau_max_moves_v_within_clamp_bound(self, plant, steady,
                                                         ge_channel):
        # the boundary clamp freezes the holding cost at its tau_max value;
        # the induced bias is at most the remaining cost gap summed over the
        # discounted tail
        vals = {}
        for tm in (60, 120):
            table = tx.holding_cost_table(plant, steady, tm)
            cfg = tx.SolverConfig(gamma=0.95, tau_max=tm, grid_n=60,
                                  vi_tol=1e-10, max_sweeps=4000)
            cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
            vals[tm] = tx.value_iterate(ge_channel, cost, cfg).V
        table60 = tx.holding_cost_table(plant, steady, 60)
        limit = 0.3 / (1 - 0.85**2)
        bound = (limit - table60.costs[60]) / (1 - 0.95)
        assert np.max(np.abs(vals[120][:61] - vals[60])) <= bound


class TestGridRefinement:
    def test_stopping_refinement_converges(self, ge_channel, cost_table):
        # optimal-stopping V has kinks, so sup-norm refinement is first
        # order; successive grid diffs must still shrink and thresholds must
        # move by at most one coarse cell
        diffs = []
        sols = {}
        for n in (50, 100, 200):
            cfg = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=n, vi_tol=1e-10,
                                  max_sweeps=3000)
            sols[n] = tx.solve_stopping(tx.StoppingProblem(
                channel=ge_channel, holding=cost_table, cfg=cfg, c_stop=10.0))
        for a, b in ((50, 100), (100, 200)):
            k = b // a
            diffs.append(np.max(np.abs(sols[b].V[:, ::k] - sols[a].V)))
        assert diffs[1] < diffs[0]
        th_a = tx.extract_threshold(sols[100])
        th_b = tx.extract_threshold(sols[200])
        both = ~(th_a.is_sentinel | th_b.is_sentinel)
        assert np.array_equal(th_a.is_sentinel, th_b.is_sentinel)
        assert np.max(np.abs(th_a.b_th[both] - th_b.b_th[both])) <= 1.0 / 100 + 1e-12
