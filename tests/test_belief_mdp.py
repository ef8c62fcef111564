import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import txsched as tx
from conftest import (bayes_enumeration_oracle, channels, random_channel,
                      sampled_update_monotonicity)
from txsched.belief_mdp import _action_tables, _bellman, _stencil


class TestBeliefPrimitives:
    def test_predictive_examples(self, ge_channel):
        assert tx.predictive_belief(ge_channel, 0.0) == pytest.approx(0.1, abs=1e-15)
        assert tx.predictive_belief(ge_channel, 0.5) == pytest.approx(0.55, abs=1e-15)
        pers = tx.make_persistent_failure(0.1, 0.9, 0.2)
        assert tx.predictive_belief(pers, 1.0) == 1.0

    def test_likelihood_examples(self, ge_channel):
        assert tx.observation_likelihood(ge_channel, 3, 0.5, 0) == pytest.approx(0.515, abs=1e-15)
        assert tx.observation_likelihood(ge_channel, 3, 0.5, 4) == pytest.approx(0.485, abs=1e-15)
        assert tx.observation_likelihood(ge_channel, 3, 0.5, 2) == 0.0

    def test_likelihood_normalization_exact(self, ge_channel):
        for b in np.linspace(0.0, 1.0, 101):
            for tau in (0, 3, 17):
                s = tx.observation_likelihood(ge_channel, tau, float(b), 0) \
                    + tx.observation_likelihood(ge_channel, tau, float(b), tau + 1)
                assert s == 1.0

    def test_update_examples(self, ge_channel):
        assert tx.belief_update(ge_channel, 3, 0.5, 0) == pytest.approx(0.2135922330097087, rel=1e-12)
        assert tx.belief_update(ge_channel, 3, 0.5, 4) == pytest.approx(0.9072164948453608, rel=1e-12)

    def test_update_absorbing(self):
        pers = tx.make_persistent_failure(0.1, 0.9, 0.2)
        assert tx.belief_update(pers, 2, 1.0, 0) == 1.0
        assert tx.belief_update(pers, 2, 1.0, 3) == 1.0

    def test_update_off_support(self, ge_channel):
        with pytest.raises(tx.ZeroLikelihoodError):
            tx.belief_update(ge_channel, 3, 0.5, 2)

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
            worst = max(worst, abs(tx.belief_update(ch, tau, b, y) - expected))
        assert worst < 1e-12

    def test_bayes_consistency(self, ge_channel):
        # total probability: E[posterior] over the observation equals the
        # predictive belief
        for b in np.linspace(0.0, 1.0, 41):
            for tau in (0, 5, 30):
                s0 = tx.observation_likelihood(ge_channel, tau, float(b), 0)
                s1 = tx.observation_likelihood(ge_channel, tau, float(b), tau + 1)
                t0 = tx.belief_update(ge_channel, tau, float(b), 0)
                t1 = tx.belief_update(ge_channel, tau, float(b), tau + 1)
                bhat = tx.predictive_belief(ge_channel, float(b))
                assert t0 * s0 + t1 * s1 == pytest.approx(bhat, abs=1e-12)


class TestStageCost:
    def test_belief_independent(self, cost_table):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0, 2.5]))
        assert tx.stage_cost(cost, 4, 0.2, 1) == tx.stage_cost(cost, 4, 0.9, 1)
        assert tx.stage_cost(cost, 4, 0.2, 1) == cost_table.costs[4] + 2.5

    def test_zero_holding(self, cost_table):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        assert tx.stage_cost(cost, 0, 0.5, 0) == cost_table.costs[0]


class TestWeightedNorm:
    def test_zero(self):
        assert tx.weighted_norm(np.zeros((5, 3)), 1.2, 0.01) == 0.0

    def test_weight_profile_normalization(self):
        s = tx.weight_profile(1.2, 0.01, 10)
        f = np.tile(s[:, None], (1, 4))
        assert tx.weighted_norm(f, 1.2, 0.01) == pytest.approx(1.0, rel=1e-12)

    def test_stable_plant_plain_sup(self, cost_table):
        # base clamps to 1 for a stable plant: the norm is the plain sup
        f = cost_table.costs[:, None] + np.array([[0.0, 1.5]])
        norm = tx.weighted_norm(f, cost_table.spectral_radius, 0.01)
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
                    sig = tx.observation_likelihood(ch, tau, float(b), y, a)
                    if sig == 0.0:
                        continue
                    t_new = tx.belief_update(ch, tau, float(b), y, a)
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
        out = tx.bellman_apply(ge_channel, cost, cfg, Q)
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
            fast = tx.bellman_apply(ch, cost, cfg, Q)
            slow = reference_bellman(ch, cost, cfg, Q)
            assert np.max(np.abs(fast - slow)) < 1e-13

    def test_preserves_monotonicity(self, ge_channel, cost_table):
        cfg = tx.SolverConfig(gamma=0.95, tau_max=20, grid_n=40)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        Q = np.zeros((21, 41, 1))
        for _ in range(30):
            Q = tx.bellman_apply(ge_channel, cost, cfg, Q)
            assert np.all(np.diff(Q, axis=0) >= -1e-12)
            assert np.all(np.diff(Q, axis=1) >= -1e-12)

    def test_monotone_operator(self, ge_channel, cost_table):
        rng = np.random.default_rng(4)
        cfg = tx.SolverConfig(gamma=0.9, tau_max=8, grid_n=10)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        for _ in range(10):
            Q1 = rng.uniform(0.0, 5.0, size=(9, 11, 1))
            Q2 = Q1 + rng.uniform(0.0, 3.0, size=Q1.shape)
            out1 = tx.bellman_apply(ge_channel, cost, cfg, Q1)
            out2 = tx.bellman_apply(ge_channel, cost, cfg, Q2)
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


def rowwise_solve(sweep, Q, s, cfg):
    """Reference value iteration: sweep until the weighted residual drops
    below cfg.vi_tol; returns (Q, residual history)."""
    history = []
    for _ in range(cfg.max_sweeps):
        Qn = sweep(Q)
        history.append(float(np.max(np.abs(Qn - Q).reshape(Q.shape[0], -1).max(axis=1) / s)))
        Q = Qn
        if history[-1] < cfg.vi_tol:
            break
    return Q, history


# exact 0 and 1 entries give absorbing modes and posteriors at the grid ends
_prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def tp2_channels(draw, max_actions=2):
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
        assert np.array_equal(tx.bellman_apply(ch, cost, cfg, Q),
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
        assert np.array_equal(tx.bellman_apply(ch, cost, cfg, Q),
                              rowwise_sweep(Q, tables, holding.costs, ca, gamma, grid))
        # the stopping solver's sweep: continuation value min(Q, c_stop), no fee
        Qc = Q[:, :, 0]
        got = _bellman(np.minimum(Qc, c_stop), _stencil(_first_action(ch), grid),
                       holding.costs, np.array([0.0]), gamma)
        assert np.array_equal(got[:, :, 0], rowwise_stopping_sweep(
            Qc, c_stop, tables[0], holding.costs, gamma, grid))

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
        grid = cfg.belief_grid()
        tables = [_action_tables(ch, grid, a) for a in range(ch.n_actions)]
        s = tx.weight_profile(holding.spectral_radius, cfg.weight_eps, tau_max)
        shape = (tau_max + 1, grid_n + 1)

        sol = tx.value_iterate(ch, tx.StageCost(holding=holding, action_costs=ca), cfg)
        Q, hist = rowwise_solve(
            lambda Q: rowwise_sweep(Q, tables, holding.costs, ca, gamma, grid),
            np.zeros(shape + (ch.n_actions,)), s, cfg)
        assert np.array_equal(sol.Qfun, Q)
        assert sol.residual_history == tuple(hist)
        assert sol.sweeps_used == len(hist)

        sol = tx.solve_stopping(tx.StoppingProblem(channel=_first_action(ch),
                                                   holding=holding, cfg=cfg,
                                                   c_stop=c_stop))
        Qc, hist = rowwise_solve(
            lambda Qc: rowwise_stopping_sweep(Qc, c_stop, tables[0], holding.costs,
                                              gamma, grid),
            np.zeros(shape), s, cfg)
        assert np.array_equal(sol.Qfun[:, :, 0], Qc)
        assert sol.residual_history == tuple(hist)
        assert sol.sweeps_used == len(hist)


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
        assert hist[-1] < cfg.vi_tol
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


class TestUpdateMonotonicity:
    def test_reference_channel_clean(self, ge_channel):
        rep = tx.verify_update_monotonicity(ge_channel, tau_max=40, grid_n=100)
        assert rep.ok
        assert rep.update_violations == ()
        assert rep.fsd_violations == ()
        assert rep.n_fsd_checks == 41 * 42 // 2 * 101 * 102 // 2

    def test_update_values_increase_in_y(self, ge_channel):
        t0 = tx.belief_update(ge_channel, 3, 0.5, 0)
        t1 = tx.belief_update(ge_channel, 3, 0.5, 4)
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
            d1, d2 = (tx.FiniteDist([tx.observation_likelihood(ch, t, b, y, a)
                                     for y in union], support=union)
                      for t, b in ((t1, b1), (t2, b2)))
            res = tx.fsd_dominates(d1, d2)
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
        rep = tx.check_contraction(ge_channel, plant, cost, solver_cfg, trials=30)
        assert rep.m == 1
        assert rep.certified_bound == pytest.approx(solver_cfg.gamma, rel=1e-12)
        assert rep.empirical_max_ratio <= solver_cfg.gamma + 1e-12
        assert rep.ok

    def test_equal_inputs(self, plant, ge_channel, cost_table, solver_cfg):
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        Q = np.random.default_rng(0).uniform(0, 5, (61, 201, 1))
        out1 = tx.bellman_apply(ge_channel, cost, solver_cfg, Q)
        out2 = tx.bellman_apply(ge_channel, cost, solver_cfg, Q)
        assert np.array_equal(out1, out2)

    def test_unstable_case(self):
        sys_u = tx.LtiSystem(A=1.05, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_u)
        table = tx.holding_cost_table(sys_u, ss, 60)
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.5)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=60)
        cost = tx.StageCost(holding=table, action_costs=np.array([0.0]))
        rep = tx.check_contraction(ch, sys_u, cost, cfg, trials=20)
        assert rep.alpha == pytest.approx(0.5 * (1.05**2 + 0.01), rel=1e-12)
        assert rep.alpha < 1
        assert rep.m >= 1
        assert rep.certified_bound < 1.0
        assert rep.empirical_max_ratio < 1.0

    def test_hypothesis_violation(self, ge_channel, cost_table, solver_cfg):
        sys_u = tx.LtiSystem(A=2.0, C=1.0, Q=0.3, R=0.3)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        with pytest.raises(ValueError, match="alpha"):
            tx.check_contraction(ge_channel, sys_u, cost, solver_cfg, trials=1)

    def test_stable_plant_with_lam_bad_zero(self, plant, cost_table, solver_cfg):
        # stable plant: the norm is the plain sup norm and the operator
        # contracts by gamma whatever the success probabilities are
        ch = tx.make_gilbert_elliott(1.0, 1.0, 1.0, 0.0, b0=0.5)
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        rep = tx.check_contraction(ch, plant, cost, solver_cfg, trials=5)
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
        rep = tx.check_contraction(ch, sys_, cost, cfg, trials=3)
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
                 lambda: tx.check_contraction(ch, sys_, cost, cfg, trials=1))
        messages = set()
        for call in calls:
            if accepted:
                call()
                continue
            with pytest.raises(ValueError, match="contraction hypothesis") as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == (0 if accepted else 1)

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
