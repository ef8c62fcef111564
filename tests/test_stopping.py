import numpy as np
import pytest

import txsched as tx
from conftest import random_channel
from oracles import belief_update, observation_likelihood
from orders import is_submodular


def small_problem(ge_channel, cost_table, c_stop, grid_n=40, tau_max=20):
    cfg = tx.SolverConfig(gamma=0.95, tau_max=tau_max, grid_n=grid_n, vi_tol=1e-9)
    return tx.StoppingProblem(channel=ge_channel, holding=cost_table, cfg=cfg,
                              c_stop=c_stop)


class TestSolveStopping:
    def test_stop_slice_pinned_exactly(self, stopping_solution):
        assert np.all(stopping_solution.Qfun[:, :, 1] == 10.0)

    def test_value_is_min(self, stopping_solution):
        assert np.array_equal(stopping_solution.V,
                              stopping_solution.Qfun.min(axis=2))

    def test_zero_stop_cost_stops_everywhere(self, ge_channel, cost_table):
        sol = tx.solve_stopping(small_problem(ge_channel, cost_table, 0.0))
        assert np.all(sol.policy == 1)
        assert np.all(sol.V == 0.0)
        th = tx.extract_threshold(sol)
        assert np.all(th.b_th == 0.0)
        assert not th.is_sentinel.any()

    def test_huge_stop_cost_never_stops(self, ge_channel, cost_table):
        sol = tx.solve_stopping(small_problem(ge_channel, cost_table, 1e6))
        assert np.all(sol.policy == 0)
        th = tx.extract_threshold(sol)
        assert th.is_sentinel.all()
        # continue value stays below the discounted worst-case holding cost
        assert sol.V.max() < cost_table.costs.max() / (1 - 0.95) + 1e-6

    def test_policy_stops_on_ties(self, ge_channel, cost_table):
        sol = tx.solve_stopping(small_problem(ge_channel, cost_table, 10.0))
        ties_or_better = sol.Qfun[:, :, 1] <= sol.Qfun[:, :, 0]
        assert np.array_equal(sol.policy == 1, ties_or_better)

    def test_matches_reference_fixture(self, stopping_solution):
        assert stopping_solution.final_residual < 1e-9
        assert stopping_solution.certified_error < 1e-9
        assert stopping_solution.n_actions == 2

    def test_matches_independent_scalar_solver(self, ge_channel, cost_table):
        # straight-line stopping value iteration built from the scalar belief
        # primitives, no shared sweep code
        gamma, c_stop, tau_max, grid_n = 0.9, 6.0, 12, 16
        grid = np.linspace(0.0, 1.0, grid_n + 1)
        Qc = np.zeros((tau_max + 1, grid_n + 1))
        for _ in range(600):
            vmin = np.minimum(Qc, c_stop)
            nxt = np.zeros_like(Qc)
            for tau in range(tau_max + 1):
                for i, b in enumerate(grid):
                    total = 0.0
                    for y in (0, tau + 1):
                        sig = observation_likelihood(ge_channel, tau, float(b), y)
                        if sig == 0.0:
                            continue
                        post = belief_update(ge_channel, tau, float(b), y)
                        row = min(y, tau_max)
                        total += sig * np.interp(post, grid, vmin[row])
                    nxt[tau, i] = cost_table.costs[tau] + gamma * total
            if np.max(np.abs(nxt - Qc)) < 1e-12:
                Qc = nxt
                break
            Qc = nxt
        cfg = tx.SolverConfig(gamma=gamma, tau_max=tau_max, grid_n=grid_n,
                              vi_tol=1e-12, max_sweeps=1000)
        sol = tx.solve_stopping(tx.StoppingProblem(channel=ge_channel,
                                                   holding=cost_table, cfg=cfg,
                                                   c_stop=c_stop))
        assert np.max(np.abs(sol.Qfun[:, :, 0] - Qc)) < 1e-10

    def test_absorbing_belief_column_matches_1d_oracle(self, ge_channel,
                                                       cost_table,
                                                       stopping_solution):
        # with the unfavorable mode absorbing, belief 1 stays at 1 forever,
        # so the b = 1 column solves a closed one-dimensional recursion that
        # an independent scalar iteration can price
        lam_bad = float(ge_channel.lam[1, 0])
        gamma, c_stop = 0.95, 10.0
        tau_max = stopping_solution.tau_max
        w = np.zeros(tau_max + 1)
        for _ in range(4000):
            v = np.minimum(w, c_stop)
            nxt = np.minimum(np.arange(tau_max + 1) + 1, tau_max)
            w_new = cost_table.costs[:tau_max + 1] + gamma * (
                lam_bad * v[0] + (1.0 - lam_bad) * v[nxt])
            if np.max(np.abs(w_new - w)) < 1e-13:
                w = w_new
                break
            w = w_new
        oracle = np.minimum(w, c_stop)
        assert np.max(np.abs(stopping_solution.V[:, -1] - oracle)) < 1e-7

    def test_unstable_plant_pipeline(self):
        # growing weighted norm: the solver must still converge and keep the
        # structural properties under the success-probability margin
        sys_u = tx.LtiSystem(A=1.05, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_u)
        table = tx.holding_cost_table(sys_u, ss, 60)
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.5, b0=0.0)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=100, vi_tol=1e-9,
                              max_sweeps=5000)
        sol = tx.solve_stopping(tx.StoppingProblem(channel=ch, holding=table,
                                                   cfg=cfg, c_stop=10.0))
        assert sol.final_residual < 1e-9
        assert np.isfinite(sol.certified_error)
        assert tx.verify_value_monotonicity(sol).ok
        assert tx.verify_threshold_monotone(tx.extract_threshold(sol))

    def test_persistent_channel_pipeline(self, plant, steady, cost_table):
        ch = tx.make_persistent_failure(0.1, 0.9, 0.2, b0=0.0)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=40, grid_n=80, vi_tol=1e-9)
        sol = tx.solve_stopping(tx.StoppingProblem(channel=ch, holding=cost_table,
                                                   cfg=cfg, c_stop=10.0))
        assert tx.verify_value_monotonicity(sol).ok
        assert tx.verify_threshold_monotone(tx.extract_threshold(sol))
        assert tx.verify_submodularity(sol)

    def test_oversized_weight_eps_rejected_when_unstable(self):
        sys_u = tx.LtiSystem(A=1.05, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_u)
        table = tx.holding_cost_table(sys_u, ss, 20)
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.5)
        cfg = tx.SolverConfig(gamma=0.95, tau_max=20, grid_n=20, weight_eps=0.9)
        with pytest.raises(ValueError, match="weight_eps"):
            tx.solve_stopping(tx.StoppingProblem(channel=ch, holding=table,
                                                 cfg=cfg, c_stop=10.0))

    def test_requires_single_action_channel(self, cost_table, solver_cfg):
        ch2 = tx.ChannelModel(lam=np.array([[0.9, 0.8], [0.2, 0.1]]),
                              mode_kernel=np.array([[[0.9, 0.1], [0.0, 1.0]]] * 2))
        with pytest.raises(ValueError, match="single-action"):
            tx.StoppingProblem(channel=ch2, holding=cost_table, cfg=solver_cfg,
                               c_stop=10.0)

    @pytest.mark.parametrize("c_stop, message", [
        ("10", "must be numeric: got a string"),
        ([10.0, 5.0], r"must be a number, got shape \(2,\)")])
    def test_c_stop_must_be_a_number(self, ge_channel, cost_table, solver_cfg,
                                     c_stop, message):
        # numpy would read "10" as 10.0; the config path refuses it as well
        with pytest.raises(ValueError, match=f"^c_stop {message}$"):
            tx.StoppingProblem(channel=ge_channel, holding=cost_table, cfg=solver_cfg,
                               c_stop=c_stop)

    def test_c_stop_stored_as_float(self, ge_channel, cost_table, solver_cfg):
        prob = tx.StoppingProblem(channel=ge_channel, holding=cost_table, cfg=solver_cfg,
                                  c_stop=np.int64(10))
        assert type(prob.c_stop) is float and prob.c_stop == 10.0


class TestExtractThreshold:
    def test_policy_threshold_consistency(self, stopping_solution):
        th = tx.extract_threshold(stopping_solution)
        grid = stopping_solution.belief_grid
        for tau in range(th.tau_max + 1):
            if th.is_sentinel[tau]:
                assert np.all(stopping_solution.policy[tau] == 0)
            else:
                expect = (grid >= th.b_th[tau]).astype(int)
                assert np.array_equal(stopping_solution.policy[tau], expect)

    def test_upper_interval_enforced(self, stopping_solution):
        Q = np.array(stopping_solution.Qfun)
        # carve a hole in the stop region of row 10
        Q[10, -1, 0] = Q[10, -1, 1] + 1.0
        Q[10, -2, 0] = Q[10, -2, 1] - 1.0
        Q[10, -3, 0] = Q[10, -3, 1] + 1.0
        bad = tx.Solution(Qfun=Q, V=Q.min(axis=2),
                          policy=np.zeros(Q.shape[:2], dtype=int),
                          belief_grid=stopping_solution.belief_grid,
                          sweeps_used=1, final_residual=0.0)
        with pytest.raises(tx.StructureViolationError) as err:
            tx.extract_threshold(bad)
        assert err.value.tau == 10

    def test_grid_resolution_recorded(self, stopping_solution):
        th = tx.extract_threshold(stopping_solution)
        assert th.grid_resolution == 1.0 / stopping_solution.grid_n


class TestThresholdMonotone:
    def test_reference(self, stopping_solution):
        th = tx.extract_threshold(stopping_solution)
        assert tx.verify_threshold_monotone(th)

    def test_sentinel_treated_as_infinite(self):
        th = tx.ThresholdFunction(b_th=np.array([np.nan, 1.0, 0.5]),
                                  is_sentinel=np.array([True, False, False]),
                                  grid_resolution=0.01)
        assert tx.verify_threshold_monotone(th)

    def test_constant_threshold(self):
        th = tx.ThresholdFunction(b_th=np.full(5, 0.4),
                                  is_sentinel=np.zeros(5, dtype=bool),
                                  grid_resolution=0.01)
        assert tx.verify_threshold_monotone(th)

    def test_violation_witness(self):
        th = tx.ThresholdFunction(b_th=np.array([0.5, 0.7]),
                                  is_sentinel=np.zeros(2, dtype=bool),
                                  grid_resolution=0.01)
        res = tx.verify_threshold_monotone(th)
        assert not res
        assert res.witness == (0, 0.5, 0.7)

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ch = random_channel(rng, force_tp2=True)
            a = float(rng.uniform(0.3, 0.95))
            sys_ = tx.LtiSystem(A=a, C=1.0, Q=float(rng.uniform(0.1, 1.0)),
                                R=float(rng.uniform(0.1, 1.0)))
            ss = tx.steady_state_covariance(sys_)
            table = tx.holding_cost_table(sys_, ss, 25)
            cfg = tx.SolverConfig(gamma=0.9, tau_max=25, grid_n=50, vi_tol=1e-8)
            sol = tx.solve_stopping(tx.StoppingProblem(
                channel=ch, holding=table, cfg=cfg,
                c_stop=float(rng.uniform(1.0, 15.0))))
            th = tx.extract_threshold(sol)
            assert tx.verify_threshold_monotone(th)


class TestSubmodularity:
    def test_reference(self, stopping_solution):
        assert tx.verify_submodularity(stopping_solution)

    def test_constant_continue_slice(self):
        Q = np.zeros((4, 5, 2))
        Q[:, :, 0] = 3.0
        Q[:, :, 1] = 1.0
        sol = tx.Solution(Qfun=Q, V=Q.min(axis=2),
                          policy=np.ones((4, 5), dtype=int),
                          belief_grid=np.linspace(0, 1, 5),
                          sweeps_used=1, final_residual=0.0)
        assert tx.verify_submodularity(sol)

    def test_cross_validates_with_submodular_checker(self, stopping_solution):
        sol = stopping_solution
        verdict = bool(tx.verify_submodularity(sol))
        # per-slice tables: fixed tau (states = beliefs) and fixed belief
        # (states = holding times); coordinatewise monotonicity of the stop
        # advantage is exactly their conjunction
        slices = [sol.Qfun[tau] for tau in range(0, sol.tau_max + 1, 6)]
        slices += [sol.Qfun[:, i, :] for i in range(0, sol.grid_n + 1, 25)]
        assert verdict == all(bool(is_submodular(S)) for S in slices)

    def test_detects_violation(self, stopping_solution):
        Q = np.array(stopping_solution.Qfun)
        Q[3, 5, 0] = Q[3, 4, 0] - 5.0  # stop advantage jumps up in b
        bad = tx.Solution(Qfun=Q, V=Q.min(axis=2),
                          policy=np.zeros(Q.shape[:2], dtype=int),
                          belief_grid=stopping_solution.belief_grid,
                          sweeps_used=1, final_residual=0.0)
        res = tx.verify_submodularity(bad)
        assert not res
        assert res.witness[0] in ("tau", "b")
        assert res.value > 1.0
