import numpy as np
import pytest
from hypothesis import Phase, assume, event, find, given, settings, strategies as st

import txsched as tx
from conftest import channels, random_channel
from oracles import (belief_update, loop_extract_threshold, loop_verify_threshold_monotone,
                     observation_likelihood)
from orders import is_submodular
from txsched.belief_mdp import _require_contraction


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
        th = tx.ThresholdFunction(b_th=np.array([np.nan, 1.0, 0.5]), grid_resolution=0.01)
        assert tx.verify_threshold_monotone(th)

    def test_sentinel_is_a_nan_threshold(self):
        # b = 1 is a genuine threshold; only NaN marks a never-stop row
        th = tx.ThresholdFunction(b_th=[np.nan, 1.0, 0.5], grid_resolution=0.5)
        assert th.is_sentinel.tolist() == [True, False, False]
        assert th.as_extended().tolist() == [np.inf, 1.0, 0.5]

    def test_constant_threshold(self):
        th = tx.ThresholdFunction(b_th=np.full(5, 0.4), grid_resolution=0.01)
        assert tx.verify_threshold_monotone(th)

    def test_violation_witness(self):
        th = tx.ThresholdFunction(b_th=np.array([0.5, 0.7]), grid_resolution=0.01)
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


# continue values, with signed zeros and ties between them among the draws
_Q_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 10.0]) | st.floats(-1e3, 1e3)


@st.composite
def _stop_rows(draw):
    """A (tau, grid, 2) Q lattice whose rows never stop, always stop, stop on
    an upper interval, or stop anywhere (holes); a stop cell is a tie (also
    +0.0 against -0.0) or strictly below its continue value."""
    n_tau, n_b = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    Q = np.empty((n_tau, n_b, 2))
    for tau in range(n_tau):
        kind = draw(st.sampled_from(["never", "always", "upper", "holes"]))
        k = draw(st.integers(0, n_b))
        for i in range(n_b):
            stop = {"never": False, "always": True, "upper": i >= k,
                    "holes": draw(st.booleans())}[kind]
            c = draw(_Q_VALUES)
            how = draw(st.sampled_from(["tie", "flip", "next", "far"]))
            if not stop:
                s = np.nextafter(c, np.inf) if how == "next" else c + 5.0
            else:  # "flip" ties +0.0 with -0.0
                s = {"tie": c, "flip": -c if c == 0 else c,
                     "next": np.nextafter(c, -np.inf), "far": c - 5.0}[how]
            Q[tau, i] = c, s
    return tx.Solution(Qfun=Q, V=Q.min(axis=2), policy=np.zeros((n_tau, n_b), dtype=int),
                       belief_grid=np.linspace(0.0, 1.0, n_b), sweeps_used=1,
                       final_residual=0.0)


_THRESHOLDS = st.lists(st.none() | st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
                       | st.floats(0.0, 1.0), min_size=1, max_size=8)


class TestClosedFormsMatchLoops:
    """The whole-lattice passes of stopping against the per-tau loops they
    replaced (tests/oracles.py), bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_stop_rows())
    def test_extract_threshold(self, sol):
        try:
            ref = loop_extract_threshold(sol)
        except tx.StructureViolationError as exc:
            event("hole")
            with pytest.raises(tx.StructureViolationError) as err:
                tx.extract_threshold(sol)
            assert (str(err.value), err.value.tau) == (str(exc), exc.tau)
            return
        event("threshold")
        th = tx.extract_threshold(sol)
        assert np.array_equal(th.b_th.view(np.uint64), ref.b_th.view(np.uint64))
        assert np.array_equal(th.is_sentinel, ref.is_sentinel)
        assert th.grid_resolution == ref.grid_resolution

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_THRESHOLDS, st.sampled_from([0.0, 1e-12, 0.1, 0.5]))
    def test_verify_threshold_monotone(self, values, tol):
        th = tx.ThresholdFunction(b_th=[np.nan if v is None else v for v in values],
                                  grid_resolution=0.01)
        got, ref = tx.verify_threshold_monotone(th, tol), loop_verify_threshold_monotone(th, tol)
        event("holds" if ref else "rises")
        assert repr(got) == repr(ref)  # float repr round-trips, so this is bitwise


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

    @staticmethod
    def _with_stop_advantage(D):
        """A two-action Solution whose stop advantage Q[.., 1] - Q[.., 0] is D."""
        Q = np.stack([np.zeros_like(D), D], axis=2)
        return tx.Solution(Qfun=Q, V=Q.min(axis=2), policy=np.zeros(D.shape, dtype=int),
                           belief_grid=np.linspace(0.0, 1.0, D.shape[1]),
                           sweeps_used=1, final_residual=0.0)

    @pytest.mark.parametrize("slopes, witness", [
        ((1.0, 3.0), ("tau", 2, 4)),  # steep along b: the bump rises along tau only
        ((3.0, 1.0), ("b", 3, 3)),  # steep along tau: it rises along b only
    ])
    def test_rise_along_one_axis(self, slopes, witness):
        tau, b = np.meshgrid(np.arange(6.0), np.arange(7.0), indexing="ij")
        D = -slopes[0] * tau - slopes[1] * b
        D[3, 4] += 1.5  # 0.5 above its predecessor along one axis, below it along the other
        assert (tx.verify_submodularity(self._with_stop_advantage(D))
                == tx.CheckResult(False, witness=witness, value=0.5))

    def test_rise_of_exactly_tol_passes(self):
        tol = 1e-8
        D = np.zeros((6, 7))
        D[3, 4] = tol
        assert tx.verify_submodularity(self._with_stop_advantage(D), tol=tol)
        D[3, 4] = np.nextafter(tol, 1.0)
        assert (tx.verify_submodularity(self._with_stop_advantage(D), tol=tol)
                == tx.CheckResult(False, witness=("tau", 2, 4), value=D[3, 4]))


# the theorem's hypotheses, which TestThresholdTheorem drops one at a time
HYPOTHESES = ("tp2_mode_kernel", "lam_good_ge_lam_bad", "contraction")


def _contracts(ch, rho, eps=0.01):
    try:
        _require_contraction(ch, rho, eps)
    except ValueError:
        return False
    return True


@st.composite
def theorem_instances(draw, drop=None):
    """A stopping problem on a channel from conftest.channels that meets every
    hypothesis of the threshold theorem but ``drop``: a TP2 mode kernel,
    lam_good >= lam_bad, and the solver's contraction hypothesis. The plant
    is scalar (C = 1, Q = R = 0.3), tau_max 10-20 and grid_n 20-50."""
    drawn = draw(channels(max_actions=1))
    lam, kernel = drawn.lam, drawn.mode_kernel  # channels() has lam_good >= lam_bad
    a = draw(st.floats(1.0, 1.3) if drop == "contraction"
             else st.one_of(st.floats(-0.95, 0.95), st.floats(1.0, 1.3)))
    if a >= 1.0 and drop != "contraction":  # success >= 0.5: (1 - lam_min) (rho + eps)^2 < 1
        lam = 0.5 + 0.5 * lam
    ch = tx.ChannelModel(lam=lam, mode_kernel=kernel)
    assume(bool(tx.check_mode_kernel_tp2(ch)) != (drop == "tp2_mode_kernel"))
    assume(_contracts(ch, abs(a)) != (drop == "contraction"))
    if drop == "lam_good_ge_lam_bad":
        assume(lam[0, 0] - lam[1, 0] > 1e-9)
        object.__setattr__(ch, "lam", lam[::-1].copy())  # past ChannelModel, which refuses it
    plant = tx.LtiSystem(A=a, C=1.0, Q=0.3, R=0.3)
    cfg = tx.SolverConfig(gamma=draw(st.floats(0.5, 0.99)), tau_max=draw(st.integers(10, 20)),
                          grid_n=draw(st.integers(20, 50)))
    table = tx.holding_cost_table(plant, tx.steady_state_covariance(plant), cfg.tau_max)
    return tx.StoppingProblem(channel=ch, holding=table, cfg=cfg,
                              c_stop=draw(st.floats(0.5, 20.0)))


def _monotone_value_fails(prob):
    return not tx.verify_value_monotonicity(tx.solve_stopping(prob))


def _solve_refused(prob):
    try:
        tx.solve_stopping(prob)
    except ValueError as exc:
        return str(exc).startswith("contraction hypothesis violated")
    return False


# per hypothesis, the check that states it in verify failing, and for the
# channel's two the monotone value the theorem concludes failing with it
BROKEN_BY_DROPPING = {
    "tp2_mode_kernel": lambda prob: (
        not tx.verify_update_monotonicity(prob.channel, prob.cfg.tau_max, prob.cfg.grid_n)
        and _monotone_value_fails(prob)),
    "lam_good_ge_lam_bad": lambda prob: (
        not tx.verify_folded_tp2(prob.channel) and _monotone_value_fails(prob)),
    "contraction": _solve_refused,
}


class TestThresholdTheorem:
    """The paper's structural result as a property: on every instance that
    meets its hypotheses the fold is exact, the folded kernels are TP2, the
    belief update is monotone, V and Q are monotone, the stop region has a
    threshold at every tau that does not rise with tau, and the stop
    advantage is monotone. Dropping any one hypothesis must break the check
    that states it on some instance."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(prob=theorem_instances())
    def test_conclusions_hold_under_the_hypotheses(self, prob):
        ch, cfg = prob.channel, prob.cfg
        assert tx.verify_fold_equivalence(ch, cfg.tau_max)
        assert tx.verify_folded_tp2(ch)
        assert tx.verify_update_monotonicity(ch, cfg.tau_max, cfg.grid_n)
        sol = tx.solve_stopping(prob)
        assert tx.verify_value_monotonicity(sol)
        assert tx.verify_threshold_monotone(tx.extract_threshold(sol))
        assert tx.verify_submodularity(sol)

    @pytest.mark.parametrize("drop", HYPOTHESES)
    def test_each_hypothesis_is_needed(self, drop):
        # find raises NoSuchExample when no instance breaks the check
        find(theorem_instances(drop), BROKEN_BY_DROPPING[drop],
             settings=settings(max_examples=100, derandomize=True, database=None,
                               phases=[Phase.generate]))
