import re

import numpy as np
import pytest

import txsched as tx
from conftest import ULP_NOISE_PLANT, fixed_point_oracle


def random_psd(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T


def loewner_leq(X, Y, tol=1e-10):
    return np.min(np.linalg.eigvalsh(0.5 * ((Y - X) + (Y - X).T))) >= -tol


class TestTimeUpdate:
    def test_scalar_from_zero(self, plant):
        assert tx.time_update(plant, [[0.0]])[0, 0] == 0.3

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_identity_dynamics_no_noise(self):
        sys_ = tx.LtiSystem(A=np.eye(2), C=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2))
        X = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(tx.time_update(sys_, X), X, atol=0, rtol=0)

    def test_scalar_unit(self, plant):
        # 0.85^2 * 1 + 0.3
        assert tx.time_update(plant, [[1.0]])[0, 0] == pytest.approx(1.0225, abs=1e-15)

    def test_dimension_mismatch(self, plant):
        with pytest.raises(ValueError):
            tx.time_update(plant, np.eye(2))

    def test_order_preserving(self):
        rng = np.random.default_rng(7)
        sys_ = tx.LtiSystem(A=rng.normal(size=(3, 3)) * 0.4, C=np.eye(3),
                            Q=random_psd(rng, 3), R=np.eye(3))
        for _ in range(20):
            X1 = random_psd(rng, 3)
            X2 = X1 + random_psd(rng, 3)
            assert loewner_leq(tx.time_update(sys_, X1), tx.time_update(sys_, X2))


class TestMeasurementUpdate:
    def test_zero_fixed(self, plant):
        assert tx.measurement_update(plant, [[0.0]])[0, 0] == 0.0

    def test_scalar_value(self, plant):
        # 0.3 - 0.09 / 0.6
        assert tx.measurement_update(plant, [[0.3]])[0, 0] == pytest.approx(0.15, abs=1e-15)

    def test_fixed_point_value(self, plant):
        pbar = fixed_point_oracle(0.85, 1.0, 0.3, 0.3)
        pred = tx.time_update(plant, [[pbar]])
        assert tx.measurement_update(plant, pred)[0, 0] == pytest.approx(pbar, abs=1e-11)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_contracts_toward_data(self):
        rng = np.random.default_rng(11)
        sys_ = tx.LtiSystem(A=np.eye(3) * 0.5, C=rng.normal(size=(2, 3)),
                            Q=random_psd(rng, 3), R=random_psd(rng, 2) + np.eye(2))
        for _ in range(20):
            X = random_psd(rng, 3)
            Y = tx.measurement_update(sys_, X)
            assert loewner_leq(Y, X)
            assert np.min(np.linalg.eigvalsh(Y)) >= -1e-10

    def test_rejects_non_psd(self, plant):
        with pytest.raises(ValueError):
            tx.measurement_update(plant, [[-1.0]])


class TestSteadyState:
    def test_matches_oracle_and_root(self, plant, steady):
        oracle = fixed_point_oracle(0.85, 1.0, 0.3, 0.3)
        root = (-0.38325 + np.sqrt(0.38325**2 + 4 * 0.7225 * 0.09)) / (2 * 0.7225)
        assert abs(steady.Pbar[0, 0] - oracle) < 1e-9
        assert abs(steady.Pbar[0, 0] - root) < 1e-9
        assert tx.holding_cost_table(plant, steady, 1).spectral_radius == pytest.approx(
            0.85, abs=1e-12)

    def test_residual_bound(self, plant, steady):
        again = tx.measurement_update(plant, tx.time_update(plant, steady.Pbar))
        assert np.max(np.abs(again - steady.Pbar)) <= 10 * 1e-12

    def test_memoryless_plant(self):
        sys_ = tx.LtiSystem(A=0.0, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_)
        assert ss.Pbar[0, 0] == pytest.approx(0.15, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_zero_noise(self):
        sys_ = tx.LtiSystem(A=0.5, C=1.0, Q=0.0, R=0.3)
        ss = tx.steady_state_covariance(sys_)
        assert ss.Pbar[0, 0] == 0.0

    def test_nonconvergence_error(self, plant):
        with pytest.raises(tx.ConvergenceError) as err:
            tx.steady_state_covariance(plant, tol=1e-12, max_iter=2)
        assert err.value.residual is not None

    @pytest.mark.parametrize("a, k", [(np.nan, 1), (np.inf, 1), (1e200, 2)])
    def test_non_finite_iterate_fails_at_once(self, a, k):
        # the default max_iter is 1 000 000; a NaN residual must not use it up.
        # LtiSystem rejects a non-finite A, so one is set past that check.
        sys_ = tx.LtiSystem(A=0.5, C=1.0, Q=0.3, R=0.3)
        object.__setattr__(sys_, "A", np.array([[a]]))
        with pytest.raises(tx.ConvergenceError,
                           match=f"iterate became non-finite at iteration {k} ") as err:
            tx.steady_state_covariance(sys_)
        assert not np.isfinite(err.value.residual)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("A, C, shown", [
        (1.0, 0.0, "1.0"),  # a random walk that nothing observes
        ([[1.2, 0.0], [0.0, 0.5]], [[0.0, 1.0]], "1.2"),
        ([[0.0, -1.0], [1.0, 0.0]], [[0.0, 0.0]], "1j"),  # a rotation: eigenvalues +-i
    ])
    def test_undetectable_plant_fails_before_iterating(self, A, C, shown):
        # the recursion would run all 1 000 000 iterations (about 24 s) first
        n = np.atleast_2d(A).shape[0]
        sys_ = tx.LtiSystem(A=A, C=C, Q=0.3 * np.eye(n), R=0.3)
        with pytest.raises(tx.ConvergenceError,
                           match=rf"^no steady state: \(A, C\) is not detectable; C does not "
                                 rf"observe the eigenvalue {shown} of A$") as err:
            tx.steady_state_covariance(sys_)
        assert err.value.residual is None

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unobserved_stable_mode_is_detectable(self):
        # the mode C misses decays, so its error settles at Q / (1 - a^2)
        sys_ = tx.LtiSystem(A=[[0.5, 0.0], [0.0, 1.2]], C=[[0.0, 1.0]], Q=0.3 * np.eye(2), R=0.3)
        ss = tx.steady_state_covariance(sys_)
        assert ss.Pbar[0, 0] == pytest.approx(0.3 / 0.75, rel=1e-10)

    def test_matrix_system(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
        sys_ = tx.LtiSystem(A=A, C=np.eye(3)[:2], Q=random_psd(rng, 3),
                            R=random_psd(rng, 2) + np.eye(2))
        ss = tx.steady_state_covariance(sys_)
        again = tx.measurement_update(sys_, tx.time_update(sys_, ss.Pbar))
        assert np.max(np.abs(again - ss.Pbar)) < 1e-11


class TestHoldingCostTable:
    def test_first_entries(self, cost_table, steady):
        pbar = steady.Pbar[0, 0]
        assert cost_table.costs[0] == pytest.approx(pbar, abs=0)
        assert cost_table.costs[1] == pytest.approx(0.7225 * pbar + 0.3, rel=1e-14)

    def test_monotone(self, cost_table):
        assert np.all(np.diff(cost_table.costs) >= 0)

    def test_closed_form_oracle(self, plant, steady, cost_table):
        # tr(A^tau Pbar (A^tau)^T) + sum_t tr(A^t Q (A^t)^T), independent of
        # the repeated-update route
        A_, Q_ = plant.A, plant.Q
        for tau in range(0, 61, 7):
            Ak = np.linalg.matrix_power(A_, tau)
            total = float(np.trace(Ak @ steady.Pbar @ Ak.T))
            for t in range(tau):
                At = np.linalg.matrix_power(A_, t)
                total += float(np.trace(At @ Q_ @ At.T))
            assert cost_table.costs[tau] == pytest.approx(total, rel=1e-12)

    def test_matrix_system_monotone(self):
        rng = np.random.default_rng(5)
        A_ = rng.normal(size=(2, 2))
        A_ *= 0.9 / np.max(np.abs(np.linalg.eigvals(A_)))
        sys_ = tx.LtiSystem(A=A_, C=np.eye(2), Q=random_psd(rng, 2),
                            R=np.eye(2) * 0.5)
        ss = tx.steady_state_covariance(sys_)
        table = tx.holding_cost_table(sys_, ss, 40)
        assert np.all(np.diff(table.costs) >= 0)

    def test_overflow_reports_tau(self):
        sys_ = tx.LtiSystem(A=2.0, C=1.0, Q=0.3, R=0.3)
        ss = tx.steady_state_covariance(sys_)
        with pytest.raises(OverflowError, match="tau="):
            tx.holding_cost_table(sys_, ss, 2000)

    def test_rounding_noise_in_converged_tail(self):
        sys_ = tx.LtiSystem(**ULP_NOISE_PLANT)
        table = tx.holding_cost_table(sys_, tx.steady_state_covariance(sys_), 20)
        d = np.diff(table.costs)
        assert d[13] < 0
        assert np.all(d >= -4 * np.spacing(table.costs[:-1]))

    def test_decrease_beyond_rounding_raises(self, plant, steady):
        ss = tx.SteadyStateCov(Pbar=10 * steady.Pbar)
        with pytest.raises(tx.ConvergenceError, match="decreased at tau=1;"):
            tx.holding_cost_table(plant, ss, 20)

    def test_requires_positive_tau_max(self, plant, steady):
        with pytest.raises(ValueError):
            tx.holding_cost_table(plant, steady, 0)

    @pytest.mark.parametrize("costs", [[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], 5.0, []],
                             ids=["2-D", "scalar", "empty"])
    def test_costs_must_be_a_nonempty_vector(self, costs):
        # a 2-D table would fail in value_iterate on numpy's broadcast
        # error, and a scalar on len() in tau_max
        shape = np.shape(costs)
        with pytest.raises(ValueError, match=rf"^costs must be a nonempty 1-D array, "
                                             rf"got shape {re.escape(str(shape))}$"):
            tx.HoldingCostTable(costs=costs, spectral_radius=0.5)

    def test_growth_rate_is_required(self, plant, steady):
        # rho(A) has one carrier, this table; no default may call a plant stable
        with pytest.raises(TypeError, match="spectral_radius"):
            tx.HoldingCostTable(costs=[1.0, 2.0])
        assert tx.holding_cost_table(plant, steady, 3).spectral_radius == plant.spectral_radius()

    @pytest.mark.parametrize("rho", [-0.5, [1.0, 2.0]])
    def test_growth_rate_is_a_nonnegative_number(self, rho):
        with pytest.raises(ValueError, match=r"^spectral_radius must be a number >= 0, got "):
            tx.HoldingCostTable(costs=[1.0, 2.0], spectral_radius=rho)


class TestSuccessMargin:
    def test_reference_channel(self, plant, ge_channel):
        lam_min, bound = tx.success_margin(ge_channel, plant.spectral_radius())
        assert lam_min > bound
        assert bound == pytest.approx(1 - 1 / 0.7225, rel=1e-12)
        assert lam_min == 0.2

    def test_unstable_fails(self, ge_channel):
        sys_ = tx.LtiSystem(A=1.2, C=1.0, Q=0.3, R=0.3)
        lam_min, bound = tx.success_margin(ge_channel, sys_.spectral_radius())
        assert not lam_min > bound
        assert bound == pytest.approx(1 - 1 / 1.44, rel=1e-12)

    def test_stable_always_passes(self):
        sys_ = tx.LtiSystem(A=0.99, C=1.0, Q=0.3, R=0.3)
        ch = tx.make_gilbert_elliott(0.9, 0.9, 0.0, 0.0)
        lam_min, bound = tx.success_margin(ch, sys_.spectral_radius())
        assert lam_min > bound

    @pytest.mark.parametrize("a", [0.0, 1e-200, -1.75e-248])
    def test_plant_whose_squared_radius_underflows(self, ge_channel, a):
        # rho^2 is 0 in floats: the bound is -inf, not a division by zero
        sys_ = tx.LtiSystem(A=a, C=1.0, Q=0.3, R=0.3)
        assert tx.success_margin(ge_channel, sys_.spectral_radius()) == (0.2, -np.inf)


class TestSystemValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                       pytest.param(10**400, id="int-1e400")])
    @pytest.mark.parametrize("name", ["A", "C", "Q", "R"])
    def test_rejects_non_finite(self, name, value):
        # a 2x2 plant, so the bad entry is not the only one; an integer beyond
        # the float64 range has no float value to show
        mats = {"A": 0.5 * np.eye(2), "C": np.eye(2), "Q": np.eye(2), "R": np.eye(2)}
        mats = {k: m.tolist() for k, m in mats.items()}
        mats[name][1][0] = value
        shown = "an integer beyond the float64 range" if isinstance(value, int) else value
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {shown}$"):
            tx.LtiSystem(**mats)

    def test_rejects_indefinite_r(self):
        with pytest.raises(ValueError):
            tx.LtiSystem(A=0.5, C=1.0, Q=0.3, R=0.0)

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            tx.LtiSystem(A=0.5, C=1.0, Q=-0.1, R=0.3)

    def test_unobservable_warns(self):
        with pytest.warns(UserWarning, match="observability"):
            tx.LtiSystem(A=np.eye(2), C=np.array([[1.0, 0.0]]),
                         Q=np.eye(2), R=np.eye(1))

    def test_warning_names_the_caller(self):
        # not the dataclass-generated __init__, which warnings show as <string>
        with pytest.warns(UserWarning, match="observability") as record:
            tx.LtiSystem(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=np.eye(1))
        assert [w.filename for w in record] == [__file__]

    def test_immutable(self, plant):
        with pytest.raises(ValueError):
            plant.A[0, 0] = 2.0


# each model constructor with one bad entry in one of its tables, among
# finite ones; the value shown is the bad entry. A NaN cost or c_stop must
# fail here: value iteration would only report a span bound of nan after
# max_sweeps
MODEL_TABLES = {
    "lam": lambda v: tx.ChannelModel(lam=[[0.9], [v]],
                                     mode_kernel=[[[0.9, 0.1], [0.0, 1.0]]]),
    "Q": lambda v: tx.LtiSystem(A=0.5, C=1.0, Q=[[v]], R=1.0),
    "Pbar": lambda v: tx.SteadyStateCov(Pbar=[[1.0, 0.0], [0.0, v]]),
    "costs": lambda v: tx.HoldingCostTable(costs=[1.0, v, 3.0], spectral_radius=0.5),
    "spectral_radius": lambda v: tx.HoldingCostTable(costs=[1.0, 2.0], spectral_radius=v),
    "action_costs": lambda v: tx.StageCost(
        holding=tx.HoldingCostTable(costs=[1.0, 2.0], spectral_radius=0.5),
        action_costs=[0.0, v]),
    "c_stop": lambda v: tx.StoppingProblem(
        channel=tx.make_gilbert_elliott(0.9, 1.0, 0.9, 0.2),
        holding=tx.HoldingCostTable(costs=[1.0, 2.0], spectral_radius=0.5),
        cfg=tx.SolverConfig(gamma=0.95), c_stop=v),
}


class TestModelTablesFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                       pytest.param(10**400, id="int-1e400")])
    @pytest.mark.parametrize("field", list(MODEL_TABLES))
    def test_non_finite_entry_names_the_field(self, field, value):
        shown = "an integer beyond the float64 range" if isinstance(value, int) else value
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {shown}$"):
            MODEL_TABLES[field](value)
