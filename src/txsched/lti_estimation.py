"""Local Kalman steady state and the holding-time-indexed remote estimation cost.

The local estimator runs a standard Kalman filter for
``x[t+1] = A x[t] + w[t]``, ``y[t] = C x[t] + v[t]`` and is assumed converged,
so the remote estimation error depends only on the holding time tau (steps
since the last delivered packet): it equals the trace of the time-update map
applied tau times to the steady-state covariance.

The module imports nothing from the package, so it also holds the array
rules of every model: _finite reads a table as finite floats and _frozen
stores a read-only copy.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history


def _finite(a, name, index=False):
    """``a`` as a float array; NaN, an infinity, an integer beyond the
    float64 range, or data that is not numeric (text too, which numpy would
    parse) is a ValueError naming ``name``, and with index the index of a
    value that is not finite. Every model table and config array is read
    through it: NaN would pass each range check that follows."""
    try:
        a = np.asarray(a)
        if a.dtype.kind in "SU":
            raise TypeError("got a string")
        a = a.astype(float, copy=False)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond the float64 "
                         "range") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be numeric: {exc}") from None
    if not np.isfinite(a).all():
        at = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValueError(f"{name} must be finite, got {a[at]}"
                         + (f" at index {list(at)}" if index and at else ""))
    return a


def _frozen(a, dtype=None):
    """A read-only copy of ``a``."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _as_matrix(M, name):
    """``M`` as a float matrix: a scalar is 1x1 and a 1-D array one row."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={M.ndim}")
    return M


def _symmetrize(X):
    # suppress asymmetry drift from repeated products
    return 0.5 * (X + X.T)


@dataclass(frozen=True)
class LtiSystem:
    """Plant matrices (A, C, Q, R) of the discrete-time LTI system.

    A scalar is read as a 1x1 matrix and a list as one row. Entries must be
    finite, Q positive semidefinite and R positive definite. Observability of
    (A, C) and controllability of (A, sqrt(Q)) are checked numerically; a
    failure is reported as a warning, not an error.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A, C, Q, R = (_as_matrix(_finite(getattr(self, k), k), k)
                      for k in ("A", "C", "Q", "R"))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        m = C.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got {R.shape}")
        if np.min(np.linalg.eigvalsh(_symmetrize(Q))) < -1e-10:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(_symmetrize(R))) <= 0.0:
            raise ValueError("R must be positive definite")
        for name, M in (("A", A), ("C", C), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, _frozen(M))
        self._check_structural_ranks()

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))

    def _check_structural_ranks(self):
        n = self.n
        obs = np.vstack([self.C @ np.linalg.matrix_power(self.A, k) for k in range(n)])
        sqQ = _psd_sqrt(self.Q)
        ctr = np.hstack([np.linalg.matrix_power(self.A, k) @ sqQ for k in range(n)])
        for label, M in (("(A, C) observability", obs), ("(A, sqrt(Q)) controllability", ctr)):
            tol = 1e-10 * max(np.linalg.norm(M, 2), 1.0)
            if np.linalg.matrix_rank(M, tol=tol) < n:
                warnings.warn(f"{label} rank test failed; steady state may not exist",
                              stacklevel=3)


def _psd_sqrt(X):
    w, U = np.linalg.eigh(_symmetrize(X))
    w = np.clip(w, 0.0, None)
    return U @ np.diag(np.sqrt(w)) @ U.T


@dataclass(frozen=True)
class SteadyStateCov:
    """Converged local error covariance and the plant's spectral radius."""

    Pbar: np.ndarray
    spectral_radius_A: float

    def __post_init__(self):
        object.__setattr__(self, "Pbar", _frozen(_as_matrix(_finite(self.Pbar, "Pbar"), "Pbar")))


@dataclass(frozen=True)
class HoldingCostTable:
    """Estimation cost per holding time: costs[tau] = tr of the tau-step
    time-updated steady covariance. Nondecreasing in tau up to rounding."""

    costs: np.ndarray
    spectral_radius: float = 0.0

    def __post_init__(self):
        costs = _finite(self.costs, "costs")
        if costs.ndim != 1 or costs.size < 1:
            raise ValueError(f"costs must be a nonempty 1-D array, got shape {costs.shape}")
        object.__setattr__(self, "costs", _frozen(costs))

    @property
    def tau_max(self) -> int:
        return len(self.costs) - 1


def time_update(sys: LtiSystem, X) -> np.ndarray:
    """Covariance time update A X A^T + Q (symmetrized)."""
    X = _as_matrix(X, "X")
    if X.shape != (sys.n, sys.n):
        raise ValueError(f"X must be {sys.n}x{sys.n}, got {X.shape}")
    return _symmetrize(sys.A @ X @ sys.A.T + sys.Q)


def measurement_update(sys: LtiSystem, X) -> np.ndarray:
    """Covariance measurement update X - X C^T (C X C^T + R)^{-1} C X.

    Requires X positive semidefinite; the innovation covariance is then
    invertible because R is positive definite. The result is PSD and below X
    in the Loewner order.
    """
    X = _as_matrix(X, "X")
    if X.shape != (sys.n, sys.n):
        raise ValueError(f"X must be {sys.n}x{sys.n}, got {X.shape}")
    if np.min(np.linalg.eigvalsh(_symmetrize(X))) < -1e-10:
        raise ValueError("X must be positive semidefinite")
    S = sys.C @ X @ sys.C.T + sys.R
    G = np.linalg.solve(S, sys.C @ X)
    return _symmetrize(X - X @ sys.C.T @ G)


def steady_state_covariance(sys: LtiSystem, tol: float = 1e-12,
                            max_iter: int = 1_000_000) -> SteadyStateCov:
    """Fixed point of the filter recursion, iterated from X = 0.

    Applies measurement_update(time_update(.)) until the sup-norm of the
    iterate difference drops below tol. Raises ConvergenceError with the last
    residual if max_iter is exhausted, and at once when the residual is no
    longer finite (an overflowing or NaN iterate never converges).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    X = np.zeros((sys.n, sys.n))
    residual = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            Xn = measurement_update(sys, time_update(sys, X))
            residual = float(np.max(np.abs(Xn - X)))
            if not np.isfinite(residual):
                raise ConvergenceError(
                    f"covariance recursion iterate became non-finite at iteration {k} "
                    f"(residual {residual})", residual=residual)
            X = Xn
            if residual < tol:
                return SteadyStateCov(Pbar=X, spectral_radius_A=sys.spectral_radius())
    raise ConvergenceError(
        f"covariance recursion did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual)


def holding_cost_table(sys: LtiSystem, ss: SteadyStateCov, tau_max: int) -> HoldingCostTable:
    """Table of tr(time_update^tau(Pbar)) for tau = 0..tau_max.

    Raises OverflowError naming the first tau at which the trace is no longer
    finite (possible for unstable A with very large tau_max), and
    ConvergenceError naming the first tau at which the cost drops by more
    than 4 units in the last place (Pbar is then not the fixed point).
    """
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    costs = np.empty(tau_max + 1)
    X = np.array(ss.Pbar)
    costs[0] = np.trace(X)
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in range(1, tau_max + 1):
            X = time_update(sys, X)
            c = float(np.trace(X))
            if not np.isfinite(c):
                raise OverflowError(f"holding cost overflowed at tau={tau}")
            costs[tau] = c
    # a converged tail may move by rounding alone; only a larger drop is real
    drop = np.diff(costs) < -4 * np.spacing(costs[:-1])
    if np.any(drop):
        tau_bad = int(np.argmax(drop)) + 1
        raise ConvergenceError(f"holding cost decreased at tau={tau_bad}; "
                               "steady-state covariance is not a valid fixed point")
    return HoldingCostTable(costs=costs, spectral_radius=ss.spectral_radius_A)
