"""Test helpers: the finite-distribution order checkers and samplers that the
tests use as oracles, and the row-scan TP2 reference for the shared minor
pass in ``txsched.stochastic_orders``.

FSD (first-order stochastic dominance), MLR (monotone likelihood ratio),
Bayes posteriors, MLR preservation under a kernel, submodularity and random
TP2 kernels act on ``FiniteDist`` and ``KernelMatrix``. Every checker returns
a truthy ``CheckResult`` carrying the lexicographically smallest witness on
failure, with the same absolute tolerance as the package (1e-12).
"""

from dataclasses import dataclass

import numpy as np

from txsched.belief_mdp import StageCost
from txsched.channel import ChannelModel
from txsched.stochastic_orders import ORDER_TOL, CheckResult, ZeroLikelihoodError


def _frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FiniteDist:
    """Probability mass function over an ordered finite support.

    ``support`` defaults to 0..len(pmf)-1 and must be strictly increasing.
    """

    pmf: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-D array")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1, got {pmf.sum()!r}")
        support = self.support
        if support is None:
            support = np.arange(pmf.size, dtype=float)
        else:
            support = np.asarray(support, dtype=float)
            if support.shape != pmf.shape:
                raise ValueError("support and pmf must have the same length")
            if np.any(np.diff(support) <= 0):
                raise ValueError("support must be strictly increasing")
        object.__setattr__(self, "pmf", _frozen(pmf))
        object.__setattr__(self, "support", _frozen(support))

    def __len__(self) -> int:
        return self.pmf.size


@dataclass(frozen=True)
class KernelMatrix:
    """Nonnegative kernel matrix; rows index inputs, columns outputs.

    With row_stochastic=True every row must sum to 1 (within 1e-12), i.e.
    entry [x, y] is P(y | x).
    """

    matrix: np.ndarray
    row_stochastic: bool = True

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2:
            raise ValueError("kernel must be a 2-D matrix")
        if np.any(M < 0):
            raise ValueError("kernel entries must be nonnegative")
        if self.row_stochastic and np.any(np.abs(M.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("rows of a stochastic kernel must sum to 1")
        object.__setattr__(self, "matrix", _frozen(M))

    @property
    def shape(self):
        return self.matrix.shape


def _require_same_support(p1: FiniteDist, p2: FiniteDist):
    if not np.array_equal(p1.support, p2.support):
        raise ValueError("distributions must share the same support")


def fsd_dominates(p1: FiniteDist, p2: FiniteDist, tol: float = ORDER_TOL) -> CheckResult:
    """True iff p2 dominates p1 in first-order stochastic dominance:
    every upper-tail sum of p1 is <= that of p2. Witness: the smallest
    violating cut value of the support."""
    _require_same_support(p1, p2)
    tail1 = np.cumsum(p1.pmf[::-1])[::-1]
    tail2 = np.cumsum(p2.pmf[::-1])[::-1]
    gap = tail1 - tail2
    bad = np.nonzero(gap > tol)[0]
    if bad.size:
        k = int(bad[0])
        return CheckResult(False, witness=(float(p1.support[k]),), value=float(gap[k]))
    return CheckResult(True)


def mlr_dominates(p1: FiniteDist, p2: FiniteDist, tol: float = ORDER_TOL) -> CheckResult:
    """True iff p2 dominates p1 in the monotone-likelihood-ratio order:
    p1(x1) p2(x2) - p1(x2) p2(x1) >= 0 for all x1 < x2. Witness: the
    smallest violating (x1, x2) support pair."""
    _require_same_support(p1, p2)
    a, b = p1.pmf, p2.pmf
    n = a.size
    for i in range(n - 1):
        cross = a[i] * b[i + 1:] - a[i + 1:] * b[i]
        bad = np.nonzero(cross < -tol)[0]
        if bad.size:
            j = i + 1 + int(bad[0])
            return CheckResult(False,
                               witness=(float(p1.support[i]), float(p1.support[j])),
                               value=float(cross[bad[0]]))
    return CheckResult(True)


def bayes_posterior(prior: FiniteDist, K: KernelMatrix, y: int) -> FiniteDist:
    """Posterior over inputs x after observing output y through kernel K:
    proportional to K[x, y] * prior(x). Raises on zero evidence."""
    lik = K.matrix[:, y]
    if lik.shape != prior.pmf.shape:
        raise ValueError("kernel row count must match the prior support size")
    joint = lik * prior.pmf
    evidence = joint.sum()
    if evidence <= 0.0:
        raise ZeroLikelihoodError(f"observation y={y} has zero likelihood under the prior")
    return FiniteDist(pmf=joint / evidence, support=prior.support)


def random_mlr_pair(n: int, rng: np.random.Generator) -> tuple[FiniteDist, FiniteDist]:
    """Random strictly positive pair p1 <= p2 in the MLR order: p2 is p1
    reweighted by an increasing positive function."""
    p1 = rng.random(n) + 0.05
    p1 /= p1.sum()
    w = np.cumsum(rng.random(n) + 0.05)
    p2 = p1 * w
    p2 /= p2.sum()
    return FiniteDist(p1), FiniteDist(p2)


def kernel_preserves_mlr(K: KernelMatrix, trials: int = 100,
                         seed: int = 0) -> tuple[bool, int | None]:
    """Push MLR-ordered input pairs through K and test whether the outputs
    stay MLR-ordered.

    The trial list always starts with every point-mass pair (delta_x1, delta_x2),
    x1 < x2: their outputs are the kernel rows themselves, so a non-TP2 kernel
    is caught deterministically by its violating row pair. ``trials`` seeded
    random smooth pairs follow. Returns (preserved for every trial, index of
    the first violating trial or None).
    """
    if not K.row_stochastic:
        raise ValueError("kernel must be row-stochastic")
    M = K.matrix
    n = M.shape[0]
    pairs = []
    eye = np.eye(n)
    for x1 in range(n - 1):
        for x2 in range(x1 + 1, n):
            pairs.append((eye[x1], eye[x2]))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        p1, p2 = random_mlr_pair(n, rng)
        pairs.append((p1.pmf, p2.pmf))
    cols = np.arange(M.shape[1], dtype=float)
    for idx, (a, b) in enumerate(pairs):
        q1 = FiniteDist(a @ M, support=cols)
        q2 = FiniteDist(b @ M, support=cols)
        if not mlr_dominates(q1, q2):
            return False, idx
    return True, None


def is_submodular(Q, tol: float = 1e-9) -> CheckResult:
    """True iff Q(x2,a2) - Q(x2,a1) <= Q(x1,a2) - Q(x1,a1) for all x1 <= x2,
    a1 <= a2, i.e. the action advantage never grows with the state. Witness:
    the smallest violating (x1, a1, x2, a2)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValueError("Q must be a 2-D (state, action) table")
    n, m = Q.shape
    ok = True
    for a1 in range(m - 1):
        for a2 in range(a1 + 1, m):
            d = Q[:, a2] - Q[:, a1]
            # need d[x2] <= d[x1] + tol for every x1 <= x2
            if np.any(d - np.minimum.accumulate(d) > tol):
                ok = False
                break
        if not ok:
            break
    if ok:
        return CheckResult(True)
    for x1 in range(n):
        for a1 in range(m - 1):
            for x2 in range(x1 + 1, n):
                diff = (Q[x2, a1 + 1:] - Q[x2, a1]) - (Q[x1, a1 + 1:] - Q[x1, a1])
                bad = np.nonzero(diff > tol)[0]
                if bad.size:
                    a2 = a1 + 1 + int(bad[0])
                    return CheckResult(False, witness=(x1, a1, x2, a2),
                                       value=float(diff[bad[0]]))
    return CheckResult(True)  # pragma: no cover - vectorized and scan agree


def random_tp2_kernel(n_rows: int, n_cols: int, rng: np.random.Generator,
                      coupling: float | None = None) -> KernelMatrix:
    """Random row-stochastic TP2 kernel: entries exp(f(x) + g(y) + c*x*y)
    with c >= 0 are log-supermodular, hence TP2, and row normalization
    preserves all minor signs."""
    f = rng.normal(size=n_rows)
    g = rng.normal(size=n_cols)
    c = rng.random() if coupling is None else coupling
    if c < 0:
        raise ValueError("coupling must be nonnegative")
    x = np.arange(n_rows)[:, None]
    y = np.arange(n_cols)[None, :]
    M = np.exp(f[:, None] + g[None, :] + c * x * y)
    M /= M.sum(axis=1, keepdims=True)
    return KernelMatrix(M)


def stage_cost(cost: StageCost, tau: int, b: float, a: int) -> float:
    """Expected instantaneous cost at (tau, b, a). The belief does not enter:
    the holding cost is mode-independent, so averaging over modes cancels."""
    return float(cost.holding.costs[tau] + cost.action_costs[a])


def sample_mode_step(ch: ChannelModel, theta: int, action: int,
                     rng: np.random.Generator) -> int:
    """Draw the next mode from mode_kernel[action][theta] using a single
    uniform variate (inversion against the cumulative row)."""
    if theta not in (0, 1):
        raise ValueError(f"theta must be 0 or 1, got {theta}")
    if not 0 <= action < ch.n_actions:
        raise ValueError(f"action out of range: {action}")
    u = rng.random()
    return 0 if u < ch.mode_kernel[action, theta, 0] else 1


# Row-scan reference for the shared minor pass: a vectorized pre-check per
# top row, then a lexicographic rescan for the witness, and a separate
# smallest-minor scan. Both fail on a matrix with one column and two or more
# rows (they reduce an empty array).


def rowscan_is_tp2(K: KernelMatrix | np.ndarray, tol: float = ORDER_TOL) -> CheckResult:
    """True iff every 2x2 minor over row pairs x1<x2 and column pairs y1<y2
    is >= -tol. Witness: ((x1, y1), (x2, y2)) of the smallest violating
    minor in (x1, y1, x2, y2) lexicographic order, plus the minor value."""
    M = K.matrix if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)
    if np.any(M < 0):
        raise ValueError("TP2 is defined for nonnegative matrices")
    n, m = M.shape
    for i in range(n - 1):
        # all minors with top row i, vectorized over (lower row, column pair)
        upper = M[i]
        lower = M[i + 1:]
        minors = upper[None, :, None] * lower[:, None, :] \
            - upper[None, None, :] * lower[:, :, None]
        # keep only y1 < y2
        y1, y2 = np.triu_indices(m, k=1)
        vals = minors[:, y1, y2]
        if np.min(vals) >= -tol:
            continue
        # lexicographically smallest violation for this x1: order (y1, x2, y2)
        for c1 in range(m - 1):
            for j in range(i + 1, n):
                row = M[i, c1] * M[j, c1 + 1:] - M[i, c1 + 1:] * M[j, c1]
                bad = np.nonzero(row < -tol)[0]
                if bad.size:
                    c2 = c1 + 1 + int(bad[0])
                    return CheckResult(False, witness=((i, c1), (j, c2)),
                                       value=float(row[bad[0]]))
    return CheckResult(True)


def rowscan_min_minor(M) -> float:
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    y1, y2 = np.triu_indices(m, k=1)
    best = np.inf
    for i in range(n - 1):
        for j in range(i + 1, n):
            vals = M[i, y1] * M[j, y2] - M[i, y2] * M[j, y1]
            best = min(best, float(np.min(vals)))
    return best if np.isfinite(best) else 0.0
