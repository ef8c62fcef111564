"""Holding-time kernels, their outcome-folded counterparts, and order checks.

The holding-time kernel moves tau to 0 on success and to tau+1 on failure, so
for any success probability strictly between 0 and 1 it is not TP2 in
(tau, tau'): the two-branch support puts a forced zero where a positive entry
would be needed. Re-indexing the successor by the binary transmission outcome
(0 success, 1 failure) collapses the off-support states; the folded outcome
kernel and the deterministic outcome-to-observation map are TP2 in every
variable pair, and composing them reproduces the original composite kernel
exactly.

Kernels are functions of the channel's success table that broadcast over
index arrays (scalars still give scalars), so the verification routines
materialize whole slices in one expression; the solver itself only ever
touches the two-point support.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .stochastic_orders import CheckResult, _tp2_pass


def folded_outcome_prob(ch: ChannelModel, delta, theta, a):
    """Folded transition kernel over the outcome {0 success, 1 failure};
    independent of the current holding time."""
    lam = ch.lam[theta, a]
    return np.where(np.equal(delta, 0), lam, 1.0 - lam)[()]


def folded_observation(delta, tau, y):
    """Deterministic map from (outcome, holding time) to the observed next
    holding time: success -> 0, failure -> tau+1."""
    hit = np.where(np.equal(delta, 0), np.equal(y, 0), np.equal(y, np.add(tau, 1)))
    return hit.astype(float)[()]


def _require_nonnegative(tau):
    if np.any(np.less(tau, 0)):
        raise ValueError("tau must be nonnegative")


def composite_kernel(ch: ChannelModel, tau, theta, y, a):
    """Probability of observing next holding time y from (tau, theta, a),
    assembled through the unfolded holding-time kernel: success resets to 0,
    failure advances to tau+1."""
    _require_nonnegative(tau)
    lam = ch.lam[theta, a]
    return np.where(np.equal(y, 0), lam,
                    np.where(np.equal(y, np.add(tau, 1)), 1.0 - lam, 0.0))[()]


def composite_kernel_folded(ch: ChannelModel, tau, theta, y, a):
    """Same probability assembled through the folded route: marginalize the
    binary outcome against the deterministic observation map."""
    _require_nonnegative(tau)
    return sum(folded_observation(d, tau, y) * folded_outcome_prob(ch, d, theta, a)
               for d in (0, 1))


@dataclass(frozen=True)
class FoldEquivalenceReport:
    """Exhaustive comparison of the two kernel assemblies."""

    identical: bool
    max_abs_diff: float
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.identical


def verify_fold_equivalence(ch: ChannelModel, tau_max: int = 60) -> FoldEquivalenceReport:
    """Compare the unfolded and folded composite kernels pointwise over
    tau in 0..tau_max, both modes, y in 0..tau_max+1, and all actions, as one
    (action, theta, tau, y) array per assembly.

    Both assemblies read the same success-probability entries, and the folded
    one adds 1*lam + 0*(1-lam) == lam, so equality is required to be exact
    (max diff 0.0), not within a tolerance. The witness (tau, theta, y, a) is
    the first largest difference in (a, theta, tau, y) order.
    """
    a, theta, tau, y = np.ix_(range(ch.n_actions), (0, 1), range(tau_max + 1),
                              range(tau_max + 2))
    diff = np.abs(composite_kernel(ch, tau, theta, y, a)
                  - composite_kernel_folded(ch, tau, theta, y, a))
    worst = float(diff.max())
    if worst == 0.0:
        return FoldEquivalenceReport(identical=True, max_abs_diff=0.0)
    ia, ith, it, iy = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return FoldEquivalenceReport(identical=False, max_abs_diff=worst,
                                 witness=(int(it), int(ith), int(iy), int(ia)))


def unfolded_tp2_counterexample(lam: float) -> CheckResult:
    """Materialize the unfolded holding kernel on rows tau in {0, 2} and
    columns tau' in {0, 1} and return its single 2x2 minor.

    For lam strictly inside (0, 1) the minor equals -(1-lam)*lam < 0 with
    witness ((0,0), (2,1)), so the unfolded kernel is never TP2; for the
    degenerate lam in {0, 1} the minor is 0 and there is no witness.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    # rows: tau 0 and 2; cols: tau' 0 and 1.  Row tau=0 supports {0, 1},
    # row tau=2 supports {0, 3}, hence the forced zero at (2, 1).
    m00, m01 = lam, 1.0 - lam
    m20, m21 = lam, 0.0
    minor = m00 * m21 - m01 * m20
    if minor == 0.0:
        return CheckResult(True, witness=None, value=0.0)
    return CheckResult(False, witness=((0, 0), (2, 1)), value=minor)


@dataclass(frozen=True)
class PairCheck:
    """TP2 verdict for one (kernel, variable pair) combination."""

    kernel: str
    variables: str
    result: CheckResult
    min_minor: float

    def __bool__(self) -> bool:
        return bool(self.result)


@dataclass(frozen=True)
class FoldedTP2Report:
    """Per-pair TP2 results for the folded kernels and the composite."""

    checks: tuple

    def __bool__(self) -> bool:
        return all(bool(c) for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c]

    def min_minor(self, kernel: str, variables: str) -> float:
        vals = [c.min_minor for c in self.checks
                if c.kernel == kernel and c.variables == variables]
        if not vals:
            raise KeyError(f"no check for ({kernel}, {variables})")
        return min(vals)


def verify_folded_tp2(ch: ChannelModel, tau_check: int = 6) -> FoldedTP2Report:
    """Materialize the folded kernels and run TP2 checks for every variable
    pair they are claimed ordered in.

    Checked pairs: the folded outcome kernel in (tau, theta), (tau, delta),
    (theta, delta); the observation map in (theta, y) and (delta, y); the
    composite kernel in (tau, theta) and (theta, y). tau ranges over
    0..tau_check in the materialized slices (the folded outcome kernel is
    tau-independent, so any range is representative). The minimum 2x2 minor
    seen for each pair is reported; the (theta, delta) pair's minor is
    lam[0,a] - lam[1,a], the quantity that makes the folded construction work.

    Each kernel is evaluated once over all its indices, and every slice goes
    through one stacked minor pass, padded with NaN (no minor) to a common
    shape: a (theta, y) slice at tau holds y in 0..tau+1.
    """
    n_a, T, Y = ch.n_actions, tau_check + 1, tau_check + 2
    R = max(T, 2)  # rows of a stack that holds both (tau, .) and (theta, .) slices
    taus, ys, both = np.arange(T), np.arange(Y), np.array([0, 1])
    beyond = ys > taus[:, None] + 1  # (tau, y) outside a slice at tau
    F = folded_outcome_prob(ch, both, both[:, None], np.arange(n_a)[:, None, None])
    K = composite_kernel(ch, taus[:, None, None], both[:, None], ys,
                         np.arange(n_a)[:, None, None, None])
    O = np.where(beyond, np.nan, folded_observation(both[:, None, None], taus[:, None], ys))
    # per action, from F[a, theta, delta]: the (tau, theta) slices at delta 0
    # and 1, the (tau, delta) slices at theta 0 and 1 and the (theta, delta)
    # slice; from K[a, tau, theta, y]: the (tau, theta) slices at each y and
    # the (theta, y) slices at each tau
    per_action = np.full((n_a, 5 + Y + T, R, Y), np.nan)
    per_action[:, 0:2, :T, :2] = F.transpose(0, 2, 1)[:, :, None, :]
    per_action[:, 2:4, :T, :2] = F[:, :, None, :]
    per_action[:, 4, :2, :2] = F
    per_action[:, 5:5 + Y, :T, :2] = K.transpose(0, 3, 1, 2)
    per_action[:, 5 + Y:, :2] = np.where(beyond[:, None, :], np.nan, K)
    # then, from O[delta, tau, y], the (theta, y) slices at each (delta, tau)
    # and the (delta, y) slices at each tau
    observation = np.full((3 * T, R, Y), np.nan)
    observation[:2 * T, :2] = O.reshape(2 * T, 1, Y)
    observation[2 * T:, :2] = O.transpose(1, 0, 2)
    runs = n_a * [("folded_outcome", "(tau,theta)", 2), ("folded_outcome", "(tau,delta)", 2),
                  ("folded_outcome", "(theta,delta)", 1), ("composite", "(tau,theta)", Y),
                  ("composite", "(theta,y)", T)] + [("folded_observation", "(theta,y)", 2 * T),
                                                     ("folded_observation", "(delta,y)", T)]
    names = [(kernel, pair) for kernel, pair, count in runs for _ in range(count)]
    results = _tp2_pass(np.concatenate([per_action.reshape(-1, R, Y), observation]))
    return FoldedTP2Report(checks=tuple(PairCheck(*name, *res)
                                        for name, res in zip(names, results, strict=True)))
