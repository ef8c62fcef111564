"""Total positivity of order two (TP2) for nonnegative kernels.

A kernel is TP2 when every 2x2 minor over ordered row and column pairs is
nonnegative; this is the order preservation the folded kernels regain. The
check returns a truthy result object carrying a witness on failure: the
lexicographically smallest violating indices, so failure messages are
reproducible.

The check uses an absolute tolerance (default 1e-12) on the minors: inputs
here come from config-level reals, so near-zero minors are genuine ties, not
violations. The errors of the belief-order structure live here too, so a
caller can catch them without importing the solver.
"""

from dataclasses import dataclass

import numpy as np

ORDER_TOL = 1e-12


class ZeroLikelihoodError(ValueError):
    """The conditioning observation has zero probability."""


class StructureViolationError(RuntimeError):
    """Stop region is not an upper belief interval at some holding time."""

    def __init__(self, message, tau=None):
        super().__init__(message)
        self.tau = tau


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a witness of the first violation (None if holds).

    ``value`` carries the violating quantity (tail gap, cross difference,
    minor, ...) when there is one.
    """

    holds: bool
    witness: tuple | None = None
    value: float | None = None

    def __bool__(self) -> bool:
        return self.holds


def _tp2_pass(M, tol: float = ORDER_TOL) -> tuple[CheckResult, float]:
    """One pass over every 2x2 minor M[x1,y1]*M[x2,y2] - M[x1,y2]*M[x2,y1]
    with x1 < x2 and y1 < y2, laid out in (x1, y1, x2, y2) lexicographic
    order.

    Returns the TP2 verdict (every minor >= -tol; witness ((x1, y1), (x2, y2))
    and value of the first violating minor) and the smallest minor, 0.0 when
    M has a single row or column and so no minor.
    """
    M = np.asarray(M, dtype=float)
    if np.any(M < 0):
        raise ValueError("TP2 is defined for nonnegative matrices")
    n, m = M.shape
    # minors[x1, y1, x2, y2], kept where x1 < x2 and y1 < y2
    minors = M[:, :, None, None] * M - M[:, None, None, :] * M.T[:, :, None]
    ordered = (np.less.outer(np.arange(n), np.arange(n))[:, None, :, None]
               & np.less.outer(np.arange(m), np.arange(m))[None, :, None, :])
    vals = minors[ordered]
    smallest = float(vals.min()) if vals.size else 0.0
    bad = np.flatnonzero(vals < -tol)
    if not bad.size:
        return CheckResult(True), smallest
    x1, y1, x2, y2 = (int(i[bad[0]]) for i in np.nonzero(ordered))
    return (CheckResult(False, witness=((x1, y1), (x2, y2)), value=float(vals[bad[0]])),
            smallest)


def is_tp2(M, tol: float = ORDER_TOL) -> CheckResult:
    """True iff every 2x2 minor over row pairs x1<x2 and column pairs y1<y2
    is >= -tol. Witness: ((x1, y1), (x2, y2)) of the smallest violating
    minor in (x1, y1, x2, y2) lexicographic order, plus the minor value. A
    matrix with one row or one column has no minor and is TP2."""
    return _tp2_pass(M, tol)[0]
