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


def _tp2_pass(M, tol: float = ORDER_TOL) -> list:
    """One pass over every 2x2 minor M[i,x1,y1]*M[i,x2,y2] - M[i,x1,y2]*M[i,x2,y1]
    with x1 < x2 and y1 < y2 of each matrix M[i] of the stack M (k, n, m),
    laid out in (x1, y1, x2, y2) lexicographic order. A NaN entry pads a
    smaller matrix to the stack's shape: a minor that reads one is no minor.

    Returns, per matrix, the TP2 verdict (every minor >= -tol; witness
    ((x1, y1), (x2, y2)) and value of the first violating minor) and the
    smallest minor, 0.0 when the matrix has no minor (one row or column).
    """
    M = np.asarray(M, dtype=float)
    if (M < 0).any():
        raise ValueError("TP2 is defined for nonnegative matrices")
    _, n, m = M.shape
    # (x1, y1, x2, y2) of every ordered minor whose four entries some matrix
    # holds; the rest read a NaN in every matrix. pairs[x1, y1, x2, y2]: both
    # (x1, y1) and (x2, y2) are held; its transpose: (x1, y2) and (x2, y1)
    held = ~np.isnan(M).all(axis=0)
    pairs = np.logical_and.outer(held, held)
    x1, y1, x2, y2 = np.nonzero(pairs & pairs.transpose(0, 3, 2, 1)
                                & np.less.outer(np.arange(n), np.arange(n))[:, None, :, None]
                                & np.less.outer(np.arange(m), np.arange(m))[None, :, None, :])
    vals = M[:, x1, y1] * M[:, x2, y2] - M[:, x1, y2] * M[:, x2, y1]
    smallest = np.fmin.reduce(vals, axis=1, initial=np.inf)  # skips NaN
    smallest[smallest == np.inf] = 0.0
    holds = CheckResult(True)
    out = [(holds, s) for s in smallest.tolist()]
    rows, at = np.nonzero(vals < -tol)
    rows, first = np.unique(rows, return_index=True)  # each row's first violation
    for i, j in zip(rows.tolist(), at[first].tolist()):
        out[i] = (CheckResult(False, witness=((int(x1[j]), int(y1[j])), (int(x2[j]), int(y2[j]))),
                              value=float(vals[i, j])), out[i][1])
    return out


def is_tp2(M, tol: float = ORDER_TOL) -> CheckResult:
    """True iff every 2x2 minor over row pairs x1<x2 and column pairs y1<y2
    is >= -tol. Witness: ((x1, y1), (x2, y2)) of the smallest violating
    minor in (x1, y1, x2, y2) lexicographic order, plus the minor value. A
    matrix with one row or one column has no minor and is TP2."""
    return _tp2_pass(np.asarray(M, dtype=float)[None], tol)[0][0]
