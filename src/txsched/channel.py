"""Two-mode hidden Markov channel: success probabilities and mode transitions.

The channel has a hidden binary mode (0 favorable, 1 unfavorable). Under
scheduling action a, a transmission succeeds with probability lam[mode, a],
and the mode evolves by the per-action 2x2 row-stochastic kernel
mode_kernel[a]. Success must never be likelier in the unfavorable mode:
lam[0, a] >= lam[1, a] for every action. ``bayes`` is the one Bayes step of
the belief: the solver's stencil, its update check and the simulator call it.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .lti_estimation import _finite, _frozen
from .stochastic_orders import CheckResult, _tp2_pass


@dataclass(frozen=True)
class ChannelModel:
    """Per-action success probabilities, mode kernels, and initial mode law.

    lam: shape (2, n_actions), success probability by (mode, action), or
    one action's two modes as a 1-D array. mode_kernel: shape (n_actions,
    2, 2), or one action's 2x2, row-stochastic in the last axis.
    initial_mode_dist: length-2 pmf over modes; entry [1] is the initial
    belief of the unfavorable mode. Every entry must be finite.
    """

    lam: np.ndarray
    mode_kernel: np.ndarray
    initial_mode_dist: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0]))

    def __post_init__(self):
        names = ("lam", "mode_kernel", "initial_mode_dist")
        lam, Pc, p0 = (_finite(getattr(self, n), n) for n in names)
        if lam.ndim == 1:
            lam = lam[:, None]
        if lam.ndim != 2 or lam.shape[0] != 2 or lam.shape[1] < 1:
            raise ValueError(f"lam must have shape (2, n_actions), got {lam.shape}")
        if np.any(lam < 0) or np.any(lam > 1):
            raise ValueError("success probabilities must lie in [0, 1]")
        if np.any(lam[0] < lam[1]):
            a = int(np.argmax(lam[0] < lam[1]))
            raise ValueError(
                f"success probability in the favorable mode must dominate: "
                f"lam[0,{a}]={lam[0, a]} < lam[1,{a}]={lam[1, a]}")
        if Pc.ndim == 2:
            Pc = Pc[None, :, :]
        if Pc.shape != (lam.shape[1], 2, 2):
            raise ValueError(f"mode_kernel must have shape (n_actions, 2, 2), got {Pc.shape}")
        if np.any(Pc < 0) or np.any(Pc > 1):
            raise ValueError("mode transition probabilities must lie in [0, 1]")
        if np.any(np.abs(Pc.sum(axis=2) - 1.0) > 1e-12):
            raise ValueError("mode kernel rows must sum to 1")
        if p0.shape != (2,) or np.any(p0 < 0) or abs(p0.sum() - 1.0) > 1e-12:
            raise ValueError("initial_mode_dist must be a length-2 pmf")
        object.__setattr__(self, "lam", _frozen(lam))
        object.__setattr__(self, "mode_kernel", _frozen(Pc))
        object.__setattr__(self, "initial_mode_dist", _frozen(p0))

    @property
    def n_actions(self) -> int:
        return self.lam.shape[1]

    @property
    def initial_belief(self) -> float:
        return float(self.initial_mode_dist[1])

    def min_success_prob(self) -> float:
        return float(np.min(self.lam))


def _select(mask, x, y):
    """x where the uint64 ``mask`` is all ones, y where it is 0, selected bit
    by bit: unlike np.where, no branch on each element."""
    x, y = x.view(np.uint64), y.view(np.uint64)
    return (((x ^ y) & mask) ^ y).view(np.float64)


def bayes(ch, b, success, a: int = 0) -> tuple:
    """(likelihood, posterior) of the outcomes ``success`` (a bool array) of
    transmissions under action a from beliefs ``b`` (an array of its shape),
    the predictive belief and the posterior clipped to [0, 1]. The posterior
    is undefined where the likelihood is 0; each caller states its own rule
    there. ``ch`` needs only ``lam`` and ``mode_kernel``."""
    Pc, lam0, lam1 = ch.mode_kernel[a], ch.lam[0, a], ch.lam[1, a]
    bhat = np.minimum(np.maximum(Pc[0, 1] * (1.0 - b) + Pc[1, 1] * b, 0.0), 1.0)
    succ_mass = lam1 * bhat
    p_succ = lam0 * (1.0 - bhat) + succ_mass
    pick = np.negative(success.view(np.uint8), dtype=np.uint64)  # all ones on success
    like = _select(pick, p_succ, 1.0 - p_succ)
    num = _select(pick, succ_mass, (1.0 - lam1) * bhat)
    with np.errstate(divide="ignore", invalid="ignore"):
        post = num / like
    return like, np.minimum(np.maximum(post, 0.0), 1.0)


def make_gilbert_elliott(p00: float, p11: float, lam_good: float, lam_bad: float,
                         b0: float = 0.0) -> ChannelModel:
    """Two-state Markov channel with self-transition probabilities p00 and
    p11, action-independent. Warns when p00 + p11 < 1: the mode kernel is
    then not TP2 and the monotonicity guarantees lapse (the solver still runs).
    """
    Pc = np.array([[[p00, 1.0 - p00], [1.0 - p11, p11]]])
    ch = ChannelModel(lam=np.array([[lam_good], [lam_bad]]), mode_kernel=Pc,
                      initial_mode_dist=np.array([1.0 - b0, b0]))
    if p00 + p11 < 1.0:
        warnings.warn("p00 + p11 < 1: mode kernel is not TP2; "
                      "monotonicity guarantees do not apply", stacklevel=2)
    return ch


def make_persistent_failure(p_fail: float, lam_good: float, lam_bad: float,
                            b0: float = 0.0) -> ChannelModel:
    """Channel whose unfavorable mode is absorbing: the favorable mode decays
    with probability p_fail per step (geometric change time) and mode 1 never
    recovers."""
    Pc = np.array([[[1.0 - p_fail, p_fail], [0.0, 1.0]]])
    return ChannelModel(lam=np.array([[lam_good], [lam_bad]]), mode_kernel=Pc,
                        initial_mode_dist=np.array([1.0 - b0, b0]))


def check_mode_kernel_tp2(ch: ChannelModel) -> CheckResult:
    """TP2 test of every per-action mode kernel, in one stacked minor pass.
    The witness, if any, is (action, tp2 witness, minor)."""
    for a, (res, _) in enumerate(_tp2_pass(ch.mode_kernel)):
        if not res:
            return CheckResult(False, witness=(a,) + res.witness, value=res.value)
    return CheckResult(True)

