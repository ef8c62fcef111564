"""Monte Carlo closed loop: true mode trajectory, transmission outcomes,
ACK-driven holding time, belief recursion, policy execution, and discounted
cost statistics.

The plant itself is never sampled: the stage cost depends only on the holding
time, so an episode is fully described by (mode, action, outcome, tau,
belief). Within a step the draws are ordered mode transition first, then the
success Bernoulli (success probability is read at the post-transition mode,
matching the kernel factorization), and the belief then updates on the
observed next holding time.

Replications use independent seed streams derived from the base seed by
SplitMix64 (state = seed + (k+1) * golden gamma, mixed): run k draws from
``default_rng(splitmix64(seed, k))``, so a (seed, config) pair fixes every
run bit for bit.

``run_batch`` advances the runs in lockstep: a block of runs steps together
as numpy arrays, and runs that have stopped drop out of the block. A block
seeds all its streams in one vectorized pass: SplitMix64 and SeedSequence's
pool hash run on uint64/uint32 arrays, and each run's PCG64 takes the hashed
words through ``ISeedSequence``, so the streams are ``default_rng``'s. A
block keeps, for each step, only the outcomes of the four comparisons it
makes with its two uniforms, as one nibble: two steps to a byte
(``_block_codes``). The block size follows from the horizon and a fixed
budget for the code matrix (``_BLOCK_BYTES``, 1 MiB: 10 381 runs at horizon
200). Every operation follows the order of a scalar episode loop, so costs,
beliefs and statistics equal that loop's bit for bit, whatever the block
size. Traces come from the lockstep block; the tests' ``run_episode`` is the
scalar reference.

Policies are callables ``(tau, b) -> action`` that accept either scalars or
aligned arrays (returning an action of the same shape); action 0 continues
and action 1 stops.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channel import ChannelModel
from .config import SimConfig
from .stochastic_orders import ZeroLikelihoodError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# byte budget for one lockstep block's code matrix (1 + ceil(horizon / 2)
# bytes per run)
_BLOCK_BYTES = 1 << 20
# runs whose float uniforms are staged at once before becoming codes
_STAGE_RUNS = 64
# per-step trace columns and their dtypes: mode, action, transmission outcome
# (gamma_t, -1 on the stop row), holding time, belief and undiscounted cost
TRACE_COLUMNS = {"episode": np.int64, "t": np.int64, "theta": np.int8, "action": np.int8,
                 "gamma_t": np.int8, "tau": np.int64, "belief": float, "cost": float}
_ZERO_LIKELIHOOD = "observed a zero-probability branch; channel tables are inconsistent"


def splitmix64(seed: int, k):
    """Output of the SplitMix64 stream seeded at ``seed`` after k+1 advances,
    used as the seed of replication k. ``k`` is an int, or a uint64 array
    whose arithmetic wraps as the masks do."""
    z = (seed + (k + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _hash_consts(init: int, mult: int, n: int) -> list:
    """The n+1 values of a SeedSequence hash constant, which is multiplied by
    ``mult`` (mod 2**32) after each use; they do not depend on the data."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(x) for x in h]


# numpy.random.SeedSequence with its default pool of 4 words: 4 hashmix
# calls fill the pool and 12 mix it; generate_state(4, uint64) hashes 8 words
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``, for a
    uint64 array of seeds. SeedSequence splits a seed into little-endian
    32-bit words and pads the pool with hashed zeros, so a seed below 2**32
    hashes as the same seed with a zero high word."""
    hashes = iter(zip(_HASH_A[:-1], _HASH_A[1:]))

    def hashmix(x):
        xor, mult = next(hashes)
        x = (x ^ xor) * mult
        return x ^ (x >> 16)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & 0xFFFFFFFF).astype(np.uint32),
               (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(x) for x in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = x ^ (x >> 16)
    state = np.empty((seeds.size, 8), dtype=np.uint32)
    for i in range(8):
        x = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1]
        state[:, i] = x ^ (x >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 the words ``_seed_words`` computed;
    PCG64 runs its own 128-bit initialisation on them. PCG64 reads the words
    by pointer, so ``words`` must be 4 C-contiguous uint64, as a row of
    ``_seed_words`` is."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:  # PCG64's request
            raise ValueError("holds only generate_state(4, np.uint64)")
        return self.words


def _block_streams(seed: int, start: int, m: int):
    """The streams ``default_rng(splitmix64(seed, k))`` of runs k = start,
    ..., start+m-1, seeded in one vectorized pass."""
    runs = np.arange(start, start + m, dtype=np.uint64)
    # a Python int seed keeps the arithmetic in uint64 (an int64 one would
    # promote it to float64)
    return (np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for w in _seed_words(splitmix64(int(seed), runs)))


# --- policies: callables (tau, belief) -> action, on scalars or arrays ---
# ([()] turns the 0-d result of a scalar call back into a scalar)

def never_stop(tau, b):
    return np.zeros_like(tau, dtype=np.int64)[()]


def stop_immediately(tau, b):
    return np.ones_like(tau, dtype=np.int64)[()]


class FixedThresholdPolicy:
    """Stop as soon as the belief reaches a fixed level (ties stop)."""

    def __init__(self, threshold: float):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.threshold = threshold

    def __call__(self, tau, b):
        return np.greater_equal(b, self.threshold).astype(np.int64)


class LatticePolicy:
    """Policy table on the (tau, belief-grid) lattice; off-grid beliefs act
    by nearest-grid-point lookup (halves round to even, as ``round`` does)
    and holding times clamp to the lattice."""

    def __init__(self, policy: np.ndarray, grid_n: int, tau_max: int):
        policy = np.asarray(policy)
        if policy.shape != (tau_max + 1, grid_n + 1):
            raise ValueError(f"policy must have shape {(tau_max + 1, grid_n + 1)}, "
                             f"got {policy.shape}")
        self.policy = policy.astype(np.int64)
        self.grid_n = grid_n
        self.tau_max = tau_max

    @classmethod
    def from_solution(cls, sol) -> "LatticePolicy":
        """The policy of a ``belief_mdp.Solution``."""
        return cls(sol.policy, sol.grid_n, sol.tau_max)

    def __call__(self, tau, b):
        i = np.clip(np.rint(np.multiply(b, self.grid_n)), 0, self.grid_n)
        return self.policy[np.minimum(tau, self.tau_max), i.astype(np.int64)]


@dataclass(frozen=True)
class SimStats:
    """Aggregates over a batch of independent episodes."""

    mean_discounted_cost: float
    stderr: float
    n_runs: int
    horizon: int
    stop_time_histogram: dict
    mode_occupancy: tuple
    success_rate_per_mode: tuple
    attempts_per_mode: tuple
    truncation_bias_bound: float


def _holding_table(holding_costs, horizon: int) -> np.ndarray:
    holding = np.asarray(holding_costs, dtype=float)
    if len(holding) < horizon:
        raise ValueError(f"holding cost table must cover tau < horizon "
                         f"({horizon}), got length {len(holding)}")
    return holding


def _kernel(ch: ChannelModel) -> tuple:
    """(p00, p10, p01, p11, lam0, lam1) of the channel's continue action."""
    return tuple(float(x) for x in (ch.mode_kernel[0, 0, 0], ch.mode_kernel[0, 1, 0],
                                    ch.mode_kernel[0, 0, 1], ch.mode_kernel[0, 1, 1],
                                    ch.lam[0, 0], ch.lam[1, 0]))


def _block_codes(ch: ChannelModel, seed: int, start: int, horizon: int,
                 codes: np.ndarray):
    """Fill column j of ``codes`` from the 2*horizon+1 uniforms of run
    start+j, keeping of each uniform u only the comparisons its step makes.
    Row 0 holds u_0 < initial_mode_dist[0]. Step t holds four bits in
    nibble t % 2 of row 1 + t // 2: u_2t+1 < p00 in bit 0, u_2t+1 < p10 in
    bit 1 (mode transition), u_2t+2 < lam0 in bit 2 and u_2t+2 < lam1 in
    bit 3 (outcome). With an odd horizon the last high nibble stays 0."""
    m = codes.shape[1]
    p00, p10, _, _, lam0, lam1 = _kernel(ch)
    # the two comparisons of each uniform as a 2-bit code, u < 0 never holding
    lo = np.array([float(ch.initial_mode_dist[0])] + [p00, lam0] * horizon)
    hi = np.array([0.0] + [p10, lam1] * horizon)
    streams = _block_streams(seed, start, m)
    stage = np.empty((min(_STAGE_RUNS, m), 2 * horizon + 1))
    for c0 in range(0, m, _STAGE_RUNS):
        u = stage[:min(_STAGE_RUNS, m - c0)]
        for row in u:
            next(streams).random(out=row)
        pair = (u < lo) | ((u < hi).view(np.uint8) << 1)
        step = pair[:, 1::2] | (pair[:, 2::2] << 2)
        block = codes[:, c0:c0 + len(u)]
        block[0] = pair[:, 0]
        block[1:1 + horizon // 2] = (step[:, 0:horizon - 1:2] | (step[:, 1::2] << 4)).T
        if horizon % 2:
            block[-1] = step[:, -1]


def _select(mask, x, y):
    """x where the uint64 ``mask`` is all ones, y where it is 0, selected bit
    by bit: unlike np.where, no branch on each element."""
    x, y = x.view(np.uint64), y.view(np.uint64)
    return (((x ^ y) & mask) ^ y).view(np.float64)


def _run_block(codes: np.ndarray, horizon: int, ch: ChannelModel,
               holding: np.ndarray, c_stop: float, gamma: float, policy,
               tally: dict, rows=None) -> np.ndarray:
    """Advance the episodes whose ``_block_codes`` are the columns of
    ``codes`` together and return their discounted costs; the arithmetic is
    the scalar episode loop's, elementwise, with a bit of the step's nibble
    in place of u < p[theta]. Adds the block's integer counts into ``tally``
    once it ends. With a list ``rows``, appends each step's trace rows to it,
    as tuples of TRACE_COLUMNS entries with the block's columns for
    episodes; the rows hold the step's tau and b arrays, so a step makes new
    ones."""
    _, _, p01, p11, lam0, lam1 = _kernel(ch)
    m = codes.shape[1]
    costs = np.empty(m)
    runs = None  # block columns of the runs still going, once one has stopped
    theta = 1 - codes[0]  # uint8 modes
    tau = np.zeros(m, dtype=np.int64)
    b = np.full(m, ch.initial_belief)
    J = np.zeros(m)
    disc = 1.0
    # steps and attempts, each in all and in the unfavorable mode, successes
    steps = bad_steps = tries = bad_tries = succ = bad_succ = 0
    for t in range(horizon):
        a = np.asarray(policy(tau, b))
        if a.shape != tau.shape:
            raise ValueError(f"policy returned shape {a.shape} for {tau.shape} states")
        steps += theta.size
        bad_steps += np.count_nonzero(theta)
        go = a == 0
        if not go.all():
            stop = a == 1
            if not (go | stop).all():
                raise ValueError(f"policy returned unknown action {a[~(go | stop)][0]}")
            if runs is None:
                runs = np.arange(m)
            J[stop] += disc * c_stop
            costs[runs[stop]] = J[stop]
            tally["stops"][t] += np.count_nonzero(stop)
            if rows is not None:
                rows.append((runs[stop], t, theta[stop], 1, -1, tau[stop], b[stop], c_stop))
            runs, theta, tau, b, J = runs[go], theta[go], tau[go], b[go], J[go]
            if runs.size == 0:
                break
        J += disc * holding[tau]
        row = codes[1 + t // 2] if runs is None else codes[1 + t // 2][runs]
        nibble = 4 * (t & 1)
        mode = theta
        theta = 1 - ((row >> (theta + nibble)) & 1)
        success = ((row >> (theta + (nibble + 2))) & 1).view(bool)
        if rows is not None:
            rows.append((np.arange(m) if runs is None else runs, t, mode, 0, success,
                         tau, b, holding[tau]))
        tries += theta.size
        bad_tries += np.count_nonzero(theta)
        succ += np.count_nonzero(success)
        bad_succ += np.count_nonzero(success & theta)
        tau = (tau + 1) * ~success
        bhat = np.minimum(np.maximum(p01 * (1.0 - b) + p11 * b, 0.0), 1.0)
        succ_mass = lam1 * bhat
        p_succ = lam0 * (1.0 - bhat) + succ_mass
        pick = np.negative(success.view(np.uint8), dtype=np.uint64)  # all ones on success
        den = _select(pick, p_succ, 1.0 - p_succ)
        if (den <= 0.0).any():
            raise ZeroLikelihoodError(_ZERO_LIKELIHOOD)
        num = _select(pick, succ_mass, (1.0 - lam1) * bhat)
        b = np.minimum(np.maximum(num / den, 0.0), 1.0)
        disc *= gamma
    tally["occupancy"] += (steps - bad_steps, bad_steps)
    tally["attempts"] += (tries - bad_tries, bad_tries)
    tally["successes"] += (succ - bad_succ, bad_succ)
    if runs is None:
        return J
    costs[runs] = J
    return costs


def run_batch(ch: ChannelModel, holding_costs: np.ndarray, c_stop: float,
              gamma: float, policy, simcfg: SimConfig,
              collect_traces: bool = False):
    """Run ``n_runs`` independent episodes and aggregate their statistics.

    The runs advance in lockstep blocks whose code matrix, a nibble per
    step, fits in ``_BLOCK_BYTES`` (1 MiB); run k draws from its own stream
    ``default_rng(splitmix64(seed, k))``, so the result equals a scalar loop
    over the runs bit for bit, whatever the block size. Returns SimStats, or
    (SimStats, traces) when collect_traces is set; the traces are the rows
    the blocks recorded, as a dict of TRACE_COLUMNS arrays in (episode, t)
    order. Means use numpy's
    pairwise summation; the standard error is the sample standard deviation
    over sqrt(n_runs).
    """
    horizon, n_runs = simcfg.horizon, simcfg.n_runs
    holding = _holding_table(holding_costs, horizon)
    width = 1 + (horizon + 1) // 2
    block = max(1, _BLOCK_BYTES // width)
    codes = np.empty((width, min(block, n_runs)), dtype=np.uint8)
    costs = np.empty(n_runs)
    tally = {"occupancy": np.zeros(2, dtype=np.int64),
             "attempts": np.zeros(2, dtype=np.int64),
             "successes": np.zeros(2, dtype=np.int64),
             "stops": np.zeros(horizon, dtype=np.int64)}
    traces = [] if collect_traces else None
    for start in range(0, n_runs, block):
        m = min(block, n_runs - start)
        _block_codes(ch, simcfg.seed, start, horizon, codes[:, :m])
        rows = None if traces is None else []
        costs[start:start + m] = _run_block(codes[:, :m], horizon, ch, holding,
                                            c_stop, gamma, policy, tally, rows)
        if rows is not None:
            traces += [(start + runs, *rest) for runs, *rest in rows]
    occupancy, attempts, successes = tally["occupancy"], tally["attempts"], tally["successes"]
    total_steps = int(occupancy.sum())
    occ = tuple((occupancy / total_steps).tolist()) if total_steps else (0.0, 0.0)
    rates = tuple(float(successes[m] / attempts[m]) if attempts[m] else float("nan")
                  for m in range(2))
    max_stage = float(max(np.max(holding[:horizon]), c_stop))
    bias = gamma**horizon * max_stage / (1.0 - gamma)
    stats = SimStats(
        mean_discounted_cost=float(np.mean(costs)),
        stderr=float(np.std(costs, ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0,
        n_runs=n_runs, horizon=horizon,
        stop_time_histogram={int(t): int(tally["stops"][t])
                             for t in np.flatnonzero(tally["stops"])},
        mode_occupancy=occ, success_rate_per_mode=rates,
        attempts_per_mode=tuple(int(x) for x in attempts),
        truncation_bias_bound=float(bias))
    if traces is None:
        return stats
    # blocks record their steps in order, so a stable sort by episode suffices
    order = np.argsort(np.concatenate([row[0] for row in traces]), kind="stable")
    return stats, {name: np.concatenate([np.broadcast_to(row[i], row[0].shape)
                                         for row in traces], dtype=dtype)[order]
                   for i, (name, dtype) in enumerate(TRACE_COLUMNS.items())}
