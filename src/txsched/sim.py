"""Monte Carlo closed loop: true mode trajectory, transmission outcomes,
ACK-driven holding time, belief recursion, policy execution, and discounted
cost statistics.

The plant itself is never sampled: the stage cost depends only on the holding
time, so an episode is fully described by (mode, action, outcome, tau,
belief). Within a step the draws are ordered mode transition first, then the
success Bernoulli (success probability is read at the post-transition mode,
matching the kernel factorization), and the belief then updates on the
observed next holding time by ``channel.bayes``, the solver's Bayes step too.

Replications use independent seed streams derived from the base seed by
SplitMix64 (state = seed + (k+1) * golden gamma, mixed): run k draws from
``default_rng(splitmix64(seed, k))``, so a (seed, config) pair fixes every
run bit for bit.

``run_batch`` advances the runs in lockstep: a block of up to ``_BLOCK_RUNS``
runs steps together as numpy arrays, and runs that have stopped drop out.
The block runs its runs' PCG64 streams on uint64 arrays, seeded as numpy
seeds them (``_seed_words``, ``_seed_streams``), and every ``_CHUNK // 2``
steps each run still going jumps ahead by ``_CHUNK`` draws in one pass
(``_draw``). A run held in an absorbing mode skips its mode draws, and a
belief that the Bayes update keeps, that mode's certainty, is not
recomputed. A uniform ``(x >> 11) * 2**-53`` is below p exactly when
``x >> 11`` is below ``ceil(p * 2**53)``. Every operation follows the order
of a scalar episode loop, so costs, beliefs, statistics and traces equal
that loop's bit for bit, whatever the block size; the tests'
``run_episode`` is that loop.

Policies are callables ``(tau, b) -> action`` that accept either scalars or
aligned arrays (returning an action of the same shape); action 0 continues
and action 1 stops.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, bayes
from .config import SimConfig
from .stochastic_orders import ZeroLikelihoodError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# runs in one lockstep block
_BLOCK_RUNS = 1 << 14
# draws a pass takes from each live stream: two per step
_CHUNK = 8
_MIN_HELD = 1 << 11  # fewest held runs worth a split pass's ~30 more numpy calls
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


# --- PCG64 on uint64 arrays: a 128-bit value is a (high, low) word pair ---
# (every operand is a uint64 array or scalar: with a Python int, numpy
# without NEP 50 would promote to float64)

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64 steps s <- s * this + inc
_U0, _U1, _U11, _U32, _U58, _U63, _U64, _LOW32 = (
    np.uint64(n) for n in (0, 1, 11, 32, 58, 63, 64, 0xFFFFFFFF))


def _u128s(values) -> np.ndarray:
    """The (4, n, 1) uint64 high words, low words, and low and high halves
    of the low words of n 128-bit ints."""
    return np.array([(x >> 64, x & _MASK64, x & 0xFFFFFFFF, x >> 32 & 0xFFFFFFFF)
                     for x in values], dtype=np.uint64).T[:, :, None]


# i draws take a state s with increment inc to M**i s + (1 + ... + M**(i-1)) inc
_POWERS = _u128s(pow(_PCG_MULT, i, 2**128) for i in range(1, _CHUNK + 1))
_SUMS = _u128s(sum(pow(_PCG_MULT, j, 2**128) for j in range(i)) % 2**128
               for i in range(1, _CHUNK + 1))


def _advance(hi, lo, a, c_hi, c_lo, out):
    """Write a * (hi, lo) + (c_hi, c_lo) mod 2**128 into out[0] (high words)
    and out[1] (low words), broadcasting; ``a`` is a ``_u128s`` table and
    ``out`` three uint64 arrays of the result's shape, the last one scratch."""
    a_hi, a_lo, b0, b1 = a
    H, L, t = out
    a0, a1 = lo & _LOW32, lo >> _U32
    # the high word of lo * a_lo from 32-bit halves, no partial sum
    # overflowing; L is scratch until the low word goes there
    np.multiply(a0, b0, out=t)
    t >>= _U32
    np.multiply(a1, b0, out=L)
    np.bitwise_and(L, _LOW32, out=H)
    t += H
    L >>= _U32
    np.multiply(a0, b1, out=H)
    t += H
    t >>= _U32
    np.multiply(a1, b1, out=H)
    H += L
    H += t
    np.multiply(lo, a_hi, out=L)
    H += L
    np.multiply(hi, a_lo, out=L)
    H += L
    np.multiply(lo, a_lo, out=L)
    L += c_lo
    np.less(L, c_lo, out=t)  # the carry out of the low word
    H += t
    H += c_hi


def _seed_streams(seed: int, start: int, m: int) -> np.ndarray:
    """The streams ``default_rng(splitmix64(seed, k))`` of runs k = start,
    ..., start+m-1 as a (2 + 2 _CHUNK, m) uint64 array: rows 0 and 1 hold
    the high and low words of each PCG64 state, rows 2 + i and 2 + _CHUNK + i
    those of the ``_SUMS`` multiple of its increment that jumps i + 1 draws.
    As numpy's ``pcg64_set_seed``, from the ``_seed_words`` (w0, w1, w2, w3):
    inc = (w2, w3) << 1 | 1, and the state steps from 0, adds (w0, w1) and
    steps again. (A Python int seed keeps splitmix64 in uint64.)"""
    w = _seed_words(splitmix64(int(seed), np.arange(start, start + m, dtype=np.uint64))).T
    inc_hi, inc_lo = (w[2] << _U1) | (w[3] >> _U63), (w[3] << _U1) | _U1
    st = np.empty((2 + 2 * _CHUNK, m), dtype=np.uint64)
    scratch = np.empty((_CHUNK, m), dtype=np.uint64)
    _advance(inc_hi, inc_lo, _SUMS, _U0, _U0, (st[2:2 + _CHUNK], st[2 + _CHUNK:], scratch))
    lo = inc_lo + w[1]
    _advance(inc_hi + w[0] + (lo < w[1]), lo, _POWERS[:, :1], inc_hi, inc_lo,
             (st[:1], st[1:2], scratch[:1]))
    return st


def _jump(st: np.ndarray, draws: slice, out):
    """Write into out[2] the top 53 bits, ``x >> 11``, of the XSL-RR outputs
    x (the state's words xored, rotated right by the top 6 bits of the high
    word) of ``draws`` (a slice) of the streams of ``st``, each a jump from
    the first state, which moves to the last draw's; out[:2] is scratch."""
    H, L, x = out
    _advance(st[0], st[1], _POWERS[:, draws], st[2:][draws], st[2 + _CHUNK:][draws], out)
    st[0], st[1] = H[-1], L[-1]
    np.bitwise_xor(H, L, out=x)
    r = np.right_shift(H, _U58, out=H)
    np.right_shift(x, r, out=L)
    np.subtract(_U64, r, out=r)
    x <<= r  # numpy shifts by 64 to 0, so a zero rotation keeps x >> 0
    x |= L
    x >>= _U11


def _draw(st: np.ndarray, k: int, buf: np.ndarray, held=None) -> np.ndarray:
    """Advance the streams of ``st`` (``_seed_streams``) by k <= _CHUNK draws
    and return their ``_jump`` bits as a (k, n) view of ``buf``, a (3, >=
    _CHUNK n) uint64 array. The streams ``held`` marks do not read their even
    draws: if all, or twice the others and _MIN_HELD, they skip them, as 0."""
    n = st.shape[1]
    H, L, x = (row[:k * n].reshape(k, n) for row in buf)
    n_held = 0 if held is None else np.count_nonzero(held)
    draws = slice(0, k)
    if n_held == n or n_held >= max(2 * (n - n_held), _MIN_HELD):
        draws = slice(1, k, 2)
        x[0::2] = 0
        if n_held < n:  # the others' even draws, with scratch in buf[:2]
            moving = np.flatnonzero(~held)
            (He, xe), (Le, _) = buf[:2, :k * moving.size].reshape(2, 2, k // 2, -1)
            _jump(st.take(moving, axis=1), slice(0, k, 2), (He, Le, xe))
            x[0::2, moving] = xe
    _jump(st, draws, (H[draws], L[draws], x[draws]))
    return x


def _threshold(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64: the uniform (x >> 11) * 2**-53 of a draw x
    is below p exactly when the integer x >> 11 is below it."""
    return np.ceil(np.ldexp(np.asarray(p, dtype=float), 53)).astype(np.uint64)


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
    """Policy table of shape (tau_max + 1, grid_n + 1) on the (tau, belief-grid)
    lattice; off-grid beliefs act by nearest-grid-point lookup (halves round
    to even, as ``round`` does) and holding times clamp to the lattice."""

    def __init__(self, policy: np.ndarray):
        policy = np.asarray(policy)
        if policy.ndim != 2 or not policy.size:
            raise ValueError(f"policy must be a nonempty 2-D table, got shape {policy.shape}")
        self.policy = policy.astype(np.int64)
        self.tau_max, self.grid_n = (n - 1 for n in policy.shape)

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


def _bayes(ch, b, success) -> np.ndarray:
    """channel.bayes's posteriors under the continue action;
    ZeroLikelihoodError if an observed outcome has likelihood 0."""
    like, post = bayes(ch, b, success)
    if (like <= 0.0).any():
        raise ZeroLikelihoodError(_ZERO_LIKELIHOOD)
    return post


def _run_block(st: np.ndarray, horizon: int, ch: ChannelModel, holding: np.ndarray,
               c_stop: float, gamma: float, policy, tally: dict, rows=None) -> np.ndarray:
    """Advance the episodes whose streams are the columns of ``st``
    (``_seed_streams``) together and return their discounted costs; the
    arithmetic is the scalar episode loop's, elementwise. Every
    ``_CHUNK // 2`` steps the runs still going draw the uniforms of the next
    ones. Adds the block's integer counts into ``tally`` once it ends. With a
    list ``rows``, appends each step's trace rows to it, as tuples of
    TRACE_COLUMNS entries with the block's columns for episodes; the rows
    hold the step's tau and b arrays, so a step makes new ones."""
    # draw i's code holds u < p[0] in bit 0 and u < p[1] in bit 1, where p by
    # mode is the probability of the favorable mode next (i even) or of a
    # success (i odd), under the continue action
    p = np.column_stack((ch.mode_kernel[0, :, 0], ch.lam[:, 0]))
    below = np.tile(_threshold(p), _CHUNK // 2)[:, :, None]
    # a run in an absorbing mode reads no mode draw: any y, as 0, gives its
    # code; ``free`` is the other mode, 2 if both absorb, None if neither does
    absorbs = below[:, 0, 0] == np.array([2**53, 0], dtype=np.uint64)
    free = None if not absorbs.any() else 2 if absorbs.all() else int(absorbs[0])
    # the certainty of an absorbing mode (1.0 if mode 1 absorbs) when both
    # outcomes' updates return it with nonzero likelihood, else NaN: none
    c = float(free != 1)
    like, post = bayes(ch, np.full(2, c), np.array([True, False]))
    settled = c if free is not None and (like > 0.0).all() and (post == c).all() else np.nan
    m = st.shape[1]
    buf = np.empty((3, _CHUNK * m), dtype=np.uint64)
    costs = np.empty(m)
    runs = np.arange(m)  # block columns of the runs still going
    cols = None  # their columns of st, once one has stopped since st last drew
    theta = np.greater_equal(_draw(st, 1, buf)[0],
                             _threshold(ch.initial_mode_dist[:1])).view(np.uint8)
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
            if cols is None:
                cols = np.arange(theta.size)
            J[stop] += disc * c_stop
            costs[runs[stop]] = J[stop]
            tally["stops"][t] += np.count_nonzero(stop)
            if rows is not None:
                rows.append((runs[stop], t, theta[stop], 1, -1, tau[stop], b[stop], c_stop))
            runs, cols, theta, tau, b, J = runs[go], cols[go], theta[go], tau[go], b[go], J[go]
            if runs.size == 0:
                break
        j = 2 * t % _CHUNK
        if j == 0:
            if cols is not None:
                st, cols = st[:, cols], None
            y = _draw(st, min(_CHUNK, 2 * (horizon - t)), buf,
                      None if free is None else theta != free)
            codes = ((y < below[0, :len(y)]).view(np.uint8)
                     | (y < below[1, :len(y)]).view(np.uint8) << 1)
            # runs at the settled belief keep it: when at most half of the
            # beliefs move at the pass start, its steps update only those
            sift = 2 * np.count_nonzero(b != settled) <= b.size
        code = codes[j:j + 2] if cols is None else codes[j:j + 2, cols]
        J += disc * holding[tau]
        mode = theta
        theta = 1 - ((code[0] >> theta) & 1)
        success = ((code[1] >> theta) & 1).view(bool)
        if rows is not None:
            rows.append((runs, t, mode, 0, success, tau, b, holding[tau]))
        tries += theta.size
        bad_tries += np.count_nonzero(theta)
        succ += np.count_nonzero(success)
        bad_succ += np.count_nonzero(success & theta)
        tau = (tau + 1) * ~success
        move = np.flatnonzero(b != settled) if sift else None
        if move is None:
            b = _bayes(ch, b, success)
        elif move.size:  # into a new b, as trace rows hold the old one
            b, b_move = np.full(b.shape, settled), _bayes(ch, b[move], success[move])
            b[move] = b_move
        disc *= gamma
    tally["occupancy"] += (steps - bad_steps, bad_steps)
    tally["attempts"] += (tries - bad_tries, bad_tries)
    tally["successes"] += (succ - bad_succ, bad_succ)
    costs[runs] = J
    return costs


def run_batch(ch: ChannelModel, holding_costs: np.ndarray, c_stop: float,
              gamma: float, policy, simcfg: SimConfig,
              collect_traces: bool = False):
    """Run ``n_runs`` independent episodes and aggregate their statistics.

    The runs advance in lockstep blocks of up to ``_BLOCK_RUNS``; run k
    draws from its own stream ``default_rng(splitmix64(seed, k))``, so the
    result equals a scalar loop over the runs bit for bit, whatever the
    block size. Returns SimStats, or (SimStats, traces) when collect_traces
    is set; the traces are the rows the blocks recorded, as a dict of
    TRACE_COLUMNS arrays in (episode, t) order. Means use numpy's pairwise
    summation; the standard error is the sample standard deviation over
    sqrt(n_runs).
    """
    horizon, n_runs = simcfg.horizon, simcfg.n_runs
    holding = _holding_table(holding_costs, horizon)
    costs = np.empty(n_runs)
    tally = {"occupancy": np.zeros(2, dtype=np.int64),
             "attempts": np.zeros(2, dtype=np.int64),
             "successes": np.zeros(2, dtype=np.int64),
             "stops": np.zeros(horizon, dtype=np.int64)}
    traces = [] if collect_traces else None
    for start in range(0, n_runs, _BLOCK_RUNS):
        m = min(_BLOCK_RUNS, n_runs - start)
        rows = None if traces is None else []
        costs[start:start + m] = _run_block(_seed_streams(simcfg.seed, start, m), horizon,
                                            ch, holding, c_stop, gamma, policy, tally, rows)
        if rows is not None:
            traces += [(start + runs, *rest) for runs, *rest in rows]
    occupancy, attempts, successes = tally["occupancy"], tally["attempts"], tally["successes"]
    occ = tuple((occupancy / occupancy.sum()).tolist())  # every run takes step 0
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
