import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import txsched as tx
from oracles import (_stream, grid_action_tables, run_episode, select_bayes,
                     validate_belief_consistency)
from txsched import sim
from txsched.belief_mdp import _action_tables


@pytest.fixture(scope="module")
def sim_table(plant, steady):
    return tx.holding_cost_table(plant, steady, 250)


def oracle_batch(ch, holding_costs, c_stop, gamma, policy, simcfg):
    """Reference aggregation: one scalar ``run_episode`` per run, on the same
    per-run streams, summed episode by episode."""
    costs = np.empty(simcfg.n_runs)
    stop_hist = {}
    occupancy = np.zeros(2, dtype=np.int64)
    attempts = np.zeros(2, dtype=np.int64)
    successes = np.zeros(2, dtype=np.int64)
    for k in range(simcfg.n_runs):
        rng = np.random.default_rng(tx.splitmix64(simcfg.seed, k))
        tr = run_episode(ch, holding_costs, c_stop, gamma, policy,
                         simcfg.horizon, rng)
        costs[k] = tr.discounted_cost
        if tr.stopped:
            stop_hist[tr.stop_time] = stop_hist.get(tr.stop_time, 0) + 1
        occupancy += np.bincount(tr.theta[tr.theta >= 0], minlength=2)[:2]
        live = tr.theta_next >= 0
        attempts += np.bincount(tr.theta_next[live], minlength=2)[:2]
        successes += np.bincount(tr.theta_next[live], weights=tr.success[live],
                                 minlength=2)[:2].astype(np.int64)
    total_steps = int(occupancy.sum())
    occ = tuple((occupancy / total_steps).tolist()) if total_steps else (0.0, 0.0)
    rates = tuple(float(successes[m] / attempts[m]) if attempts[m] else float("nan")
                  for m in range(2))
    max_stage = float(max(np.max(holding_costs[:simcfg.horizon]), c_stop))
    return tx.SimStats(
        mean_discounted_cost=float(np.mean(costs)),
        stderr=float(np.std(costs, ddof=1) / np.sqrt(simcfg.n_runs))
        if simcfg.n_runs > 1 else 0.0,
        n_runs=simcfg.n_runs, horizon=simcfg.horizon,
        stop_time_histogram=dict(sorted(stop_hist.items())),
        mode_occupancy=occ, success_rate_per_mode=rates,
        attempts_per_mode=tuple(int(x) for x in attempts),
        truncation_bias_bound=float(gamma**simcfg.horizon * max_stage / (1.0 - gamma)))


# the ``SimTrace`` field of each trace column but the episode
TRACE_FIELDS = {"t": "t", "theta": "theta", "action": "action", "gamma_t": "success",
                "tau": "tau", "belief": "belief", "cost": "stage_cost"}


def split_episodes(traces):
    """``run_batch``'s trace columns cut into episodes, each a namespace of
    its rows under ``SimTrace``'s field names (and ``episode``)."""
    cuts = np.flatnonzero(np.diff(traces["episode"])) + 1
    parts = {TRACE_FIELDS.get(name, name): np.split(col, cuts) for name, col in traces.items()}
    return [SimpleNamespace(**dict(zip(parts, cols))) for cols in zip(*parts.values())]


def assert_stats_equal(got, want):
    """Field-by-field equality, NaN success rates counting as equal."""
    def key(stats):
        d = dict(stats.__dict__)
        d["success_rate_per_mode"] = tuple(None if math.isnan(r) else r
                                           for r in stats.success_rate_per_mode)
        return d
    assert key(got) == key(want)


class TestSplitMix:
    def test_known_vector(self):
        # first output of the SplitMix64 stream seeded at 0
        assert tx.splitmix64(0, 0) == 0xE220A8397B1DCDAF

    def test_distinct_streams(self):
        seeds = {tx.splitmix64(123, k) for k in range(1000)}
        assert len(seeds) == 1000


def vector_uniforms(seed, start, m, n):
    """The first n uniforms of runs start, ..., start+m-1 from the vectorised
    streams, as an (n, m) array, drawn as ``_run_block`` draws them: one,
    then passes of up to ``_CHUNK``."""
    st = sim._seed_streams(seed, start, m)
    buf = np.empty((3, sim._CHUNK * m), dtype=np.uint64)
    parts = [sim._draw(st, 1, buf).copy()]
    while sum(map(len, parts)) < n:
        parts.append(sim._draw(st, min(sim._CHUNK, n - sum(map(len, parts))), buf).copy())
    return np.concatenate(parts) * 2.0**-53


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestBatchedSeeding:
    """``run_batch`` seeds and advances a block's streams in vectorized
    passes; they must be ``default_rng(splitmix64(seed, k))``'s bit for bit."""

    def test_vectorized_splitmix_matches_scalar(self):
        for seed in EDGE_SEEDS:
            runs = np.arange(3000, dtype=np.uint64)
            assert sim.splitmix64(seed, runs).tolist() == [
                tx.splitmix64(seed, k) for k in range(3000)]

    def test_seed_words_match_seed_sequence(self):
        rand = np.random.default_rng(7).integers(0, 2**64, 10_000, dtype=np.uint64)
        seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), rand])
        words = sim._seed_words(seeds)
        assert words.shape == (seeds.size, 4) and words.dtype == np.uint64
        for s, w in zip(seeds.tolist(), words):
            assert np.array_equal(w, np.random.SeedSequence(s).generate_state(4, np.uint64))

    @pytest.mark.parametrize("seed", [0, 20260811, 2**64 - 1])
    def test_seeded_states_are_pcg64s(self, seed):
        # rows 0-1 hold PCG64's seeded state; rows 2 and 2 + _CHUNK, the
        # one-draw jump, its increment
        start, m = 1000, 40
        st = sim._seed_streams(seed, start, m)
        assert st.shape == (2 + 2 * sim._CHUNK, m) and st.dtype == np.uint64
        for j in range(m):
            want = np.random.PCG64(tx.splitmix64(seed, start + j)).state["state"]
            words = [int(st[row, j]) for row in (0, 1, 2, 2 + sim._CHUNK)]
            assert words[0] << 64 | words[1] == want["state"]
            assert words[2] << 64 | words[3] == want["inc"]

    @pytest.mark.parametrize("seed", [0, 20260811, 2**64 - 1])
    def test_draws_match_default_rng(self, seed):
        horizon, start = 50, 1000
        u = vector_uniforms(seed, start, 40, 2 * horizon + 1)
        for j in range(40):
            want = np.random.default_rng(tx.splitmix64(seed, start + j)).random(2 * horizon + 1)
            assert np.array_equal(u[:, j], want)

    def test_thresholds_decide_the_float_comparisons(self):
        # y < ceil(p * 2**53) exactly when y * 2**-53 < p, also for p on,
        # next to, and between the draws' own values, and for 0 and 1
        y = (vector_uniforms(2**64 - 1, 5, 70, 2 * 31 + 1) * 2.0**53).astype(np.uint64).ravel()
        u = y * 2.0**-53
        ps = np.concatenate([u[:50], np.nextafter(u[:50], 2.0), np.nextafter(u[:50], -1.0),
                             [0.0, 5e-324, 2.0**-53, 0.5, 0.9, 0.2, 1.0 - 2.0**-53, 1.0]])
        for p in ps:
            assert np.array_equal(y < sim._threshold(p), u < p), p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
       k=st.one_of(st.sampled_from([0, 2**32, 2**64 - 2]), st.integers(0, 2**64 - 2)),
       n=st.integers(1, 3 * sim._CHUNK + 2))
def test_vectorised_uniforms_equal_default_rng(seed, k, n):
    # the run indices k and k + 1 fit in uint64
    got = vector_uniforms(seed, k, 2, n)
    for j in range(2):
        want = np.random.default_rng(tx.splitmix64(seed, k + j)).random(n)
        assert np.array_equal(got[:, j], want)


class TestRunEpisode:
    def test_always_succeeds(self, ge_channel, sim_table):
        ch = tx.make_gilbert_elliott(0.9, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(1)
        tr = run_episode(ch, sim_table.costs, 10.0, 0.95, tx.never_stop, 50, rng)
        assert np.all(tr.tau == 0)
        assert np.all(tr.success == 1)
        expected = 0.0
        disc = 1.0
        for _ in range(50):
            expected += disc * sim_table.costs[0]
            disc *= 0.95
        assert tr.discounted_cost == expected

    def test_never_succeeds(self, sim_table):
        ch = tx.make_gilbert_elliott(0.9, 1.0, 0.0, 0.0)
        rng = np.random.default_rng(2)
        tr = run_episode(ch, sim_table.costs, 10.0, 0.95, tx.never_stop, 40, rng)
        assert np.array_equal(tr.tau, np.arange(40))
        assert np.all(tr.success == 0)
        assert validate_belief_consistency(tr, ch)

    def test_stop_immediately(self, ge_channel, sim_table):
        rng = np.random.default_rng(3)
        tr = run_episode(ge_channel, sim_table.costs, 10.0, 0.95,
                         tx.stop_immediately, 50, rng)
        assert tr.stopped and tr.stop_time == 0
        assert tr.discounted_cost == 10.0
        assert len(tr) == 1

    def test_holding_recursion(self, ge_channel, sim_table):
        rng = np.random.default_rng(4)
        tr = run_episode(ge_channel, sim_table.costs, 10.0, 0.95,
                         tx.never_stop, 100, rng)
        for i in range(len(tr) - 1):
            if tr.success[i] == 1:
                assert tr.tau[i + 1] == 0
            else:
                assert tr.tau[i + 1] == tr.tau[i] + 1

    def test_belief_consistency_and_mutation(self, ge_channel, sim_table):
        rng = np.random.default_rng(5)
        tr = run_episode(ge_channel, sim_table.costs, 10.0, 0.95,
                         tx.never_stop, 60, rng)
        assert validate_belief_consistency(tr, ge_channel)
        tr.belief[17] += 1e-9
        assert not validate_belief_consistency(tr, ge_channel)

    def test_persistent_failure_belief_monotone_on_failures(self, sim_table):
        ch = tx.make_persistent_failure(0.15, 0.9, 0.2, b0=0.0)
        rng = np.random.default_rng(6)
        tr = run_episode(ch, sim_table.costs, 10.0, 0.95, tx.never_stop, 120, rng)
        for i in range(len(tr) - 1):
            if tr.success[i] == 0:
                assert tr.belief[i + 1] >= tr.belief[i] - 1e-12

    def test_deterministic_given_seed(self, ge_channel, sim_table):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append(run_episode(ge_channel, sim_table.costs, 10.0, 0.95,
                                    tx.FixedThresholdPolicy(0.6), 80, rng))
        assert np.array_equal(runs[0].belief, runs[1].belief)
        assert np.array_equal(runs[0].theta, runs[1].theta)
        assert runs[0].discounted_cost == runs[1].discounted_cost

    def test_table_too_short(self, ge_channel, sim_table):
        with pytest.raises(ValueError, match="horizon"):
            run_episode(ge_channel, sim_table.costs[:10], 10.0, 0.95,
                        tx.never_stop, 50, np.random.default_rng(0))


class TestRunBatch:
    def test_reproducible(self, ge_channel, sim_table):
        cfgs = tx.SimConfig(horizon=50, n_runs=64, seed=777)
        s1 = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                          tx.FixedThresholdPolicy(0.5), cfgs)
        s2 = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                          tx.FixedThresholdPolicy(0.5), cfgs)
        assert s1 == s2

    def test_stop_now_exact(self, ge_channel, sim_table):
        cfgs = tx.SimConfig(horizon=50, n_runs=32, seed=1)
        stats = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                             tx.stop_immediately, cfgs)
        assert stats.mean_discounted_cost == 10.0
        assert stats.stderr == 0.0
        assert stats.stop_time_histogram == {0: 32}

    def test_success_rates_within_3_sigma(self, ge_channel, sim_table):
        cfgs = tx.SimConfig(horizon=100, n_runs=400, seed=20260811)
        stats = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                             tx.never_stop, cfgs)
        for mode, lam in ((0, 0.9), (1, 0.2)):
            n = stats.attempts_per_mode[mode]
            assert n > 100
            sigma = np.sqrt(lam * (1 - lam) / n)
            assert abs(stats.success_rate_per_mode[mode] - lam) < 3 * sigma

    def test_clt_scaling(self, ge_channel, sim_table):
        se = {}
        for n in (250, 1000):
            cfgs = tx.SimConfig(horizon=60, n_runs=n, seed=5)
            se[n] = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                                 tx.never_stop, cfgs).stderr
        ratio = se[250] / se[1000]
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_truncation_bias_bound(self, ge_channel, sim_table):
        cfgs = tx.SimConfig(horizon=200, n_runs=4, seed=2)
        stats = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                             tx.never_stop, cfgs)
        expected = 0.95**200 * max(np.max(sim_table.costs[:200]), 10.0) / 0.05
        assert stats.truncation_bias_bound == pytest.approx(expected, rel=1e-12)

    def test_never_stop_matches_solver_value(self, plant, ge_channel, sim_table,
                                             cost_table):
        # the solver with stopping disabled prices the never-stop policy;
        # the Monte Carlo estimate must agree within 3 SE plus the horizon
        # truncation bias
        cost = tx.StageCost(holding=cost_table, action_costs=np.array([0.0]))
        cfg = tx.SolverConfig(gamma=0.95, tau_max=60, grid_n=100, vi_tol=1e-9)
        v0 = tx.value_iterate(ge_channel, cost, cfg).V[0, 0]
        cfgs = tx.SimConfig(horizon=250, n_runs=2000, seed=31)
        stats = tx.run_batch(ge_channel, sim_table.costs, 10.0, 0.95,
                             tx.never_stop, cfgs)
        slack = 3 * stats.stderr + stats.truncation_bias_bound + 1e-3
        assert abs(stats.mean_discounted_cost - v0) < slack


CHANNELS = {
    "ge": tx.make_gilbert_elliott(p00=0.9, p11=1.0, lam_good=0.9, lam_bad=0.2),
    "ge-recovering": tx.make_gilbert_elliott(p00=0.8, p11=0.7, lam_good=0.95,
                                             lam_bad=0.3, b0=0.4),
    "persistent": tx.make_persistent_failure(0.15, 0.9, 0.2, b0=0.0),
    "explicit": tx.ChannelModel(lam=[[0.85], [0.1]],
                                mode_kernel=[[[0.92, 0.08], [0.05, 0.95]]],
                                initial_mode_dist=[0.75, 0.25]),
}


def solved_policy(sol):
    return tx.LatticePolicy(sol.policy, sol.grid_n, sol.tau_max)


def policy_kinds(stopping_solution):
    return {"solved": solved_policy(stopping_solution),
            "never-stop": tx.never_stop, "stop-now": tx.stop_immediately,
            "threshold": tx.FixedThresholdPolicy(0.5)}


class TestLockstepOracle:
    """``run_batch`` advances runs in lockstep; its stats must equal the
    episode-by-episode loop over ``run_episode`` exactly."""

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("kind", ["solved", "never-stop", "stop-now", "threshold"])
    def test_matches_scalar_loop(self, channel, kind, stopping_solution, sim_table):
        policy = policy_kinds(stopping_solution)[kind]
        cfgs = tx.SimConfig(horizon=80, n_runs=150, seed=20260811)
        args = (CHANNELS[channel], sim_table.costs, 10.0, 0.95, policy, cfgs)
        assert_stats_equal(tx.run_batch(*args), oracle_batch(*args))

    @pytest.mark.parametrize("kind", ["solved", "never-stop", "threshold"])
    def test_several_blocks_and_partial_last_block(self, kind, plant, steady,
                                                   stopping_solution, monkeypatch):
        # small blocks keep the scalar oracle short; the reference config's
        # batch is one block (test_reference_batch_is_one_block)
        horizon, block = 1000, 16
        monkeypatch.setattr(sim, "_BLOCK_RUNS", block)
        n_runs = 2 * block + 10
        table = tx.holding_cost_table(plant, steady, horizon)
        cfgs = tx.SimConfig(horizon=horizon, n_runs=n_runs, seed=4)
        args = (CHANNELS["ge-recovering"], table.costs, 10.0, 0.95,
                policy_kinds(stopping_solution)[kind], cfgs)
        assert_stats_equal(tx.run_batch(*args), oracle_batch(*args))

    @pytest.mark.parametrize("block", [1, 27])
    def test_block_size_does_not_change_result(self, block, monkeypatch,
                                               stopping_solution, sim_table):
        cfgs = tx.SimConfig(horizon=60, n_runs=50, seed=8)
        args = (CHANNELS["ge"], sim_table.costs, 10.0, 0.95,
                policy_kinds(stopping_solution)["solved"], cfgs)
        want = tx.run_batch(*args)
        monkeypatch.setattr(sim, "_BLOCK_RUNS", block)
        assert_stats_equal(tx.run_batch(*args), want)

    @pytest.mark.parametrize("horizon", [1, 3, 81])
    @pytest.mark.parametrize("kind", ["solved", "never-stop", "threshold"])
    def test_odd_horizon(self, kind, horizon, stopping_solution, sim_table):
        # the last pass draws fewer than _CHUNK uniforms
        cfgs = tx.SimConfig(horizon=horizon, n_runs=70, seed=13)
        args = (CHANNELS["explicit"], sim_table.costs, 10.0, 0.95,
                policy_kinds(stopping_solution)[kind], cfgs)
        assert_stats_equal(tx.run_batch(*args), oracle_batch(*args))

    def test_reference_batch_is_one_block(self, monkeypatch, sim_table):
        # the reference config's 10 000 runs step as one block
        widths = []
        run_block = sim._run_block

        def spy(st, *args):
            widths.append(st.shape[1])
            return run_block(st, *args)

        monkeypatch.setattr(sim, "_run_block", spy)
        cfgs = tx.SimConfig(horizon=200, n_runs=10_000, seed=20260811)
        tx.run_batch(CHANNELS["ge"], sim_table.costs, 10.0, 0.95,
                     tx.stop_immediately, cfgs)
        assert widths == [10_000]

    @pytest.mark.parametrize("horizon", [1, 9, 10])
    def test_only_the_runs_still_going_draw(self, horizon, monkeypatch, sim_table):
        # the initial mode takes one draw; then every _CHUNK // 2 steps each
        # run still going draws the next steps' uniforms, up to the horizon
        calls = []
        draw = sim._draw

        def spy(st, k, buf, held=None):
            calls.append((st.shape[1], k))
            return draw(st, k, buf, held)

        monkeypatch.setattr(sim, "_draw", spy)
        cfgs = tx.SimConfig(horizon=horizon, n_runs=30, seed=6)
        args = (CHANNELS["ge"], sim_table.costs, 10.0, 0.95)
        tx.run_batch(*args, tx.stop_immediately, cfgs)
        assert calls == [(30, 1)]
        calls.clear()
        tx.run_batch(*args, tx.never_stop, cfgs)
        steps = sim._CHUNK // 2
        assert calls == [(30, 1)] + [(30, 2 * min(steps, horizon - t))
                                     for t in range(0, horizon, steps)]
        calls.clear()
        t_now = iter(range(horizon))

        def policy(tau, b):  # the first ten runs still going stop at t = 1 and t = 5
            return ((np.arange(tau.size) < 10) & (next(t_now) in (1, 5))).astype(np.int64)

        tx.run_batch(*args, policy, cfgs)
        assert calls == [(30, 1)] + [(30 - 10 * (t >= 1) - 10 * (t >= 5),
                                      2 * min(steps, horizon - t))
                                     for t in range(0, horizon, steps)]

    @pytest.mark.parametrize("min_held", [0, sim._MIN_HELD])
    def test_held_runs_draw_only_their_outcomes(self, min_held, monkeypatch, sim_table):
        # a run in the absorbing mode (p11 = 1) reads no mode draw: once the
        # held runs are all, or twice the others and _MIN_HELD, a pass jumps
        # the others to their even draws and every run to its odd ones only
        monkeypatch.setattr(sim, "_MIN_HELD", min_held)
        passes, draw, jump = [], sim._draw, sim._jump

        def draw_spy(st, k, buf, held=None):
            passes.append((st.shape[1], k, 0 if held is None else int(held.sum()), []))
            return draw(st, k, buf, held)

        def jump_spy(st, draws, out):
            passes[-1][3].append((st.shape[1], draws))
            return jump(st, draws, out)

        monkeypatch.setattr(sim, "_draw", draw_spy)
        monkeypatch.setattr(sim, "_jump", jump_spy)
        cfgs = tx.SimConfig(horizon=120, n_runs=300, seed=5)
        args = (CHANNELS["ge"], sim_table.costs, 10.0, 0.95, tx.never_stop, cfgs)
        assert_stats_equal(tx.run_batch(*args), oracle_batch(*args))
        split = below_half = 0
        for n, k, held, jumps in passes:
            if held == n or held >= max(2 * (n - held), min_held):
                assert 2 * held >= n
                assert jumps == [(n - held, slice(0, k, 2))] * (held < n) + [(n, slice(1, k, 2))]
                split += 1
            else:
                assert jumps == [(n, slice(0, k))]
                below_half += 0 < 2 * held < n
        assert split and below_half

    def test_split_pass_draws_the_same_values(self, monkeypatch):
        # odd draws for every stream, even ones for the streams not held;
        # the held read 0 there, and every stream ends where a full pass ends
        monkeypatch.setattr(sim, "_MIN_HELD", 0)
        n, k = 50, sim._CHUNK
        held = np.random.default_rng(3).random(n) < 0.8
        full = sim._seed_streams(17, 0, n)
        split = full.copy()
        buf = np.empty((3, sim._CHUNK * n), dtype=np.uint64)
        want = sim._draw(full, k, buf).copy()
        got = sim._draw(split, k, buf, held)
        assert np.array_equal(got[1::2], want[1::2])
        assert np.array_equal(got[0::2], np.where(held, 0, want[0::2]))
        assert np.array_equal(split, full)

    @pytest.mark.parametrize("kind", ["solved", "never-stop", "stop-now", "threshold"])
    def test_horizon_one(self, kind, stopping_solution, sim_table):
        cfgs = tx.SimConfig(horizon=1, n_runs=33, seed=3)
        args = (CHANNELS["ge-recovering"], sim_table.costs, 10.0, 0.95,
                policy_kinds(stopping_solution)[kind], cfgs)
        assert_stats_equal(tx.run_batch(*args), oracle_batch(*args))

    def test_single_run(self, sim_table):
        cfgs = tx.SimConfig(horizon=30, n_runs=1, seed=11)
        args = (CHANNELS["ge"], sim_table.costs, 10.0, 0.95, tx.never_stop, cfgs)
        stats = tx.run_batch(*args)
        assert stats.stderr == 0.0
        assert_stats_equal(stats, oracle_batch(*args))

    def test_traces_replay_the_same_streams(self, stopping_solution, sim_table):
        cfgs = tx.SimConfig(horizon=40, n_runs=20, seed=21)
        args = (CHANNELS["ge"], sim_table.costs, 10.0, 0.95,
                policy_kinds(stopping_solution)["solved"], cfgs)
        stats, traces = tx.run_batch(*args, collect_traces=True)
        assert_stats_equal(stats, tx.run_batch(*args))
        episodes = split_episodes(traces)
        assert len(episodes) == cfgs.n_runs
        costs = []
        for tr in episodes:
            J, disc = 0.0, 1.0
            for c in tr.stage_cost.tolist():
                J += disc * c
                disc *= 0.95
            costs.append(J)
        assert stats.mean_discounted_cost == float(np.mean(costs))
        assert all(validate_belief_consistency(tr, CHANNELS["ge"]) for tr in episodes)

    @pytest.mark.parametrize("horizon, n_runs, block", [
        (40, 150, None),  # one block
        (81, 42, 16),  # odd horizon; blocks of 16 runs, the last one of 10
        (1, 33, None),
    ])
    @pytest.mark.parametrize("kind", ["solved", "never-stop", "stop-now", "threshold"])
    def test_traces_equal_scalar_episodes(self, kind, horizon, n_runs, block,
                                          stopping_solution, sim_table, monkeypatch):
        if block is not None:
            monkeypatch.setattr(sim, "_BLOCK_RUNS", block)
        cfgs = tx.SimConfig(horizon=horizon, n_runs=n_runs, seed=20260811)
        ch, policy = CHANNELS["ge-recovering"], policy_kinds(stopping_solution)[kind]
        _, traces = tx.run_batch(ch, sim_table.costs, 10.0, 0.95, policy, cfgs,
                                 collect_traces=True)
        assert {name: col.dtype for name, col in traces.items()} == sim.TRACE_COLUMNS
        assert len({col.size for col in traces.values()}) == 1
        episodes = split_episodes(traces)
        assert len(episodes) == n_runs
        for k, got in enumerate(episodes):
            want = run_episode(ch, sim_table.costs, 10.0, 0.95, policy, horizon,
                               _stream(cfgs.seed, k))
            assert np.array_equal(got.episode, np.full(len(want), k))
            for field in TRACE_FIELDS.values():
                assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_unknown_action_rejected(self, sim_table):
        cfgs = tx.SimConfig(horizon=20, n_runs=5, seed=1)
        with pytest.raises(ValueError, match="unknown action 2"):
            tx.run_batch(CHANNELS["ge"], sim_table.costs, 10.0, 0.95,
                         lambda tau, b: np.where(tau >= 3, 2, 0), cfgs)

    def test_policy_shape_checked(self, sim_table):
        cfgs = tx.SimConfig(horizon=20, n_runs=5, seed=1)
        with pytest.raises(ValueError, match="shape"):
            tx.run_batch(CHANNELS["ge"], sim_table.costs, 10.0, 0.95,
                         lambda tau, b: 0, cfgs)

    def test_zero_likelihood_raises(self, sim_table):
        # the filter is certain of the unfavorable mode (lam 0) while the
        # true mode is the favorable one (lam 1): a success has zero likelihood
        ch = SimpleNamespace(mode_kernel=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                             lam=np.array([[1.0], [0.0]]),
                             initial_mode_dist=np.array([1.0, 0.0]),
                             initial_belief=1.0)
        cfgs = tx.SimConfig(horizon=5, n_runs=3, seed=1)
        with pytest.raises(tx.ZeroLikelihoodError):
            tx.run_batch(ch, sim_table.costs, 10.0, 0.95, tx.never_stop, cfgs)
        with pytest.raises(tx.ZeroLikelihoodError):
            run_episode(ch, sim_table.costs, 10.0, 0.95, tx.never_stop, 5,
                        np.random.default_rng(0))

    def test_zero_likelihood_raises_in_a_split_pass(self, monkeypatch, sim_table):
        # both modes absorb, so every run is held and skips its mode draws;
        # the Bayes update still sees the success of zero likelihood
        ch = SimpleNamespace(mode_kernel=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                             lam=np.array([[1.0], [0.0]]),
                             initial_mode_dist=np.array([1.0, 0.0]),
                             initial_belief=1.0)
        helds = []
        draw = sim._draw

        def spy(st, k, buf, held=None):
            helds.append(None if held is None else np.count_nonzero(held))
            return draw(st, k, buf, held)

        monkeypatch.setattr(sim, "_draw", spy)
        cfgs = tx.SimConfig(horizon=5, n_runs=64, seed=1)
        with pytest.raises(tx.ZeroLikelihoodError):
            tx.run_batch(ch, sim_table.costs, 10.0, 0.95, tx.never_stop, cfgs)
        assert helds == [None, 64]

    def test_table_too_short(self, sim_table):
        cfgs = tx.SimConfig(horizon=50, n_runs=5, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            tx.run_batch(CHANNELS["ge"], sim_table.costs[:10], 10.0, 0.95,
                         tx.never_stop, cfgs)


@st.composite
def tp2_channels(draw):
    unit = st.floats(0.0, 1.0)
    p00 = draw(unit)
    p11 = draw(st.floats(1.0 - p00, 1.0))
    lam_bad = draw(unit)
    lam_good = draw(st.floats(lam_bad, 1.0))
    return tx.make_gilbert_elliott(p00=p00, p11=p11, lam_good=lam_good,
                                   lam_bad=lam_bad, b0=draw(unit))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ch=tp2_channels(), seed=st.integers(0, 2**64 - 1),
       horizon=st.integers(1, 40), n_runs=st.integers(1, 30),
       threshold=st.floats(0.0, 1.0))
def test_lockstep_equals_scalar_loop_on_random_channels(plant, steady, ch, seed,
                                                        horizon, n_runs, threshold):
    costs = tx.holding_cost_table(plant, steady, 40).costs
    cfgs = tx.SimConfig(horizon=horizon, n_runs=n_runs, seed=seed)
    for policy in (tx.FixedThresholdPolicy(threshold), tx.never_stop):
        args = (ch, costs, 10.0, 0.95, policy, cfgs)
        assert_stats_equal(tx.run_batch(*args), oracle_batch(*args))


@st.composite
def absorbing_channels(draw):
    """Gilbert-Elliott channels whose mode 1, mode 0, or both modes absorb,
    with success rates and initial beliefs that may sit at 0 or 1."""
    edge = st.sampled_from([0.0, 1.0])
    kind = draw(st.sampled_from(["p11", "p00", "both"]))
    p00 = 1.0 if kind != "p11" else draw(st.floats(0.0, 1.0))
    p11 = 1.0 if kind != "p00" else draw(st.floats(0.0, 1.0))
    lam_bad = draw(edge | st.floats(0.0, 0.5))
    lam_good = draw(edge.filter(lambda x: x >= lam_bad) | st.floats(max(lam_bad, 0.5), 1.0))
    return tx.make_gilbert_elliott(p00=p00, p11=p11, lam_good=lam_good, lam_bad=lam_bad,
                                   b0=draw(edge | st.floats(0.0, 1.0)))


# beliefs reach the certainty of the absorbing mode 1 within the horizon, or
# that of mode 0 at a success (lam_bad = 0), or start at that of mode 1 when
# both modes absorb
@example(ch=CHANNELS["ge"], seed=9, horizon=150, n_runs=200, policy="never-stop",
         threshold=1.0, min_held=0)
@example(ch=tx.make_gilbert_elliott(p00=1.0, p11=0.9, lam_good=0.8, lam_bad=0.0, b0=0.5),
         seed=10, horizon=150, n_runs=200, policy="never-stop", threshold=0.9, min_held=0)
@example(ch=tx.make_gilbert_elliott(p00=1.0, p11=1.0, lam_good=0.7, lam_bad=0.3, b0=1.0),
         seed=11, horizon=60, n_runs=200, policy="solved", threshold=1.0, min_held=0)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ch=absorbing_channels(), seed=st.integers(0, 2**64 - 1),
       horizon=st.integers(1, 150), n_runs=st.integers(1, 200),
       policy=st.sampled_from(["never-stop", "threshold", "solved"]),
       threshold=st.floats(0.5, 1.0), min_held=st.sampled_from([0, sim._MIN_HELD]))
def test_absorbing_channels_equal_scalar_episodes(plant, steady, stopping_solution, ch, seed,
                                                 horizon, n_runs, policy, threshold,
                                                 min_held):
    # held runs skip their mode draws and settled beliefs skip the Bayes
    # update; statistics and every trace row still equal the scalar loop's
    policy = {"never-stop": tx.never_stop, "threshold": tx.FixedThresholdPolicy(threshold),
              "solved": solved_policy(stopping_solution)}[policy]
    costs = tx.holding_cost_table(plant, steady, 150).costs
    cfgs = tx.SimConfig(horizon=horizon, n_runs=n_runs, seed=seed)
    with mock.patch.object(sim, "_MIN_HELD", min_held):
        stats, traces = tx.run_batch(ch, costs, 10.0, 0.95, policy, cfgs, collect_traces=True)
    assert_stats_equal(stats, oracle_batch(ch, costs, 10.0, 0.95, policy, cfgs))
    for k, got in enumerate(split_episodes(traces)):
        want = run_episode(ch, costs, 10.0, 0.95, policy, horizon, _stream(seed, k))
        for field in TRACE_FIELDS.values():
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


@st.composite
def edge_channels(draw):
    """Channels of one or two actions whose kernel and success entries are
    random or sit at 0 or 1, TP2 or not."""
    entry = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    n = draw(st.integers(1, 2))
    kernels = [[[1.0 - p, p] for p in (draw(entry), draw(entry))] for _ in range(n)]
    lam_bad = [draw(entry) for _ in range(n)]
    lam_good = [draw(st.sampled_from([1.0, x]) | st.floats(x, 1.0)) for x in lam_bad]
    return tx.ChannelModel(lam=np.array([lam_good, lam_bad]), mode_kernel=np.array(kernels))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# certain of mode 1 (lam 0) under the identity kernel: a success has
# likelihood 0, a failure likelihood 1
@example(ch=tx.ChannelModel(lam=np.array([[1.0], [0.0]]), mode_kernel=np.eye(2)[None]),
         b=[1.0, 0.5, 0.0], success=[True, False, True], a=0)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ch=tp2_channels() | absorbing_channels() | edge_channels(),
       b=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=16),
       success=st.lists(st.booleans(), min_size=16, max_size=16), a=st.integers(0, 1))
def test_bayes_step_equals_both_former_formulas(ch, b, success, a):
    # channel.bayes replaced the solver's np.where/np.clip tables and the
    # simulator's bitwise select; both callers still compute what those did,
    # bit for bit, and the simulator raises exactly when an observed outcome
    # has likelihood 0
    b, success, a = np.array(b), np.array(success[:len(b)]), a % ch.n_actions
    for got, want in zip(_action_tables(ch, b, a), grid_action_tables(ch, b, a)):
        assert np.array_equal(_bits(got), _bits(want))
    p_succ = grid_action_tables(ch, b, 0)[0]
    impossible = (np.where(success, p_succ, 1.0 - p_succ) <= 0.0).any()
    event(f"an outcome of likelihood 0: {impossible}")
    try:
        want = select_bayes(ch, b, success)
    except tx.ZeroLikelihoodError:
        assert impossible
        with pytest.raises(tx.ZeroLikelihoodError):
            sim._bayes(ch, b, success)
    else:
        assert not impossible
        assert np.array_equal(_bits(sim._bayes(ch, b, success)), _bits(want))


class TestPolicies:
    def test_lattice_policy_nearest_lookup(self, stopping_solution):
        pol = solved_policy(stopping_solution)
        grid_n = stopping_solution.grid_n
        for tau in (0, 10, 60, 75):
            for b in (0.0, 0.33301, 0.5, 0.99999, 1.0):
                i = min(max(int(round(b * grid_n)), 0), grid_n)
                expect = stopping_solution.policy[min(tau, 60), i]
                assert pol(tau, b) == expect

    def test_fixed_threshold_tie_stops(self):
        pol = tx.FixedThresholdPolicy(0.5)
        assert pol(0, 0.5) == 1
        assert pol(0, 0.49999) == 0

    def test_lattice_policy_arrays_match_scalar_lookup(self):
        # grid_n a power of two, so (i + 0.5) / grid_n * grid_n is an exact
        # half and the round-half-to-even rule decides the lookup
        grid_n, tau_max = 64, 12
        table = np.random.default_rng(0).integers(0, 2, (tau_max + 1, grid_n + 1))
        pol = tx.LatticePolicy(table, grid_n, tau_max)
        halves = (np.arange(grid_n) + 0.5) / grid_n
        assert np.all(halves * grid_n == np.arange(grid_n) + 0.5)
        b = np.concatenate([halves, [0.0, 1.0, 0.3, 0.999]])
        for tau in (0, 5, tau_max, tau_max + 1, 10 * tau_max):
            taus = np.full(b.shape, tau, dtype=np.int64)
            expect = [table[min(tau, tau_max), min(max(int(round(x * grid_n)), 0), grid_n)]
                      for x in b.tolist()]
            assert pol(taus, b).tolist() == expect
            assert [pol(tau, x) for x in b.tolist()] == expect
        # round() sends 2.5 to 2 and 3.5 to 4; so must the array lookup
        assert np.array_equal(pol(np.zeros(2, dtype=np.int64), np.array([2.5, 3.5]) / grid_n),
                              table[0, [2, 4]])

    def test_fixed_threshold_arrays_ties_stop(self):
        pol = tx.FixedThresholdPolicy(0.5)
        b = np.array([0.0, 0.49999, 0.5, 0.50001, 1.0])
        assert pol(np.zeros(5, dtype=np.int64), b).tolist() == [0, 0, 1, 1, 1]
        assert [pol(0, x) for x in b.tolist()] == [0, 0, 1, 1, 1]

    def test_constant_policies_on_arrays(self):
        tau = np.arange(4)
        b = np.linspace(0.0, 1.0, 4)
        assert tx.never_stop(tau, b).tolist() == [0, 0, 0, 0]
        assert tx.stop_immediately(tau, b).tolist() == [1, 1, 1, 1]
        assert tx.never_stop(3, 0.2) == 0 and tx.stop_immediately(3, 0.2) == 1

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            tx.FixedThresholdPolicy(1.5)
