import re

import numpy as np
import pytest
from hypothesis import given, settings

import txsched as tx
from conftest import channels, random_channel
from oracles import matrix_tp2_pass
from orders import sample_mode_step


class TestGilbertElliott:
    def test_reference_instance(self, ge_channel):
        assert ge_channel.n_actions == 1
        assert ge_channel.lam[0, 0] == 0.9
        assert ge_channel.lam[1, 0] == 0.2
        assert ge_channel.mode_kernel[0, 0, 0] == 0.9
        assert ge_channel.mode_kernel[0, 1, 1] == 1.0
        assert ge_channel.initial_belief == 0.0

    def test_frozen_modes(self):
        ch = tx.make_gilbert_elliott(1.0, 1.0, 0.8, 0.3)
        assert np.array_equal(ch.mode_kernel[0], np.eye(2))

    def test_indistinguishable_modes(self):
        ch = tx.make_gilbert_elliott(1.0, 1.0, 0.5, 0.5)
        assert ch.lam[0, 0] == ch.lam[1, 0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tx.make_gilbert_elliott(1.2, 1.0, 0.9, 0.2)

    def test_rejects_nan_through_the_channel_model(self):
        with pytest.raises(ValueError, match="^mode_kernel must be finite, got nan$"):
            tx.make_gilbert_elliott(np.nan, 1.0, 0.9, 0.2)
        with pytest.raises(ValueError, match="^lam must be finite, got nan$"):
            tx.make_persistent_failure(0.1, 0.9, np.nan)

    def test_rejects_inverted_success_probs(self):
        with pytest.raises(ValueError, match="dominate"):
            tx.make_gilbert_elliott(0.9, 1.0, 0.2, 0.9)

    def test_non_tp2_parameters_warn(self):
        with pytest.warns(UserWarning, match="TP2"):
            ch = tx.make_gilbert_elliott(0.3, 0.3, 0.9, 0.2)
        assert not tx.check_mode_kernel_tp2(ch)


class TestPersistentFailure:
    def test_initial_belief(self):
        ch = tx.make_persistent_failure(0.1, 0.9, 0.2, b0=0.25)
        assert ch.initial_belief == 0.25
        assert np.array_equal(ch.initial_mode_dist, [0.75, 0.25])
        ch = tx.make_persistent_failure(0.1, 0.9, 0.2)
        assert ch.initial_belief == 0.0
        assert np.array_equal(ch.initial_mode_dist, [1.0, 0.0])

    def test_absorbing_row(self):
        ch = tx.make_persistent_failure(0.1, 0.9, 0.2)
        assert np.array_equal(ch.mode_kernel[0, 1], [0.0, 1.0])
        assert ch.mode_kernel[0, 0, 1] == pytest.approx(0.1, abs=1e-15)

    def test_never_fails(self):
        ch = tx.make_persistent_failure(0.0, 0.9, 0.2)
        assert np.array_equal(ch.mode_kernel[0], np.eye(2))

    def test_immediate_failure(self):
        ch = tx.make_persistent_failure(1.0, 0.9, 0.2)
        assert np.array_equal(ch.mode_kernel[0, 0], [0.0, 1.0])

    def test_always_tp2(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            lam = np.sort(rng.random(2))[::-1]
            ch = tx.make_persistent_failure(float(rng.random()), float(lam[0]),
                                            float(lam[1]))
            assert tx.check_mode_kernel_tp2(ch)


class TestModeKernelTp2:
    def test_reference_passes(self, ge_channel):
        assert tx.check_mode_kernel_tp2(ge_channel)

    def test_identity_passes(self):
        ch = tx.make_gilbert_elliott(1.0, 1.0, 0.9, 0.2)
        assert tx.check_mode_kernel_tp2(ch)

    def test_failure_witness(self):
        ch = tx.ChannelModel(lam=np.array([[0.9], [0.2]]),
                             mode_kernel=np.array([[[0.4, 0.6], [0.7, 0.3]]]))
        res = tx.check_mode_kernel_tp2(ch)
        assert not res
        assert res.witness == (0, (0, 0), (1, 1))
        assert res.value == pytest.approx(0.4 * 0.3 - 0.6 * 0.7, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ch=channels())
    def test_stacked_equals_per_action(self, ch):
        # the first action whose kernel is not TP2, with its own witness
        res = tx.check_mode_kernel_tp2(ch)
        fails = [(a, r) for a, (r, _) in enumerate(map(matrix_tp2_pass, ch.mode_kernel))
                 if not r]
        if not fails:
            assert res == tx.CheckResult(True)
        else:
            a, r = fails[0]
            assert res == tx.CheckResult(False, witness=(a,) + r.witness, value=r.value)


class TestSampling:
    def test_deterministic_row(self):
        ch = tx.make_persistent_failure(1.0, 0.9, 0.2)
        rng = np.random.default_rng(0)
        assert all(sample_mode_step(ch, 0, 0, rng) == 1 for _ in range(50))

    def test_empirical_frequencies(self, ge_channel):
        rng = np.random.default_rng(20260811)
        n = 100_000
        hits = sum(sample_mode_step(ge_channel, 0, 0, rng) == 0 for _ in range(n))
        p = ge_channel.mode_kernel[0, 0, 0]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma

    def test_seed_reproducibility(self, ge_channel):
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            seqs.append([sample_mode_step(ge_channel, 0, 0, rng)
                         for _ in range(200)])
        assert seqs[0] == seqs[1]

    def test_rejects_bad_arguments(self, ge_channel):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_mode_step(ge_channel, 2, 0, rng)
        with pytest.raises(ValueError):
            sample_mode_step(ge_channel, 0, 1, rng)


class TestValidation:
    """ChannelModel refuses each malformed field on its own, so a check that
    looks at one action or one entry only cannot pass here."""

    EYE2 = np.array([np.eye(2), np.eye(2)])

    def test_lambda_monotone_enforced(self):
        with pytest.raises(ValueError):
            tx.ChannelModel(lam=np.array([[0.2], [0.9]]),
                            mode_kernel=np.array([[[0.9, 0.1], [0.0, 1.0]]]))

    def test_one_action_of_two_inverted(self):
        # only action 1 breaks lam[0] >= lam[1]; the message names its entries
        lam = np.array([[0.9, 0.3], [0.2, 0.4]])
        with pytest.raises(ValueError, match=re.escape(
                "success probability in the favorable mode must dominate: "
                "lam[0,1]=0.3 < lam[1,1]=0.4") + "$"):
            tx.ChannelModel(lam=lam, mode_kernel=self.EYE2)

    @pytest.mark.parametrize("entry, value", [((0, 1), 1.2), ((1, 0), -0.1)])
    def test_one_success_probability_out_of_range(self, entry, value):
        lam = np.array([[0.9, 0.8], [0.2, 0.4]])
        lam[entry] = value
        with pytest.raises(ValueError, match=r"^success probabilities must lie in \[0, 1\]$"):
            tx.ChannelModel(lam=lam, mode_kernel=self.EYE2)

    def test_initial_law_with_a_negative_entry(self):
        # it sums to 1, but it is no pmf
        with pytest.raises(ValueError, match="^initial_mode_dist must be a length-2 pmf$"):
            tx.ChannelModel(lam=np.array([0.9, 0.2]), mode_kernel=np.eye(2),
                            initial_mode_dist=np.array([1.5, -0.5]))

    def test_no_actions(self):
        with pytest.raises(ValueError, match=re.escape(
                "lam must have shape (2, n_actions), got (2, 0)") + "$"):
            tx.ChannelModel(lam=np.zeros((2, 0)), mode_kernel=np.zeros((0, 2, 2)))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tx.ChannelModel(lam=np.array([[0.9], [0.2]]),
                            mode_kernel=np.array([[[0.9, 0.2], [0.0, 1.0]]]))

    @pytest.mark.parametrize("table, value", [
        ("lam", [[np.nan], [0.2]]), ("mode_kernel", [[[0.9, 0.1], [np.nan, 1.0]]]),
        ("initial_mode_dist", [np.nan, 1.0])])
    def test_rejects_non_finite(self, table, value):
        # NaN fails every range and sum comparison, so it is named on its own
        tables = {"lam": [[0.9], [0.2]], "mode_kernel": [[[0.9, 0.1], [0.0, 1.0]]],
                  table: value}
        with pytest.raises(ValueError, match=f"^{table} must be finite, got nan$"):
            tx.ChannelModel(**tables)

    def test_random_constructors_satisfy_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            ch = random_channel(rng, force_tp2=True)
            assert ch.lam[0, 0] >= ch.lam[1, 0]
            assert tx.check_mode_kernel_tp2(ch)

    def test_immutable(self, ge_channel):
        with pytest.raises(ValueError):
            ge_channel.lam[0, 0] = 0.5
