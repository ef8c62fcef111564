import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import txsched as tx
import txsched.folding as folding
from conftest import channels, random_channel


class TestCompositeKernel:
    def test_success_branch(self, ge_channel):
        assert tx.composite_kernel(ge_channel, 0, 0, 0, 0) == 0.9
        assert tx.composite_kernel(ge_channel, 7, 0, 0, 0) == 0.9

    def test_failure_branch(self, ge_channel):
        assert tx.composite_kernel(ge_channel, 3, 1, 4, 0) == 1.0 - 0.2
        assert tx.composite_kernel(ge_channel, 3, 1, 4, 0) == pytest.approx(0.8, abs=1e-15)

    def test_off_support(self, ge_channel):
        assert tx.composite_kernel(ge_channel, 3, 0, 2, 0) == 0.0
        assert tx.composite_kernel(ge_channel, 3, 0, 5, 0) == 0.0

    def test_folded_matches_examples(self, ge_channel):
        assert tx.composite_kernel_folded(ge_channel, 0, 0, 1, 0) == 1.0 - 0.9
        assert tx.composite_kernel_folded(ge_channel, 0, 0, 1, 0) == pytest.approx(0.1, abs=1e-15)
        assert tx.composite_kernel_folded(ge_channel, 3, 0, 5, 0) == 0.0

    def test_rejects_negative_tau(self, ge_channel):
        with pytest.raises(ValueError):
            tx.composite_kernel(ge_channel, -1, 0, 0, 0)


class TestFoldEquivalence:
    def test_reference_channel_exact(self, ge_channel):
        rep = tx.verify_fold_equivalence(ge_channel, tau_max=60)
        assert rep.identical
        assert rep.max_abs_diff == 0.0

    def test_random_channels(self):
        rng = np.random.default_rng(20260811)
        for _ in range(25):
            rep = tx.verify_fold_equivalence(random_channel(rng), tau_max=12)
            assert rep.identical

    def test_degenerate_success_probs(self):
        for lam in (0.0, 1.0):
            ch = tx.make_gilbert_elliott(0.9, 1.0, lam, lam)
            assert tx.verify_fold_equivalence(ch, tau_max=10).identical

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ch=channels(lam_prob=st.sampled_from([0.0, 1.0])),
           tau_max=st.integers(0, 40))
    def test_exact_at_degenerate_success_probs(self, ch, tau_max):
        rep = tx.verify_fold_equivalence(ch, tau_max=tau_max)
        assert rep.identical and rep.max_abs_diff == 0.0 and rep.witness is None

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ch=channels(), tau=st.integers(0, 12), theta=st.integers(0, 1),
           y=st.integers(0, 14))
    def test_broadcast_matches_scalar(self, ch, tau, theta, y):
        a = ch.n_actions - 1
        taus, ys = np.arange(13)[:, None], np.arange(15)[None, :]
        for kernel in (tx.composite_kernel, tx.composite_kernel_folded):
            grid = kernel(ch, taus, theta, ys, a)
            assert grid.shape == (13, 15)
            assert grid[tau, y] == kernel(ch, tau, theta, y, a)
            assert np.ndim(kernel(ch, tau, theta, y, a)) == 0

    def test_witness_names_a_difference(self, ge_channel, monkeypatch):
        # a folded route that drops the failure branch differs first at y = 1
        monkeypatch.setattr(folding, "composite_kernel_folded",
                            lambda ch, tau, theta, y, a: folding.composite_kernel(
                                ch, tau, theta, y, a) * np.equal(y, 0))
        rep = tx.verify_fold_equivalence(ge_channel, tau_max=5)
        assert not rep.identical
        assert rep.witness == (0, 1, 1, 0)
        assert rep.max_abs_diff == 1.0 - 0.2

    def test_support_preserving(self, ge_channel):
        for tau in (0, 1, 5, 11):
            for theta in (0, 1):
                support = {y for y in range(tau + 3)
                           if tx.composite_kernel_folded(ge_channel, tau, theta, y, 0) > 0}
                assert support == {0, tau + 1}


class TestFoldedTp2:
    def test_reference_all_pass(self, ge_channel):
        rep = tx.verify_folded_tp2(ge_channel)
        assert rep
        assert not rep.failed()

    def test_theta_delta_minor(self, ge_channel):
        # 0.9 * 0.8 - 0.1 * 0.2, the success-probability gap
        m = tx.verify_folded_tp2(ge_channel).min_minor("folded_outcome",
                                                       "(theta,delta)")
        assert m == pytest.approx(0.7, abs=1e-12)

    def test_tau_pairs_vanish(self, ge_channel):
        rep = tx.verify_folded_tp2(ge_channel)
        assert rep.min_minor("folded_outcome", "(tau,theta)") == 0.0
        assert rep.min_minor("folded_outcome", "(tau,delta)") == 0.0

    def test_random_channels_pass(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            assert tx.verify_folded_tp2(random_channel(rng))


class TestUnfoldedCounterexample:
    def test_reference_value(self):
        res = tx.unfolded_tp2_counterexample(0.9)
        assert not res
        assert res.witness == ((0, 0), (2, 1))
        assert res.value == -(1.0 - 0.9) * 0.9
        assert res.value == pytest.approx(-0.09, abs=1e-15)

    def test_half(self):
        res = tx.unfolded_tp2_counterexample(0.5)
        assert res.value == -0.25

    def test_formula_over_range(self):
        for lam in np.linspace(0.01, 0.99, 23):
            res = tx.unfolded_tp2_counterexample(float(lam))
            assert not res
            assert res.value == -(1.0 - float(lam)) * float(lam)
            assert res.value < 0

    def test_degenerate(self):
        for lam in (0.0, 1.0):
            res = tx.unfolded_tp2_counterexample(lam)
            assert res
            assert res.witness is None
            assert res.value == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tx.unfolded_tp2_counterexample(1.5)
