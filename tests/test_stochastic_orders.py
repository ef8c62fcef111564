import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import txsched as tx
from oracles import matrix_tp2_pass
from orders import (FiniteDist, KernelMatrix, bayes_posterior, fsd_dominates,
                    is_submodular, kernel_preserves_mlr, mlr_dominates,
                    random_mlr_pair, random_tp2_kernel, rowscan_is_tp2,
                    rowscan_min_minor)
from txsched.stochastic_orders import ORDER_TOL, _tp2_pass


def dist(*pmf):
    return FiniteDist(np.array(pmf))


class TestFsd:
    def test_reflexive(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.random(5) + 0.01
            d = FiniteDist(p / p.sum())
            assert fsd_dominates(d, d)

    def test_point_masses(self):
        assert fsd_dominates(dist(1.0, 0.0), dist(0.0, 1.0))
        res = fsd_dominates(dist(0.0, 1.0), dist(1.0, 0.0))
        assert not res
        assert res.witness == (1.0,)

    def test_binary_example(self):
        assert fsd_dominates(dist(0.9, 0.1), dist(0.5, 0.5))

    def test_support_mismatch(self):
        d1 = FiniteDist([0.5, 0.5], support=[0, 1])
        d2 = FiniteDist([0.5, 0.5], support=[0, 2])
        with pytest.raises(ValueError):
            fsd_dominates(d1, d2)

    def test_equivalent_to_increasing_expectations(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 7)
            p1 = rng.random(n) + 0.01
            p2 = rng.random(n) + 0.01
            d1 = FiniteDist(p1 / p1.sum())
            d2 = FiniteDist(p2 / p2.sum())
            res = fsd_dominates(d1, d2)
            if res:
                for _ in range(10):
                    v = np.cumsum(rng.random(n))
                    assert v @ d1.pmf <= v @ d2.pmf + 1e-10
            else:
                # the violating upper-tail indicator is an increasing function
                # whose expectation is ordered the wrong way
                v = (d1.support >= res.witness[0]).astype(float)
                assert v @ d1.pmf > v @ d2.pmf


class TestMlr:
    def test_binary_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.random(2)
            d1, d2 = dist(1 - a, a), dist(1 - b, b)
            assert bool(mlr_dominates(d1, d2)) == (a <= b + 1e-12)

    def test_example_pair(self):
        assert mlr_dominates(dist(0.9, 0.1), dist(0.5, 0.5))
        res = mlr_dominates(dist(0.5, 0.5), dist(0.9, 0.1))
        assert not res
        assert res.witness == (0.0, 1.0)
        assert res.value == pytest.approx(-0.4, abs=1e-12)

    def test_implies_fsd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            d1, d2 = random_mlr_pair(n, rng)
            assert mlr_dominates(d1, d2)
            assert fsd_dominates(d1, d2)


class TestTp2:
    def test_mode_kernel_example(self):
        assert tx.is_tp2(np.array([[0.9, 0.1], [0.0, 1.0]]))

    def test_holding_slice_counterexample(self):
        # rows tau in {0, 2}, cols tau' in {0, 1}, lam = 0.9
        res = tx.is_tp2(np.array([[0.9, 0.1], [0.9, 0.0]]))
        assert not res
        assert res.witness == ((0, 0), (1, 1))
        assert res.value == pytest.approx(-0.09, abs=1e-15)

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.random(4)
            v = rng.random(5)
            assert tx.is_tp2(np.outer(u, v))

    def test_closure_under_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            K1 = random_tp2_kernel(4, 5, rng)
            K2 = random_tp2_kernel(5, 3, rng)
            assert tx.is_tp2(K1.matrix)
            assert tx.is_tp2(K2.matrix)
            assert tx.is_tp2(K1.matrix @ K2.matrix)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            tx.is_tp2(np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_witness_is_lexicographically_smallest(self):
        # violations at ((0,0),(1,1)), ((0,0),(2,1)), ((0,1),(1,2)), ...;
        # the scan order (x1, y1, x2, y2) must return the first
        M = np.array([[0.5, 0.5, 0.0],
                      [0.5, 0.0, 0.5],
                      [0.5, 0.0, 0.5]])
        res = tx.is_tp2(M)
        assert not res
        assert res.witness == ((0, 0), (1, 1))


    def test_minor_pass_equals_rowscan_reference(self):
        # every shape up to 6x8, with exact zeros: dense, 0/1, rank-one (its
        # minors are rounding noise around 0) and TP2-kernel matrices, at
        # tolerance 0 and the default
        rng = np.random.default_rng(20261018)
        verdicts = set()
        for n, m in itertools.product(range(1, 7), range(1, 9)):
            for _ in range(3):
                zeros = rng.random((n, m)) < 0.3
                u, v = rng.random(n) * (rng.random(n) > 0.3), rng.random(m)
                for M in (np.where(zeros, 0.0, rng.random((n, m))),
                          (rng.random((n, m)) < 0.5).astype(float),
                          np.outer(u, v),
                          random_tp2_kernel(n, m, rng).matrix):
                    tol = float(rng.choice([0.0, ORDER_TOL]))
                    [(got, smallest)] = _tp2_pass(M[None], tol)
                    assert tx.is_tp2(M, tol) == got
                    verdicts.add(got.holds)
                    if m == 1 and n > 1:
                        # no minor: trivially TP2 (the reference reduces an
                        # empty array here)
                        assert (got, smallest) == (tx.CheckResult(True), 0.0)
                        continue
                    ref = rowscan_is_tp2(M, tol)
                    assert (got.holds, got.witness, got.value) == \
                        (ref.holds, ref.witness, ref.value)
                    assert smallest == rowscan_min_minor(M)
        assert verdicts == {True, False}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(1, 6), n=st.integers(1, 5), m=st.integers(1, 6),
           tol=st.sampled_from([0.0, ORDER_TOL]))
    def test_stacked_pass_equals_matrix_pass(self, data, k, n, m, tol):
        # nonnegative stacks with exact 0 and 1 entries, each matrix padded
        # with NaN from its own (rows, cols) to the stack's shape
        entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        M = np.array(data.draw(st.lists(entry, min_size=k * n * m, max_size=k * n * m)))
        M = M.reshape(k, n, m)
        sizes = [(data.draw(st.integers(1, n)), data.draw(st.integers(1, m))) for _ in range(k)]
        for i, (r, c) in enumerate(sizes):
            M[i, r:], M[i, :, c:] = np.nan, np.nan
        got = _tp2_pass(M, tol)
        assert len(got) == k
        for (res, smallest), (r, c), Mi in zip(got, sizes, M):
            ref, ref_smallest = matrix_tp2_pass(Mi[:r, :c], tol)
            assert (res.holds, res.witness) == (ref.holds, ref.witness)
            assert (res.value is None) == (ref.value is None)
            if res.value is not None:
                assert np.float64(res.value).view(np.uint64) == np.float64(ref.value).view(np.uint64)
            assert np.float64(smallest).view(np.uint64) == np.float64(ref_smallest).view(np.uint64)


class TestKernelPreservesMlr:
    def test_agrees_with_tp2(self):
        rng = np.random.default_rng(6)
        kernels = [random_tp2_kernel(3, 4, rng) for _ in range(5)]
        kernels += [KernelMatrix(np.array([[0.4, 0.6], [0.7, 0.3]])),
                    KernelMatrix(np.eye(4))]
        m = rng.random((3, 3)) + 0.05
        kernels.append(KernelMatrix(m / m.sum(axis=1, keepdims=True)))
        for K in kernels:
            preserved, idx = kernel_preserves_mlr(K, trials=50, seed=9)
            assert preserved == bool(tx.is_tp2(K.matrix))
            assert (idx is None) == preserved

    def test_identity(self):
        preserved, _ = kernel_preserves_mlr(KernelMatrix(np.eye(5)),
                                            trials=20, seed=1)
        assert preserved

    def test_violation_reports_trial(self):
        preserved, idx = kernel_preserves_mlr(
            KernelMatrix(np.array([[0.4, 0.6], [0.7, 0.3]])), trials=10, seed=2)
        assert not preserved
        assert idx == 0  # the point-mass pair on the violating rows


class TestBayesPosterior:
    def test_identity_kernel_point_mass(self):
        prior = dist(0.25, 0.25, 0.25, 0.25)
        K = KernelMatrix(np.eye(4))
        for j in range(4):
            post = bayes_posterior(prior, K, j)
            assert post.pmf[j] == 1.0

    def test_reference_values(self):
        prior = dist(0.9, 0.1)
        K = KernelMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
        post = bayes_posterior(prior, K, 0)
        assert post.pmf[0] == pytest.approx(0.81 / 0.83, rel=1e-14)
        assert post.pmf[1] == pytest.approx(0.02 / 0.83, rel=1e-14)

    def test_zero_evidence(self):
        prior = dist(1.0, 0.0)
        K = KernelMatrix(np.eye(2))
        with pytest.raises(tx.ZeroLikelihoodError):
            bayes_posterior(prior, K, 1)

    def test_preserves_prior_mlr_order(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            K = random_tp2_kernel(4, 4, rng)
            p1, p2 = random_mlr_pair(4, rng)
            y = int(rng.integers(0, 4))
            post1 = bayes_posterior(p1, K, y)
            post2 = bayes_posterior(p2, K, y)
            assert mlr_dominates(post1, post2)

    def test_increasing_in_observation_when_tp2(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            K = random_tp2_kernel(4, 5, rng)
            p = rng.random(4) + 0.05
            prior = FiniteDist(p / p.sum())
            posts = [bayes_posterior(prior, K, y) for y in range(5)]
            for y in range(4):
                assert mlr_dominates(posts[y], posts[y + 1])


class TestSubmodular:
    def test_additively_separable(self):
        rng = np.random.default_rng(9)
        f = rng.random(6)
        g = rng.random(4)
        assert is_submodular(f[:, None] + g[None, :])

    def test_two_by_two(self):
        assert is_submodular(np.array([[0.0, 1.0], [0.0, 0.0]]))
        res = is_submodular(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert not res
        assert res.witness == (0, 0, 1, 1)

    def test_tolerance(self):
        assert is_submodular(np.array([[0.0, 0.0], [0.0, 1e-10]]))


class TestFiniteDist:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FiniteDist([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteDist([1.1, -0.1])

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            FiniteDist([0.5, 0.5], support=[1, 0])
