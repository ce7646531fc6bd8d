from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment  # the oracle, tests only

from corrlab import corpus, evaluation
from corrlab.exceptions import DegenerateBasis, InvalidInput
from corrlab.facts import FEATURE_NAMES, feature_vector
from corrlab.samplers import RegimeLabel, sample_onion


def clouds(dim=8, n=30, seed=0):
    mats = [sample_onion(dim, 1.0, seed, stream=i) for i in range(n)]
    return mats


class TestPcaProject:
    def test_basis_from_reference_only(self):
        ref = clouds(seed=1)
        a = clouds(seed=2)
        b = clouds(seed=3)
        c1 = evaluation.pca_project(ref, a)
        c2 = evaluation.pca_project(ref, b)
        assert np.array_equal(c1[0].basis, c2[0].basis)
        assert np.array_equal(c1[0].points, c2[0].points)

    def test_orthonormal_basis(self):
        c = evaluation.pca_project(clouds(seed=4))[0]
        assert np.allclose(c.basis @ c.basis.T, np.eye(2), atol=1e-10)

    def test_sign_convention_deterministic(self):
        c = evaluation.pca_project(clouds(seed=5))[0]
        for r in range(2):
            k = int(np.argmax(np.abs(c.basis[r])))
            assert c.basis[r, k] > 0

    def test_degenerate_reference(self):
        same = [np.eye(4)] * 10
        with pytest.raises(DegenerateBasis):
            evaluation.pca_project(same)

    def test_empty_reference(self):
        with pytest.raises(InvalidInput):
            evaluation.pca_project([])

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInput):
            evaluation.pca_project(clouds(dim=16), clouds(dim=8))


class TestSubsample:
    def test_deterministic_subset(self):
        g = np.random.Generator(np.random.PCG64(7))
        pts = g.standard_normal((20, 2))
        a = evaluation.subsample_to(pts, 8)
        b = evaluation.subsample_to(pts, 8)
        assert np.array_equal(a, b)
        rows = {tuple(p) for p in pts}
        assert all(tuple(p) in rows for p in a)

    def test_noop_when_small(self):
        pts = np.zeros((3, 2))
        assert evaluation.subsample_to(pts, 5) is pts


def brute_force_w2(a, b):
    n = len(a)
    best = np.inf
    for perm in permutations(range(n)):
        cost = sum(np.sum((a[i] - b[perm[i]]) ** 2) for i in range(n))
        best = min(best, cost)
    return np.sqrt(best / n)


class TestWasserstein:
    def test_zero_on_identical(self):
        g = np.random.Generator(np.random.PCG64(1))
        pts = g.standard_normal((10, 2))
        r = evaluation.wasserstein2(pts, pts.copy())
        assert r.exact
        assert float(r) == pytest.approx(0.0, abs=1e-12)

    def test_single_points(self):
        r = evaluation.wasserstein2(np.array([[0.0, 0.0]]),
                                    np.array([[3.0, 4.0]]))
        assert float(r) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        g = np.random.Generator(np.random.PCG64(seed))
        n = int(g.integers(4, 7))
        a = g.standard_normal((n, 2))
        b = g.standard_normal((n, 2))
        got = evaluation.wasserstein2(a, b)
        assert got.exact
        assert float(got) == pytest.approx(brute_force_w2(a, b), abs=1e-9)

    def test_sliced_beyond_limit(self):
        g = np.random.Generator(np.random.PCG64(2))
        a = g.standard_normal((600, 2))
        b = g.standard_normal((600, 2))
        r = evaluation.wasserstein2(a, b)
        assert not r.exact
        assert float(r) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            evaluation.wasserstein2(np.zeros((0, 2)), np.zeros((0, 2)))


def squared_costs(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=2)


def cloud_pair(kind, n, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    if kind == "gaussian":
        return g.standard_normal((2, n, 2))
    if kind == "grid":  # integer points: many tied costs
        return g.integers(0, 4, (2, n, 2)).astype(float)
    # each cloud repeats a few distinct points
    a, b = g.standard_normal((2, max(1, n // 4), 2))
    return a[g.integers(0, len(a), n)], b[g.integers(0, len(b), n)]


class TestAssignment:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64),
           kind=st.sampled_from(["gaussian", "grid", "duplicated"]),
           seed=st.integers(0, 2**32 - 1))
    def test_optimal_permutation(self, n, kind, seed):
        cost = squared_costs(*cloud_pair(kind, n, seed))
        cols = evaluation._assignment(cost)
        assert sorted(cols.tolist()) == list(range(n))
        rows, best = linear_sum_assignment(cost)
        total, optimum = cost[np.arange(n), cols].sum(), cost[rows, best].sum()
        assert abs(total - optimum) <= 1e-12 * optimum

    @pytest.mark.parametrize("n", [12, 100, 300])
    def test_w2_bit_identical_to_scipy(self, n):
        a, b = cloud_pair("gaussian", n, seed=n)
        cost = squared_costs(a, b)
        rows, cols = linear_sum_assignment(cost)
        assert (evaluation.wasserstein2(a, b).value
                == float(np.sqrt(cost[rows, cols].mean())))

    @pytest.mark.parametrize("n", [10, 600])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, n, bad):
        a, b = cloud_pair("gaussian", n, seed=4)
        b[n // 2, 1] = bad
        for pair in ((a, b), (b, a)):
            with pytest.raises(InvalidInput, match="finite"):
                evaluation.wasserstein2(*pair)


class TestDistanceStats:
    def test_requires_sets(self):
        pts = np.zeros((4, 2))
        with pytest.raises(InvalidInput):
            evaluation.distance_stats([pts], [pts])

    def test_shifted_synthetic_has_larger_mu_g(self):
        g = np.random.Generator(np.random.PCG64(3))
        real = [g.standard_normal((30, 2)) for _ in range(3)]
        synth = [g.standard_normal((30, 2)) + 5.0]
        ds = evaluation.distance_stats(real, synth)
        assert ds.mu_g > ds.mu_e
        assert ds.min_between > ds.max_within


class TestClassifierFidelity:
    def test_separable_surrogate(self):
        real = corpus.build_surrogate(30, 16, seed=1)
        synth = corpus.build_surrogate(10, 16, seed=2)
        fid = evaluation.classifier_fidelity(
            evaluation.corpus_features(real),
            evaluation.corpus_features(synth), seed=0)
        assert fid.confusion.sum() == 30
        assert fid.accuracy >= 0.8
        assert fid.real_holdout_accuracy >= 0.8
        assert not fid.weak_classifier

    def test_refuses_regime_left_without_training_matrix(self):
        x, y = evaluation.corpus_features(corpus.build_surrogate(2, 8, seed=1))
        # one rally matrix: the holdout would take it
        keep = np.flatnonzero(y != 2)[:4].tolist() + [5]
        with pytest.raises(InvalidInput, match="all 1 real rally"):
            evaluation.classifier_fidelity((x[keep], y[keep]), (x, y))
        fid = evaluation.classifier_fidelity((x, y), (x, y))
        assert fid.confusion.sum() == 6

    def test_corpus_features(self):
        corp = corpus.build_surrogate(2, 8, seed=1)
        x, y = evaluation.corpus_features(corp)
        assert x.shape == (6, len(FEATURE_NAMES))
        assert y.tolist() == [0, 0, 1, 1, 2, 2]
        for row, it in zip(x, corp.items):
            assert np.array_equal(
                row, np.nan_to_num(feature_vector(it.matrix).to_array()))
