from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from corrlab import facts
from corrlab.exceptions import DegenerateStructure, InvalidInput
from corrlab.facts import FEATURE_NAMES, FeatureVector
from corrlab.samplers import RegimeLabel, sample_one_factor, sample_regime


def block_matrix(dim=10, within=0.8, between=0.1):
    c = np.full((dim, dim), between)
    half = dim // 2
    c[:half, :half] = within
    c[half:, half:] = within
    np.fill_diagonal(c, 1.0)
    return c


def kmedoids_reference(d, k, max_iter=100):
    """Loop PAM, one candidate at a time: the reference for _kmedoids."""
    n = d.shape[0]
    medoids = [int(np.argmin(d.sum(axis=0)))]
    while len(medoids) < k:
        best_gain, best_c = -np.inf, None
        cur = d[:, medoids].min(axis=1)
        for cand in range(n):
            if cand in medoids:
                continue
            gain = np.sum(np.maximum(cur - d[:, cand], 0.0))
            if gain > best_gain:
                best_gain, best_c = gain, cand
        medoids.append(best_c)
    medoids = sorted(medoids)

    def cost(ms):
        return float(d[:, ms].min(axis=1).sum())

    best = cost(medoids)
    for _ in range(max_iter):
        improved = False
        for mi in range(k):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial = sorted(medoids[:mi] + [cand] + medoids[mi + 1:])
                ctrial = cost(trial)
                if ctrial < best - 1e-12:
                    medoids, best = trial, ctrial
                    improved = True
        if not improved:
            break
    labels = np.argmin(d[:, medoids], axis=1)
    return np.asarray(medoids), labels


def silhouette_reference(d, labels):
    """Per-point loop silhouette: the reference for _silhouette."""
    n = d.shape[0]
    uniq = np.unique(labels)
    if uniq.size < 2:
        return -1.0
    s = np.zeros(n)
    for i in range(n):
        own = labels[i]
        mask_own = (labels == own) & (np.arange(n) != i)
        if not mask_own.any():
            continue
        a = d[i, mask_own].mean()
        b = min(
            d[i, labels == other].mean() for other in uniq if other != own
        )
        denom = max(a, b)
        s[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(s.mean())


def test_mp_bounds_closed_form():
    lo, hi = facts.mp_bounds(0.25)
    assert lo == pytest.approx((1 - 0.5) ** 2)
    assert hi == pytest.approx((1 + 0.5) ** 2)
    with pytest.raises(InvalidInput):
        facts.mp_bounds(-0.1)


def test_corr_distance_formula():
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    d = facts.corr_distance(c)
    assert d[0, 1] == pytest.approx(np.sqrt(2 * (1 - 0.5)))
    assert d[0, 0] == 0.0


class TestMst:
    def _brute_force_weight(self, c):
        # minimum over all spanning trees via edge-subset enumeration
        n = c.shape[0]
        d = facts.corr_distance(c)
        edges = list(combinations(range(n), 2))
        best = np.inf
        for tree in combinations(edges, n - 1):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for i, j in tree:
                ri, rj = find(i), find(j)
                if ri == rj:
                    ok = False
                    break
                parent[ri] = rj
            if ok:
                best = min(best, sum(d[i, j] for i, j in tree))
        return best

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        g = np.random.Generator(np.random.PCG64(seed))
        a = g.standard_normal((5, 8))
        c = np.corrcoef(a)
        tree = facts.mst(c)
        d = facts.corr_distance(c)
        got = sum(d[i, j] for i, j in tree)
        assert len(tree) == 4
        assert got == pytest.approx(self._brute_force_weight(c), abs=1e-12)

    def test_lexicographic_tie_break(self):
        c = np.full((4, 4), 0.5)
        np.fill_diagonal(c, 1.0)
        assert facts.mst(c) == [(0, 1), (0, 2), (0, 3)]

    def test_degrees(self):
        deg = facts.mst_degrees([(0, 1), (0, 2), (0, 3)], 4)
        assert list(deg) == [3, 1, 1, 1]


def test_degree_tail_exponent_recovers_power_law():
    # construct a degree sample following p(k) ~ k^-2 over k = 2..6
    ks = np.arange(2, 7)
    counts = np.round(1000.0 * ks ** -2.0).astype(int)
    degrees = np.repeat(ks, counts)
    alpha = facts.degree_tail_exponent(degrees)
    assert alpha == pytest.approx(2.0, abs=0.05)


class TestStylizedReport:
    def test_identity(self):
        r = facts.stylized_report(np.eye(8))
        assert r.sf1_mean_offdiag == 0.0
        assert r.sf2_top_eig_share == pytest.approx(1.0 / 8.0)
        assert r.degenerate_evec

    def test_one_factor_closed_form(self):
        c = np.full((20, 20), 0.25)
        np.fill_diagonal(c, 1.0)
        r = facts.stylized_report(c)
        assert r.sf1_mean_offdiag == pytest.approx(0.25)
        assert r.sf2_top_eig_share == pytest.approx(5.75 / 20.0)
        assert r.sf4_first_evec_sign_consistency == 1.0

    def test_small_dim_sentinels(self):
        r = facts.stylized_report(np.eye(3))
        assert r.insufficient_dimension
        assert np.isnan(r.sf5_cophenetic_coeff)
        assert np.isnan(r.sf6_mst_degree_tail_exponent)

    def test_stressed_surrogate_is_sf1_positive_sf4_unanimous(self):
        c = sample_regime(RegimeLabel.STRESSED, 16, seed=0, stream=0)
        r = facts.stylized_report(c)
        assert r.sf1_mean_offdiag > 0.4
        assert r.sf4_first_evec_sign_consistency == 1.0

    def test_mp_bounds_ordering(self):
        r = facts.stylized_report(np.eye(8), q_ratio=0.3)
        lo, hi = r.sf2_mp_bounds
        assert lo <= hi

    @pytest.mark.parametrize("regime", list(RegimeLabel))
    def test_skew_matches_scipy(self, regime):
        for stream in range(10):
            c = sample_regime(regime, 16, seed=2, stream=stream)
            off = c[~np.eye(16, dtype=bool)]
            assert facts.stylized_report(c).sf1_skew == stats.skew(off)


class TestClustering:
    def test_block_matrix_separates(self):
        c = block_matrix()
        sep, k = facts.cluster_separation(c)
        assert sep > 0.5
        assert k == 2
        assert facts.cophenetic_coeff(c) > 0.9

    def test_kmedoids_deterministic(self):
        c = block_matrix(12, 0.7, 0.2)
        d = facts.corr_distance(c)
        a = facts._kmedoids(d, 2)
        b = facts._kmedoids(d, 2)
        assert np.array_equal(a[1], b[1])

    @staticmethod
    def _assert_matches_reference(c):
        d = facts.corr_distance(c)
        for k in range(2, 7):
            medoids, labels = facts._kmedoids(d, k)
            ref_medoids, ref_labels = kmedoids_reference(d, k)
            assert np.array_equal(medoids, ref_medoids), k
            assert np.array_equal(labels, ref_labels), k
            sil = facts._silhouette(d, labels)
            assert abs(sil - silhouette_reference(d, labels)) <= 1e-12, k

    @pytest.mark.parametrize("dim", [8, 16, 24, 40, 80])
    def test_matches_loop_reference(self, dim):
        for regime in RegimeLabel:
            for stream in range(3):
                self._assert_matches_reference(
                    sample_regime(regime, dim, seed=dim, stream=stream)
                )

    def test_tied_block_matrix_matches_loop_reference(self):
        self._assert_matches_reference(block_matrix())
        self._assert_matches_reference(block_matrix(12, 0.7, 0.2))

    def test_silhouette_singleton_and_single_cluster(self):
        d = facts.corr_distance(block_matrix(6))
        labels = np.array([0, 0, 0, 1, 1, 2])
        assert facts._silhouette(d, labels) == pytest.approx(
            silhouette_reference(d, labels), abs=1e-12
        )
        assert facts._silhouette(d, np.zeros(6, dtype=int)) == -1.0


class TestFeatureVector:
    def test_ordering_and_round_trip(self):
        c = sample_regime(RegimeLabel.NORMAL, 16, seed=1, stream=0)
        fv = facts.feature_vector(c)
        arr = fv.to_array()
        assert arr.shape == (len(FEATURE_NAMES),)
        assert arr[0] == fv.mean_corr
        back = FeatureVector.from_array(arr)
        assert back == fv

    def test_equal_beta_one_factor_dispersion_zero(self):
        c = np.full((10, 10), 0.25)
        np.fill_diagonal(c, 1.0)
        fv = facts.feature_vector(c)
        assert fv.evec1_dispersion == pytest.approx(0.0, abs=1e-10)

    def test_identity_dispersion_flagged(self):
        fv = facts.feature_vector(np.eye(8))
        assert fv.mean_corr == 0.0
        assert np.isnan(fv.evec1_dispersion)

    def test_all_ones_degenerate(self):
        with pytest.raises(DegenerateStructure):
            facts.feature_vector(np.ones((6, 6)))

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInput):
            facts.feature_vector(np.eye(3))

    def test_heterogeneous_beta_has_positive_dispersion(self):
        c = sample_one_factor(12, (0.2, 0.9), seed=5)
        fv = facts.feature_vector(c)
        assert fv.evec1_dispersion > 0.01
