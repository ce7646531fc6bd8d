import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.cluster.hierarchy import cophenet, linkage, to_tree
from scipy.spatial.distance import squareform

from corrlab import facts, portfolio
from corrlab.exceptions import DegenerateStructure, InvalidInput
from corrlab.facts import FEATURE_NAMES, FeatureVector
from corrlab.samplers import (
    RegimeLabel,
    sample_one_factor,
    sample_onion,
    sample_regime,
)
import mc_reference


def block_matrix(dim=10, within=0.8, between=0.1):
    c = np.full((dim, dim), between)
    half = dim // 2
    c[:half, :half] = within
    c[half:, half:] = within
    np.fill_diagonal(c, 1.0)
    return c


def equal_blocks(blocks, size, within=0.6, between=0.1):
    """``blocks`` equal blocks of ``size``: every distance ties with many."""
    n = blocks * size
    c = np.full((n, n), between)
    for b in range(blocks):
        c[b * size:(b + 1) * size, b * size:(b + 1) * size] = within
    np.fill_diagonal(c, 1.0)
    return c


def pam_input(kind, dim, seed):
    """A dim x dim correlation matrix of the given kind.  "blocks" has equal
    entries within and between random blocks, so many distances tie;
    "duplicated" repeats columns of a smaller draw, so some distances are
    exactly 0."""
    g = np.random.Generator(np.random.PCG64(seed))
    if kind == "regime":
        regime = list(RegimeLabel)[seed % len(RegimeLabel)]
        return sample_regime(regime, dim, seed=seed)
    if kind == "onion":
        return sample_onion(dim, 1.0, seed=seed)
    if kind == "blocks":
        label = g.integers(0, g.integers(1, 6), dim)
        within, between = np.round(g.uniform(0.0, 0.9, 2), 1)
        c = np.where(label[:, None] == label[None, :], within, between)
        np.fill_diagonal(c, 1.0)
        return c
    base = sample_onion(max(2, dim // 3), 2.0, seed=seed)
    idx = g.integers(0, base.shape[0], dim)
    return base[np.ix_(idx, idx)]


def scipy_tree(d):
    """scipy's average linkage, its nodes' leaves in pre-order and the
    cophenetic coefficient: the oracle for facts.average_linkage."""
    y = squareform(d, checks=False)
    z = linkage(y, method="average")
    _, nodes = to_tree(z, rd=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 reads NaN
        coeff, _ = cophenet(z, y)
    return z, [node.pre_order() for node in nodes], float(coeff)


def mst_reference(c):
    """Kruskal over a Python sort of (d_ij, i, j): the reference for mst."""
    n = c.shape[0]
    d = facts.corr_distance(c)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree = []
    edges = sorted((d[i, j], i, j) for i, j in combinations(range(n), 2))
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j))
    return tree


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

    @pytest.mark.parametrize("dim", [4, 8, 16, 24, 40])
    def test_matches_sorted_kruskal(self, dim):
        for regime in RegimeLabel:
            for stream in range(8):
                c = sample_regime(regime, dim, seed=11, stream=stream)
                assert facts.mst(c) == mst_reference(c)
        c = np.full((dim, dim), 0.3)
        np.fill_diagonal(c, 1.0)
        assert facts.mst(c) == mst_reference(c)


class TestAverageLinkage:
    """scipy, loaded only here, is the oracle: the merge rows, every
    node's leaves and the cophenetic coefficient must equal its own, bit
    for bit, and HRP's order is the root's leaves."""

    def assert_matches_scipy(self, c, structureless=False):
        """``structureless``: every distance is equal, where the coefficient
        reads NaN and scipy's only correlates rounding residues."""
        d = facts.corr_distance(c)
        z, leaves, coeff = scipy_tree(d)
        tree = facts.average_linkage(d)
        np.testing.assert_array_equal(tree.z, z)
        for j, members in enumerate(leaves):
            start = tree.start[j]
            assert tree.order[start:start + tree.size[j]] == members
        assert tree.order == leaves[-1]
        assert portfolio.quasi_diag_order(c) == leaves[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = facts.cophenetic_coeff(c)
        if structureless:
            assert np.isnan(got)
        else:
            assert got == coeff or (np.isnan(got) and np.isnan(coeff))

    @pytest.mark.parametrize("dim", [4, 5, 6, 8, 12, 16, 24, 32, 48, 80])
    def test_regime_draws(self, dim):
        for regime in RegimeLabel:
            for stream in range(10):
                self.assert_matches_scipy(
                    sample_regime(regime, dim, seed=dim, stream=stream))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_small_dims(self, dim):
        for stream in range(10):
            self.assert_matches_scipy(sample_onion(dim, 1.0, 5, stream=stream))

    @pytest.mark.parametrize("blocks", range(2, 10))
    def test_tied_blocks(self, blocks):
        for size in (1, 2, 3, 5):
            self.assert_matches_scipy(equal_blocks(blocks, size),
                                      structureless=size == 1)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_identity(self, dim):
        self.assert_matches_scipy(np.eye(dim), structureless=True)

    def test_single_pair_reads_nan(self):
        # one distance, so both centred sets are zero: 0/0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(facts.cophenetic_coeff(np.eye(2)))


@st.composite
def tied_correlations(draw):
    """Symmetric unit-diagonal matrices whose off-diagonal entries take a
    few rounded values, so many distances and merged heights tie."""
    dim = draw(st.integers(2, 40))
    values = draw(st.lists(st.sampled_from([-0.5, -0.2, 0.0, 0.1, 0.3, 0.5,
                                            0.7, 0.9]),
                           min_size=1, max_size=4, unique=True))
    g = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    c = np.triu(g.choice(values, (dim, dim)), 1)
    c += c.T
    np.fill_diagonal(c, 1.0)
    return c


@settings(max_examples=200, deadline=None)
@given(tied_correlations())
def test_linkage_matches_scipy_on_ties(c):
    y = facts.corr_distance(c)[np.triu_indices(c.shape[0], 1)]
    TestAverageLinkage().assert_matches_scipy(
        c, structureless=np.ptp(y * y) <= 16 * np.finfo(float).eps)


def equicorrelated(dim, rho):
    c = np.full((dim, dim), rho)
    np.fill_diagonal(c, 1.0)
    return c


class TestCopheneticStructureless:
    """Where every distance is equal up to rounding, the squared distances
    spanning at most 16 eps, the coefficient reads NaN with no warning."""

    @staticmethod
    def coeff(c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return facts.cophenetic_coeff(c)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.95, -0.02])
    def test_equicorrelated_reads_nan(self, rho):
        for dim in range(2, 41):
            assert np.isnan(self.coeff(equicorrelated(dim, rho))), dim

    @pytest.mark.parametrize("rho", [0.3, 0.95, -0.02])
    def test_rounding_level_perturbation_reads_nan(self, rho):
        g = np.random.Generator(np.random.PCG64(7))
        for dim in range(3, 41):
            # each correlation moved by up to 4 ulps, symmetrically
            steps = np.triu(g.integers(-4, 5, (dim, dim)), 1)
            c = equicorrelated(dim, rho)
            c += np.spacing(rho) * (steps + steps.T)
            assert np.ptp(c[~np.eye(dim, dtype=bool)]) > 0
            assert np.isnan(self.coeff(c)), dim

    @pytest.mark.parametrize("scale", [1e-12, 1e-6])
    def test_structure_above_rounding_matches_scipy(self, scale):
        g = np.random.Generator(np.random.PCG64(8))
        for dim in (3, 8, 24, 40):
            c = equicorrelated(dim, 0.3)
            c += scale * g.standard_normal((dim, dim))
            c = (c + c.T) / 2.0
            np.fill_diagonal(c, 1.0)
            _, _, want = scipy_tree(facts.corr_distance(c))
            assert self.coeff(c) == want, dim


def test_feature_vector_builds_one_distance_matrix(monkeypatch):
    """Separation, cophenetic and MST share one distance matrix."""
    calls = []
    real = facts.corr_distance

    def counted(c):
        calls.append(c.shape)
        return real(c)

    monkeypatch.setattr(facts, "corr_distance", counted)
    facts.feature_vector(sample_regime(RegimeLabel.NORMAL, 24, seed=3))
    assert calls == [(24, 24)]


@st.composite
def degree_vectors(draw):
    """Degree vectors of the kinds the tail fit branches on, with entries
    below 1 mixed in for the filter to drop."""
    kind = draw(st.sampled_from(["empty", "ones", "one", "two", "tail",
                                 "any"]))
    if kind == "empty":
        deg = []
    elif kind == "ones":
        deg = [1] * draw(st.integers(1, 50))
    elif kind == "one":
        deg = ([draw(st.integers(2, 100))] * draw(st.integers(1, 20))
               + [1] * draw(st.integers(0, 30)))
    elif kind == "two":
        a, b = draw(st.lists(st.integers(1, 100), min_size=2, max_size=2,
                             unique=True))
        deg = [a] * draw(st.integers(1, 30)) + [b] * draw(st.integers(1, 30))
    elif kind == "tail":
        # counts falling off as a power of the degree, out to a long tail
        top = draw(st.integers(3, 300))
        alpha = draw(st.floats(0.5, 3.5))
        size = draw(st.integers(10, 2000))
        deg = [k for k in range(1, top + 1)
               for _ in range(int(size * k ** -alpha))]
        deg += draw(st.lists(st.integers(1, 5 * top), max_size=5))
    else:
        deg = draw(st.lists(st.integers(-5, 80), max_size=150))
    deg += draw(st.lists(st.integers(-5, 0), max_size=10))
    return np.array(draw(st.permutations(deg)), dtype=int)


@settings(max_examples=300, deadline=None)
@given(degree_vectors())
def test_degree_tail_exponent_matches_polyfit_form(degrees):
    got = facts.degree_tail_exponent(degrees)
    want = mc_reference.degree_tail_exponent(degrees)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("dim", [8, 16, 24, 40, 80])
def test_degree_tail_exponent_matches_polyfit_on_mst_degrees(dim):
    for regime in RegimeLabel:
        for stream in range(10):
            c = sample_regime(regime, dim, seed=dim, stream=stream)
            degrees = facts.mst_degrees(facts.mst(c), dim)
            got = facts.degree_tail_exponent(degrees)
            want = mc_reference.degree_tail_exponent(degrees)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
        assert np.isnan(r.sf5_cophenetic_coeff)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        c = np.eye(6)
        c[1, 2] = c[2, 1] = bad
        with pytest.raises(InvalidInput):
            facts.stylized_report(c)

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

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["regime", "onion", "blocks", "duplicated"]),
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_reference_forms_bit_for_bit(self, kind, dim, seed):
        c = pam_input(kind, dim, seed)
        d = facts.corr_distance(c)
        for k in range(1, min(dim, 8)):
            medoids, labels = facts._kmedoids(d, k)
            ref_medoids, ref_labels = mc_reference.kmedoids(d, k)
            assert np.array_equal(medoids, ref_medoids), k
            assert np.array_equal(labels, ref_labels), k
            assert facts._silhouette(d, labels) == mc_reference.silhouette(
                d, labels), k
        assert facts.cluster_separation(c) == mc_reference.cluster_separation(c)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["regime", "onion", "blocks", "duplicated"]),
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    def test_lockstep_swap_matches_reference_per_set(self, kind, dim, seed,
                                                     data):
        d = facts.corr_distance(pam_input(kind, dim, seed))
        dt = np.ascontiguousarray(d.T)
        ks = data.draw(st.lists(st.integers(1, dim - 1), min_size=1,
                                max_size=6))
        build = facts._build(d, dt, max(ks))
        found = facts._swap(dt, [sorted(build[:k]) for k in ks])
        assert len(found) == len(ks)
        for k, (medoids, labels) in zip(ks, found):
            ref_medoids, ref_labels = mc_reference.kmedoids(d, k)
            assert np.array_equal(medoids, ref_medoids), k
            assert np.array_equal(labels, ref_labels), k
        # any sorted starting sets: the stack gives each set's own search
        g = np.random.Generator(np.random.PCG64(seed))
        sets = [sorted(g.choice(dim, k, replace=False).tolist()) for k in ks]
        for (medoids, labels), start in zip(facts._swap(dt, sets), sets):
            alone = facts._swap(dt, [start])[0]
            assert np.array_equal(medoids, alone[0])
            assert np.array_equal(labels, alone[1])

    def test_cluster_separation_scans_in_lockstep(self, monkeypatch):
        d = facts.corr_distance(
            sample_regime(RegimeLabel.NORMAL, 24, seed=7, stream=23))
        scans = []
        scan = facts._scan
        monkeypatch.setattr(facts, "_scan", lambda dt, sets: scans.append(
            [tuple(s) for s in sets]) or scan(dt, sets))
        facts._cluster_separation(d)
        rounds, scans[:] = list(scans), []
        alone = {}
        for k in range(2, 7):
            facts._kmedoids(d, k)
            alone[k], scans[:] = [s for (s,) in scans], []
        # one cost evaluation per round scores every k still searching
        assert len(rounds) == max(map(len, alone.values()))
        assert len(rounds) < sum(map(len, alone.values()))
        stacked = {k: [s for sets in rounds for s in sets if len(s) == k]
                   for k in alone}
        assert stacked == alone
        # a new pass reads the scan that ended the last one: no set is
        # scored twice in a row
        assert sum(len(seq) - 1 for seq in alone.values()) >= 10  # swaps
        for seq in alone.values():
            assert all(a != b for a, b in zip(seq, seq[1:]))

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
        assert np.isnan(fv.cophenetic_coeff)

    def test_all_ones_degenerate(self):
        with pytest.raises(DegenerateStructure):
            facts.feature_vector(np.ones((6, 6)))

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInput):
            facts.feature_vector(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        c = sample_regime(RegimeLabel.NORMAL, 8, seed=0, stream=0)
        c[0, 3] = c[3, 0] = bad
        with pytest.raises(InvalidInput):
            facts.feature_vector(c)

    def test_heterogeneous_beta_has_positive_dispersion(self):
        c = sample_one_factor(12, (0.2, 0.9), seed=5)
        fv = facts.feature_vector(c)
        assert fv.evec1_dispersion > 0.01
