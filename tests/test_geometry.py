import numpy as np
import pytest

from corrlab import geometry, samplers
from corrlab.core import validate
from corrlab.exceptions import NotPositiveDefinite
from corrlab.geometry import MeanMethod
from corrlab.samplers import RegimeLabel


def corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def rand_spd(dim, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    a = g.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


class TestDistance:
    def test_identity_to_diagonal_closed_form(self):
        lam = np.array([0.5, 2.0, 3.0])
        d = geometry.airm_distance(np.eye(3), np.diag(lam))
        assert d == pytest.approx(np.sqrt(np.sum(np.log(lam) ** 2)), abs=1e-12)

    def test_symmetry_and_zero(self):
        a, b = rand_spd(5, 1), rand_spd(5, 2)
        assert geometry.airm_distance(a, a) == pytest.approx(0.0, abs=1e-7)
        assert geometry.airm_distance(a, b) == pytest.approx(
            geometry.airm_distance(b, a), abs=1e-9
        )

    def test_affine_invariance(self):
        g = np.random.Generator(np.random.PCG64(3))
        a, b = rand_spd(4, 4), rand_spd(4, 5)
        x = g.standard_normal((4, 4)) + 4 * np.eye(4)
        d0 = geometry.airm_distance(a, b)
        d1 = geometry.airm_distance(x @ a @ x.T, x @ b @ x.T)
        assert d1 == pytest.approx(d0, rel=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            geometry.airm_distance(np.eye(2), corr2(1.5))


class TestGeodesic:
    def test_endpoints(self):
        a, b = rand_spd(4, 7), rand_spd(4, 8)
        assert np.allclose(geometry.geodesic(a, b, 0.0), a, atol=1e-9)
        assert np.allclose(geometry.geodesic(a, b, 1.0), b, atol=1e-8)

    def test_midpoint_leaves_elliptope(self):
        # midpoint of the rho = +/-0.75 pair is sqrt(1 - rho^2) I,
        # outside the unit-diagonal set
        mid = geometry.geodesic(corr2(0.75), corr2(-0.75), 0.5)
        expected = np.sqrt(1 - 0.75 ** 2) * np.eye(2)
        assert np.allclose(mid, expected, atol=1e-9)
        assert abs(mid[0, 0] - 0.661438) < 1e-6

    def test_constant_speed(self):
        a, b = rand_spd(3, 9), rand_spd(3, 10)
        total = geometry.airm_distance(a, b)
        q = geometry.geodesic(a, b, 0.25)
        assert geometry.airm_distance(a, q) == pytest.approx(
            0.25 * total, rel=1e-6
        )


class TestMeans:
    def test_karcher_single_matrix(self):
        a = rand_spd(4, 11)
        x, _, grad_norm = geometry.karcher_mean([a])
        assert np.allclose(x, a, atol=1e-8)
        assert grad_norm <= 1e-10

    def test_karcher_two_matrices_is_midpoint(self):
        a, b = rand_spd(3, 12), rand_spd(3, 13)
        x, _, _ = geometry.karcher_mean([a, b])
        mid = geometry.geodesic(a, b, 0.5)
        assert np.allclose(x, mid, atol=1e-7)

    def test_m1_m3_identity_on_opposite_pair(self):
        pair = [corr2(0.75), corr2(-0.75)]
        m1 = geometry.mean(MeanMethod.M1_EUCLIDEAN, pair)
        m3 = geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, pair)
        assert np.allclose(m1.matrix, np.eye(2), atol=1e-8)
        assert np.allclose(m3.matrix, np.eye(2), atol=1e-8)

    def test_m4_beats_m3_on_pair(self):
        pair = [corr2(0.75), corr2(-0.75)]
        m3 = geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, pair)
        m4 = geometry.mean(MeanMethod.M4_CONSTRAINED_FRECHET, pair)
        o3 = geometry._frechet_objective(m3.matrix, pair)
        o4 = geometry._frechet_objective(m4.matrix, pair)
        assert o4 <= o3 + 1e-10

    def test_m5_is_valid_correlation(self):
        from corrlab.core import validate
        pair = [corr2(0.6), corr2(-0.4)]
        m5 = geometry.mean(MeanMethod.M5_RIEMANNIAN_PROJECTION, pair)
        assert validate(m5.matrix).is_valid

    def test_mean_result_metadata(self):
        pair = [corr2(0.2), corr2(0.4)]
        res = geometry.mean(MeanMethod.M2_RIEMANNIAN_BARYCENTER, pair)
        assert res.method is MeanMethod.M2_RIEMANNIAN_BARYCENTER
        assert res.converged
        assert res.grad_norm < 1e-8

    def test_permutation_equivariance(self):
        mats = [rand_spd(4, s) for s in (20, 21, 22)]
        perm = [2, 0, 1, 3]
        p = np.eye(4)[perm]
        permuted = [p @ m @ p.T for m in mats]
        res = geometry.mean(MeanMethod.M2_RIEMANNIAN_BARYCENTER, mats)
        res_p = geometry.mean(MeanMethod.M2_RIEMANNIAN_BARYCENTER, permuted)
        assert np.allclose(p @ res.matrix @ p.T, res_p.matrix, atol=1e-7)


def regime_set(regime, dim, count, seed, first_stream):
    return [
        samplers.sample_regime(regime, dim, seed=seed, stream=first_stream + i)
        for i in range(count)
    ]


def directional_derivative(c, e, mats, h):
    return (geometry._frechet_objective(c + h * e, mats)
            - geometry._frechet_objective(c - h * e, mats)) / (2 * h)


def zero_diag_direction(dim, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    e = g.standard_normal((dim, dim))
    e = e + e.T
    np.fill_diagonal(e, 0.0)
    return e / np.linalg.norm(e)


class TestCertifiedDescent:
    # a dim-16 NORMAL set of 15 draws; Frechet objective ~43 at M3
    NORMAL16 = dict(regime=RegimeLabel.NORMAL, dim=16, count=15, seed=101,
                    first_stream=15)

    @pytest.mark.parametrize("unit_diag", [False, True])
    def test_certificate_matches_finite_differences(self, unit_diag):
        # away from the optimum, the direction X predicts the derivative of
        # f along every E (zero-diagonal E on the elliptope):
        # df = -2 n tr(C^{-1/2} X C^{-1/2} E)
        mats = regime_set(RegimeLabel.STRESSED, 6, 5, 7, 0)
        c = geometry.mean(MeanMethod.M1_EUCLIDEAN, mats).matrix
        root, obj, _, x = geometry._whiten(c, np.asarray(mats), unit_diag)
        assert obj == pytest.approx(
            geometry._frechet_objective(c, mats), rel=1e-12
        )
        if unit_diag:  # a step along X keeps diag(C) = 1 to first order
            assert np.max(np.abs(np.diag(root @ x @ root))) < 1e-12
        inv_root = np.linalg.inv(root)
        grad = -2 * len(mats) * inv_root @ x @ inv_root
        for seed in range(5):
            e = zero_diag_direction(6, seed)
            if not unit_diag:
                e = e + np.diag(np.linspace(-0.5, 0.5, 6))
            fd = directional_derivative(c, e, mats, 1e-6)
            assert fd == pytest.approx(np.sum(grad * e), rel=1e-6, abs=1e-8)

    def test_m4_is_stationary_on_the_elliptope(self):
        mats = regime_set(**self.NORMAL16)
        m4 = geometry.mean(MeanMethod.M4_CONSTRAINED_FRECHET, mats)
        for seed in range(5):
            e = zero_diag_direction(16, seed)
            assert abs(directional_derivative(m4.matrix, e, mats, 1e-5)) < 1e-7

    def test_m4_strictly_below_m3_at_dim_16(self):
        mats = regime_set(**self.NORMAL16)
        m3 = geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, mats)
        m4 = geometry.mean(MeanMethod.M4_CONSTRAINED_FRECHET, mats)
        assert m4.converged
        assert m4.grad_norm <= 1e-10
        assert m4.iterations > 0
        assert validate(m4.matrix).is_valid
        o3 = geometry._frechet_objective(m3.matrix, mats)
        o4 = geometry._frechet_objective(m4.matrix, mats)
        assert o4 < o3 - 0.1

    def test_m5_valid_and_no_farther_from_m2_than_m3(self):
        mats = regime_set(**self.NORMAL16)
        m2 = geometry.mean(MeanMethod.M2_RIEMANNIAN_BARYCENTER, mats).matrix
        m3 = geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, mats).matrix
        m5 = geometry.mean(MeanMethod.M5_RIEMANNIAN_PROJECTION, mats)
        assert m5.converged
        assert m5.grad_norm <= 1e-10
        assert validate(m5.matrix).is_valid
        assert (geometry.airm_distance(m5.matrix, m2)
                <= geometry.airm_distance(m3, m2))

    def test_karcher_certifies_a_set_that_used_to_stall(self):
        # a line search with an absolute slack of 1e-14, below the
        # rounding of f ~ 48, rejected every step from ||X|| ~ 7e-10 on and
        # ran out its 1000 iterations on this set
        mats = regime_set(RegimeLabel.RALLY, 16, 15, 101, 30)
        x, iterations, grad_norm = geometry.karcher_mean(mats)
        assert grad_norm <= 1e-10
        assert iterations < 100
        assert np.array_equal(x, x.T)
        assert np.linalg.eigvalsh(x)[0] > 0


class TestStartingPoints:
    @pytest.mark.parametrize("regime", list(RegimeLabel))
    def test_m4_needs_no_karcher_mean(self, monkeypatch, regime):
        # M4 starts from the unit-diagonal arithmetic mean; from M3, the
        # start it had before, the descent reaches the same point
        mats = regime_set(regime, 16, 15, 101, 0)
        mats_pd, _ = geometry._jitter(mats)
        m3 = geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, mats).matrix
        from_m3, _, grad_norm = geometry._descend(mats_pd, m3, True, 1e-10,
                                                  200)
        assert grad_norm <= 1e-10

        def refuse(*args, **kwargs):
            raise AssertionError("M4 called karcher_mean")

        monkeypatch.setattr(geometry, "karcher_mean", refuse)
        m4 = geometry.mean(MeanMethod.M4_CONSTRAINED_FRECHET, mats)
        assert m4.converged
        assert np.max(np.abs(m4.matrix - from_m3)) < 1e-9

    def test_stacked_jitter_equals_the_per_matrix_loop(self):
        def per_matrix(mats):
            out, jittered = [], False
            for m in mats:
                if np.linalg.eigvalsh(m)[0] < geometry._JITTER_EIG:
                    m = m + geometry._JITTER_EIG * np.eye(m.shape[0])
                    jittered = True
                out.append(m)
            return out, jittered

        regular = regime_set(RegimeLabel.NORMAL, 5, 3, 7, 0)
        singular = np.ones((5, 5))  # rank one
        for mats, expect in ((regular, False),
                             (regular[:1] + [singular] + regular[1:], True)):
            got, jittered = geometry._jitter(mats)
            want, want_jittered = per_matrix(mats)
            assert jittered is want_jittered is expect
            assert np.array_equal(got, np.stack(want))
        assert not np.array_equal(got[1], singular)
