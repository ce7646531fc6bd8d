import numpy as np
import pytest

from corrlab import core, rng, samplers
from corrlab.core import Violation
from corrlab.exceptions import (
    ConvergenceFailure,
    InvalidInput,
    NotPositiveDefinite,
)
from test_acceptance import _oracle_nearest


def rand_corr(dim, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    a = g.standard_normal((dim, dim + 2))
    c = np.corrcoef(a)
    np.fill_diagonal(c, 1.0)
    return c


def noisy_regime(dim, seed, stream):
    """A regime draw plus symmetric N(0, 0.1) noise, clipped to [-1, 1]
    with a unit diagonal: an indefinite estimate, like a hand-edited or
    pairwise-estimated matrix."""
    regime = list(samplers.RegimeLabel)[stream % 3]
    c = samplers.sample_regime(regime, dim, seed=seed, stream=stream)
    e = rng.generator(seed, 1_000_000 + stream).normal(0.0, 0.1, c.shape)
    m = np.clip(c + (e + e.T) / np.sqrt(2.0), -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return m


class TestValidate:
    def test_identity_valid(self):
        rep = core.validate(np.eye(5))
        assert rep.is_valid
        assert rep.failures == []
        assert rep.diag_max_dev == 0.0
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_diagonal_violation(self):
        m = np.eye(3)
        m[1, 1] = 1.01
        rep = core.validate(m)
        assert not rep.is_valid
        assert Violation.DIAGONAL in rep.failures
        assert rep.diag_max_dev == pytest.approx(0.01)

    def test_range_violation(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = 1.5
        rep = core.validate(m)
        assert Violation.RANGE in rep.failures

    def test_asymmetry(self):
        m = np.eye(3)
        m[0, 1] = 0.2
        rep = core.validate(m)
        assert Violation.ASYMMETRY in rep.failures

    def test_psd_violation(self):
        # det = 1 - 3*0.9^2 + 2*0.9^3 with one sign flipped -> indefinite
        m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        rep = core.validate(m)
        assert not rep.is_valid
        assert Violation.PSD in rep.failures
        assert rep.min_eigenvalue < -1e-8

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        # a NaN tol makes every comparison false, so it would pass anything
        with pytest.raises(InvalidInput):
            core.validate([[1.0, 3.0], [3.0, 1.0]], tol=tol)
        with pytest.raises(InvalidInput):
            core.is_correlation(np.eye(3), tol=tol)

    def test_tolerance_band(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = 1.0  # min eigenvalue exactly 0
        assert core.validate(m).is_valid


class TestEigh:
    @pytest.mark.parametrize("dim", [2, 8, 16, 32])
    def test_reconstruction(self, dim):
        for seed in range(25):
            c = rand_corr(dim, seed * 101 + dim)
            w, v = core.eigh(c)
            assert np.all(np.diff(w) >= 0)
            assert np.allclose(v @ np.diag(w) @ v.T, c, atol=1e-10)
            assert np.allclose(v.T @ v, np.eye(dim), atol=1e-10)


class TestCholesky:
    def test_round_trip(self):
        c = rand_corr(6, 3)
        c = core.nearest_correlation(c) + 1e-8 * np.eye(6)
        l = core.cholesky(c)
        assert np.allclose(l @ l.T, c, atol=1e-10)
        assert np.all(np.diag(l) > 0)

    def test_not_pd(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            core.cholesky(m)


class TestNearestCorrelation:
    def test_fixed_point(self):
        c = rand_corr(8, 11)
        out = core.nearest_correlation(c)
        again = core.nearest_correlation(out)
        assert np.linalg.norm(again - out, ord="fro") < 1e-7

    def test_2x2_overshoot(self):
        m = np.array([[1.0, 1.4], [1.4, 1.0]])
        out = core.nearest_correlation(m)
        assert out == pytest.approx(np.ones((2, 2)), abs=1e-7)

    def test_repairs_perturbed(self):
        g = np.random.Generator(np.random.PCG64(5))
        for _ in range(10):
            c = rand_corr(10, int(g.integers(1 << 30)))
            bad = c + 0.3 * g.standard_normal((10, 10))
            bad = (bad + bad.T) / 2
            np.fill_diagonal(bad, 1.0)
            out = core.nearest_correlation(bad)
            assert core.validate(out).is_valid

    def test_residuals_monotone(self):
        m = rand_corr(10, 2)
        m[0, 1] = m[1, 0] = 1.2
        out, residuals = core.nearest_correlation(m, return_info=True)
        assert core.validate(out).is_valid
        r = np.asarray(residuals)
        assert np.all(np.diff(r) <= 1e-12)

    def test_rejects_nonfinite(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(InvalidInput):
            core.nearest_correlation(m)

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1e-8, np.nan, np.inf):
            with pytest.raises(InvalidInput):
                core.nearest_correlation(np.eye(3), tol=tol)

    def test_rejects_bad_max_iter(self):
        for max_iter in (0, -1):
            with pytest.raises(InvalidInput):
                core.nearest_correlation(np.eye(3), max_iter=max_iter)

    def test_dim80_matches_oracle_in_few_certified_steps(self):
        for stream in range(24):
            m = noisy_regime(80, 2718, stream)
            assert np.linalg.eigvalsh(m)[0] < -0.1
            out, residuals = core.nearest_correlation(m, return_info=True)
            assert core.validate(out).is_valid
            assert residuals[-1] <= core.DEFAULT_TOL
            # second-order steps: a first-order fallback needs dozens
            assert len(residuals) <= 10
            oracle = _oracle_nearest(m)
            assert np.linalg.norm(out - oracle, ord="fro") < 1e-6

    def test_pseudo_correlation_inputs_need_few_eigendecompositions(
            self, monkeypatch):
        # the uniform shift starts the Newton steps nearer the optimum: the
        # first eigendecomposition also serves the shifted start
        calls = []
        dual_point = core._dual_point
        monkeypatch.setattr(core, "_dual_point",
                            lambda a, y: calls.append(1) or dual_point(a, y))
        for stream in range(24):
            core.nearest_correlation(noisy_regime(80, 2718, stream))
        assert len(calls) / 24 <= 4.5

    @pytest.mark.parametrize("scale", [1.0, 0.5, 50.0])
    def test_uniform_shift_minimises_theta_along_ones(self, scale):
        g = np.random.Generator(np.random.PCG64(17))
        for dim in (2, 3, 8, 80):
            m = scale * g.uniform(-1.0, 1.0, (dim, dim))
            a = (m + m.T) / 2.0
            w = np.linalg.eigvalsh(a + np.diag(1.0 - np.diag(a)))
            c = core._uniform_shift(w)
            # theta's derivative along 1 is sum(max(w + c, 0)) - n
            assert abs(np.maximum(w + c, 0.0).sum() - dim) <= 1e-12 * dim
            assert c <= 1e-12  # sum(w) = n, so the positive part sums >= n

    def test_residuals_start_at_the_shifted_point(self):
        def residual(a, y):
            w, v = np.linalg.eigh(a + np.diag(y))
            x = (v * np.maximum(w, 0.0)) @ v.T
            return np.linalg.norm(np.diag(x) - 1.0) / np.sqrt(a.shape[0])

        far = rand_corr(10, 2)
        far[0, 1] = far[1, 0] = 1.2  # outside [-1, 1]: no shift
        _, residuals = core.nearest_correlation(far, return_info=True)
        y0 = 1.0 - np.diag(far)
        assert residuals[0] == pytest.approx(residual(far, y0), rel=1e-12)

        near = noisy_regime(16, 5, 0)
        _, residuals = core.nearest_correlation(near, return_info=True)
        y0 = 1.0 - np.diag(near)
        c = core._uniform_shift(np.linalg.eigvalsh(near + np.diag(y0)))
        assert c < -1e-3
        assert residuals[0] == pytest.approx(residual(near, y0 + c),
                                             rel=1e-10)
        assert residuals[0] != pytest.approx(residual(near, y0), rel=1e-3)

    def test_budget_exhausted_carries_last_iterate(self):
        m = rand_corr(10, 2)
        m[0, 1] = m[1, 0] = 1.2
        _, residuals = core.nearest_correlation(m, return_info=True)
        steps = len(residuals) - 1  # max_iter counts Newton steps
        assert steps >= 2
        core.nearest_correlation(m, max_iter=steps)
        for max_iter in range(1, steps):
            with pytest.raises(ConvergenceFailure) as info:
                core.nearest_correlation(m, max_iter=max_iter)
            exc = info.value
            assert exc.residual == residuals[max_iter] > core.DEFAULT_TOL
            assert exc.last_iterate.shape == (10, 10)
            assert np.linalg.eigvalsh(exc.last_iterate)[0] >= -1e-12

    def test_far_inputs_converge_in_few_steps(self):
        # entries ~50 and a non-unit diagonal: full Newton steps overshoot
        # here, and without the line search the count doubles
        g = np.random.Generator(np.random.PCG64(9))
        for _ in range(20):
            m = 50.0 * g.standard_normal((16, 16))
            out, residuals = core.nearest_correlation(m + m.T,
                                                      return_info=True)
            assert core.validate(out).is_valid
            assert residuals[-1] <= core.DEFAULT_TOL
            assert len(residuals) <= 15

    def test_far_inputs_certify_by_the_last_residual(self):
        # the line search decreases theta, not the residual, so far from
        # the elliptope the residual list can rise; its last entry certifies
        g = np.random.Generator(np.random.PCG64(2026))
        rising = 0
        for _ in range(20):
            m = 50.0 * g.standard_normal((16, 16))
            out, residuals = core.nearest_correlation(m + m.T,
                                                      return_info=True)
            rising += bool(np.any(np.diff(residuals) > 0))
            assert residuals[-1] <= core.DEFAULT_TOL
            assert core.validate(out).is_valid
        assert rising >= 5  # the draws cover lists that rise

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 20, 40])
    def test_tied_eigenvalues(self, dim):
        # 2I - J has eigenvalues {2 - dim, 2, ..., 2}; equal blocks repeat
        # eigenvalues across blocks of equal size, both signs included
        labels = np.arange(dim) % 3
        block = np.where(labels[:, None] == labels[None, :], 0.9, -0.6)
        np.fill_diagonal(block, 1.0)
        for m in (2.0 * np.eye(dim) - np.ones((dim, dim)), block):
            out, residuals = core.nearest_correlation(m, return_info=True)
            assert core.validate(out).is_valid
            assert residuals[-1] <= core.DEFAULT_TOL
            oracle = _oracle_nearest(m)
            assert np.linalg.norm(out - oracle, ord="fro") < 1e-6
