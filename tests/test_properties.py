"""Property tests of the elliptope invariants over random dims and seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import geometry, samplers
from corrlab.core import nearest_correlation, validate
from corrlab.geometry import MeanMethod

dims = st.integers(min_value=2, max_value=10)
projection_dims = st.integers(min_value=2, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def spd(dim, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    a = g.standard_normal((dim, dim))
    return a @ a.T + 0.5 * dim * np.eye(dim)


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_airm_symmetric_and_congruence_invariant(dim, seed):
    a, b = spd(dim, seed), spd(dim, seed + 1)
    g = np.random.Generator(np.random.PCG64(seed + 2))
    x = g.standard_normal((dim, dim)) + dim * np.eye(dim)
    d = geometry.airm_distance(a, b)
    assert np.isclose(geometry.airm_distance(b, a), d, rtol=1e-9, atol=1e-9)
    assert np.isclose(
        geometry.airm_distance(x @ a @ x.T, x @ b @ x.T), d,
        rtol=1e-7, atol=1e-7,
    )


@settings(max_examples=40, deadline=None)
@given(projection_dims, seeds)
def test_nearest_correlation_valid_and_idempotent(dim, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    m = g.uniform(-1.0, 1.0, (dim, dim))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 1.0)
    p = nearest_correlation(m)
    assert validate(p).is_valid
    q = nearest_correlation(p)
    assert validate(q).is_valid
    assert np.max(np.abs(q - p)) <= 1e-7


# LKJ(eta >= 1) draws keep every whitened matrix well enough conditioned
# for the 1e-10 certificate; near-singular inputs (condition ~1e6 and up,
# as LKJ(0.5) sometimes draws) can end uncertified
@settings(max_examples=25, deadline=None)
@given(
    dims, seeds, st.sampled_from([1.0, 2.0, 4.0]),
    st.integers(min_value=1, max_value=6),
)
def test_means_stay_in_their_sets(dim, seed, eta, count):
    mats = [
        samplers.sample_onion(dim, eta, seed=seed, stream=i)
        for i in range(count)
    ]
    m2 = geometry.mean(MeanMethod.M2_RIEMANNIAN_BARYCENTER, mats).matrix
    assert np.array_equal(m2, m2.T)
    assert np.linalg.eigvalsh(m2)[0] > 0
    for method in (
        MeanMethod.M3_NORMALIZED_BARYCENTER,
        MeanMethod.M4_CONSTRAINED_FRECHET,
        MeanMethod.M5_RIEMANNIAN_PROJECTION,
    ):
        res = geometry.mean(method, mats)
        assert res.converged
        assert validate(res.matrix).is_valid


unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=40), seeds,
    st.floats(min_value=0.05, max_value=20.0),
    st.tuples(st.floats(min_value=0.05, max_value=20.0),
              st.floats(min_value=0.05, max_value=20.0)),
    st.tuples(st.floats(min_value=0.001, max_value=0.99), unit),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_sampler_draw_is_valid(dim, seed, eta, betas, factor, lam_seed):
    # a spectrum of dim nonnegative eigenvalues summing to dim, some near 0
    lam = np.random.Generator(np.random.PCG64(lam_seed)).uniform(size=dim) ** 3
    lam *= dim / lam.sum()
    lo, frac = factor
    draws = {
        "onion": samplers.sample_onion(dim, eta, seed=seed),
        "cvine": samplers.sample_cvine(dim, *betas, seed=seed),
        "spectrum": samplers.sample_with_spectrum(lam, seed=seed),
        "factor": samplers.sample_one_factor(
            dim, (lo, lo + frac * (0.999 - lo)), seed=seed),
    }
    for regime in samplers.REGIMES:
        draws[regime.value] = samplers.sample_regime(regime, dim, seed=seed)
    for name, c in draws.items():
        rep = validate(c)
        assert rep.is_valid, (name, rep.failures)
