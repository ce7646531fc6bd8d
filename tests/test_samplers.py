import numpy as np
import pytest

from corrlab import samplers
from corrlab.core import validate
from corrlab.exceptions import InvalidInput
from corrlab.samplers import RegimeLabel, RegimeParams


ALL_SAMPLERS = [
    ("onion", lambda d, s: samplers.sample_onion(d, 1.0, seed=s)),
    ("cvine", lambda d, s: samplers.sample_cvine(d, 2.0, 2.0, seed=s)),
    (
        "spectrum",
        lambda d, s: samplers.sample_with_spectrum(
            np.linspace(0.5, 1.5, d) / np.linspace(0.5, 1.5, d).sum() * d,
            seed=s,
        ),
    ),
    ("factor", lambda d, s: samplers.sample_one_factor(d, (0.3, 0.8), seed=s)),
    (
        "regime",
        lambda d, s: samplers.sample_regime(RegimeLabel.NORMAL, d, seed=s),
    ),
]


@pytest.mark.parametrize("dim", [4, 16, 32])
@pytest.mark.parametrize("name,fn", ALL_SAMPLERS, ids=[n for n, _ in ALL_SAMPLERS])
def test_all_samplers_emit_valid_matrices(name, fn, dim):
    for seed in range(40):
        c = fn(dim, seed)
        rep = validate(c)
        assert rep.is_valid, f"{name} dim {dim} seed {seed}: {rep.failures}"


class TestOnion:
    def test_dim2_is_uniform_in_rho(self):
        rhos = [samplers.sample_onion(2, 1.0, 0, stream=i)[0, 1]
                for i in range(2000)]
        rhos = np.asarray(rhos)
        assert abs(rhos.mean()) < 0.05
        # Var of U(-1,1) is 1/3
        assert abs(rhos.var() - 1.0 / 3.0) < 0.03

    def test_eta_concentrates(self):
        lo = [abs(samplers.sample_onion(2, 1.0, 1, stream=i)[0, 1])
              for i in range(500)]
        hi = [abs(samplers.sample_onion(2, 50.0, 1, stream=i)[0, 1])
              for i in range(500)]
        assert np.mean(hi) < np.mean(lo)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            samplers.sample_onion(1, 1.0, 0)
        with pytest.raises(InvalidInput):
            samplers.sample_onion(4, 0.0, 0)


class TestCVine:
    def test_skewed_beta_pushes_positive(self):
        ms = [samplers.sample_cvine(8, 5.0, 1.5, seed=s) for s in range(30)]
        off = np.concatenate([m[np.triu_indices(8, 1)] for m in ms])
        assert off.mean() > 0.2

    def test_deterministic(self):
        a = samplers.sample_cvine(6, 2.0, 2.0, seed=3)
        b = samplers.sample_cvine(6, 2.0, 2.0, seed=3)
        assert np.array_equal(a, b)


class TestSpectrum:
    def test_round_trip(self):
        lam = [2.5, 0.3, 0.2, 1.0]
        c = samplers.sample_with_spectrum(lam, seed=0)
        got = np.linalg.eigvalsh(c)
        assert np.allclose(np.sort(got), np.sort(lam), atol=1e-8)
        assert np.max(np.abs(np.diag(c) - 1.0)) < 1e-10

    def test_rejects_bad_spectrum(self):
        with pytest.raises(InvalidInput):
            samplers.sample_with_spectrum([1.0, 1.5], seed=0)
        with pytest.raises(InvalidInput):
            samplers.sample_with_spectrum([-0.5, 2.5], seed=0)
        with pytest.raises(InvalidInput):
            samplers.sample_with_spectrum([1.0], seed=0)


class TestOneFactor:
    def test_first_eigenvector_one_signed(self):
        for seed in range(100):
            c = samplers.sample_one_factor(12, (0.2, 0.9), seed=seed)
            _, v = np.linalg.eigh(c)
            v1 = v[:, -1]
            assert np.all(v1 > 0) or np.all(v1 < 0)

    def test_entries_positive(self):
        c = samplers.sample_one_factor(10, (0.3, 0.7), seed=1)
        assert np.all(c > 0)

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidInput):
            samplers.sample_one_factor(5, (0.0, 0.5), seed=0)
        with pytest.raises(InvalidInput):
            samplers.sample_one_factor(5, (0.8, 0.2), seed=0)


class TestRegime:
    def test_mean_correlation_ordering(self):
        means = {}
        for regime in RegimeLabel:
            vals = []
            for i in range(40):
                c = samplers.sample_regime(regime, 16, seed=5, stream=i)
                vals.append(c[np.triu_indices(16, 1)].mean())
            means[regime] = np.mean(vals)
        assert means[RegimeLabel.STRESSED] > means[RegimeLabel.NORMAL] + 0.05
        assert means[RegimeLabel.NORMAL] > means[RegimeLabel.RALLY] + 0.02

    def test_stressed_has_weakest_hierarchy(self):
        from corrlab.facts import cophenetic_coeff
        coph = {}
        for regime in (RegimeLabel.STRESSED, RegimeLabel.NORMAL):
            vals = [
                cophenetic_coeff(
                    samplers.sample_regime(regime, 16, seed=2, stream=i)
                )
                for i in range(25)
            ]
            coph[regime] = np.mean(vals)
        assert coph[RegimeLabel.STRESSED] < coph[RegimeLabel.NORMAL]

    def test_params_validation(self):
        with pytest.raises(InvalidInput):
            RegimeParams((0.9, 0.2), 2, 0.1, 0.01)
        with pytest.raises(InvalidInput):
            RegimeParams((0.2, 0.5), 0, 0.1, 0.01)
        with pytest.raises(InvalidInput):
            RegimeParams((0.2, 0.5), 2, -0.1, 0.01)
        for bad in (np.nan, np.inf):  # each fails no `< 0` test
            with pytest.raises(InvalidInput):
                RegimeParams((0.2, 0.5), 2, bad, 0.01)
            with pytest.raises(InvalidInput):
                RegimeParams((0.2, 0.5), 2, 0.1, bad)

    def test_stream_independence(self):
        a = samplers.sample_regime(RegimeLabel.NORMAL, 8, seed=1, stream=4)
        b = samplers.sample_regime(RegimeLabel.NORMAL, 8, seed=1, stream=4)
        c = samplers.sample_regime(RegimeLabel.NORMAL, 8, seed=1, stream=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInput):
            samplers.sample_regime(RegimeLabel.NORMAL, 3, seed=0)
