import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage, to_tree
from scipy.spatial.distance import squareform

from corrlab import portfolio
from corrlab.exceptions import InvalidInput, NotPositiveDefinite
from corrlab.facts import corr_distance
from corrlab.samplers import RegimeLabel, sample_regime
import mc_reference

dims = st.integers(min_value=4, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
regimes = st.sampled_from(list(RegimeLabel))


def rand_cov(dim, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    corr = sample_regime(RegimeLabel.NORMAL, dim, seed=seed, stream=0)
    vols = g.uniform(0.1, 0.4, dim)
    return np.outer(vols, vols) * corr + 1e-8 * np.eye(dim)


def hrp_reference(cov):
    """Independent recursive implementation of the HRP allocation."""
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    d = corr_distance(corr)
    z = linkage(squareform(d, checks=False), method="average")
    order = to_tree(z, rd=False).pre_order()

    def cluster_var(idx):
        sub = cov[np.ix_(idx, idx)]
        iv = 1.0 / np.diag(sub)
        w = iv / iv.sum()
        return float(w @ sub @ w)

    w = np.ones(len(order))

    def recurse(items):
        if len(items) <= 1:
            return
        half = len(items) // 2
        left, right = items[:half], items[half:]
        vl, vr = cluster_var(left), cluster_var(right)
        alpha = 1.0 - vl / (vl + vr)
        w[left] *= alpha
        w[right] *= 1.0 - alpha
        recurse(left)
        recurse(right)

    recurse(order)
    return w / w.sum()


class TestWeights:
    def test_ew(self):
        assert np.allclose(portfolio.ew_weights(4), 0.25)
        with pytest.raises(InvalidInput):
            portfolio.ew_weights(0)

    def test_ivp_closed_form(self):
        cov = np.diag([1.0, 2.0, 4.0])
        w = portfolio.ivp_weights(cov)
        assert np.allclose(w, np.array([4, 2, 1]) / 7.0)

    def test_ivp_rejects_nonpositive_variance(self):
        with pytest.raises(InvalidInput):
            portfolio.ivp_weights(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_hrp_matches_independent_recursion(self, seed):
        cov = rand_cov(10, seed)
        assert np.allclose(
            portfolio.hrp_weights(cov), hrp_reference(cov), atol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(dims, seeds, regimes, st.integers(min_value=0, max_value=200))
    def test_hrp_matches_reference_bisection(self, dim, seed, regime, extra):
        # an in-sample covariance estimate, as backtest_methods fits it on
        corr = sample_regime(regime, dim, seed=seed)
        vols = portfolio.default_vols(dim, seed)
        panel = portfolio.simulate_returns(corr, vols, dim + 2 + extra, seed)
        cov = np.cov(panel, rowvar=False, ddof=1)
        assert np.array_equal(portfolio.hrp_weights(cov),
                              mc_reference.hrp_weights(cov))

    def test_hrp_forms_products_only_for_multi_asset_blocks(self,
                                                             monkeypatch):
        # 46 bisection blocks at dim 24; a one-asset block's variance is
        # its diagonal entry, so 24 of them need no products
        sizes = []

        def counted(inv_var, block):
            sizes.append(block.shape[0])
            return ivp_var(inv_var, block)

        ivp_var = portfolio._ivp_var
        monkeypatch.setattr(portfolio, "_ivp_var", counted)
        w = portfolio.hrp_weights(rand_cov(24, 5))
        assert len(sizes) == 22 and min(sizes) == 2
        assert np.array_equal(w, mc_reference.hrp_weights(rand_cov(24, 5)))

    def test_hrp_properties(self):
        cov = rand_cov(12, 99)
        w = portfolio.hrp_weights(cov)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_hrp_equals_ivp_on_uncorrelated(self):
        cov = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(
            portfolio.hrp_weights(cov), portfolio.ivp_weights(cov), atol=1e-12
        )

    def test_hrp_rejects_indefinite(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            portfolio.hrp_weights(m)

    def test_weights_for_dispatch(self):
        cov = np.diag([1.0, 2.0])
        assert np.allclose(portfolio.weights_for("ew", cov), 0.5)
        with pytest.raises(InvalidInput):
            portfolio.weights_for("markowitz", cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", portfolio.METHODS)
    def test_weights_for_rejects_non_finite(self, method, bad):
        cov = rand_cov(6, 0)
        cov[1, 4] = cov[4, 1] = bad
        with pytest.raises(InvalidInput):
            portfolio.weights_for(method, cov)


class TestSimulation:
    def test_sample_covariance_converges(self):
        dim, t = 16, 100_000
        corr = sample_regime(RegimeLabel.NORMAL, dim, seed=3, stream=0)
        vols = np.full(dim, 0.01)
        for seed in range(5):
            panel = portfolio.simulate_returns(corr, vols, t, seed)
            cov_hat = np.cov(panel, rowvar=False, ddof=1)
            corr_hat = cov_hat / np.outer(vols, vols)
            assert np.max(np.abs(corr_hat - corr)) <= 0.02

    def test_deterministic(self):
        corr = np.eye(4)
        a = portfolio.simulate_returns(corr, np.full(4, 0.01), 10, seed=1)
        b = portfolio.simulate_returns(corr, np.full(4, 0.01), 10, seed=1)
        assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(dims, seeds, st.integers(min_value=2, max_value=300),
           st.integers(min_value=0, max_value=3))
    def test_matches_reference_form(self, dim, seed, t, stream):
        corr = sample_regime(RegimeLabel.NORMAL, dim, seed=seed)
        vols = portfolio.default_vols(dim, seed)
        assert np.array_equal(
            portfolio.simulate_returns(corr, vols, t, seed, stream),
            mc_reference.simulate_returns(corr, vols, t, seed, stream),
        )

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            portfolio.simulate_returns(np.eye(2), [0.01, 0.01], 1, seed=0)
        with pytest.raises(InvalidInput):
            portfolio.simulate_returns(np.eye(2), [0.01, -0.01], 10, seed=0)


def test_max_drawdown_oracle():
    # wealth path: 1.1, 0.55, 0.6875; peak 1.1 -> drawdown 0.5
    path = np.array([0.1, -0.5, 0.25])
    assert portfolio.max_drawdown(path) == pytest.approx(0.5)
    assert portfolio.max_drawdown(np.array([0.1, 0.2])) == 0.0


def test_max_drawdown_of_stacked_paths_is_per_row():
    g = np.random.Generator(np.random.PCG64(3))
    paths = g.normal(0.0, 0.02, (3, 500))
    assert np.array_equal(
        portfolio.max_drawdown(paths),
        [portfolio.max_drawdown(p) for p in paths],
    )


def backtest_reference(corr, vols, method, t_in, t_out, seed):
    """One method on its own freshly drawn panels."""
    panel_in = portfolio.simulate_returns(corr, vols, t_in, seed, stream=1)
    panel_out = portfolio.simulate_returns(corr, vols, t_out, seed, stream=2)
    w = portfolio.weights_for(method, np.cov(panel_in, rowvar=False, ddof=1))
    r_in, r_out = panel_in @ w, panel_out @ w
    return portfolio.RiskReport(
        in_sample_vol=float(r_in.std(ddof=1) * portfolio.ANNUALIZATION),
        out_sample_vol=float(r_out.std(ddof=1) * portfolio.ANNUALIZATION),
        max_drawdown=portfolio.max_drawdown(r_out),
    )


class TestBacktest:
    @pytest.mark.parametrize("regime", list(RegimeLabel))
    def test_shared_panels_equal_per_method(self, regime):
        corr = sample_regime(regime, 12, seed=3, stream=1)
        vols = portfolio.default_vols(12, seed=3)
        shared = portfolio.backtest_methods(
            corr, vols, portfolio.METHODS, 60, 80, seed=9
        )
        assert list(shared) == list(portfolio.METHODS)
        for m in portfolio.METHODS:
            ref = backtest_reference(corr, vols, m, 60, 80, seed=9)
            assert shared[m] == ref
            assert portfolio.backtest(corr, vols, m, 60, 80, seed=9) == ref

    @settings(max_examples=60, deadline=None)
    @given(dims, seeds, regimes, st.integers(min_value=0, max_value=400),
           st.integers(min_value=0, max_value=1000),
           st.permutations(portfolio.METHODS))
    def test_matches_reference_form(self, dim, seed, regime, extra_in,
                                    extra_out, methods):
        corr = sample_regime(regime, dim, seed=seed)
        vols = portfolio.default_vols(dim, seed)
        args = (corr, vols, methods, dim + 2 + extra_in, dim + 2 + extra_out,
                seed)
        got = portfolio.backtest_methods(*args)
        assert list(got) == list(methods)
        assert got == mc_reference.backtest_methods(*args)

    def test_report_fields(self):
        corr = sample_regime(RegimeLabel.NORMAL, 8, seed=1, stream=0)
        vols = portfolio.default_vols(8, seed=1)
        rep = portfolio.backtest(corr, vols, "hrp", 252, 252, seed=4)
        assert rep.in_sample_vol > 0
        assert rep.out_sample_vol > 0
        assert 0 <= rep.max_drawdown <= 1
        assert rep.decay == pytest.approx(
            rep.out_sample_vol - rep.in_sample_vol
        )

    def test_deterministic(self):
        corr = sample_regime(RegimeLabel.RALLY, 8, seed=2, stream=0)
        vols = portfolio.default_vols(8, seed=2)
        a = portfolio.backtest(corr, vols, "ivp", 252, 252, seed=6)
        b = portfolio.backtest(corr, vols, "ivp", 252, 252, seed=6)
        assert a == b

    def test_rejects_short_panel(self):
        with pytest.raises(InvalidInput):
            portfolio.backtest(np.eye(8), np.full(8, 0.01), "ew", 5, 252, 0)

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidInput):
            portfolio.backtest(np.eye(8), np.full(8, 0.01), "mv", 252, 252, 0)
