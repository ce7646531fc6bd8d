import json

import numpy as np
import pytest

from corrlab import mc
from corrlab import rng
from corrlab.exceptions import (InvalidInput, NotPositiveDefinite,
                                RankDeficient, UnsupportedVersion)
from corrlab.facts import FEATURE_NAMES, FeatureVector
from corrlab.mc import McConfig, SurrogateModel
from corrlab.portfolio import RiskReport
from corrlab.samplers import REGIMES, RegimeLabel, sample_regime
import mc_reference
from shapley_oracle import shapley_enumeration


@pytest.fixture(scope="module")
def records():
    return mc.run(McConfig(count_per_regime=10, dim=24, t_in=60, t_out=60,
                           seed=17))


def make_record(features, gap, regime=RegimeLabel.NORMAL, stream=0):
    return mc.McRecord(
        regime=regime,
        features=FeatureVector.from_array(features),
        reports={
            "hrp": RiskReport(0.1, 0.1 + gap, 0.05),
            "ivp": RiskReport(0.1, 0.1, 0.05),
            "ew": RiskReport(0.1, 0.12, 0.05),
        },
        seed=0,
        stream=stream,
    )


class TestRun:
    def test_cardinality(self, records):
        assert len(records) == 30
        for regime in RegimeLabel:
            assert sum(r.regime is regime for r in records) == 10

    def test_thread_count_invariance(self):
        cfg = McConfig(count_per_regime=4, dim=16, t_in=40, t_out=40, seed=3)
        a = mc.run(cfg, threads=1)
        b = mc.run(cfg, threads=4)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_skip_on_failure(self, capsys):
        def bad_gen(regime, stream):
            if stream == 1:
                raise NotPositiveDefinite("boom")
            return sample_regime(regime, 16, seed=0, stream=stream)

        cfg = McConfig(count_per_regime=2, dim=16, t_in=40, t_out=40, seed=1)
        out = mc.run(cfg, generator_fn=bad_gen)
        assert len(out) == 5
        log = capsys.readouterr().out
        assert "stream 1 skipped: NotPositiveDefinite('boom')" in log

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_propagates(self, threads):
        def broken_gen(regime, stream):
            if stream == 1:
                raise TypeError("bug")
            return sample_regime(regime, 16, seed=0, stream=stream)

        cfg = McConfig(count_per_regime=2, dim=16, t_in=40, t_out=40, seed=1)
        with pytest.raises(TypeError, match="bug"):
            mc.run(cfg, generator_fn=broken_gen, threads=threads)

    def test_records_match_reference_forms(self, tmp_path, monkeypatch):
        cfg = McConfig(count_per_regime=5, dim=24, t_in=60, t_out=60, seed=29)
        mc.write_records(mc.run(cfg), tmp_path / "records.ndjson")
        calls = mc_reference.install(monkeypatch)
        records = mc.run(cfg)
        mc.write_records(records, tmp_path / "reference.ndjson")
        # every reference form ran once per simulation, so none is vacuous
        assert calls == dict.fromkeys(
            ["_cluster_separation", "mst_degrees", "degree_tail_exponent",
             "backtest_methods"], len(records))
        assert (tmp_path / "records.ndjson").read_bytes() == (
            tmp_path / "reference.ndjson").read_bytes()

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidInput):
            mc.run(McConfig(count_per_regime=0))

    @pytest.mark.parametrize("field, value", [
        ("count_per_regime", True), ("dim", 3), ("dim", 16.0),
        ("t_in", 17), ("t_out", 2), ("seed", 1.5), ("seed", None),
    ])
    def test_config_checks_itself(self, field, value):
        with pytest.raises(InvalidInput, match=f"^{field} must be"):
            McConfig(**{"dim": 16, "t_in": 18, "t_out": 18, field: value})

    def test_regimes_are_not_a_field(self):
        assert McConfig().regimes == REGIMES
        with pytest.raises(TypeError):
            McConfig(regimes=REGIMES[:1])


class TestRecords:
    def test_json_round_trip(self, records, tmp_path):
        p = tmp_path / "r.ndjson"
        mc.write_records(records, p)
        back = mc.read_records(p)
        assert [r.to_json() for r in back] == [r.to_json() for r in records]

    def test_nan_feature_is_written_as_null(self, tmp_path):
        features = np.arange(8, dtype=float)
        features[3] = np.nan
        p = tmp_path / "r.ndjson"
        mc.write_records([make_record(features, gap=0.0)], p)

        def refuse(token):
            raise AssertionError(f"bare {token} in the records file")

        line = json.loads(p.read_text(), parse_constant=refuse)
        assert line["features"][FEATURE_NAMES[3]] is None
        back = mc.read_records(p)[0].features.to_array()
        assert np.isnan(back[3])
        np.testing.assert_array_equal(np.delete(back, 3),
                                      np.delete(features, 3))

    def test_schema_check(self):
        with pytest.raises(UnsupportedVersion):
            mc.McRecord.from_json({"schema": 2})

    def test_gap_property(self):
        r = make_record(np.arange(8, dtype=float), gap=-0.01)
        assert r.hrp_minus_ivp_outvol == pytest.approx(-0.01)


class TestSurrogateModel:
    def _synthetic_records(self, n, seed, noise=0.0, target_w=None):
        g = np.random.Generator(np.random.PCG64(seed))
        x = g.standard_normal((n, 8))
        if target_w is None:
            y = g.standard_normal(n)
        else:
            y = x @ target_w + noise * g.standard_normal(n)
        return [make_record(x[i], y[i], stream=i) for i in range(n)]

    def test_exact_linear_recovery(self):
        w = np.array([0.5, -0.2, 0.0, 1.0, 0.3, -0.7, 0.1, 0.9])
        recs = self._synthetic_records(400, 1, target_w=w)
        model = mc.fit_surrogate(recs, "outperformance")
        assert model.r2 == pytest.approx(1.0, abs=1e-10)
        x = mc.design_matrix(recs)
        y = np.array([r.hrp_minus_ivp_outvol for r in recs])
        pred = model.predict(x)
        assert np.max(np.abs(pred - y)) < 1e-8

    def test_noise_target_low_r2(self):
        recs = self._synthetic_records(1000, 2)
        model = mc.fit_surrogate(recs, "outperformance")
        assert model.r2 < 0.1

    def test_too_few_records(self):
        recs = self._synthetic_records(20, 3)
        with pytest.raises(InvalidInput):
            mc.fit_surrogate(recs)

    def test_duplicated_feature_rank_deficient(self):
        g = np.random.Generator(np.random.PCG64(4))
        x = g.standard_normal((200, 8))
        x[:, 3] = x[:, 2]  # duplicate column
        recs = [make_record(x[i], 0.0, stream=i) for i in range(200)]
        with pytest.raises(RankDeficient) as e:
            mc.fit_surrogate(recs)
        assert (FEATURE_NAMES[2], FEATURE_NAMES[3]) in e.value.collinear

    def test_fits_at_the_default_dim(self):
        # at dim <= 20 the top 5% of the spectrum is a single eigenvalue;
        # top5pct_eig_share takes at least two, so it is not eig1_share
        # again and a study at McConfig's default dim 16 is full rank
        assert McConfig().dim == 16
        recs = mc.run(McConfig(count_per_regime=30, t_in=120, t_out=120,
                               seed=5))
        x = mc.design_matrix(recs)
        top1 = x[:, FEATURE_NAMES.index("eig1_share")]
        top5 = x[:, FEATURE_NAMES.index("top5pct_eig_share")]
        assert np.all(top5 > top1)
        assert 0 < mc.fit_surrogate(recs).r2 < 1

    def test_decay_target(self, records):
        vals = [mc.target_value(r, "decay") for r in records]
        assert all(np.isfinite(vals))
        with pytest.raises(InvalidInput):
            mc.target_value(records[0], "sharpe")


class TestShapley:
    def _model(self):
        return SurrogateModel(
            coefficients=np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0, 0.2, 0.7]),
            intercept=0.3,
            feature_means=np.zeros(8),
            feature_stds=np.ones(8),
            target="outperformance",
            r2=1.0,
        )

    def _random_model(self, k, seed):
        g = np.random.Generator(np.random.PCG64(seed))
        return SurrogateModel(
            coefficients=g.standard_normal(k),
            intercept=float(g.standard_normal()),
            feature_means=g.standard_normal(k),
            feature_stds=g.uniform(0.2, 3.0, k),
            target="outperformance",
            r2=1.0,
        )

    def test_linear_closed_form(self):
        g = np.random.Generator(np.random.PCG64(5))
        model = self._model()
        bg = g.standard_normal((50, 8))
        x = g.standard_normal(8)
        att = mc.shapley(model, x, bg)
        closed = model.coefficients * (x - bg.mean(axis=0))
        assert np.max(np.abs(att.phi - closed)) < 1e-10

    def test_efficiency_identity(self):
        g = np.random.Generator(np.random.PCG64(6))
        model = self._model()
        bg = g.standard_normal((20, 8))
        x = g.standard_normal(8)
        att = mc.shapley(model, x, bg)
        assert abs(att.phi.sum() - (att.prediction - att.baseline)) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_coalition_enumeration(self, seed):
        g = np.random.Generator(np.random.PCG64(10 + seed))
        model = self._random_model(8, seed)
        bg = g.standard_normal((40, 8))
        x = g.standard_normal(8)
        att = mc.shapley(model, x, bg)
        phi, baseline, prediction = shapley_enumeration(model, x, bg)
        assert np.max(np.abs(att.phi - phi)) < 1e-10
        assert att.baseline == pytest.approx(baseline, abs=1e-12)
        assert att.prediction == pytest.approx(prediction, abs=1e-12)

    def test_more_than_twelve_features(self):
        g = np.random.Generator(np.random.PCG64(8))
        model = self._random_model(13, 3)
        bg = g.standard_normal((30, 13))
        x = g.standard_normal(13)
        att = mc.shapley(model, x, bg)
        closed = (
            model.coefficients * (x - bg.mean(axis=0)) / model.feature_stds
        )
        assert att.phi.shape == (13,)
        assert np.max(np.abs(att.phi - closed)) < 1e-10
        assert abs(att.phi.sum() - (att.prediction - att.baseline)) < 1e-10


def bootstrap_ci_loop(values, stat_fn=np.mean, n_boot=1000, alpha=0.05,
                      seed=0):
    """One resample per generator call: the reference for bootstrap_ci."""
    values = np.asarray(values)
    g = rng.generator(seed, 0)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        idx = g.integers(0, len(values), size=len(values))
        stats[b] = stat_fn(values[idx])
    lo, hi = np.percentile(stats, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(lo), float(hi)


class TestFindings:
    @pytest.mark.parametrize("n", [1, 30, 31, 90, 300])
    def test_bootstrap_ci_matches_loop(self, n):
        g = np.random.Generator(np.random.PCG64(n))
        vals = g.normal(0.0, 1.0, n)
        for stat_fn in (np.mean, np.median):
            assert mc.bootstrap_ci(vals, stat_fn, seed=n) == \
                bootstrap_ci_loop(vals, stat_fn, seed=n)

    def test_regime_findings_match_loop_bootstrap(self, records, monkeypatch):
        got = mc.regime_findings(records, seed=5)
        monkeypatch.setattr(mc, "bootstrap_ci", bootstrap_ci_loop)
        assert got == mc.regime_findings(records, seed=5)

    def test_bootstrap_ci_brackets_mean(self):
        g = np.random.Generator(np.random.PCG64(7))
        vals = g.normal(2.0, 0.5, 500)
        lo, hi = mc.bootstrap_ci(vals)
        assert lo < vals.mean() < hi
        assert hi - lo < 0.3

    def test_regime_findings_structure(self, records):
        f = mc.regime_findings(records, n_boot=100)
        assert set(f) == {"stressed", "normal", "rally"}
        for v in f.values():
            assert v["count"] == 10
            assert 0.0 <= v["hrp_win_rate"] <= 1.0
            lo, hi = v["win_rate_ci95"]
            assert lo <= v["hrp_win_rate"] <= hi
