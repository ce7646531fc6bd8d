"""End-to-end acceptance gate.

Each test prints one PASS line with the measured quantities so a full run
(`pytest tests/test_acceptance.py -s`) reads as a checklist.  Fixed seeds
throughout; the heavyweight fixtures (surrogate corpus, trained GAN,
Monte Carlo records) are shared module-wide.
"""

import json
import subprocess
import sys
from itertools import permutations

import numpy as np
import pytest
from scipy import stats

from corrlab import corpus, evaluation, gan, geometry, mc, neural, samplers
from corrlab.core import nearest_correlation, validate
from corrlab.facts import stylized_report
from corrlab.gan import GanConfig, REGIMES
from corrlab.geometry import MeanMethod
from corrlab.samplers import RegimeLabel
from shapley_oracle import shapley_enumeration


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def corpus900():
    return corpus.build_surrogate(300, 16, seed=7)


@pytest.fixture(scope="module")
def ckpt(corpus900):
    config = GanConfig(dim=16, epochs=300, seed=7)
    return gan.train(gan.build(config), corpus900)


@pytest.fixture(scope="module")
def synth_batches(ckpt):
    return {r: gan.sample(ckpt, r, 300, seed=13) for r in REGIMES}


@pytest.fixture(scope="module")
def mc_records():
    cfg = mc.McConfig(count_per_regime=300, dim=24, seed=2024)
    return mc.run(cfg, threads=8)


# ---------------------------------------------------------------------------
# criteria


def test_a1_elliptope_validity(ckpt):
    bad = 0
    for regime in REGIMES:
        batch = gan.sample(ckpt, regime, 1000, seed=29)
        bad += sum(not validate(m).is_valid for m in batch.matrices)

    lam = np.linspace(0.5, 1.5, 16)
    lam = lam / lam.sum() * 16
    draws = {
        "onion": lambda i: samplers.sample_onion(16, 1.0, 41, stream=i),
        "cvine": lambda i: samplers.sample_cvine(16, 2.0, 2.0, 41, stream=i),
        "spectrum": lambda i: samplers.sample_with_spectrum(lam, 41, stream=i),
        "factor": lambda i: samplers.sample_one_factor(
            16, (0.2, 0.8), 41, stream=i
        ),
        "regime": lambda i: samplers.sample_regime(
            RegimeLabel.NORMAL, 16, seed=41, stream=i
        ),
    }
    for name, fn in draws.items():
        bad += sum(not validate(fn(i)).is_valid for i in range(1000))
    assert bad == 0
    print("A1 PASS: 3000 projected GAN samples and 5000 sampler draws "
          "all valid at tol 1e-8")


def test_a2_geometry_exactness():
    a = np.array([[1.0, 0.75], [0.75, 1.0]])
    b = np.array([[1.0, -0.75], [-0.75, 1.0]])
    mid = geometry.geodesic(a, b, 0.5)
    assert np.max(np.abs(mid - 0.661438 * np.eye(2))) < 1e-6
    diag_dev = np.max(np.abs(np.diag(mid) - 1.0))
    assert abs(diag_dev - 0.3386) < 1e-4

    m1 = geometry.mean(MeanMethod.M1_EUCLIDEAN, [a, b]).matrix
    m3 = geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, [a, b]).matrix
    assert np.max(np.abs(m1 - np.eye(2))) < 1e-8
    assert np.max(np.abs(m3 - np.eye(2))) < 1e-8

    g = np.random.Generator(np.random.PCG64(12))
    worse = 0
    for _ in range(100):
        pair = [np.array([[1.0, r], [r, 1.0]])
                for r in g.uniform(-0.95, 0.95, 2)]
        o3 = geometry._frechet_objective(
            geometry.mean(MeanMethod.M3_NORMALIZED_BARYCENTER, pair).matrix,
            pair,
        )
        o4 = geometry._frechet_objective(
            geometry.mean(MeanMethod.M4_CONSTRAINED_FRECHET, pair).matrix,
            pair,
        )
        worse += o4 > o3 + 1e-10
    assert worse == 0
    print(f"A2 PASS: midpoint 0.661438 I, diag deviation {diag_dev:.4f}, "
          "M1 = M3 = I, M4 <= M3 on 100/100 pairs")


def _oracle_nearest(a, iters=5000):
    """Independent long-run Dykstra alternating projections."""
    y = a.copy()
    ds = np.zeros_like(a)
    for _ in range(iters):
        r = y - ds
        w, v = np.linalg.eigh(r)
        x = (v * np.clip(w, 0, None)) @ v.T
        x = (x + x.T) / 2
        ds = x - r
        y_new = x.copy()
        np.fill_diagonal(y_new, 1.0)
        if np.linalg.norm(y_new - y) < 1e-13 * max(np.linalg.norm(y_new), 1):
            y = y_new
            break
        y = y_new
    return y


def test_a3_projection_correctness():
    g = np.random.Generator(np.random.PCG64(33))
    worst = 0.0
    for _ in range(50):
        base = np.corrcoef(g.standard_normal((10, 14)))
        pert = base + 0.2 * g.standard_normal((10, 10))
        pert = (pert + pert.T) / 2
        np.fill_diagonal(pert, 1.0)
        got, residuals = nearest_correlation(pert, return_info=True)
        oracle = _oracle_nearest(pert)
        worst = max(worst, np.linalg.norm(got - oracle, ord="fro"))
        assert np.all(np.diff(np.asarray(residuals)) <= 1e-12)
    assert worst < 1e-6
    print(f"A3 PASS: 50 projections within {worst:.2e} Frobenius of the "
          "long-run oracle, residuals monotone")


def test_a4_sampler_distributions():
    rhos = np.array([
        samplers.sample_onion(2, 1.0, 55, stream=i)[0, 1]
        for i in range(10_000)
    ])
    ks = stats.kstest(rhos, stats.uniform(loc=-1, scale=2).cdf).statistic
    critical = 1.628 / np.sqrt(10_000)
    assert ks < critical

    one_signed = 0
    for i in range(1000):
        c = samplers.sample_one_factor(16, (0.2, 0.9), 56, stream=i)
        v1 = np.linalg.eigh(c)[1][:, -1]
        one_signed += bool(np.all(v1 > 0) or np.all(v1 < 0))
    assert one_signed == 1000
    print(f"A4 PASS: KS {ks:.4f} < {critical:.4f}; first eigenvector "
          "one-signed in 1000/1000 one-factor draws")


def test_a5_stylized_fact_fidelity(corpus900, synth_batches):
    lines = []
    for regime in REGIMES:
        real = corpus900.matrices(regime)
        synth = synth_batches[regime].matrices
        facts_r = [stylized_report(m) for m in real]
        facts_s = [stylized_report(m) for m in synth]
        sf1_r = np.mean([f.sf1_mean_offdiag for f in facts_r])
        sf1_s = np.mean([f.sf1_mean_offdiag for f in facts_s])
        sf2_r = np.mean([f.sf2_top_eig_share for f in facts_r])
        sf2_s = np.mean([f.sf2_top_eig_share for f in facts_s])
        assert abs(sf1_s - sf1_r) <= 0.05
        assert abs(sf2_s - sf2_r) / sf2_r <= 0.20
        lines.append(f"{regime.value} sf1 {sf1_s:.3f}/{sf1_r:.3f} "
                     f"sf2rel {abs(sf2_s - sf2_r) / sf2_r:.3f}")
    print("A5 PASS: " + "; ".join(lines))


def test_a6_conditioning_fidelity(corpus900, synth_batches):
    items = [
        corpus.CorpusItem(m, regime)
        for regime in REGIMES
        for m in synth_batches[regime].matrices[:100]
    ]
    synth = corpus.LabeledCorpus(16, items, corpus.CorpusSource.SURROGATE)
    fid = evaluation.classifier_fidelity(evaluation.corpus_features(corpus900),
                                         evaluation.corpus_features(synth),
                                         seed=3)
    assert fid.accuracy >= 0.60
    assert fid.real_holdout_accuracy >= 0.80
    print(f"A6 PASS: synthetic accuracy {fid.accuracy:.3f} >= 0.60, "
          f"real holdout {fid.real_holdout_accuracy:.3f} >= 0.80")


def test_a7_mode_coverage(corpus900, synth_batches):
    real_mats = corpus900.matrices()
    real_sets = [real_mats[i::3] for i in range(3)]
    synth_mats = [
        m for regime in REGIMES
        for m in synth_batches[regime].matrices[:100]
    ]
    clouds = evaluation.pca_project(real_mats, *real_sets, synth_mats)
    ds = evaluation.distance_stats(clouds[1:4], [clouds[4]])
    ratio = ds.mu_g / ds.mu_e
    assert ratio <= 3.0
    print(f"A7 PASS: mu_G/mu_E = {ds.mu_g:.4f}/{ds.mu_e:.4f} = "
          f"{ratio:.2f} <= 3.0")


def test_a8_wasserstein_correctness():
    g = np.random.Generator(np.random.PCG64(88))
    worst = 0.0
    for _ in range(200):
        n = int(g.integers(4, 7))
        a = g.standard_normal((n, 2))
        b = g.standard_normal((n, 2))
        exact = float(evaluation.wasserstein2(a, b))
        brute = np.sqrt(min(
            sum(np.sum((a[i] - b[p[i]]) ** 2) for i in range(n))
            for p in permutations(range(n))
        ) / n)
        worst = max(worst, abs(exact - brute))
    assert worst < 1e-9
    print(f"A8 PASS: 200 cloud pairs, max |exact - brute force| = "
          f"{worst:.2e} < 1e-9")


def test_a9_gradient_integrity():
    def g64(seed):
        return np.random.Generator(np.random.PCG64(seed))

    def loss(y):
        y64 = y.astype(np.float64)
        return 0.5 * float(np.mean(y64 ** 2)), (y / y.size).astype(y.dtype)

    layer_nets = {
        "dense": (neural.Network(
            [neural.Dense(8, 6, g64(1), dtype=np.float64)], (8,)),
            g64(2).standard_normal((4, 8))),
        "relu": (neural.Network(
            [neural.Dense(8, 8, g64(3), dtype=np.float64), neural.ReLU()],
            (8,)), g64(4).standard_normal((4, 8))),
        "leaky_relu": (neural.Network(
            [neural.Dense(8, 8, g64(5), dtype=np.float64),
             neural.LeakyReLU(0.2)], (8,)), g64(6).standard_normal((4, 8))),
        "tanh": (neural.Network(
            [neural.Dense(8, 8, g64(7), dtype=np.float64), neural.Tanh()],
            (8,)), g64(8).standard_normal((4, 8))),
        "sigmoid": (neural.Network(
            [neural.Dense(8, 8, g64(9), dtype=np.float64), neural.Sigmoid()],
            (8,)), g64(10).standard_normal((4, 8))),
        "conv2d": (neural.Network(
            [neural.Conv2D(2, 3, 3, 2, 1, g64(11), dtype=np.float64)],
            (2, 6, 6)), g64(12).standard_normal((2, 2, 6, 6))),
        "conv_transpose2d": (neural.Network(
            [neural.ConvTranspose2D(3, 2, 4, 2, 1, g64(13),
                                    dtype=np.float64)],
            (3, 4, 4)), g64(14).standard_normal((2, 3, 4, 4))),
    }
    worst = {}
    for name, (net, x) in layer_nets.items():
        worst[name] = neural.gradient_check(net, x, loss, n_probes=100,
                                            seed=0)
        assert worst[name] <= 1e-4, name

    for arch in ("dense", "conv"):
        ck = gan.build(GanConfig(dim=16, arch=arch, seed=4))
        ck.generator.set_dtype(np.float64)
        ck.discriminator.set_dtype(np.float64)
        zg = g64(15).standard_normal((4, 64 + 3))
        rel = neural.gradient_check(ck.generator, zg, loss, n_probes=100,
                                    seed=1)
        assert rel <= 1e-4, f"{arch} generator"
        worst[f"{arch}_generator"] = rel
        tri = np.tanh(g64(16).standard_normal((4, 120)))
        hot = np.tile(np.eye(3)[0], (4, 1))
        xd = gan._disc_input(ck.config, tri, hot)
        rel = neural.gradient_check(ck.discriminator, xd, loss, n_probes=100,
                                    seed=2)
        assert rel <= 1e-4, f"{arch} discriminator"
        worst[f"{arch}_discriminator"] = rel
    top = max(worst.values())
    print(f"A9 PASS: finite-difference rel err <= {top:.2e} over "
          f"{len(worst)} layer/stack checks (limit 1e-4)")


def test_a10_findings_reproduction(mc_records):
    assert len(mc_records) == 900
    findings = mc.regime_findings(mc_records)
    for name in ("normal", "rally"):
        f = findings[name]
        assert f["hrp_win_rate"] > 0.5, name
        assert f["win_rate_ci95"][0] > 0.5, name
    s = findings["stressed"]
    ci = s["win_rate_ci95"]
    assert (ci[0] <= 0.5 <= ci[1]) or (0.35 <= s["hrp_win_rate"] <= 0.65)
    print("A10 PASS: HRP win rates stressed "
          f"{s['hrp_win_rate']:.3f} {ci}, normal "
          f"{findings['normal']['hrp_win_rate']:.3f}, rally "
          f"{findings['rally']['hrp_win_rate']:.3f}")


def test_a11_shapley_exactness(mc_records):
    model = mc.fit_surrogate(mc_records, target="outperformance")
    bg = mc.design_matrix(mc_records)
    worst_oracle, worst_eff = 0.0, 0.0
    for record in mc_records[:10]:
        x = record.features.to_array()
        att = mc.shapley(model, x, bg)
        phi, baseline, prediction = shapley_enumeration(model, x, bg)
        worst_oracle = max(
            worst_oracle,
            np.max(np.abs(att.phi - phi)),
            abs(att.baseline - baseline),
            abs(att.prediction - prediction),
        )
        worst_eff = max(
            worst_eff,
            abs(att.phi.sum() - (att.prediction - att.baseline)),
        )
    assert worst_oracle < 1e-10
    assert worst_eff < 1e-10
    print(f"A11 PASS: coalition-enumeration gap {worst_oracle:.2e}, "
          f"efficiency gap {worst_eff:.2e} on 10 emitted attributions "
          f"(R2 {model.r2:.2f})")


def test_a12_repro_determinism(tmp_path):
    config = {
        "seed": 7,
        "corpus": {"count_per_regime": 12, "dim": 16, "seed": 7},
        "gan": {"dim": 16, "epochs": 3, "seed": 7, "batch_size": 8},
        "generate": {"count_per_regime": 4, "seed": 13},
        "eval": {"seed": 3},
        "mc": {"count_per_regime": 30, "dim": 24, "t_in": 120,
               "t_out": 120, "seed": 11},
    }
    cfg = tmp_path / "repro.json"
    cfg.write_text(json.dumps(config))

    def run(out, threads):
        r = subprocess.run(
            [sys.executable, "-m", "corrlab.cli", "repro",
             "--config", str(cfg), "--out", str(out),
             "--threads", str(threads), "--force"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        return {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = run(tmp_path / "r1", 1)
    second = run(tmp_path / "r2", 8)
    third = run(tmp_path / "r3", 1)
    assert first == second
    assert first == third
    print(f"A12 PASS: {len(first)} artifact files byte-identical across "
          "two runs and threads 1 vs 8")
