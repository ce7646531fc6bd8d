"""Command-line entry point wiring all modules into reproducible pipelines.

Exit codes: 0 success, 2 invalid arguments, 3 data errors, 4 numerical
failures.  Every JSON artifact embeds a provenance block (tool version,
SHA-256 of the governing config, master seed).

``repro`` runs the whole surrogate pipeline from one config file as five
stages, each keyed on the canonical JSON of its own sub-config plus the
keys of the stages it reads:

* corpus: ``corpus``;
* train: ``gan`` and the corpus key;
* generate: ``generate`` and the train key;
* evaluate: ``eval`` and the corpus and generate keys;
* mc, findings and shap: ``mc`` only (the study draws from the regime
  sampler, not the GAN).

A stage's key is the ``config_sha256`` of its provenance block, stored in
``provenance.json`` for the corpus, ckpt and synth directories and inside
``evaluation.json`` and ``shap.json``.  A rerun rebuilds a stage only under
``--force``, when that block is missing, unreadable or different, or when
one of the stage's payload files is missing; a stage it skips reads nothing
back.  So changing ``mc.seed`` reruns only the study, and the reused files
are byte-identical to rebuilt ones.  The config is checked for every
section and key the stages read before anything is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, core, evaluation, gan, geometry, mc, portfolio, rng
from . import corpus as corpus_mod
from .exceptions import (
    ConfigError,
    CorrlabError,
    CorruptData,
    DegenerateColumn,
    NumericalFailure,
    ParseError,
    UnsupportedVersion,
)
from .facts import FEATURE_NAMES, feature_vector, stylized_report
from .samplers import (
    RegimeLabel,
    sample_cvine,
    sample_one_factor,
    sample_onion,
    sample_regime,
    sample_with_spectrum,
)

_DATA_ERRORS = (
    ParseError, CorruptData, UnsupportedVersion, DegenerateColumn,
    FileNotFoundError, json.JSONDecodeError,
)


def _provenance(config_bytes: bytes, seed) -> dict:
    return {
        "tool": "corrlab",
        "version": __version__,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "seed": seed,
    }


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for r, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError:
                raise ParseError(f"non-numeric cell at row {r}", row=r)
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("matrix rows must be non-empty and equal length")
    return np.asarray(rows)


def _write_matrix_csv(path, m):
    with open(path, "w") as fh:
        for row in np.asarray(m):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _load_matrices(path):
    """Accept either an ECORP directory or a single-matrix CSV file."""
    p = Path(path)
    if p.is_dir():
        corp = corpus_mod.read_corpus(p)
        return [it.matrix for it in corp.items], [it.label.value for it in corp.items]
    return [_read_matrix_csv(p)], [None]


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args):
    items = []
    for i in range(args.count):
        if args.method == "onion":
            m = sample_onion(args.dim, args.eta, args.seed, stream=i)
            label = RegimeLabel.NORMAL
        elif args.method == "cvine":
            m = sample_cvine(args.dim, args.beta_a, args.beta_b, args.seed, stream=i)
            label = RegimeLabel.NORMAL
        elif args.method == "spectrum":
            lam = [float(x) for x in args.eigenvalues.split(",")]
            m = sample_with_spectrum(lam, args.seed, stream=i)
            label = RegimeLabel.NORMAL
        elif args.method == "factor":
            m = sample_one_factor(
                args.dim, (args.beta_lo, args.beta_hi), args.seed, stream=i
            )
            label = RegimeLabel.NORMAL
        else:
            label = RegimeLabel(args.regime)
            m = sample_regime(label, args.dim, seed=args.seed, stream=i)
        items.append(corpus_mod.CorpusItem(m, label, {"method": args.method,
                                                      "stream": i}))
    corp = corpus_mod.LabeledCorpus(
        dim=items[0].matrix.shape[0],
        items=items,
        source=corpus_mod.CorpusSource.SURROGATE,
        meta={"method": args.method, "seed": args.seed,
              "provenance": _provenance(_args_bytes(args), args.seed)},
    )
    corpus_mod.write_corpus(corp, args.out)
    return 0


def cmd_project(args):
    m = _read_matrix_csv(getattr(args, "in"))
    out = core.nearest_correlation(m, tol=args.tol)
    _write_matrix_csv(args.out, out)
    return 0


def cmd_metrics(args):
    mats, labels = _load_matrices(getattr(args, "in"))
    records = []
    for m, label in zip(mats, labels):
        r = stylized_report(m, q_ratio=args.q_ratio)
        rec = {
            "label": label,
            "sf1_mean_offdiag": r.sf1_mean_offdiag,
            "sf1_skew": r.sf1_skew,
            "sf2_top_eig_share": r.sf2_top_eig_share,
            "sf2_mp_bounds": list(r.sf2_mp_bounds),
            "sf3_outlier_eig_fraction": r.sf3_outlier_eig_fraction,
            "sf4_first_evec_sign_consistency": r.sf4_first_evec_sign_consistency,
            "sf5_cophenetic_coeff": _jsonf(r.sf5_cophenetic_coeff),
            "sf6_mst_degree_tail_exponent": _jsonf(r.sf6_mst_degree_tail_exponent),
            "sf6_max_degree": r.sf6_max_degree,
        }
        records.append(rec)
    agg = {}
    for key in ("sf1_mean_offdiag", "sf2_top_eig_share"):
        agg[key + "_mean"] = float(np.mean([r[key] for r in records]))
    _write_json(args.report, {
        "provenance": _provenance(_args_bytes(args), None),
        "records": records,
        "aggregate": agg,
    })
    return 0


def _jsonf(x):
    return None if x != x else x  # NaN -> null


def cmd_geometry(args):
    if args.geom_cmd == "geodesic":
        a = _read_matrix_csv(args.a)
        b = _read_matrix_csv(args.b)
        g = geometry.geodesic(a, b, args.t)
        _write_matrix_csv(args.out, g)
        _write_json(args.meta, {
            "provenance": _provenance(_args_bytes(args), None),
            "t": args.t,
            "max_diag_dev": float(np.max(np.abs(np.diag(g) - 1.0))),
        })
    else:
        mats, _ = _load_matrices(getattr(args, "in"))
        method = {
            "m1": geometry.MeanMethod.M1_EUCLIDEAN,
            "m2": geometry.MeanMethod.M2_RIEMANNIAN_BARYCENTER,
            "m3": geometry.MeanMethod.M3_NORMALIZED_BARYCENTER,
            "m4": geometry.MeanMethod.M4_CONSTRAINED_FRECHET,
            "m5": geometry.MeanMethod.M5_RIEMANNIAN_PROJECTION,
        }[args.method]
        res = geometry.mean(method, mats)
        _write_matrix_csv(args.out, res.matrix)
        _write_json(args.meta, {
            "provenance": _provenance(_args_bytes(args), None),
            "method": args.method,
            "iterations": res.iterations,
            "converged": res.converged,
            "grad_norm": res.grad_norm,
            "jitter_applied": res.jitter_applied,
        })
    return 0


def cmd_corpus(args):
    if args.corpus_cmd == "build":
        window = corpus_mod.WindowSpec(args.window, args.step)
        corp = corpus_mod.ingest_returns(args.returns, window)
        corpus_mod.write_corpus(corp, args.out)
    elif args.corpus_cmd == "synth":
        corp = corpus_mod.build_surrogate(args.count, args.dim, seed=args.seed)
        corp.meta["provenance"] = _provenance(_args_bytes(args), args.seed)
        corpus_mod.write_corpus(corp, args.out)
    else:
        corp = corpus_mod.read_corpus(args.dir)
        counts = {}
        for lab in corp.labels():
            counts[lab.value] = counts.get(lab.value, 0) + 1
        print(json.dumps({
            "dim": corp.dim, "count": len(corp),
            "labels": counts, "source": corp.source.value,
        }, sort_keys=True))
    return 0


def cmd_train(args):
    cfg_bytes = Path(args.config).read_bytes()
    config = gan.GanConfig.from_dict(json.loads(cfg_bytes))
    corp = corpus_mod.read_corpus(args.corpus)
    ckpt = gan.train(gan.build(config), corp)
    gan.save_checkpoint(ckpt, args.out)
    _write_json(Path(args.out) / "provenance.json",
                _provenance(cfg_bytes, config.seed))
    return 0


def cmd_generate(args):
    ckpt = gan.load_checkpoint(args.ckpt)
    label = RegimeLabel(args.regime)
    batch = gan.sample(ckpt, label, args.count, seed=args.seed,
                       project=not args.no_project)
    items = [
        corpus_mod.CorpusItem(m, label, {"displacement": d})
        for m, d in zip(batch.matrices, batch.displacements)
    ]
    corp = corpus_mod.LabeledCorpus(
        dim=ckpt.config.dim, items=items,
        source=corpus_mod.CorpusSource.SURROGATE,
        meta={"generated": True, "regime": args.regime, "seed": args.seed,
              "projected": batch.projected,
              "untrained_warning": batch.untrained_warning,
              "provenance": _provenance(_args_bytes(args), args.seed)},
    )
    corpus_mod.write_corpus(corp, args.out)
    return 0


def cmd_evaluate(args):
    real = corpus_mod.read_corpus(args.real)
    synth = corpus_mod.read_corpus(args.synth)
    report = _evaluate_corpora(real, synth, seed=args.seed,
                               clouds_prefix=Path(args.report).with_suffix(""))
    report["provenance"] = _provenance(_args_bytes(args), args.seed)
    _write_json(args.report, report)
    return 0


def _evaluate_corpora(real, synth, seed=0, clouds_prefix=None):
    real_mats = [it.matrix for it in real.items]
    synth_mats = [it.matrix for it in synth.items]
    real_sets = [real_mats[i::3] for i in range(3)]
    clouds = evaluation.pca_project(real_mats, *real_sets, synth_mats)
    _, r1, r2, r3, sy = clouds
    ds = evaluation.distance_stats([r1, r2, r3], [sy])
    fid = evaluation.classifier_fidelity(real, synth, seed=seed)
    if clouds_prefix is not None:
        _write_matrix_csv(str(clouds_prefix) + "_real_cloud.csv",
                          clouds[0].points)
        _write_matrix_csv(str(clouds_prefix) + "_synth_cloud.csv", sy.points)
    per_fact = {}
    for regime in gan.REGIMES:
        rm = real.matrices(regime)
        sm = synth.matrices(regime)
        if not rm or not sm:
            continue
        per_fact[regime.value] = {
            "sf1_real": float(np.mean([stylized_report(m).sf1_mean_offdiag for m in rm])),
            "sf1_synth": float(np.mean([stylized_report(m).sf1_mean_offdiag for m in sm])),
            "sf2_real": float(np.mean([stylized_report(m).sf2_top_eig_share for m in rm])),
            "sf2_synth": float(np.mean([stylized_report(m).sf2_top_eig_share for m in sm])),
        }
    return {
        "distance_stats": {
            "mu_e": ds.mu_e, "sigma_e": ds.sigma_e,
            "mu_g": ds.mu_g, "sigma_g": ds.sigma_g,
            "max_within": ds.max_within, "min_between": ds.min_between,
            "ratio_mu_g_over_mu_e": ds.mu_g / ds.mu_e if ds.mu_e > 0 else None,
        },
        "classifier": {
            "accuracy": fid.accuracy,
            "real_holdout_accuracy": fid.real_holdout_accuracy,
            "weak_classifier": fid.weak_classifier,
            "confusion": fid.confusion.tolist(),
        },
        "stylized_facts": per_fact,
    }


def cmd_portfolio(args):
    cov = _read_matrix_csv(args.cov)
    w = portfolio.weights_for(args.method, cov)
    print(",".join(repr(float(x)) for x in w))
    return 0


def cmd_mc(args):
    if args.mc_cmd == "run":
        cfg_bytes = Path(args.config).read_bytes()
        cfg = json.loads(cfg_bytes)
        config = mc.McConfig(
            count_per_regime=cfg.get("count_per_regime", 300),
            dim=cfg.get("dim", 16),
            t_in=cfg.get("t_in", 252),
            t_out=cfg.get("t_out", 252),
            seed=cfg.get("seed", 0),
        )
        gen_fn = None
        if cfg.get("generator") == "checkpoint":
            ckpt = gan.load_checkpoint(cfg["checkpoint"])

            def gen_fn(regime, stream):
                seed = rng.mix(config.seed, stream)
                return gan.sample(ckpt, regime, 1, seed=seed).matrices[0]

        records = mc.run(config, generator_fn=gen_fn)
        mc.write_records(records, args.out)
    elif args.mc_cmd == "explain":
        records = mc.read_records(args.records)
        model = mc.fit_surrogate(records, target=args.target)
        bg = mc.design_matrix(records)
        attributions = []
        for r in records[: args.limit]:
            att = mc.shapley(model, r.features.to_array(), bg)
            attributions.append({
                "regime": r.regime.value,
                "phi": dict(zip(FEATURE_NAMES, att.phi.tolist())),
                "baseline": att.baseline,
                "prediction": att.prediction,
            })
        _write_json(args.report, {
            "provenance": _provenance(_args_bytes(args), None),
            "target": args.target,
            "r2": model.r2,
            "coefficients": dict(zip(FEATURE_NAMES,
                                     model.coefficients.tolist())),
            "attributions": attributions,
        })
    else:
        records = mc.read_records(args.records)
        findings = mc.regime_findings(records)
        _write_json(args.report, {
            "provenance": _provenance(_args_bytes(args), None),
            "findings": findings,
        })
    return 0


# keys each ``repro`` section must hold; ``eval`` is optional
_REPRO_KEYS = {
    "corpus": ("count_per_regime", "dim", "seed"),
    "gan": (),
    "generate": ("count_per_regime", "seed"),
    "mc": ("count_per_regime", "dim", "seed"),
}


def _check_repro_config(cfg):
    """Raise ``ConfigError`` unless ``cfg`` holds what every stage reads."""
    if not isinstance(cfg, dict):
        raise ConfigError("repro config must be a JSON object")
    for section, keys in _REPRO_KEYS.items():
        if not isinstance(cfg.get(section), dict):
            raise ConfigError(f"repro config lacks a {section!r} object")
        missing = [k for k in keys if k not in cfg[section]]
        if missing:
            raise ConfigError(f"repro config {section!r} lacks {missing}")
    if not isinstance(cfg.get("eval", {}), dict):
        raise ConfigError("repro config 'eval' must be an object")
    try:
        gan.GanConfig.from_dict(cfg["gan"])
    except TypeError as exc:
        raise ConfigError(f"repro config 'gan': {exc}") from None


def cmd_repro(args):
    cfg = json.loads(Path(args.config).read_bytes())
    _check_repro_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_dir, ckpt_dir = out / "corpus", out / "ckpt"
    synth_dir = out / "synth"

    def stage(*inputs):
        """Provenance of a stage; its key hashes the stage's own sub-config
        and the keys of the stages it reads."""
        key_bytes = json.dumps(inputs, sort_keys=True).encode()
        return _provenance(key_bytes, cfg.get("seed", 0))

    def fresh(marker, prov, *outputs):
        """True when a stage must be (re)built: ``--force``, one of its
        ``outputs`` is missing, or ``marker`` (bare provenance, or JSON with
        a ``provenance`` block) does not hold ``prov``.  A stale marker is
        deleted before the rebuild, so an interrupted rebuild never passes
        for a finished one."""
        try:
            old = json.loads(marker.read_text())
        except (OSError, ValueError):
            old = None
        if (not args.force and isinstance(old, dict)
                and prov in (old, old.get("provenance"))
                and all(p.is_file() for p in outputs)):
            return False
        marker.unlink(missing_ok=True)
        return True

    # 1. surrogate corpus
    corpus_prov = stage(cfg["corpus"])
    if fresh(corpus_dir / "provenance.json", corpus_prov,
             corpus_dir / "manifest.json", corpus_dir / "matrices.f64le"):
        corp = corpus_mod.build_surrogate(
            cfg["corpus"]["count_per_regime"], cfg["corpus"]["dim"],
            seed=cfg["corpus"]["seed"],
        )
        corpus_mod.write_corpus(corp, corpus_dir)
        _write_json(corpus_dir / "provenance.json", corpus_prov)

    # 2. train
    train_prov = stage(cfg["gan"], corpus_prov["config_sha256"])
    if fresh(ckpt_dir / "provenance.json", train_prov):
        config = gan.GanConfig.from_dict(cfg["gan"])
        ckpt = gan.train(gan.build(config), corpus_mod.read_corpus(corpus_dir))
        gan.save_checkpoint(ckpt, ckpt_dir)
        _write_json(ckpt_dir / "provenance.json", train_prov)

    # 3. generate
    gen_cfg = cfg["generate"]
    gen_prov = stage(gen_cfg, train_prov["config_sha256"])
    if fresh(synth_dir / "provenance.json", gen_prov,
             synth_dir / "manifest.json", synth_dir / "matrices.f64le"):
        ckpt = gan.load_checkpoint(ckpt_dir)
        items = []
        for regime in gan.REGIMES:
            batch = gan.sample(ckpt, regime, gen_cfg["count_per_regime"],
                               seed=gen_cfg["seed"])
            items += [
                corpus_mod.CorpusItem(m, regime, {"displacement": d})
                for m, d in zip(batch.matrices, batch.displacements)
            ]
        synth = corpus_mod.LabeledCorpus(
            ckpt.config.dim, items, corpus_mod.CorpusSource.SURROGATE,
            meta={"generated": True},
        )
        corpus_mod.write_corpus(synth, synth_dir)
        _write_json(synth_dir / "provenance.json", gen_prov)

    # 4. evaluate
    eval_cfg = cfg.get("eval", {})
    eval_prov = stage(eval_cfg, corpus_prov["config_sha256"],
                      gen_prov["config_sha256"])
    if fresh(out / "evaluation.json", eval_prov):
        report = _evaluate_corpora(corpus_mod.read_corpus(corpus_dir),
                                   corpus_mod.read_corpus(synth_dir),
                                   seed=eval_cfg.get("seed", 0))
        report["provenance"] = eval_prov
        _write_json(out / "evaluation.json", report)

    # 5. monte carlo + findings + attribution (regime sampler, not the GAN)
    mc_cfg = cfg["mc"]
    mc_prov = stage(mc_cfg)
    if fresh(out / "shap.json", mc_prov,
             out / "records.ndjson", out / "findings.json"):
        config = mc.McConfig(
            count_per_regime=mc_cfg["count_per_regime"], dim=mc_cfg["dim"],
            t_in=mc_cfg.get("t_in", 252), t_out=mc_cfg.get("t_out", 252),
            seed=mc_cfg["seed"],
        )
        records = mc.run(config)
        mc.write_records(records, out / "records.ndjson")
        findings = mc.regime_findings(records)
        _write_json(out / "findings.json", {"provenance": mc_prov,
                                            "findings": findings})
        model = mc.fit_surrogate(records, target="outperformance")
        bg = mc.design_matrix(records)
        att = mc.shapley(model, records[0].features.to_array(), bg)
        _write_json(out / "shap.json", {
            "provenance": mc_prov,
            "target": "outperformance",
            "r2": model.r2,
            "coefficients": dict(zip(FEATURE_NAMES,
                                     model.coefficients.tolist())),
            "example_attribution": {
                "phi": dict(zip(FEATURE_NAMES, att.phi.tolist())),
                "baseline": att.baseline,
                "prediction": att.prediction,
            },
        })
    return 0


def _args_bytes(args) -> bytes:
    d = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return json.dumps(d, sort_keys=True, default=str).encode()


# ---------------------------------------------------------------------------
# parser


_THREADS_HELP = ("accepted for compatibility and ignored: simulations run "
                "serially, since a thread pool only contended for the GIL")


def build_parser():
    p = argparse.ArgumentParser(
        prog="corrlab",
        description="Correlation-matrix laboratory: samplers, geometry, "
                    "stylized facts, conditional GAN, evaluation, Monte Carlo.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="draw random correlation matrices")
    s.add_argument("--method", required=True,
                   choices=["onion", "cvine", "spectrum", "factor", "regime"])
    s.add_argument("--dim", type=int, default=16)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--eta", type=float, default=1.0)
    s.add_argument("--beta-a", type=float, default=2.0)
    s.add_argument("--beta-b", type=float, default=2.0)
    s.add_argument("--eigenvalues", default="")
    s.add_argument("--beta-lo", type=float, default=0.3)
    s.add_argument("--beta-hi", type=float, default=0.7)
    s.add_argument("--regime", default="normal",
                   choices=[r.value for r in RegimeLabel])
    s.set_defaults(func=cmd_sample)

    s = sub.add_parser("project", help="nearest correlation matrix")
    s.add_argument("--in", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=cmd_project)

    s = sub.add_parser("metrics", help="stylized-fact report")
    s.add_argument("--in", required=True)
    s.add_argument("--report", required=True)
    s.add_argument("--q-ratio", type=float, default=80.0 / 252.0)
    s.set_defaults(func=cmd_metrics)

    s = sub.add_parser("geometry", help="Fisher-Rao geodesics and means")
    gsub = s.add_subparsers(dest="geom_cmd", required=True)
    g1 = gsub.add_parser("geodesic")
    g1.add_argument("--a", required=True)
    g1.add_argument("--b", required=True)
    g1.add_argument("--t", type=float, required=True)
    g1.add_argument("--out", required=True)
    g1.add_argument("--meta", required=True)
    g1.set_defaults(func=cmd_geometry)
    g2 = gsub.add_parser("mean")
    g2.add_argument("--method", required=True,
                    choices=["m1", "m2", "m3", "m4", "m5"])
    g2.add_argument("--in", required=True)
    g2.add_argument("--out", required=True)
    g2.add_argument("--meta", required=True)
    g2.set_defaults(func=cmd_geometry)

    s = sub.add_parser("corpus", help="build, synthesize or inspect corpora")
    csub = s.add_subparsers(dest="corpus_cmd", required=True)
    c1 = csub.add_parser("build")
    c1.add_argument("--returns", required=True)
    c1.add_argument("--window", type=int, default=252)
    c1.add_argument("--step", type=int, default=21)
    c1.add_argument("--out", required=True)
    c1.set_defaults(func=cmd_corpus)
    c2 = csub.add_parser("synth")
    c2.add_argument("--count", type=int, required=True)
    c2.add_argument("--dim", type=int, default=16)
    c2.add_argument("--seed", type=int, default=0)
    c2.add_argument("--out", required=True)
    c2.set_defaults(func=cmd_corpus)
    c3 = csub.add_parser("inspect")
    c3.add_argument("dir")
    c3.set_defaults(func=cmd_corpus)

    s = sub.add_parser("train", help="train the conditional GAN")
    s.add_argument("--corpus", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("generate", help="sample from a trained GAN")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--regime", required=True,
                   choices=[r.value for r in RegimeLabel])
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--no-project", action="store_true")
    s.set_defaults(func=cmd_generate)

    s = sub.add_parser("evaluate", help="real-vs-synthetic fidelity report")
    s.add_argument("--real", required=True)
    s.add_argument("--synth", required=True)
    s.add_argument("--report", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("portfolio", help="allocation weights")
    psub = s.add_subparsers(dest="portfolio_cmd", required=True)
    p1 = psub.add_parser("weights")
    p1.add_argument("--method", required=True, choices=["hrp", "ivp", "ew"])
    p1.add_argument("--cov", required=True)
    p1.set_defaults(func=cmd_portfolio)

    s = sub.add_parser("mc", help="Monte Carlo harness")
    msub = s.add_subparsers(dest="mc_cmd", required=True)
    m1 = msub.add_parser("run")
    m1.add_argument("--config", required=True)
    m1.add_argument("--out", required=True)
    m1.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    m1.set_defaults(func=cmd_mc)
    m2 = msub.add_parser("explain")
    m2.add_argument("--records", required=True)
    m2.add_argument("--target", required=True,
                    choices=["outperformance", "decay"])
    m2.add_argument("--report", required=True)
    m2.add_argument("--limit", type=int, default=10)
    m2.set_defaults(func=cmd_mc)
    m3 = msub.add_parser("findings")
    m3.add_argument("--records", required=True)
    m3.add_argument("--report", required=True)
    m3.set_defaults(func=cmd_mc)

    s = sub.add_parser("repro", help="full pipeline from one config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    s.add_argument("--force", action="store_true",
                   help="rebuild every stage, even when its key matches")
    s.set_defaults(func=cmd_repro)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    except CorrlabError as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
