"""Command-line entry point wiring all modules into reproducible pipelines.

Exit codes: 0 success, 2 invalid arguments or config, 3 data errors, 4
numerical failures.  Every JSON artifact embeds a provenance block (tool
version, SHA-256 of the governing config, master seed).

Each pipeline stage is one function that its subcommand and ``repro`` both
call: ``corpus synth``, ``train``, ``generate``, ``evaluate``, ``mc run``,
``mc findings`` and ``mc explain`` run the code of ``repro``'s stages.  The
``gan`` and ``mc`` configs are each read by ``checked.config``, so a bad
config exits 2 from ``train``, ``mc run`` and ``repro`` alike.

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
import io
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, checked, core, evaluation, gan, geometry, mc
from . import corpus as corpus_mod, portfolio, rng
from .exceptions import (
    ConfigError,
    CorrlabError,
    CorruptData,
    DegenerateColumn,
    InvalidInput,
    NumericalFailure,
    ParseError,
    UnsupportedVersion,
)
from .facts import DEFAULT_Q_RATIO, FEATURE_NAMES, stylized_report
from .samplers import (
    REGIMES,
    RegimeLabel,
    sample_cvine,
    sample_one_factor,
    sample_onion,
    sample_regime,
    sample_with_spectrum,
)

# a writer raises OSError for an --out it cannot write: in a missing
# directory, a directory itself, or without permission
_DATA_ERRORS = (
    ParseError, CorruptData, UnsupportedVersion, DegenerateColumn, OSError,
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
    lines = io.StringIO(checked.read_text(path), newline=None)
    for r, line in enumerate(lines):
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


def _eigenvalues(text):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InvalidInput(
            f"--eigenvalues must be comma-separated numbers, got {text!r}"
        ) from None


def cmd_sample(args):
    if args.count < 1:
        raise InvalidInput("count must be >= 1")
    label = RegimeLabel(args.regime if args.method == "regime" else "normal")
    draw = {
        "onion": lambda i: sample_onion(args.dim, args.eta, args.seed, stream=i),
        "cvine": lambda i: sample_cvine(args.dim, args.beta_a, args.beta_b,
                                        args.seed, stream=i),
        "spectrum": lambda i: sample_with_spectrum(
            _eigenvalues(args.eigenvalues), args.seed, stream=i),
        "factor": lambda i: sample_one_factor(
            args.dim, (args.beta_lo, args.beta_hi), args.seed, stream=i),
        "regime": lambda i: sample_regime(label, args.dim, seed=args.seed,
                                          stream=i),
    }[args.method]
    items = [corpus_mod.CorpusItem(draw(i), label, {"method": args.method,
                                                    "stream": i})
             for i in range(args.count)]
    corp = corpus_mod.LabeledCorpus(
        dim=items[0].matrix.shape[0],
        items=items,
        source=corpus_mod.CorpusSource.SURROGATE,
        meta={"method": args.method, "seed": args.seed,
              "provenance": _provenance(_args_bytes(args), args.seed)},
    )
    corpus_mod.write_corpus(corp, args.out)


def cmd_project(args):
    m = _read_matrix_csv(getattr(args, "in"))
    out = core.nearest_correlation(m, tol=args.tol)
    _write_matrix_csv(args.out, out)


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


def _jsonf(x):
    return None if x != x else x  # NaN -> null


def cmd_geodesic(args):
    a = _read_matrix_csv(args.a)
    b = _read_matrix_csv(args.b)
    g = geometry.geodesic(a, b, args.t)
    _write_matrix_csv(args.out, g)
    _write_json(args.meta, {
        "provenance": _provenance(_args_bytes(args), None),
        "t": args.t,
        "max_diag_dev": float(np.max(np.abs(np.diag(g) - 1.0))),
    })


def cmd_mean(args):
    mats, _ = _load_matrices(getattr(args, "in"))
    res = geometry.mean(geometry.MeanMethod(args.method), mats)
    _write_matrix_csv(args.out, res.matrix)
    _write_json(args.meta, {
        "provenance": _provenance(_args_bytes(args), None),
        "method": args.method,
        "iterations": res.iterations,
        "converged": res.converged,
        "grad_norm": res.grad_norm,
        "jitter_applied": res.jitter_applied,
    })


def cmd_corpus_build(args):
    window = corpus_mod.WindowSpec(args.window, args.step)
    corpus_mod.write_corpus(corpus_mod.ingest_returns(args.returns, window),
                            args.out)


def cmd_corpus_synth(args):
    _synth_corpus(args.count, args.dim, args.seed, args.out,
                  provenance=_provenance(_args_bytes(args), args.seed))


def cmd_corpus_inspect(args):
    corp = corpus_mod.read_corpus(args.dir)
    print(json.dumps({
        "dim": corp.dim, "count": len(corp),
        "labels": Counter(lab.value for lab in corp.labels()),
        "source": corp.source.value,
    }, sort_keys=True))


def cmd_portfolio(args):
    cov = _read_matrix_csv(args.cov)
    w = portfolio.weights_for(args.method, cov)
    print(",".join(repr(float(x)) for x in w))


# ---------------------------------------------------------------------------
# pipeline stages, each written once and called by its subcommand and repro


def _check_section(cfg, ints, what):
    """Raise ``ConfigError`` unless ``cfg`` is a JSON object in which every
    key of ``ints`` it holds is an integer."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must be a JSON object")
    bad = [k for k in ints if k in cfg and not checked.is_int(cfg[k])]
    if bad:
        raise ConfigError(f"{what} {bad} must be integers")


def _synth_corpus(count_per_regime, dim, seed, out, **meta):
    """Write a surrogate corpus to ``out``, adding ``meta`` to its own."""
    corp = corpus_mod.build_surrogate(count_per_regime, dim, seed=seed)
    corp.meta.update(meta)
    corpus_mod.write_corpus(corp, out)


def _train(config, corpus_dir, out, prov):
    """Train the GAN on the corpus at ``corpus_dir``; write the checkpoint
    and its ``provenance.json`` to ``out``."""
    corp = corpus_mod.read_corpus(corpus_dir)
    gan.check_corpus(config, corp)
    ckpt = gan.train(gan.build(config), corp)
    gan.save_checkpoint(ckpt, out)
    _write_json(Path(out) / "provenance.json", prov)


def _generate(ckpt_dir, regimes, count, seed, out, project=True,
              meta=lambda batch: {}):
    """Sample ``count`` matrices of each of ``regimes`` from the checkpoint
    at ``ckpt_dir`` into one corpus at ``out``.  Its meta is ``generated``
    plus ``meta`` of the last batch drawn."""
    ckpt = gan.load_checkpoint(ckpt_dir)
    items = []
    for regime in regimes:
        batch = gan.sample(ckpt, regime, count, seed=seed, project=project)
        items += [corpus_mod.CorpusItem(m, regime, {"displacement": d})
                  for m, d in zip(batch.matrices, batch.displacements)]
    corpus_mod.write_corpus(corpus_mod.LabeledCorpus(
        ckpt.config.dim, items, corpus_mod.CorpusSource.SURROGATE,
        meta={"generated": True, **meta(batch)},
    ), out)


def _evaluate(real_dir, synth_dir, seed, report, prov, clouds_prefix=None):
    """Score the corpus at ``synth_dir`` against the one at ``real_dir``
    and write the report; with ``clouds_prefix``, also the PCA clouds."""
    real = corpus_mod.read_corpus(real_dir)
    synth = corpus_mod.read_corpus(synth_dir)
    real_mats = [it.matrix for it in real.items]
    synth_mats = [it.matrix for it in synth.items]
    real_sets = [real_mats[i::3] for i in range(3)]
    real_cloud, r1, r2, r3, sy = evaluation.pca_project(
        real_mats, *real_sets, synth_mats)
    ds = evaluation.distance_stats([r1, r2, r3], [sy])
    # one feature pass per matrix serves the classifier and the per-regime
    # facts: mean_corr is SF1's mean and eig1_share SF2's share
    sides = {"real": evaluation.corpus_features(real),
             "synth": evaluation.corpus_features(synth)}
    fid = evaluation.classifier_fidelity(sides["real"], sides["synth"],
                                         seed=seed)
    if clouds_prefix is not None:
        _write_matrix_csv(f"{clouds_prefix}_real_cloud.csv", real_cloud.points)
        _write_matrix_csv(f"{clouds_prefix}_synth_cloud.csv", sy.points)
    sf1 = FEATURE_NAMES.index("mean_corr")
    sf2 = FEATURE_NAMES.index("eig1_share")
    per_fact = {}
    for k, regime in enumerate(REGIMES):
        if not all(np.any(y == k) for _, y in sides.values()):
            continue
        means = per_fact[regime.value] = {}
        for side, (x, y) in sides.items():
            means["sf1_" + side] = float(np.mean(x[y == k, sf1]))
            means["sf2_" + side] = float(np.mean(x[y == k, sf2]))
    _write_json(report, {
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
        "provenance": prov,
    })


def _run_mc(config, out, generator_fn=None):
    """Run the Monte Carlo study and write its records to ``out``."""
    records = mc.run(config, generator_fn=generator_fn)
    mc.write_records(records, out)
    return records


def _write_findings(records, report, prov):
    _write_json(report, {"provenance": prov,
                         "findings": mc.regime_findings(records)})


def _surrogate_report(records, target, prov):
    """The surrogate fit for ``target`` as a report, and a function giving
    a record's Shapley attribution under that fit."""
    model = mc.fit_surrogate(records, target=target)
    bg = mc.design_matrix(records)

    def explain(record):
        att = mc.shapley(model, record.features.to_array(), bg)
        return {"phi": dict(zip(FEATURE_NAMES, att.phi.tolist())),
                "baseline": att.baseline, "prediction": att.prediction}

    coefficients = dict(zip(FEATURE_NAMES, model.coefficients.tolist()))
    return {"provenance": prov, "target": target, "r2": model.r2,
            "coefficients": coefficients}, explain


def cmd_train(args):
    cfg_bytes = checked.read_bytes(args.config)
    cfg = checked.parse_json(cfg_bytes, args.config)
    config = checked.config(gan.GanConfig, cfg, "gan config")
    _train(config, args.corpus, args.out, _provenance(cfg_bytes, config.seed))


def cmd_generate(args):
    _generate(args.ckpt, [RegimeLabel(args.regime)], args.count, args.seed,
              args.out, project=not args.no_project,
              meta=lambda batch: {
                  "regime": args.regime, "seed": args.seed,
                  "projected": batch.projected,
                  "untrained_warning": batch.untrained_warning,
                  "provenance": _provenance(_args_bytes(args), args.seed),
              })


def cmd_evaluate(args):
    _evaluate(args.real, args.synth, args.seed, args.report,
              _provenance(_args_bytes(args), args.seed),
              clouds_prefix=Path(args.report).with_suffix(""))


def cmd_mc_run(args):
    cfg = checked.read_json(args.config)
    # the keys that name the matrix source; the rest is the study's
    source = {k: cfg.pop(k) for k in ("generator", "checkpoint")
              if isinstance(cfg, dict) and k in cfg}
    config = checked.config(mc.McConfig, cfg, "mc config")
    gen_fn = None
    if source.get("generator", "checkpoint") != "checkpoint":
        raise ConfigError("mc config 'generator' must be \"checkpoint\" or "
                          f"absent, not {source['generator']!r}")
    if "checkpoint" in source and "generator" not in source:
        raise ConfigError("mc config 'checkpoint' is read only with "
                          "'generator': \"checkpoint\"")
    if "generator" in source:
        if not isinstance(source.get("checkpoint"), str):
            raise ConfigError("mc config 'checkpoint' must name a directory")
        ckpt = gan.load_checkpoint(source["checkpoint"])
        if ckpt.config.dim != config.dim:
            raise ConfigError(f"checkpoint dim {ckpt.config.dim} != mc "
                              f"config dim {config.dim}")

        def gen_fn(regime, stream):
            seed = rng.mix(config.seed, stream)
            return gan.sample(ckpt, regime, 1, seed=seed).matrices[0]

    _run_mc(config, args.out, gen_fn)


def cmd_mc_explain(args):
    if args.limit < 0:
        raise InvalidInput(f"--limit must be >= 0, not {args.limit}")
    records = mc.read_records(args.records)
    report, explain = _surrogate_report(
        records, args.target, _provenance(_args_bytes(args), None))
    report["attributions"] = [{"regime": r.regime.value, **explain(r)}
                              for r in records[: args.limit]]
    _write_json(args.report, report)


def cmd_mc_findings(args):
    _write_findings(mc.read_records(args.records), args.report,
                    _provenance(_args_bytes(args), None))


def _check_repro_config(cfg):
    """The ``GanConfig`` and ``McConfig`` of ``cfg``; ``ConfigError``
    unless ``cfg`` holds what every stage reads."""
    _check_section(cfg, (), "repro config")
    for section, keys in (("corpus", ("count_per_regime", "dim", "seed")),
                          ("generate", ("count_per_regime", "seed"))):
        what = f"repro config {section!r}"
        _check_section(cfg.get(section), keys, what)
        missing = [k for k in keys if k not in cfg[section]]
        if missing:
            raise ConfigError(f"{what} lacks {missing}")
    if cfg["generate"]["count_per_regime"] < 1:
        raise ConfigError("repro config 'generate' count_per_regime must be "
                          ">= 1")
    _check_section(cfg.get("eval", {}), ("seed",), "repro config 'eval'")
    gan_config = checked.config(gan.GanConfig, cfg.get("gan"),
                                "repro config 'gan'")
    if gan_config.dim != cfg["corpus"]["dim"]:
        raise ConfigError(f"repro config 'gan' dim {gan_config.dim} != "
                          f"corpus dim {cfg['corpus']['dim']}")
    return gan_config, checked.config(
        mc.McConfig, cfg.get("mc"), "repro config 'mc'",
        required=("count_per_regime", "dim", "seed"))


def cmd_repro(args):
    cfg = checked.read_json(args.config)
    gan_config, mc_config = _check_repro_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_dir, ckpt_dir, synth_dir = out / "corpus", out / "ckpt", out / "synth"
    corpus_cfg, gen_cfg, eval_cfg = cfg["corpus"], cfg["generate"], cfg.get("eval", {})

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
            old = checked.read_json(marker)
        except CorruptData:
            old = None
        if (not args.force and isinstance(old, dict)
                and prov in (old, old.get("provenance"))
                and all(p.is_file() for p in outputs)):
            return False
        marker.unlink(missing_ok=True)
        return True

    # 1. surrogate corpus
    corpus_prov = stage(corpus_cfg)
    if fresh(corpus_dir / "provenance.json", corpus_prov,
             corpus_dir / "manifest.json", corpus_dir / "matrices.f64le"):
        _synth_corpus(corpus_cfg["count_per_regime"], corpus_cfg["dim"],
                      corpus_cfg["seed"], corpus_dir)
        _write_json(corpus_dir / "provenance.json", corpus_prov)

    # 2. train
    train_prov = stage(cfg["gan"], corpus_prov["config_sha256"])
    if fresh(ckpt_dir / "provenance.json", train_prov):
        _train(gan_config, corpus_dir, ckpt_dir, train_prov)

    # 3. generate
    gen_prov = stage(gen_cfg, train_prov["config_sha256"])
    if fresh(synth_dir / "provenance.json", gen_prov,
             synth_dir / "manifest.json", synth_dir / "matrices.f64le"):
        _generate(ckpt_dir, REGIMES, gen_cfg["count_per_regime"],
                  gen_cfg["seed"], synth_dir)
        _write_json(synth_dir / "provenance.json", gen_prov)

    # 4. evaluate
    eval_prov = stage(eval_cfg, corpus_prov["config_sha256"],
                      gen_prov["config_sha256"])
    if fresh(out / "evaluation.json", eval_prov):
        _evaluate(corpus_dir, synth_dir, eval_cfg.get("seed", 0),
                  out / "evaluation.json", eval_prov)

    # 5. monte carlo + findings + attribution (regime sampler, not the GAN)
    mc_prov = stage(cfg["mc"])
    if fresh(out / "shap.json", mc_prov,
             out / "records.ndjson", out / "findings.json"):
        records = _run_mc(mc_config, out / "records.ndjson")
        _write_findings(records, out / "findings.json", mc_prov)
        report, explain = _surrogate_report(records, "outperformance", mc_prov)
        report["example_attribution"] = explain(records[0])
        _write_json(out / "shap.json", report)


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
    s.add_argument("--tol", type=float, default=core.DEFAULT_TOL,
                   help="bound on the dual residual ||diag(X) - 1||_2 / "
                        "sqrt(n) that certifies the result (finite, > 0)")
    s.set_defaults(func=cmd_project)

    s = sub.add_parser("metrics", help="stylized-fact report")
    s.add_argument("--in", required=True)
    s.add_argument("--report", required=True)
    s.add_argument("--q-ratio", type=float, default=DEFAULT_Q_RATIO)
    s.set_defaults(func=cmd_metrics)

    s = sub.add_parser("geometry", help="Fisher-Rao geodesics and means")
    gsub = s.add_subparsers(dest="geom_cmd", required=True)
    g1 = gsub.add_parser("geodesic")
    g1.add_argument("--a", required=True)
    g1.add_argument("--b", required=True)
    g1.add_argument("--t", type=float, required=True)
    g1.add_argument("--out", required=True)
    g1.add_argument("--meta", required=True)
    g1.set_defaults(func=cmd_geodesic)
    g2 = gsub.add_parser("mean")
    g2.add_argument("--method", required=True,
                    choices=["m1", "m2", "m3", "m4", "m5"])
    g2.add_argument("--in", required=True)
    g2.add_argument("--out", required=True)
    g2.add_argument("--meta", required=True)
    g2.set_defaults(func=cmd_mean)

    s = sub.add_parser("corpus", help="build, synthesize or inspect corpora")
    csub = s.add_subparsers(dest="corpus_cmd", required=True)
    c1 = csub.add_parser("build")
    c1.add_argument("--returns", required=True)
    c1.add_argument("--window", type=int, default=252)
    c1.add_argument("--step", type=int, default=21)
    c1.add_argument("--out", required=True)
    c1.set_defaults(func=cmd_corpus_build)
    c2 = csub.add_parser("synth")
    c2.add_argument("--count", type=int, required=True)
    c2.add_argument("--dim", type=int, default=16)
    c2.add_argument("--seed", type=int, default=0)
    c2.add_argument("--out", required=True)
    c2.set_defaults(func=cmd_corpus_synth)
    c3 = csub.add_parser("inspect")
    c3.add_argument("dir")
    c3.set_defaults(func=cmd_corpus_inspect)

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
    m1.set_defaults(func=cmd_mc_run)
    m2 = msub.add_parser("explain")
    m2.add_argument("--records", required=True)
    m2.add_argument("--target", required=True,
                    choices=["outperformance", "decay"])
    m2.add_argument("--report", required=True)
    m2.add_argument("--limit", type=int, default=10)
    m2.set_defaults(func=cmd_mc_explain)
    m3 = msub.add_parser("findings")
    m3.add_argument("--records", required=True)
    m3.add_argument("--report", required=True)
    m3.set_defaults(func=cmd_mc_findings)

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
        args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    except CorrlabError as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
