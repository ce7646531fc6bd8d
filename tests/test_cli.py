import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from corrlab import cli, core, corpus, evaluation, facts, gan, mc
from corrlab.facts import FEATURE_NAMES, feature_vector, stylized_report


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "corrlab.cli", *args],
        capture_output=True,
        text=True,
    )


def write_matrix(path, m):
    with open(path, "w") as fh:
        for row in np.asarray(m):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


class TestExitCodes:
    def test_help(self):
        r = run_cli("--help")
        assert r.returncode == 0
        for cmd in ("sample", "project", "metrics", "geometry", "corpus",
                    "train", "generate", "evaluate", "portfolio", "mc",
                    "repro"):
            assert cmd in r.stdout

    def test_invalid_args(self):
        r = run_cli("sample", "--method", "bogus", "--out", "x")
        assert r.returncode == 2

    def test_data_error(self, tmp_path):
        r = run_cli("corpus", "inspect", str(tmp_path / "missing"))
        assert r.returncode == 3
        assert r.stderr.strip().startswith("error: data:")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(labels=m["labels"][:-1]),
        lambda m: m.pop("payload_sha256"),
        lambda m: m["labels"].__setitem__(0, "bogus"),
    ], ids=["short-labels", "no-payload-sha256", "bad-label"])
    def test_malformed_manifest(self, tmp_path, edit):
        corpus.write_corpus(corpus.build_surrogate(2, 4, seed=0), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        r = run_cli("corpus", "inspect", str(tmp_path))
        assert r.returncode == 3
        assert r.stderr.startswith("error: data:")
        assert r.stderr.count("\n") == 1

    def test_parse_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,abc\n0.5,1.0\n")
        r = run_cli("project", "--in", str(p), "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert r.stderr.startswith("error: data:")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_project_bad_tol(self, tmp_path, tol):
        p = tmp_path / "m.csv"
        write_matrix(p, np.eye(3))
        out = tmp_path / "o.csv"
        r = run_cli("project", "--in", str(p), "--out", str(out),
                    "--tol", tol)
        assert r.returncode == 2
        assert r.stderr.startswith("error: invalid: tol")
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda c: c.pop("mc"),
        lambda c: c["corpus"].pop("dim"),
    ], ids=["no-mc-section", "no-corpus-dim"])
    def test_incomplete_repro_config(self, tmp_path, edit):
        cfg = json.loads(json.dumps(REPRO_CONFIG))
        edit(cfg)
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        r = run_cli("repro", "--config", str(path), "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: invalid: repro config")
        assert r.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda c: c["corpus"].update(count_per_regime=12.0),
        lambda c: c["generate"].update(seed="13"),
        lambda c: c["mc"].update(dim=24.5),
        lambda c: c["mc"].update(t_in="120"),
        lambda c: c["eval"].update(seed=None),
        lambda c: c["gan"].update(epochs=True),
        lambda c: c["gan"].update(learning_rate=0.1),
        lambda c: c["gan"].update(regime_count=4),
    ], ids=["float-corpus-count", "string-generate-seed", "float-mc-dim",
            "string-mc-t-in", "null-eval-seed", "bool-gan-epochs",
            "unknown-gan-key", "gan-regime-count-4"])
    def test_bad_repro_config(self, tmp_path, capsys, edit):
        cfg = json.loads(json.dumps(REPRO_CONFIG))
        edit(cfg)
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["repro", "--config", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid: repro config")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        ("train", {"dim": 16, "epochs": 1, "learning_rate": 0.1}),
        ("train", [16, 1]),
        ("train", {"dim": 16, "epochs": 1, "seed": "7"}),
        ("train", {"dim": 16.0, "epochs": 1}),
        ("train", {"dim": 16, "epochs": 1, "regime_count": 4}),
        ("mc run", [2, 16]),
        ("mc run", {"count_per_regime": 2.5}),
        ("mc run", {"count_per_regime": 2, "dim": "16"}),
        ("mc run", {"count_per_regime": 2, "seed": 1.0}),
        ("mc run", {"count_per_regime": 2, "generator": "checkpoint"}),
        ("mc run", {"count_per_regime": 1, "dim": 8,
                    "checkpoint": "nonexistent_dir"}),
    ], ids=["train-unknown-key", "train-not-object", "train-string-seed",
            "train-float-dim", "train-regime-count-4", "mc-not-object",
            "mc-float-count", "mc-string-dim", "mc-float-seed",
            "mc-no-checkpoint", "mc-checkpoint-without-generator"])
    def test_bad_subcommand_config(self, tmp_path, capsys, command, config):
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=0),
                            tmp_path / "corpus")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        extra = ["--corpus", str(tmp_path / "corpus")] * (command == "train")
        argv = [*command.split(), "--config", str(path), "--out", str(out)]
        assert cli.main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_sample_count_zero(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert cli.main(["sample", "--method", "onion", "--count", "0",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid: count must be >= 1\n"
        assert not out.exists()

    # each argv ends with the flag that names the output
    @pytest.mark.parametrize("argv", [
        lambda d: ["sample", "--method", "spectrum", "--out"],
        lambda d: ["sample", "--method", "spectrum", "--eigenvalues", "1,x",
                   "--out"],
        lambda d: ["generate", "--ckpt", str(d / "ckpt"), "--regime",
                   "normal", "--count", "0", "--out"],
        lambda d: ["mc", "run", "--config", str(d / "mc.json"), "--out"],
        lambda d: ["repro", "--config", str(d / "repro.json"), "--out"],
        lambda d: ["sample", "--method", "onion", "--eta", "nan", "--out"],
        lambda d: ["sample", "--method", "onion", "--eta", "inf", "--out"],
        lambda d: ["sample", "--method", "cvine", "--beta-a", "nan", "--out"],
        lambda d: ["sample", "--method", "spectrum", "--eigenvalues", "nan,1",
                   "--out"],
        lambda d: ["metrics", "--in", str(d / "m.csv"), "--q-ratio", "nan",
                   "--report"],
        lambda d: ["metrics", "--in", str(d / "m.csv"), "--q-ratio", "inf",
                   "--report"],
        # the records file is missing (exit 3 if read): the limit is
        # checked first
        lambda d: ["mc", "explain", "--records", str(d / "none.ndjson"),
                   "--target", "decay", "--limit", "-3", "--report"],
    ], ids=["spectrum-no-eigenvalues", "spectrum-not-numeric",
            "generate-count-zero", "mc-unknown-generator",
            "repro-generate-count-zero", "onion-nan-eta", "onion-inf-eta",
            "cvine-nan-beta", "spectrum-nan-eigenvalue", "metrics-nan-q-ratio",
            "metrics-inf-q-ratio", "explain-negative-limit"])
    def test_rejected_before_writing(self, tmp_path, capsys, argv):
        gan.save_checkpoint(gan.build(gan.GanConfig()), tmp_path / "ckpt")
        (tmp_path / "mc.json").write_text(json.dumps(
            {"count_per_regime": 1, "dim": 8, "generator": "gan"}))
        (tmp_path / "repro.json").write_text(json.dumps(
            with_changes("generate", count_per_regime=0)))
        write_matrix(tmp_path / "m.csv", np.eye(4))
        out = tmp_path / "out"
        assert cli.main(argv(tmp_path) + [str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid:")
        assert err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        lambda p: ["metrics", "--in", str(p), "--report",
                   str(p.parent / "rep.json")],
        lambda p: ["portfolio", "weights", "--method", "hrp", "--cov", str(p)],
    ], ids=["metrics", "portfolio-hrp"])
    def test_non_finite_matrix(self, tmp_path, capsys, argv, bad):
        p = tmp_path / "m.csv"
        p.write_text(f"1,0.2,0.1,0.3\n0.2,1,{bad},0.1\n"
                     f"0.1,{bad},1,0.2\n0.3,0.1,0.2,1\n")
        assert cli.main(argv(p)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("argv", [
        lambda d: ["geometry", "geodesic", "--a", str(d / "a.csv"),
                   "--b", str(d / "b.csv"), "--t", "0.5",
                   "--out", str(d / "out"), "--meta", str(d / "meta.json")],
        lambda d: ["evaluate", "--real", str(d / "real"),
                   "--synth", str(d / "synth"), "--report", str(d / "out")],
    ], ids=["geodesic", "evaluate"])
    def test_mismatched_dims(self, tmp_path, capsys, argv):
        write_matrix(tmp_path / "a.csv", np.eye(2))
        write_matrix(tmp_path / "b.csv", np.eye(3))
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=1),
                            tmp_path / "real")
        corpus.write_corpus(corpus.build_surrogate(2, 8, seed=1),
                            tmp_path / "synth")
        assert cli.main(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid:")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", "b.csv", "real", "synth"]

    @pytest.mark.parametrize("count, code", [(3, 0), (4, 2)])
    def test_checkpoint_regime_count(self, tmp_path, capsys, count, code):
        # checkpoints saved before GanConfig dropped regime_count hold it
        ckpt = tmp_path / "ckpt"
        gan.save_checkpoint(gan.build(gan.GanConfig()), ckpt)
        meta = json.loads((ckpt / "gan.json").read_text())
        meta["config"]["regime_count"] = count
        (ckpt / "gan.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert cli.main(["generate", "--ckpt", str(ckpt), "--regime",
                         "rally", "--count", "2", "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err.startswith(
                "error: invalid: regime_count must be 3")
            assert not out.exists()
        else:
            assert corpus.read_corpus(out).labels() == [
                gan.RegimeLabel.RALLY] * 2

    @staticmethod
    def _checkpoint_argv(tmp_path, command, ckpt, out):
        if command == "generate":
            return ["generate", "--ckpt", str(ckpt), "--regime", "rally",
                    "--count", "1", "--out", str(out)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "count_per_regime": 1, "dim": 16, "t_in": 40, "t_out": 40,
            "generator": "checkpoint", "checkpoint": str(ckpt)}))
        return ["mc", "run", "--config", str(cfg), "--out", str(out)]

    @pytest.mark.parametrize("command", ["generate", "mc run"])
    def test_checkpoint_unknown_config_key(self, tmp_path, capsys, command):
        ckpt = tmp_path / "ckpt"
        gan.save_checkpoint(gan.build(gan.GanConfig()), ckpt)
        meta = json.loads((ckpt / "gan.json").read_text())
        meta["config"]["extra_key"] = 1
        (ckpt / "gan.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        argv = self._checkpoint_argv(tmp_path, command, ckpt, out)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: gan.json config holds unknown "
                              "keys ['extra_key']")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("dim", "16"),
        ("noise_dim", 0),
        ("arch", "rnn"),
        ("epochs", -3),
        ("batch_size", True),
        ("lr_g", "x"),
        ("lr_d", -1),
        ("d_steps_per_g", 0),
        ("seed", 2.0),
    ])
    def test_bad_gan_config_field(self, tmp_path, capsys, field, value):
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=0),
                            tmp_path / "corpus")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim": 16, "epochs": 1, field: value}))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(path), "--corpus",
                         str(tmp_path / "corpus"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid: gan config: {field} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda m: _without(m, "config"),
        lambda m: {**m, "config": [16]},
        lambda m: {**m, "config": {**m["config"], "lr_d": -1}},
        lambda m: {**m, "config": {**m["config"], "epochs": 1.5}},
        lambda m: _without(m, "epoch"),
        lambda m: {**m, "epoch": "0"},
        lambda m: {**m, "epoch": -1},
        lambda m: _without(m, "loss_history"),
        lambda m: {**m, "loss_history": {"0": [0.1, 0.2]}},
        lambda m: {**m, "loss_history": [[0.1, 0.2, 0.3]]},
        lambda m: {**m, "loss_history": [["x", 0.2]]},
        lambda m: _without(m, "mode_collapse_flag"),
        lambda m: {**m, "mode_collapse_flag": 0},
        lambda m: "{not json",
        lambda m: b"\xff\xfe\x00",
        lambda m: [m],
    ], ids=["no-config", "config-not-object", "config-negative-lr",
            "config-float-epochs", "no-epoch", "string-epoch",
            "negative-epoch", "no-loss-history", "loss-history-object",
            "loss-triple", "string-loss", "no-flag", "int-flag",
            "not-json", "not-utf8", "not-object"])
    @pytest.mark.parametrize("command", ["generate", "mc run"])
    def test_corrupt_gan_json(self, tmp_path, capsys, command, edit):
        ckpt = tmp_path / "ckpt"
        gan.save_checkpoint(gan.build(gan.GanConfig()), ckpt)
        meta = edit(json.loads((ckpt / "gan.json").read_text()))
        if isinstance(meta, str):
            meta = meta.encode()
        elif not isinstance(meta, bytes):
            meta = json.dumps(meta).encode()
        (ckpt / "gan.json").write_bytes(meta)
        out = tmp_path / "out"
        assert cli.main(self._checkpoint_argv(tmp_path, command, ckpt,
                                              out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: gan.json ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda m: _without(m, "layers"),
        lambda m: _without(m, "input_shape"),
        lambda m: _without(m, "weights_sha256"),
        lambda m: m["layers"][0].update(n_out="x"),
        lambda m: m["layers"][1].update(alpha=5),
    ], ids=["no-layers", "no-input-shape", "no-weights-sha256",
            "string-n-out", "alpha-5"])
    def test_corrupt_model_json(self, tmp_path, capsys, edit):
        ckpt = tmp_path / "ckpt"
        gan.save_checkpoint(gan.build(gan.GanConfig()), ckpt)
        path = ckpt / "generator" / "model.json"
        model = json.loads(path.read_text())
        path.write_text(json.dumps(edit(model) or model))
        out = tmp_path / "out"
        assert cli.main(["generate", "--ckpt", str(ckpt), "--regime", "rally",
                         "--count", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: model.json ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit, kind", [
        (lambda r: _without(r, "features"), "record is missing features"),
        (lambda r: [r], "line 2: record must be a JSON object"),
        (lambda r: "{not json", "is not JSON"),
        (lambda r: {**r, "schema": 9}, "unsupported record schema 9"),
        (lambda r: {**r, "regime": "calm"}, "record: 'calm'"),
        (lambda r: {**r, "reports": {**r["reports"], "mv": r["reports"]["ew"]}},
         "record reports"),
        (lambda r: {**r, "reports": {**r["reports"], "hrp": {
            **r["reports"]["hrp"], "in_sample_vol": "x"}}}, "record reports"),
        (lambda r: {**r, "features": {**r["features"], "mean_corr": "x"}},
         "record features"),
        (lambda r: {**r, "seed": 1.0}, "record seed"),
    ], ids=["no-features", "list", "not-json", "schema-9", "unknown-regime",
            "unknown-method", "string-report-value", "string-feature",
            "float-seed"])
    def test_malformed_records(self, tmp_path, capsys, edit, kind):
        path = tmp_path / "records.ndjson"
        mc.write_records(mc.run(mc.McConfig(count_per_regime=1, dim=8,
                                            t_in=40, t_out=40)), path)
        lines = path.read_text().splitlines()
        bad = edit(json.loads(lines[1]))
        lines[1] = bad if isinstance(bad, str) else json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        report = tmp_path / "findings.json"
        assert cli.main(["mc", "findings", "--records", str(path),
                         "--report", str(report)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {path} line 2")
        assert kind in err
        assert err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_corpus(self, tmp_path, capsys, bad):
        corpus.write_corpus(corpus.build_surrogate(4, 16, seed=1),
                            tmp_path / "real")
        synth = tmp_path / "synth"
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=2), synth)
        payload = np.fromfile(synth / "matrices.f64le", dtype="<f8")
        payload[256 + 17] = bad  # matrix 1, entry (1, 1)
        payload.tofile(synth / "matrices.f64le")
        manifest = json.loads((synth / "manifest.json").read_text())
        manifest["payload_sha256"] = hashlib.sha256(
            payload.tobytes()).hexdigest()
        (synth / "manifest.json").write_text(json.dumps(manifest))
        report = tmp_path / "eval.json"
        for argv in (["evaluate", "--real", str(tmp_path / "real"),
                      "--synth", str(synth), "--report", str(report)],
                     ["corpus", "inspect", str(synth)]):
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err == ("error: data: payload matrix 1 holds a "
                                    "non-finite entry\n")
            assert captured.out == ""
        assert not report.exists()

    def test_evaluate_one_matrix_per_regime(self, tmp_path, capsys):
        # the holdout takes the only real matrix of each regime
        corpus.write_corpus(corpus.build_surrogate(1, 16, seed=1),
                            tmp_path / "real")
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=2),
                            tmp_path / "synth")
        report = tmp_path / "eval.json"
        assert cli.main(["evaluate", "--real", str(tmp_path / "real"),
                         "--synth", str(tmp_path / "synth"),
                         "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid: the classifier's holdout takes "
                              "all 1 real stressed matrices")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["real", "synth"]


@pytest.mark.parametrize("argv", [
    lambda d: ["project", "--in", str(d / "eye.csv"), "--out"],
    lambda d: ["metrics", "--in", str(d / "eye.csv"), "--report"],
    lambda d: ["mc", "run", "--config", str(d / "mc.json"), "--out"],
], ids=["project", "metrics", "mc-run"])
def test_unwritable_output_exits_3(tmp_path, capsys, argv):
    """An ``--out`` or ``--report`` that names a directory exits 3 with one
    data-error line."""
    write_matrix(tmp_path / "eye.csv", np.eye(4))
    (tmp_path / "mc.json").write_text(json.dumps(
        {"count_per_regime": 1, "dim": 4, "t_in": 6, "t_out": 6}))
    (tmp_path / "out").mkdir()
    assert cli.main(argv(tmp_path) + [str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: data: [Errno 21] Is a directory")
    assert captured.err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


# every file-reading input: its argv, with {tmp} a scratch directory that
# holds valid corpora real/ and synth/ and a checkpoint ckpt/, and each
# file under {tmp} that it reads
FILE_INPUTS = {
    "project": ("project --in {tmp}/in.x --out {tmp}/out", "in.x"),
    "metrics": ("metrics --in {tmp}/in.x --report {tmp}/out", "in.x"),
    "geometry mean": ("geometry mean --method m1 --in {tmp}/in.x "
                      "--out {tmp}/out --meta {tmp}/out", "in.x"),
    "geometry geodesic": ("geometry geodesic --a {tmp}/in.x --b {tmp}/in.x "
                          "--t 0.5 --out {tmp}/out --meta {tmp}/out", "in.x"),
    "portfolio weights": ("portfolio weights --method ivp --cov {tmp}/in.x",
                          "in.x"),
    "corpus build": ("corpus build --returns {tmp}/in.x --out {tmp}/out",
                     "in.x"),
    "train": ("train --config {tmp}/in.x --corpus {tmp}/real "
              "--out {tmp}/out", "in.x"),
    "mc run": ("mc run --config {tmp}/in.x --out {tmp}/out", "in.x"),
    "repro": ("repro --config {tmp}/in.x --out {tmp}/out", "in.x"),
    "mc findings": ("mc findings --records {tmp}/in.x --report {tmp}/out",
                    "in.x"),
    "mc explain": ("mc explain --records {tmp}/in.x --target decay "
                   "--report {tmp}/out", "in.x"),
    "generate": ("generate --ckpt {tmp}/ckpt --regime rally --count 1 "
                 "--out {tmp}/out", "ckpt/gan.json",
                 "ckpt/generator/model.json",
                 "ckpt/discriminator/weights.f32le"),
    "evaluate": ("evaluate --real {tmp}/real --synth {tmp}/synth "
                 "--report {tmp}/out", "real/manifest.json",
                 "synth/manifest.json"),
    "corpus inspect": ("corpus inspect {tmp}/real", "real/manifest.json",
                       "real/matrices.f64le"),
}
UNREADABLE = [
    pytest.param(command, target, how, id=f"{command} {target} {how}")
    for command, (_, *targets) in FILE_INPUTS.items() for target in targets
    for how in ("missing", "directory", "not-utf8")
    # a binary payload is never decoded as text
    if not (target.endswith("le") and how == "not-utf8")
]


@pytest.mark.parametrize("command, target, how", UNREADABLE)
def test_unreadable_input_exits_3(tmp_path, capsys, command, target, how):
    """A missing file, a directory or a file that is not UTF-8 text, in
    place of any file the command line reads, exits 3 with one line that
    names the file, and writes nothing."""
    for name in ("real", "synth"):
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=0),
                            tmp_path / name)
    gan.save_checkpoint(gan.build(gan.GanConfig()), tmp_path / "ckpt")
    path = tmp_path / target
    path.unlink(missing_ok=True)
    if how == "directory":
        path.mkdir()
    elif how == "not-utf8":
        path.write_bytes(b"\xff\xfe\x00 not UTF-8")
    argv = [arg.format(tmp=tmp_path) for arg in
            FILE_INPUTS[command][0].split()]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: data:")
    assert captured.err.count("\n") == 1
    assert path.name in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_import_loads_no_scipy():
    # no module of the program imports scipy, so the CLI starts without
    # paying for it; and numpy is its one runtime dependency: every module
    # the import adds to a bare interpreter (whose site hooks may already
    # load packages of their own) is corrlab's, numpy's or the stdlib's
    def loaded(imports):
        code = f"import {imports}; print(' '.join(sys.modules))"
        return set(subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True,
                                  check=True).stdout.split())

    after = loaded("sys, corrlab.cli")
    assert "scipy" not in {m.split(".")[0] for m in after}
    added = {m.split(".")[0] for m in after - loaded("sys")}
    assert "corrlab" in added
    assert added - {"corrlab", "numpy"} <= set(sys.stdlib_module_names)


def test_repro_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a whole repro, exact W2 included,
    # runs with every scipy import refused, and writes the same bytes
    cfg = with_changes("gan", epochs=1)
    cfg["corpus"]["count_per_regime"] = 6
    cfg["generate"]["count_per_regime"] = 3
    cfg["mc"]["t_in"] = cfg["mc"]["t_out"] = 60
    repro(tmp_path, cfg, tmp_path / "ref")
    code = """if True:
        import sys
        from importlib.abc import MetaPathFinder

        class NoScipy(MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} refused")

        sys.meta_path.insert(0, NoScipy())
        from corrlab import cli
        sys.exit(cli.main(sys.argv[1:]))
    """
    out = tmp_path / "out"
    r = subprocess.run([sys.executable, "-c", code, "repro", "--config",
                        str(tmp_path / "repro.json"), "--out", str(out)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert tree(out) == tree(tmp_path / "ref")


def test_repro_bytes_do_not_depend_on_blas_threads(tmp_path):
    # A12 holds across BLAS thread counts, not only across --threads: one
    # process pinned to one BLAS thread, one given every core (at least 2)
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(REPRO_CONFIG))
    trees = []
    for threads in ("1", str(max(2, len(os.sched_getaffinity(0))))):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"blas-{threads}"
        r = subprocess.run(
            [sys.executable, "-m", "corrlab.cli", "repro", "--config",
             str(path), "--out", str(out), "--force"],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        trees.append(tree(out))
    assert len(trees[0]) == 16
    assert trees[0] == trees[1]


class TestSampleAndInspect:
    def test_sample_writes_container(self, tmp_path):
        out = tmp_path / "c"
        r = run_cli("sample", "--method", "onion", "--dim", "6",
                    "--count", "3", "--seed", "1", "--out", str(out))
        assert r.returncode == 0
        corp = corpus.read_corpus(out)
        assert len(corp) == 3
        assert corp.dim == 6
        prov = corp.meta["provenance"]
        assert prov["tool"] == "corrlab"
        assert len(prov["config_sha256"]) == 64

    def test_inspect_reports_counts(self, tmp_path):
        out = tmp_path / "c"
        run_cli("corpus", "synth", "--count", "2", "--dim", "8",
                "--seed", "0", "--out", str(out))
        r = run_cli("corpus", "inspect", str(out))
        assert r.returncode == 0
        info = json.loads(r.stdout)
        assert info["count"] == 6
        assert info["labels"] == {"stressed": 2, "normal": 2, "rally": 2}


class TestProject:
    def test_projects_to_valid(self, tmp_path):
        from corrlab.core import validate
        m = np.array([[1.0, 0.95, -0.6], [0.95, 1.0, 0.8], [-0.6, 0.8, 1.0]])
        write_matrix(tmp_path / "m.csv", m)
        r = run_cli("project", "--in", str(tmp_path / "m.csv"),
                    "--out", str(tmp_path / "o.csv"))
        assert r.returncode == 0
        out = cli._read_matrix_csv(tmp_path / "o.csv")
        assert validate(out).is_valid

    def test_matrix_csv_reads_any_line_end(self, tmp_path):
        (tmp_path / "m.csv").write_bytes(b"1,0.5\r0.5,1\r\n\n")
        got = cli._read_matrix_csv(tmp_path / "m.csv")
        assert got.tolist() == [[1.0, 0.5], [0.5, 1.0]]


class TestMetrics:
    def test_report_written(self, tmp_path):
        out = tmp_path / "c"
        run_cli("corpus", "synth", "--count", "2", "--dim", "8",
                "--seed", "3", "--out", str(out))
        rep = tmp_path / "rep.json"
        r = run_cli("metrics", "--in", str(out), "--report", str(rep))
        assert r.returncode == 0
        data = json.loads(rep.read_text())
        assert len(data["records"]) == 6
        assert "sf1_mean_offdiag_mean" in data["aggregate"]
        assert data["provenance"]["version"]


class TestGeometryCli:
    def test_geodesic_and_mean(self, tmp_path):
        a = np.array([[1.0, 0.75], [0.75, 1.0]])
        b = np.array([[1.0, -0.75], [-0.75, 1.0]])
        write_matrix(tmp_path / "a.csv", a)
        write_matrix(tmp_path / "b.csv", b)
        r = run_cli("geometry", "geodesic", "--a", str(tmp_path / "a.csv"),
                    "--b", str(tmp_path / "b.csv"), "--t", "0.5",
                    "--out", str(tmp_path / "mid.csv"),
                    "--meta", str(tmp_path / "mid.json"))
        assert r.returncode == 0
        mid = cli._read_matrix_csv(tmp_path / "mid.csv")
        assert mid[0, 0] == pytest.approx(0.661438, abs=1e-6)
        meta = json.loads((tmp_path / "mid.json").read_text())
        assert meta["max_diag_dev"] == pytest.approx(0.338562, abs=1e-6)


class TestPortfolioCli:
    def test_weights_stdout(self, tmp_path):
        write_matrix(tmp_path / "cov.csv", np.diag([1.0, 2.0, 4.0]))
        r = run_cli("portfolio", "weights", "--method", "ivp",
                    "--cov", str(tmp_path / "cov.csv"))
        assert r.returncode == 0
        w = [float(x) for x in r.stdout.strip().split(",")]
        assert w == pytest.approx([4 / 7, 2 / 7, 1 / 7])


class TestMcCli:
    def test_run_and_findings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "count_per_regime": 2, "dim": 16, "t_in": 40, "t_out": 40,
            "seed": 5,
        }))
        rec = tmp_path / "r.ndjson"
        r = run_cli("mc", "run", "--config", str(cfg), "--out", str(rec))
        assert r.returncode == 0
        assert len(rec.read_text().strip().splitlines()) == 6
        rep = tmp_path / "f.json"
        r = run_cli("mc", "findings", "--records", str(rec),
                    "--report", str(rep))
        assert r.returncode == 0
        data = json.loads(rep.read_text())
        assert set(data["findings"]) == {"stressed", "normal", "rally"}

    def test_checkpoint_generator_uses_master_seed(self, tmp_path):
        ckpt = gan.build(gan.GanConfig(dim=16, seed=1))
        # shrink the output layer so every sample lies inside the elliptope
        # and no simulation is skipped
        ckpt.generator.layers[-2].w *= 0.05
        gan.save_checkpoint(ckpt, tmp_path / "ckpt")

        def features(seed):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "count_per_regime": 2, "dim": 16, "t_in": 40, "t_out": 40,
                "seed": seed, "generator": "checkpoint",
                "checkpoint": str(tmp_path / "ckpt"),
            }))
            rec = tmp_path / f"r{seed}.ndjson"
            assert cli.main(["mc", "run", "--config", str(cfg),
                             "--out", str(rec)]) == 0
            return [json.loads(line)["features"]
                    for line in rec.read_text().splitlines()]

        first = features(5)
        assert len(first) == 6
        assert features(5) == first
        assert features(6) != first


REPRO_CONFIG = {
    "seed": 7,
    "corpus": {"count_per_regime": 12, "dim": 16, "seed": 7},
    "gan": {"dim": 16, "epochs": 3, "seed": 7, "batch_size": 8},
    "generate": {"count_per_regime": 4, "seed": 13},
    "eval": {"seed": 3},
    "mc": {"count_per_regime": 30, "dim": 24, "t_in": 120, "t_out": 120,
           "seed": 11},
}


def with_changes(section, **changes):
    cfg = json.loads(json.dumps(REPRO_CONFIG))
    cfg[section].update(changes)
    return cfg


def repro(tmp_path, cfg, out, *flags):
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["repro", "--config", str(path), "--out", str(out),
                     *flags]) == 0


def tree(out):
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def refuse(*_args, **_kwargs):
    raise AssertionError("a cached stage was rebuilt or read back")


def count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestReproCache:
    def test_mc_seed_rerun_equals_forced_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        repro(tmp_path, REPRO_CONFIG, out)
        b = with_changes("mc", seed=12)
        for module, name in ((gan, "train"), (gan, "load_checkpoint"),
                             (gan, "sample"), (corpus, "build_surrogate"),
                             (corpus, "read_corpus"),
                             (evaluation, "classifier_fidelity")):
            monkeypatch.setattr(module, name, refuse)
        repro(tmp_path, b, out)
        monkeypatch.undo()
        repro(tmp_path, b, tmp_path / "forced", "--force")
        cached, forced = tree(out), tree(tmp_path / "forced")
        assert len(forced) == 16
        assert cached == forced

    def test_gan_change_keeps_corpus(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        repro(tmp_path, REPRO_CONFIG, out)
        monkeypatch.setattr(corpus, "build_surrogate", refuse)
        monkeypatch.setattr(cli.mc, "run", refuse)
        calls = {}
        for module, name in ((gan, "train"), (gan, "sample"),
                             (evaluation, "classifier_fidelity")):
            count_calls(monkeypatch, module, name, calls)
        repro(tmp_path, with_changes("gan", epochs=4), out)
        assert calls == {"train": 1, "sample": 3, "classifier_fidelity": 1}

    def test_interrupted_rebuild_is_redone(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        repro(tmp_path, REPRO_CONFIG, out)

        def interrupt(*_args, **_kwargs):
            raise RuntimeError("interrupted")

        # the study's records are rewritten, its shap.json marker is not
        monkeypatch.setattr(cli.mc, "regime_findings", interrupt)
        with pytest.raises(RuntimeError):
            repro(tmp_path, with_changes("mc", seed=12), out)
        monkeypatch.undo()
        repro(tmp_path, REPRO_CONFIG, out)
        repro(tmp_path, REPRO_CONFIG, tmp_path / "forced", "--force")
        assert tree(out) == tree(tmp_path / "forced")

    @pytest.mark.parametrize("name", [
        "records.ndjson", "findings.json", "corpus/matrices.f64le",
    ])
    def test_missing_output_is_rebuilt(self, tmp_path, name):
        out = tmp_path / "out"
        repro(tmp_path, REPRO_CONFIG, out)
        before = tree(out)
        (out / name).unlink()
        repro(tmp_path, REPRO_CONFIG, out)
        assert tree(out) == before

    @pytest.mark.parametrize("damage", ["deleted", "garbled"])
    def test_bad_checkpoint_marker_retrains(self, tmp_path, monkeypatch,
                                            damage):
        out = tmp_path / "out"
        repro(tmp_path, REPRO_CONFIG, out)
        before = tree(out)
        marker = out / "ckpt" / "provenance.json"
        if damage == "deleted":
            marker.unlink()
        else:
            marker.write_text('{"config_sha256": ')
        monkeypatch.setattr(corpus, "build_surrogate", refuse)
        calls = {}
        count_calls(monkeypatch, gan, "train", calls)
        repro(tmp_path, REPRO_CONFIG, out)
        assert calls == {"train": 1}
        assert tree(out) == before

    def test_checkpoint_of_older_version_retrains(self, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out"
        repro(tmp_path, REPRO_CONFIG, out)
        before = tree(out)
        marker = out / "ckpt" / "provenance.json"
        prov = json.loads(marker.read_text())
        assert prov["version"] == cli.__version__ != "0.1.0"
        marker.write_text(json.dumps({**prov, "version": "0.1.0"}))
        monkeypatch.setattr(corpus, "build_surrogate", refuse)
        calls = {}
        count_calls(monkeypatch, gan, "train", calls)
        repro(tmp_path, REPRO_CONFIG, out)
        assert calls == {"train": 1}
        assert tree(out) == before


def provenance_of(argv, seed):
    """The provenance block a subcommand records for its own arguments."""
    args = cli.build_parser().parse_args(argv)
    return cli._provenance(cli._args_bytes(args), seed)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """``repro`` on REPRO_CONFIG, and the same stages run one subcommand at
    a time on its sections: (repro --out, subcommand dir, argv, exit code)."""
    base = tmp_path_factory.mktemp("pipeline")
    repro(base, REPRO_CONFIG, base / "repro")
    sub = base / "sub"
    sub.mkdir()
    (sub / "gan.json").write_text(json.dumps(REPRO_CONFIG["gan"]))
    (sub / "mc.json").write_text(json.dumps(REPRO_CONFIG["mc"]))
    c, g = REPRO_CONFIG["corpus"], REPRO_CONFIG["generate"]

    def generate(regime, out, *flags):
        return ["generate", "--ckpt", sub / "ckpt", "--regime", regime,
                "--count", g["count_per_regime"], "--seed", g["seed"],
                "--out", sub / out, *flags]

    argvs = {
        "synth": ["corpus", "synth", "--count", c["count_per_regime"],
                  "--dim", c["dim"], "--seed", c["seed"],
                  "--out", sub / "corpus"],
        "train": ["train", "--corpus", sub / "corpus",
                  "--config", sub / "gan.json", "--out", sub / "ckpt"],
        **{f"generate-{r.value}": generate(r.value, f"synth-{r.value}")
           for r in gan.REGIMES},
        "generate-raw": generate("stressed", "raw", "--no-project"),
        "evaluate": ["evaluate", "--real", sub / "corpus",
                     "--synth", sub / "synth-stressed",
                     "--report", sub / "eval.json", "--seed", 3],
        "mc-run": ["mc", "run", "--config", sub / "mc.json",
                   "--out", sub / "records.ndjson"],
        "mc-findings": ["mc", "findings", "--records", sub / "records.ndjson",
                        "--report", sub / "findings.json"],
        "mc-explain": ["mc", "explain", "--records", sub / "records.ndjson",
                       "--target", "outperformance",
                       "--report", sub / "explain.json", "--limit", 3],
    }
    argvs = {name: [str(a) for a in argv] for name, argv in argvs.items()}
    codes = {name: cli.main(argv) for name, argv in argvs.items()}
    return base / "repro", sub, argvs, codes


class TestPipelineSubcommands:
    def test_every_subcommand_exits_0(self, pipeline):
        _, _, argvs, codes = pipeline
        assert codes == {name: 0 for name in argvs}

    def test_train_matches_repro_checkpoint(self, pipeline):
        out, sub, _, _ = pipeline
        ours, theirs = tree(sub / "ckpt"), tree(out / "ckpt")
        assert ours.pop(Path("provenance.json")) != theirs.pop(
            Path("provenance.json"))
        assert len(ours) > 2
        assert ours == theirs
        ours = gan.load_checkpoint(sub / "ckpt")
        theirs = gan.load_checkpoint(out / "ckpt")
        assert ours.generator.weight_bytes() == theirs.generator.weight_bytes()
        assert (ours.discriminator.weight_bytes()
                == theirs.discriminator.weight_bytes())
        config_bytes = (sub / "gan.json").read_bytes()
        assert json.loads((sub / "ckpt" / "provenance.json").read_text()) == {
            "tool": "corrlab", "version": cli.__version__,
            "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
            "seed": REPRO_CONFIG["gan"]["seed"],
        }

    def test_generate_matches_repro_synth(self, pipeline):
        out, sub, argvs, _ = pipeline
        synth = corpus.read_corpus(out / "synth")
        assert synth.meta == {"generated": True}
        seed = REPRO_CONFIG["generate"]["seed"]
        for regime in gan.REGIMES:
            ours = corpus.read_corpus(sub / f"synth-{regime.value}")
            assert ours.meta == {
                "generated": True, "regime": regime.value, "seed": seed,
                "projected": True, "untrained_warning": False,
                "provenance": provenance_of(argvs[f"generate-{regime.value}"],
                                            seed),
            }
            theirs = [it for it in synth.items if it.label == regime]
            assert len(ours.items) == len(theirs) == 4
            for a, b in zip(ours.items, theirs):
                assert a.label == regime
                assert np.array_equal(a.matrix, b.matrix)
                assert a.meta == b.meta

    def test_generate_no_project(self, pipeline):
        _, sub, argvs, _ = pipeline
        raw = corpus.read_corpus(sub / "raw")
        projected = corpus.read_corpus(sub / "synth-stressed")
        assert raw.meta["projected"] is False
        assert raw.meta["provenance"] == provenance_of(
            argvs["generate-raw"], REPRO_CONFIG["generate"]["seed"])
        for r, p in zip(raw.items, projected.items, strict=True):
            assert r.meta == {"displacement": 0.0}
            assert np.array_equal(r.matrix, r.matrix.T)
            assert np.all(np.diag(r.matrix) == 1.0)
            assert np.array_equal(core.nearest_correlation(r.matrix), p.matrix)
            assert p.meta["displacement"] == pytest.approx(
                np.linalg.norm(p.matrix - r.matrix, ord="fro"), abs=1e-12)

    def test_evaluate_report_and_clouds(self, pipeline):
        _, sub, argvs, _ = pipeline
        report = json.loads((sub / "eval.json").read_text())
        assert set(report) == {"distance_stats", "classifier",
                               "stylized_facts", "provenance"}
        assert report["provenance"] == provenance_of(argvs["evaluate"], 3)
        real_cloud = cli._read_matrix_csv(sub / "eval_real_cloud.csv")
        synth_cloud = cli._read_matrix_csv(sub / "eval_synth_cloud.csv")
        assert real_cloud.shape == (36, 2)
        assert synth_cloud.shape == (4, 2)
        # the synthetic corpus holds one regime, so only it is compared
        real = corpus.read_corpus(sub / "corpus").matrices(gan.REGIMES[0])
        synth = corpus.read_corpus(sub / "synth-stressed").matrices(
            gan.REGIMES[0])
        assert report["stylized_facts"] == {"stressed": {
            "sf1_real": float(np.mean(
                [stylized_report(m).sf1_mean_offdiag for m in real])),
            "sf1_synth": float(np.mean(
                [stylized_report(m).sf1_mean_offdiag for m in synth])),
            "sf2_real": float(np.mean(
                [stylized_report(m).sf2_top_eig_share for m in real])),
            "sf2_synth": float(np.mean(
                [stylized_report(m).sf2_top_eig_share for m in synth])),
        }}

    def test_mc_subcommands_match_repro(self, pipeline):
        out, sub, argvs, _ = pipeline
        assert ((sub / "records.ndjson").read_bytes()
                == (out / "records.ndjson").read_bytes())
        findings = json.loads((sub / "findings.json").read_text())
        assert findings["provenance"] == provenance_of(argvs["mc-findings"],
                                                       None)
        assert findings["findings"] == json.loads(
            (out / "findings.json").read_text())["findings"]
        explain = json.loads((sub / "explain.json").read_text())
        shap = json.loads((out / "shap.json").read_text())
        assert explain["provenance"] == provenance_of(argvs["mc-explain"],
                                                      None)
        for key in ("target", "r2", "coefficients"):
            assert explain[key] == shap[key]
        records = mc.read_records(sub / "records.ndjson")
        attributions = explain["attributions"]
        assert [a.pop("regime") for a in attributions] == [
            r.regime.value for r in records[:3]]
        assert attributions[0] == shap["example_attribution"]
        for a in attributions:
            assert list(a["phi"]) == sorted(FEATURE_NAMES)
            assert a["baseline"] + sum(a["phi"].values()) == pytest.approx(
                a["prediction"], abs=1e-9)


def test_evaluate_computes_features_once_per_matrix(tmp_path, monkeypatch):
    """The evaluate stage reads its per-regime facts from the classifier's
    features: one ``feature_vector`` call per matrix, no ``stylized_report``."""
    real, synth = tmp_path / "real", tmp_path / "synth"
    corpus.write_corpus(corpus.build_surrogate(6, 16, seed=7), real)
    corpus.write_corpus(corpus.build_surrogate(2, 16, seed=8), synth)
    seen = Counter()

    def counted(c):
        seen[np.asarray(c).tobytes()] += 1
        return feature_vector(c)

    for name, fn in (("feature_vector", counted), ("stylized_report", refuse)):
        original = getattr(facts, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("corrlab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, fn)
    assert cli.main(["evaluate", "--real", str(real), "--synth", str(synth),
                     "--report", str(tmp_path / "eval.json")]) == 0
    mats = corpus.read_corpus(real).matrices() + corpus.read_corpus(
        synth).matrices()
    assert seen == Counter(m.tobytes() for m in mats)
    assert max(seen.values()) == 1


class TestConfigRules:
    """A config, checkpoint or records file that no stage can run on exits
    2 or 3 with one line, before anything is written."""

    MC = {"count_per_regime": 1, "dim": 16, "t_in": 40, "t_out": 40}

    @pytest.mark.parametrize("command, config, message", [
        ("mc run", {**MC, "dim": 3},
         "mc config: dim must be an integer >= 4, not 3"),
        ("mc run", {**MC, "t_in": 17},
         "mc config: t_in must be an integer >= 18, not 17"),
        ("mc run", {**MC, "t_out": 2},
         "mc config: t_out must be an integer >= 18, not 2"),
        ("mc run", {**MC, "count_per_regim": 9},
         "mc config holds unknown keys ['count_per_regim']"),
        ("mc run", {**MC, "dim": 24, "generator": "checkpoint",
                    "checkpoint": "ckpt"},
         "checkpoint dim 16 != mc config dim 24"),
        ("repro", with_changes("mc", dim=3),
         "repro config 'mc': dim must be an integer >= 4, not 3"),
        ("train", {"dim": 16, "lr_g": 10**400},
         "gan config: lr_g must be a finite number > 0, not 1000"),
        ("repro", with_changes("gan", lr_d=10**400),
         "repro config 'gan': lr_d must be a finite number > 0, not 1000"),
        ("repro", with_changes("gan", dim=20),
         "repro config 'gan' dim 20 != corpus dim 16"),
    ], ids=["mc-dim-3", "mc-t-in-below-dim-plus-2", "mc-t-out-2",
            "mc-unknown-key", "mc-checkpoint-dim", "repro-mc-dim-3",
            "train-huge-lr", "repro-huge-lr", "repro-gan-dim-not-corpus-dim"])
    def test_refused_before_writing(self, tmp_path, monkeypatch, capsys,
                                    command, config, message):
        monkeypatch.chdir(tmp_path)  # "ckpt" and "corpus" are relative
        gan.save_checkpoint(gan.build(gan.GanConfig()), "ckpt")
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=0), "corpus")
        Path("cfg.json").write_text(json.dumps(config))
        argv = [*command.split(), "--config", "cfg.json", "--out", "out"]
        assert cli.main(argv + ["--corpus", "corpus"] * (command == "train")
                        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid: {message}")
        assert err.count("\n") == 1
        assert not Path("out").exists()

    def test_train_checks_corpus_before_building(self, tmp_path, capsys,
                                                 monkeypatch):
        # a network's size grows with dim^2: a wrong dim is refused before
        # the networks are allocated
        corpus.write_corpus(corpus.build_surrogate(2, 16, seed=0),
                            tmp_path / "corpus")
        (tmp_path / "gan.json").write_text(json.dumps({"dim": 400}))
        monkeypatch.setattr(gan, "build", refuse)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(tmp_path / "gan.json"),
                         "--corpus", str(tmp_path / "corpus"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid: corpus dim 16 != config dim 400\n"
        assert not out.exists()

    def test_checkpoint_networks_match_gan_json(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        gan.save_checkpoint(gan.build(gan.GanConfig()), ckpt)
        meta = json.loads((ckpt / "gan.json").read_text())
        meta["config"]["noise_dim"] = 65
        (ckpt / "gan.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert cli.main(["generate", "--ckpt", str(ckpt), "--regime", "rally",
                         "--count", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("error: data: gan.json config gives shapes ((68,), "
                       "(120,), (123,)), the networks ((67,), (120,), "
                       "(123,))\n")
        assert not out.exists()

    def test_explain_empty_records(self, tmp_path, capsys):
        records = tmp_path / "r.ndjson"
        records.write_text("")
        report = tmp_path / "explain.json"
        assert cli.main(["mc", "explain", "--records", str(records),
                         "--target", "decay", "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: invalid: need at least 80 records for 8 "
                       "features, got 0\n")
        assert not report.exists()
