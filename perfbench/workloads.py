"""The four benchmark workloads.

Each workload has a ``setup(seed, work)`` that builds every input from the
seed and a ``run(inputs, seconds, tracer)`` that drives the program in a
closed loop from this one process (each op starts when the previous one
returned) until ``seconds`` have passed, checks every output and returns
an :class:`Outcome`.  Ops are grouped into rounds; the tracer's root span
is one round.  See ``README.md`` in this directory for why each workload
exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from corrlab import cli, corpus, gan, geometry, mc, rng, samplers
from corrlab import core
from corrlab.exceptions import ConvergenceFailure, CorrlabError, TrainingDiverged

# mc and repro use one worker per core the process may run on
THREADS = len(os.sched_getaffinity(0))
REGIMES = tuple(samplers.RegimeLabel)


@dataclass
class Outcome:
    latencies_s: list = field(default_factory=list)  # ops timed one by one
    rounds: list = field(default_factory=list)  # (ops completed, seconds)
    attempted: int = 0
    failed: int = 0  # raised an unexpected error or returned a wrong output
    # completed, but the program itself reported it unconverged
    # (``converged=False`` or ``ConvergenceFailure``); not a failure
    uncertified: int = 0
    # False once an output fails its check
    correct: bool = True
    digest: str = ""
    extra: dict = field(default_factory=dict)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else json.dumps(c, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# mc: the paper's HRP-vs-IVP Monte Carlo study


MC_DIM = 24
MC_PER_REGIME = 30  # fit_surrogate needs 10 records per feature
MC_EXPLAIN = 10  # records explained per study, as `mc explain` does by default


def mc_setup(seed, work):
    return {"seed": seed}


def mc_run(inputs, seconds, tracer):
    """One round is one study: ``mc.run`` over the three regimes, then
    findings, the surrogate fit and Shapley values for a fixed number of
    records.  One op is one simulation.

    Each simulation is timed through ``generator_fn``, which ``mc.run``
    calls as a simulation starts: a simulation ends when its worker
    thread asks for the next matrix, or when ``mc.run`` returns.
    """
    out = Outcome()
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        config = mc.McConfig(
            count_per_regime=MC_PER_REGIME, dim=MC_DIM, t_in=252, t_out=252,
            seed=rng.mix(inputs["seed"], k),
        )
        starts = []

        def generator_fn(regime, stream, config=config, starts=starts):
            starts.append((threading.get_ident(), perf_counter()))
            return samplers.sample_regime(
                regime, config.dim, seed=config.seed, stream=stream
            )

        log = io.StringIO()
        t0 = perf_counter()
        with tracer.round(k), redirect_stdout(log):
            records = mc.run(config, generator_fn=generator_fn, threads=THREADS)
            t_run = perf_counter()
            try:
                findings = mc.regime_findings(records)
                model = mc.fit_surrogate(records, target="outperformance")
                bg = mc.design_matrix(records)
                atts = [
                    mc.shapley(model, r.features.to_array(), bg)
                    for r in records[:MC_EXPLAIN]
                ]
            except CorrlabError:
                findings = None  # the surrogate fit refused these records
        wall = perf_counter() - t0

        per_thread = {}
        for ident, t in starts:
            per_thread.setdefault(ident, []).append(t)
        for ts in per_thread.values():
            ts.sort()
            out.latencies_s += [b - a for a, b in zip(ts, ts[1:] + [t_run])]

        attempted = config.count_per_regime * len(config.regimes)
        skipped = log.getvalue().count(" skipped: ")
        bad = sum(
            1 for r in records
            if not all(np.isfinite(r.reports[m].out_sample_vol)
                       for m in ("hrp", "ivp", "ew"))
        )
        out.correct &= len(records) + skipped == attempted and bad == 0
        if findings is None:
            failed = attempted
        else:
            failed = attempted - len(records) + bad
            out.correct &= set(findings) == {r.value for r in REGIMES} and all(
                abs(a.phi.sum() - (a.prediction - a.baseline)) < 1e-9
                for a in atts
            )
        out.attempted += attempted
        out.failed += failed
        out.rounds.append((attempted - failed, wall))
        if k == 0:
            out.digest = _sha([r.to_json() for r in records], findings)
        k += 1
    out.extra["studies"] = k
    return out


# ---------------------------------------------------------------------------
# gan: dense conditional GAN training, one op per epoch


GAN_DIM = 16
GAN_PER_REGIME = 300
GAN_ROUND_EPOCHS = 10
GAN_DIGEST_EPOCHS = 20


class _Stop(Exception):
    """Raised from the progress callback once the run's time is up."""


def gan_setup(seed, work):
    corp = corpus.build_surrogate(GAN_PER_REGIME, GAN_DIM, seed=seed)
    config = gan.GanConfig(dim=GAN_DIM, arch="dense", epochs=10**9, seed=seed)
    return {"corpus": corp, "ckpt": gan.build(config)}


def gan_run(inputs, seconds, tracer):
    """Train until time is up; each epoch is timed by the public
    ``progress`` callback, which ``gan.train`` calls once per epoch after
    its mode-collapse guard."""
    out = Outcome()
    ckpt = inputs["ckpt"]
    first = len(ckpt.loss_history)  # a traced run continues the same training
    stamps = []

    def progress(epoch, losses, sf1):
        stamps.append(perf_counter())
        if stamps[-1] >= deadline:
            raise _Stop

    diverged = False
    with tracer.round(0):
        t0 = perf_counter()
        deadline = t0 + seconds
        try:
            gan.train(ckpt, inputs["corpus"], progress=progress)
        except _Stop:
            pass
        except TrainingDiverged:
            diverged = True
    times = [t0] + stamps
    out.latencies_s = [b - a for a, b in zip(times, times[1:])]
    history = ckpt.loss_history[first:]
    ok = [bool(np.all(np.isfinite(h))) for h in history]
    if len(history) != len(stamps):
        ok = [False] * len(stamps)
    out.attempted = len(stamps) + int(diverged)
    out.failed = ok.count(False) + int(diverged)
    out.correct = all(ok)
    lat = out.latencies_s
    for i in range(0, len(lat) - GAN_ROUND_EPOCHS + 1, GAN_ROUND_EPOCHS):
        done = sum(ok[i:i + GAN_ROUND_EPOCHS])
        out.rounds.append((done, sum(lat[i:i + GAN_ROUND_EPOCHS])))
    out.digest = _sha([list(h) for h in history[:GAN_DIGEST_EPOCHS]])
    out.extra["epochs"] = len(stamps)
    out.extra["mode_collapse_flag"] = ckpt.mode_collapse_flag
    return out


# ---------------------------------------------------------------------------
# repro: the whole pipeline through the CLI, cold and rerun


REPRO_OUTPUTS = ("evaluation.json", "findings.json", "shap.json")
CORPUS_DATA = ("manifest.json", "matrices.f64le")


def repro_config(seed, mc_seed):
    # the acceptance-test (A12) sizes, with enough epochs that training is
    # about half of a cold run, as it is at the acceptance config
    return {
        "seed": seed,
        "corpus": {"count_per_regime": 12, "dim": 16, "seed": seed},
        "gan": {"dim": 16, "epochs": 200, "seed": seed, "batch_size": 8},
        "generate": {"count_per_regime": 4, "seed": seed + 1},
        "eval": {"seed": seed + 2},
        "mc": {"count_per_regime": 30, "dim": 24, "t_in": 120,
               "t_out": 120, "seed": mc_seed},
    }


def repro_setup(seed, work):
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return {"seed": seed, "config": work / "repro.json", "out": work / "repro-out"}


def _repro(inputs, mc_seed):
    """One ``corrlab repro`` in this process; returns (seconds, exit code)."""
    inputs["config"].write_text(json.dumps(repro_config(inputs["seed"], mc_seed)))
    argv = ["repro", "--config", str(inputs["config"]),
            "--out", str(inputs["out"]), "--threads", str(THREADS)]
    with redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        return perf_counter() - t0, code


def _repro_check(out_dir, code, corpus_bytes):
    """(ok, correct): a non-zero exit code fails the op; exit code 0 with
    outputs that do not parse, or a changed corpus, also makes the run
    incorrect."""
    if code != 0:
        return False, True
    try:
        for name in REPRO_OUTPUTS:
            json.loads((out_dir / name).read_text())
    except (OSError, ValueError):
        return False, False
    same = corpus_bytes is None or _corpus_bytes(out_dir) == corpus_bytes
    return same, same


def _corpus_bytes(out_dir):
    # corpus/provenance.json records the hash of the whole config, which a
    # rerun changes; the corpus itself is manifest plus payload
    return [(out_dir / "corpus" / f).read_bytes() for f in CORPUS_DATA]


def repro_run(inputs, seconds, tracer):
    """Round 0 is a cold run into an empty ``--out``; every later round
    reruns into the same ``--out`` after changing only ``mc.seed``."""
    out = Outcome()
    shutil.rmtree(inputs["out"], ignore_errors=True)
    with tracer.round(0):
        cold_s, code = _repro(inputs, mc_seed=rng.mix(inputs["seed"], 0))
    cold_ok, out.correct = _repro_check(inputs["out"], code, None)
    out.extra["cold_s"] = cold_s
    out.extra["cold_ok"] = cold_ok
    corpus_bytes = _corpus_bytes(inputs["out"]) if cold_ok else None
    out.digest = _sha(*(
        p.relative_to(inputs["out"]).as_posix().encode() + p.read_bytes()
        for p in sorted(inputs["out"].rglob("*")) if p.is_file()
    ))
    deadline = perf_counter() + seconds
    k = 1
    while k == 1 or perf_counter() < deadline:
        with tracer.round(k):
            seconds_k, code = _repro(inputs, mc_seed=rng.mix(inputs["seed"], k))
        ok, correct = _repro_check(inputs["out"], code, corpus_bytes)
        out.correct &= correct
        out.latencies_s.append(seconds_k)
        out.rounds.append((int(ok), seconds_k))
        out.attempted += 1
        out.failed += int(not ok)
        k += 1
    return out


# ---------------------------------------------------------------------------
# elliptope: Frechet means and nearest-correlation projections


ELL_SET_DIM = 16
ELL_SET_SIZE = 15
ELL_SETS = 24  # the pool cycles if a run outlasts it
ELL_PROJ_DIM = 80
ELL_PROJ_NOISE = 0.1
ELL_PROJ_PER_ROUND = 20
ELL_DIGEST_ROUNDS = 4  # always run; the digest covers only these
MEANS = (
    geometry.MeanMethod.M2_RIEMANNIAN_BARYCENTER,
    geometry.MeanMethod.M3_NORMALIZED_BARYCENTER,
    geometry.MeanMethod.M4_CONSTRAINED_FRECHET,
    geometry.MeanMethod.M5_RIEMANNIAN_PROJECTION,
)


def _noisy_estimate(regime, seed, stream):
    """A regime draw at dim 80 plus symmetric noise: indefinite, like a
    hand-edited or pairwise-estimated matrix handed to ``corrlab project``."""
    c = samplers.sample_regime(regime, ELL_PROJ_DIM, seed=seed, stream=stream)
    g = rng.generator(seed, 1_000_000 + stream)
    e = g.normal(0.0, ELL_PROJ_NOISE, c.shape)
    m = np.clip(c + (e + e.T) / np.sqrt(2.0), -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return m


def ellipt_setup(seed, work):
    sets = [
        [
            samplers.sample_regime(
                REGIMES[s % 3], ELL_SET_DIM, seed=seed,
                stream=s * ELL_SET_SIZE + i,
            )
            for i in range(ELL_SET_SIZE)
        ]
        for s in range(ELL_SETS)
    ]
    noisy = [
        _noisy_estimate(REGIMES[j % 3], seed, j)
        for j in range(ELL_SETS * ELL_PROJ_PER_ROUND)
    ]
    return {"sets": sets, "noisy": noisy}


def _spd(m):
    return bool(np.array_equal(m, m.T) and np.linalg.eigvalsh(m)[0] > 0)


def _valid(m):
    return core.validate(m).is_valid


def ellipt_run(inputs, seconds, tracer):
    """Round k: one mean of set k (regime k mod 3, method M2..M5 by k mod 4)
    and twenty projections.  An op is uncertified if it raises
    ``ConvergenceFailure`` or is a mean that reports ``converged=False``:
    the program says it could not certify a result, and the op does not
    count as completed in ``ops_per_s``.  An op fails if it raises any
    other ``CorrlabError`` or if its result fails its check: M3-M5 (best
    effort or not) and projections must pass ``core.validate``, M2 must be
    SPD.  A failed check also makes the run incorrect."""
    out = Outcome()
    sets, noisy = inputs["sets"], inputs["noisy"]
    deadline = perf_counter() + seconds
    digest = hashlib.sha256()
    k = 0
    while k < ELL_DIGEST_ROUNDS or perf_counter() < deadline:
        ops = [(MEANS[k % len(MEANS)], sets[k % len(sets)])] + [
            (None, noisy[(k * ELL_PROJ_PER_ROUND + j) % len(noisy)])
            for j in range(ELL_PROJ_PER_ROUND)
        ]
        done, wall = 0, 0.0
        with tracer.round(k):
            for method, arg in ops:  # method None: a projection
                t0 = perf_counter()
                refused = broken = False
                try:
                    if method is None:
                        res = core.nearest_correlation(arg)
                    else:
                        res = geometry.mean(method, arg)
                except ConvergenceFailure:
                    res, refused = None, True
                except CorrlabError:
                    res, broken = None, True
                dt = perf_counter() - t0
                wall += dt
                out.latencies_s.append(dt)
                if method is None:
                    matrix, valid = res, _valid
                else:
                    matrix = None if res is None else res.matrix
                    refused |= res is not None and not res.converged
                    valid = _spd if method is MEANS[0] else _valid
                if matrix is not None and not valid(matrix):
                    out.correct, broken = False, True
                done += not (refused or broken)
                out.attempted += 1
                out.failed += broken
                out.uncertified += refused and not broken
                if k < ELL_DIGEST_ROUNDS and matrix is not None:
                    digest.update(np.ascontiguousarray(matrix, "<f8").tobytes())
        out.rounds.append((done, wall))
        k += 1
    out.digest = digest.hexdigest()
    out.extra["rounds"] = k
    return out


WORKLOADS = {
    "mc": (mc_setup, mc_run),
    "gan": (gan_setup, gan_run),
    "repro": (repro_setup, repro_run),
    "elliptope": (ellipt_setup, ellipt_run),
}
