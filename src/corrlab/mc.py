"""Monte Carlo harness comparing allocation methods across market regimes.

One simulation: draw a regime-conditioned correlation matrix, extract
its feature vector, backtest each allocation method on synthetic
returns, and record per-method in/out-of-sample risk.  A linear
surrogate model fitted on the records is then explained with exact
Shapley values (the closed form for a linear model), attributing
outperformance or performance decay to correlation-structure features.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from itertools import combinations
from typing import ClassVar

import numpy as np

from . import checked, rng
from .exceptions import (CorrlabError, CorruptData, InvalidInput,
                         RankDeficient, UnsupportedVersion)
from .facts import FEATURE_NAMES, FeatureVector, feature_vector
from .portfolio import METHODS, RiskReport, backtest_methods, default_vols
from .samplers import REGIMES, RegimeLabel, sample_regime

RECORD_SCHEMA_VERSION = 1
_REPORT_KEYS = ("in_sample_vol", "out_sample_vol", "max_drawdown")
_is_features = checked.predicate(
    "an object mapping each feature name to a number or null",
    lambda x: isinstance(x, dict) and set(x) == set(FEATURE_NAMES)
    and all(v is None or checked.is_number(v) for v in x.values()))
_is_reports = checked.predicate(
    f"an object giving each of {METHODS} numbers for {_REPORT_KEYS}",
    lambda x: isinstance(x, dict) and set(x) == set(METHODS) and all(
        isinstance(r, dict) and set(r) == set(_REPORT_KEYS)
        and all(map(checked.is_number, r.values())) for r in x.values()))


@dataclass
class McRecord:
    regime: RegimeLabel
    features: FeatureVector
    reports: dict  # method -> RiskReport
    seed: int
    stream: int

    @property
    def hrp_minus_ivp_outvol(self) -> float:
        return (
            self.reports["hrp"].out_sample_vol
            - self.reports["ivp"].out_sample_vol
        )

    def to_json(self) -> dict:
        return {
            "schema": RECORD_SCHEMA_VERSION,
            "regime": self.regime.value,
            "features": {  # an undefined (NaN) feature is written as null
                k: None if v != v else v
                for k, v in zip(FEATURE_NAMES, self.features.to_array())
            },
            "reports": {
                m: {
                    "in_sample_vol": r.in_sample_vol,
                    "out_sample_vol": r.out_sample_vol,
                    "max_drawdown": r.max_drawdown,
                }
                for m, r in self.reports.items()
            },
            "hrp_minus_ivp_outvol": self.hrp_minus_ivp_outvol,
            "seed": self.seed,
            "stream": self.stream,
        }

    @classmethod
    def from_json(cls, d) -> "McRecord":
        """Inverse of :meth:`to_json`.  ``UnsupportedVersion`` for another
        ``schema``; ``CorruptData`` for anything but an object holding a
        known regime, every feature as a number or null, a report of three
        numbers for each method and integer ``seed`` and ``stream``."""
        checked.require(d, "record", {"schema": RECORD_SCHEMA_VERSION},
                        regime=checked.is_str, features=_is_features,
                        reports=_is_reports, seed=checked.is_int,
                        stream=checked.is_int)
        try:
            regime = RegimeLabel(d["regime"])
        except ValueError as exc:
            raise CorruptData(f"record: {exc}") from None
        return cls(
            regime=regime,
            features=FeatureVector(**{k: np.nan if v is None else v
                                      for k, v in d["features"].items()}),
            reports={m: RiskReport(**r) for m, r in d["reports"].items()},
            seed=d["seed"],
            stream=d["stream"],
        )


@dataclass
class McConfig:
    count_per_regime: int = 300
    dim: int = 16
    t_in: int = 252
    t_out: int = 252
    seed: int = 0
    regimes: ClassVar[tuple] = REGIMES

    def __post_init__(self):
        """``InvalidInput`` unless each field is an integer in the range a
        simulation needs: dim >= 4 for ``feature_vector``, and dim + 2
        returns per window for ``backtest_methods``."""
        checked.integers(self, InvalidInput, count_per_regime=1, dim=4,
                         seed=None)
        checked.integers(self, InvalidInput, t_in=self.dim + 2,
                         t_out=self.dim + 2)


def _simulate_one(generator_fn, regime, stream, config) -> McRecord:
    corr = generator_fn(regime, stream)
    feats = feature_vector(corr)
    vols = default_vols(config.dim, config.seed, stream=rng.mix(stream, 3))
    reports = backtest_methods(
        corr, vols, METHODS, config.t_in, config.t_out,
        seed=rng.mix(config.seed, stream),
    )
    return McRecord(regime, feats, reports, config.seed, stream)


def run(
    config: McConfig,
    generator_fn=None,
    threads: int = 1,
) -> list[McRecord]:
    """Run the full grid of simulations in the calling thread.

    ``generator_fn(regime, stream) -> matrix`` defaults to the surrogate
    regime sampler.  A draw that fails with a ``CorrlabError`` is skipped
    with a logged reason, never retried with a different seed; any other
    exception propagates.

    ``threads`` is accepted and ignored.  A simulation is Python-bound and
    holds the GIL, so a thread pool only adds contention.  90 simulations
    at dim 24 (t_in = t_out = 252) take about 0.2 s, 2.2 ms each, on one
    of 2 vCPUs with BLAS pinned to one thread: about 1.05 ms for the
    feature vector (0.45 ms of it cluster separation, 0.23 ms the
    cophenetic correlation) and 0.95 ms for the three backtests (0.41 ms
    of it HRP).
    """
    if generator_fn is None:
        def generator_fn(regime, stream):
            return sample_regime(
                regime, config.dim, seed=config.seed, stream=stream
            )

    records, skipped = [], []
    for r, regime in enumerate(config.regimes):
        for i in range(config.count_per_regime):
            stream = r * config.count_per_regime + i
            try:
                records.append(
                    _simulate_one(generator_fn, regime, stream, config)
                )
            except CorrlabError as exc:
                skipped.append((stream, repr(exc)))
    for stream, reason in skipped:
        print(f"warning: simulation stream {stream} skipped: {reason}")
    return records


def write_records(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_json(), sort_keys=True) + "\n")


def read_records(path) -> list[McRecord]:
    """Read an NDJSON records file; a bad line raises ``CorruptData`` (or
    ``UnsupportedVersion``) naming its number."""
    out = []
    for number, line in enumerate(io.BytesIO(checked.read_bytes(path)), 1):
        if not line.strip():
            continue
        record = checked.parse_json(line, f"{path} line {number}")
        try:
            out.append(McRecord.from_json(record))
        except (CorruptData, UnsupportedVersion) as exc:
            raise type(exc)(f"{path} line {number}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# surrogate model + Shapley attribution


@dataclass
class SurrogateModel:
    coefficients: np.ndarray  # on standardized features
    intercept: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    target: str
    r2: float
    feature_names: tuple = FEATURE_NAMES

    def predict(self, x: np.ndarray) -> np.ndarray:
        xs = (x - self.feature_means) / self.feature_stds
        return xs @ self.coefficients + self.intercept


TARGETS = ("outperformance", "decay")
SURROGATE_MIN_RECORDS = 10 * len(FEATURE_NAMES)  # fit_surrogate's minimum


def target_value(record: McRecord, target: str) -> float:
    if target == "outperformance":
        return record.hrp_minus_ivp_outvol
    if target == "decay":
        return record.reports["hrp"].decay
    raise InvalidInput(f"unknown target {target!r}")


def design_matrix(records) -> np.ndarray:
    return np.stack([r.features.to_array() for r in records])


def fit_surrogate(records, target: str = "outperformance") -> SurrogateModel:
    """OLS with intercept on standardized features."""
    n, k = len(records), len(FEATURE_NAMES)
    if n < SURROGATE_MIN_RECORDS:
        raise InvalidInput(f"need at least {SURROGATE_MIN_RECORDS} records "
                           f"for {k} features, got {n}")
    x = design_matrix(records)
    y = np.asarray([target_value(r, target) for r in records])
    mu, sd = x.mean(axis=0), x.std(axis=0)
    zero = sd == 0
    sd = np.where(zero, 1.0, sd)
    xs = (x - mu) / sd
    a = np.column_stack([np.ones(n), xs])
    rank = np.linalg.matrix_rank(a)
    if rank < k + 1:
        collinear = _collinear_features(xs)
        raise RankDeficient(
            f"design matrix rank {rank} < {k + 1}", collinear=collinear
        )
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return SurrogateModel(
        coefficients=coef[1:],
        intercept=float(coef[0]),
        feature_means=mu,
        feature_stds=sd,
        target=target,
        r2=r2,
    )


def _collinear_features(xs):
    names = []
    k = xs.shape[1]
    for i, j in combinations(range(k), 2):
        denom = np.linalg.norm(xs[:, i]) * np.linalg.norm(xs[:, j])
        if denom == 0 or abs(xs[:, i] @ xs[:, j]) / denom > 1 - 1e-10:
            names.append((FEATURE_NAMES[i], FEATURE_NAMES[j]))
    for i in range(k):
        if np.linalg.norm(xs[:, i]) == 0:
            names.append((FEATURE_NAMES[i], "constant"))
    return names


@dataclass
class ShapleyAttribution:
    phi: np.ndarray
    baseline: float
    prediction: float
    feature_names: tuple = FEATURE_NAMES


def shapley(
    model: SurrogateModel,
    x: np.ndarray,
    background: np.ndarray,
) -> ShapleyAttribution:
    """Exact interventional Shapley values of the linear surrogate.

    The value of coalition S is the model prediction with features
    outside S replaced by background means.  For a linear model this has
    the closed form phi_i = beta_i * (x_i - b_i) / sigma_i (Lundberg & Lee,
    2017), with b the background mean and beta the coefficients on
    features standardized by sigma.
    """
    x = np.asarray(x, dtype=float)
    bg = np.asarray(background, dtype=float)
    base_x = bg.mean(axis=0) if bg.ndim == 2 else bg
    xs = (x - model.feature_means) / model.feature_stds
    bs = (base_x - model.feature_means) / model.feature_stds
    phi = model.coefficients * (xs - bs)
    baseline = float(model.predict(base_x[None, :])[0])
    prediction = float(model.predict(x[None, :])[0])
    return ShapleyAttribution(phi, baseline, prediction)


# ---------------------------------------------------------------------------
# findings


def bootstrap_ci(values, stat_fn=np.mean, n_boot=1000, alpha=0.05, seed=0):
    """Percentile bootstrap interval of ``stat_fn(sample, axis=1)``.

    All ``n_boot`` resamples are drawn in one call, one row each; the
    draws equal those of ``n_boot`` successive calls of size ``len(values)``.
    """
    values = np.asarray(values)
    g = rng.generator(seed, 0)
    idx = g.integers(0, len(values), size=(n_boot, len(values)))
    stats = stat_fn(values[idx], axis=1)
    lo, hi = np.percentile(stats, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(lo), float(hi)


def regime_findings(records, n_boot: int = 1000, seed: int = 0) -> dict:
    """Per-regime HRP-vs-IVP comparison with bootstrap intervals."""
    out = {}
    for regime in REGIMES:
        rs = [r for r in records if r.regime is regime]
        if not rs:
            continue
        gaps = np.asarray([r.hrp_minus_ivp_outvol for r in rs])
        wins = (gaps < 0).astype(float)
        win_rate = float(wins.mean())
        wr_lo, wr_hi = bootstrap_ci(wins, np.mean, n_boot, seed=seed)
        gap_lo, gap_hi = bootstrap_ci(gaps, np.mean, n_boot, seed=seed + 1)
        coph = np.asarray([r.features.cophenetic_coeff for r in rs])
        disp = np.asarray([r.features.evec1_dispersion for r in rs])
        out[regime.value] = {
            "count": len(rs),
            "hrp_win_rate": win_rate,
            "win_rate_ci95": [wr_lo, wr_hi],
            "mean_gap": float(gaps.mean()),
            "gap_ci95": [gap_lo, gap_hi],
            "corr_gap_cophenetic": _safe_corr(gaps, coph),
            "corr_gap_evec_dispersion": _safe_corr(gaps, disp),
        }
    return out


def _safe_corr(a, b) -> float:
    if np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
