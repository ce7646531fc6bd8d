"""Labeled correlation-matrix corpora and their on-disk container.

Container format "ECORP v1": a directory holding

* ``manifest.json`` -- version, dim, count, labels, source, per-item
  metadata, and the SHA-256 of the payload file;
* ``matrices.f64le`` -- count x dim x dim float64 little-endian entries,
  row-major, concatenated in item order.

Corpora come from two sources: rolling Pearson estimation over a returns
CSV with regime labels from the terciles of equally weighted portfolio
performance, or the surrogate regime sampler.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import checked
from .core import is_correlation, nearest_correlation, symmetrize
from .exceptions import (
    CorruptData,
    DegenerateColumn,
    InvalidInput,
    ParseError,
)
from .samplers import REGIMES, RegimeLabel, sample_regime

ECORP_VERSION = 1


class CorpusSource(Enum):
    INGESTED = "ingested"
    SURROGATE = "surrogate"


@dataclass
class WindowSpec:
    """Rolling-window length and step, in observations (``corpus build``'s
    ``--window`` and ``--step``)."""

    length: int
    step: int

    def __post_init__(self):
        if self.step < 1:
            raise InvalidInput("step must be >= 1")


@dataclass
class CorpusItem:
    matrix: np.ndarray
    label: RegimeLabel
    meta: dict = field(default_factory=dict)


@dataclass
class LabeledCorpus:
    dim: int
    items: list[CorpusItem]
    source: CorpusSource
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.items)

    def matrices(self, label: RegimeLabel | None = None):
        return [
            it.matrix for it in self.items if label is None or it.label is label
        ]

    def labels(self):
        return [it.label for it in self.items]


def read_returns_csv(path):
    """Read a T x d returns CSV with a header row of asset names."""
    reader = csv.reader(io.StringIO(checked.read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty returns file")
    rows = []
    for r, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ParseError(f"row {r} has {len(row)} cells", row=r)
        for c, x in enumerate(row):
            try:
                row[c] = float(x)
            except ValueError:
                raise ParseError(f"non-numeric cell at row {r}, column {c}",
                                 row=r, col=c) from None
        rows.append(row)
    return header, np.asarray(rows, dtype=np.float64)


def window_count(t: int, window: WindowSpec) -> int:
    if t < window.length:
        return 0
    return (t - window.length) // window.step + 1


def ingest_returns(csv_path, window: WindowSpec) -> LabeledCorpus:
    """Rolling Pearson correlations labeled by EW-portfolio performance.

    Windows are split into terciles of cumulative equally weighted return
    (worst third stressed, best third rally).  Estimated matrices that
    fail PSD at tolerance 1e-10 are repaired by nearest-correlation
    projection; repairs are counted in the metadata.
    """
    names, data = read_returns_csv(csv_path)
    t, d = data.shape
    if window.length < d + 2:
        raise InvalidInput("window length must be >= dim + 2")
    if t < window.length:
        raise InvalidInput("not enough observations for one window")

    mats, perfs, metas = [], [], []
    repairs = 0
    nwin = window_count(t, window)
    for w in range(nwin):
        s = w * window.step
        e = s + window.length
        block = data[s:e]
        stds = block.std(axis=0, ddof=1)
        if np.any(stds == 0):
            asset = names[int(np.argmin(stds))]
            raise DegenerateColumn(
                f"constant column {asset!r} in window {w}", asset=asset, window=w
            )
        c = np.corrcoef(block, rowvar=False)
        c = symmetrize(c)
        np.fill_diagonal(c, 1.0)
        if not is_correlation(c, tol=1e-10):
            c = nearest_correlation(c)
            repairs += 1
        mats.append(c)
        perfs.append(float(block.mean(axis=1).sum()))
        metas.append({"window": w, "start": s, "end": e})

    labels = _tercile_labels(np.asarray(perfs))
    items = [
        CorpusItem(m, lab, meta) for m, lab, meta in zip(mats, labels, metas)
    ]
    return LabeledCorpus(
        dim=d,
        items=items,
        source=CorpusSource.INGESTED,
        meta={
            "assets": names,
            "window": {"length": window.length, "step": window.step},
            "repairs": repairs,
            "labeling": "tercile",
        },
    )


def _tercile_labels(perfs: np.ndarray):
    """Balanced tercile split: worst third stressed, best third rally."""
    order = np.argsort(perfs, kind="stable")
    n = perfs.size
    n_low = n // 3
    n_high = n // 3 + (1 if n % 3 == 2 else 0)
    labels = [RegimeLabel.NORMAL] * n
    for i in order[:n_low]:
        labels[i] = RegimeLabel.STRESSED
    for i in order[n - n_high:] if n_high else []:
        labels[i] = RegimeLabel.RALLY
    return labels


def build_surrogate(count_per_regime: int, dim: int,
                    seed: int = 0) -> LabeledCorpus:
    """Balanced three-regime corpus from the surrogate market sampler at
    its default regime parameters."""
    if count_per_regime < 1:
        raise InvalidInput("count_per_regime must be >= 1")
    items = []
    for r, regime in enumerate(REGIMES):
        for i in range(count_per_regime):
            m = sample_regime(
                regime, dim, seed=seed, stream=r * count_per_regime + i,
            )
            items.append(
                CorpusItem(m, regime, {"stream": r * count_per_regime + i})
            )
    return LabeledCorpus(
        dim=dim,
        items=items,
        source=CorpusSource.SURROGATE,
        meta={"seed": seed, "count_per_regime": count_per_regime},
    )


def write_corpus(corp: LabeledCorpus, directory):
    """Write a corpus as an ECORP v1 container."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = b"".join(
        np.ascontiguousarray(it.matrix, dtype="<f8").tobytes()
        for it in corp.items
    )
    (directory / "matrices.f64le").write_bytes(payload)
    manifest = {
        "format": "ECORP",
        "version": ECORP_VERSION,
        "dim": corp.dim,
        "count": len(corp.items),
        "labels": [it.label.value for it in corp.items],
        "item_meta": [it.meta for it in corp.items],
        "source": corp.source.value,
        "meta": corp.meta,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )


def read_corpus(directory) -> LabeledCorpus:
    """Read an ECORP v1 container, verifying version, manifest and checksum.

    A malformed manifest (not JSON, a required key missing or mistyped, a
    label count other than ``count``, an unknown label or source) or a
    non-finite payload entry raises ``CorruptData``.
    """
    directory = Path(directory)
    manifest = checked.read_object(
        directory / "manifest.json", "manifest.json",
        {"format": "ECORP", "version": ECORP_VERSION}, dim=checked.is_count,
        count=checked.is_count, labels=checked.is_list,
        source=checked.is_str, payload_sha256=checked.is_str)
    dim, count, labels = manifest["dim"], manifest["count"], manifest["labels"]
    metas = manifest.get("item_meta") or [{} for _ in labels]
    for key, value in (("labels", labels), ("item_meta", metas)):
        if not isinstance(value, list) or len(value) != count:
            raise CorruptData(f"manifest {key} does not list {count} items")
    try:
        labels = [RegimeLabel(lab) for lab in labels]
        source = CorpusSource(manifest["source"])
    except ValueError as exc:
        raise CorruptData(f"manifest: {exc}")
    payload = checked.read_bytes(directory / "matrices.f64le")
    if hashlib.sha256(payload).hexdigest() != manifest["payload_sha256"]:
        raise CorruptData("payload checksum mismatch")
    expected = count * dim * dim * 8
    if len(payload) != expected:
        raise CorruptData(
            f"payload size {len(payload)} != expected {expected}"
        )
    arr = np.frombuffer(payload, dtype="<f8").reshape(count, dim, dim)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=(1, 2)))
    if bad.size:
        raise CorruptData(f"payload matrix {bad[0]} holds a non-finite entry")
    items = [
        CorpusItem(arr[i].copy(), labels[i], metas[i]) for i in range(count)
    ]
    return LabeledCorpus(
        dim=dim,
        items=items,
        source=source,
        meta=manifest.get("meta", {}),
    )
