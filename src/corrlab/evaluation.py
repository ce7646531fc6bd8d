"""Distribution-fidelity evaluation of synthetic correlation matrices.

Pipeline: vectorize lower triangles, fit a 2-D PCA basis on the
reference (empirical) set only, project every set in that basis, then
compare clouds by exact 2-Wasserstein distance: the minimum-cost perfect
assignment on squared Euclidean costs, solved in numpy by shortest
augmenting paths (Jonker & Volgenant 1987; Crouse 2016).  The summary
statistic pair (mu_e, mu_g) is the mean within-real distance versus the
mean real-to-synthetic distance; a faithful generator has mu_g close to
mu_e.

Conditioning fidelity is measured by a softmax classifier over the
stylized-fact feature vector, trained on the real corpus and applied to
synthetic samples against their conditioning labels.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import neural, rng
from .corpus import LabeledCorpus
from .exceptions import DegenerateBasis, InvalidInput
from .facts import feature_vector
from .gan import tri_from_matrix
from .samplers import REGIMES

EXACT_LIMIT = 512


@dataclass
class PointCloud2D:
    points: np.ndarray  # (n, 2)
    basis: np.ndarray  # (2, d) orthonormal rows
    mean: np.ndarray  # (d,)


@dataclass
class DistanceStats:
    mu_e: float
    sigma_e: float
    mu_g: float
    sigma_g: float
    max_within: float
    min_between: float


@dataclass
class FidelityResult:
    confusion: np.ndarray  # rows: conditioning label, cols: predicted
    accuracy: float
    real_holdout_accuracy: float
    weak_classifier: bool


def _vectorize(mats) -> np.ndarray:
    return np.stack([tri_from_matrix(m) for m in mats])


def pca_project(reference, *others):
    """Fit a 2-D basis on the reference set; project every set in it.

    The synthetic sets never influence the basis.  Returns one
    :class:`PointCloud2D` per input set, reference first.  Every set must
    share the reference's dimension (``InvalidInput`` otherwise).
    """
    if len(reference) == 0:
        raise InvalidInput("reference set is empty")
    x = _vectorize(reference)
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / max(len(reference) - 1, 1)
    w, v = np.linalg.eigh(cov)
    if np.sum(w > 1e-12 * max(w[-1], 1.0)) < 2:
        raise DegenerateBasis("reference set has rank < 2")
    basis = v[:, -2:][:, ::-1].T  # rows: first and second principal axes
    # deterministic sign: largest-magnitude coefficient positive
    for r in range(2):
        k = int(np.argmax(np.abs(basis[r])))
        if basis[r, k] < 0:
            basis[r] = -basis[r]
    clouds = [PointCloud2D((xc @ basis.T), basis, mean)]
    for other in others:
        xo = _vectorize(other)
        if xo.shape[1] != mean.size:
            raise InvalidInput("sets must share the reference's dimension")
        clouds.append(PointCloud2D((xo - mean) @ basis.T, basis, mean))
    return clouds


def _sha_order(points: np.ndarray) -> np.ndarray:
    keys = [
        hashlib.sha256(np.ascontiguousarray(p, dtype="<f8").tobytes()).digest()
        for p in points
    ]
    return np.asarray(sorted(range(len(keys)), key=keys.__getitem__))


def subsample_to(points: np.ndarray, n: int) -> np.ndarray:
    """Deterministic subsample: order by SHA-256 of the row bytes."""
    if len(points) <= n:
        return points
    order = _sha_order(points)[:n]
    return points[order]


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The column assigned to each row of a square cost matrix, at least
    total cost.

    Shortest augmenting paths (Jonker & Volgenant 1987, in Crouse's 2016
    form): rows join one at a time, each through a Dijkstra search over
    the reduced costs ``cost[i] - u[i] - v`` that stops at the first free
    column; the duals ``u``, ``v`` of the scanned rows and columns then
    move so that every reduced cost stays >= 0 and those on the
    assignment stay 0.  A Dijkstra step is one pass over the columns.
    """
    n = len(cost)
    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    path = np.zeros(n, dtype=int)
    for row in range(n):
        shortest = np.full(n, np.inf)  # path costs of unscanned columns
        # a scanned column's v is -inf: its reduced cost is +inf, never
        # shorter than its final path cost, kept in ``dist``
        vs = v.copy()
        scanned, dist = [], []
        i, low = row, 0.0
        while True:
            r = low + cost[i]
            r -= u[i]
            r -= vs
            shorter = r < shortest
            np.copyto(shortest, r, where=shorter)
            np.copyto(path, i, where=shorter)
            j = int(shortest.argmin())
            low = shortest[j]
            shortest[j], vs[j] = np.inf, -np.inf
            scanned.append(j)
            dist.append(low)
            if row4col[j] < 0:
                break
            i = row4col[j]
        sc, gap = np.asarray(scanned), low - np.asarray(dist)
        u[row] += low
        u[row4col[sc[:-1]]] += gap[:-1]
        v[sc] -= gap
        j = scanned[-1]
        while True:  # augment: flip the assignment along the path
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    return col4row


@dataclass
class W2Result:
    value: float
    exact: bool

    def __float__(self):
        return self.value


def wasserstein2(a, b, n_slices: int = 100, seed: int = 0) -> W2Result:
    """2-Wasserstein distance between equal-size point clouds.

    Exact assignment (:func:`_assignment`) up to 512 points per side;
    beyond that, a sliced approximation over ``n_slices`` random
    directions, flagged ``exact=False``.  Unequal sizes are equalized by
    deterministic SHA-256 subsampling of the larger cloud.  Non-finite
    points raise ``InvalidInput``.
    """
    pa = a.points if isinstance(a, PointCloud2D) else np.asarray(a, float)
    pb = b.points if isinstance(b, PointCloud2D) else np.asarray(b, float)
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise InvalidInput("point clouds must be finite")
    n = min(len(pa), len(pb))
    if n == 0:
        raise InvalidInput("empty point cloud")
    pa = subsample_to(pa, n)
    pb = subsample_to(pb, n)

    if n <= EXACT_LIMIT:
        diff = pa[:, None, :] - pb[None, :, :]
        cost = np.sum(diff * diff, axis=2)
        cols = _assignment(cost)
        return W2Result(float(np.sqrt(cost[np.arange(n), cols].mean())), True)

    g = rng.generator(seed, 0)
    dim = pa.shape[1]
    total = 0.0
    for _ in range(n_slices):
        u = g.standard_normal(dim)
        u /= np.linalg.norm(u)
        qa = np.sort(pa @ u)
        qb = np.sort(pb @ u)
        total += np.mean((qa - qb) ** 2)
    return W2Result(float(np.sqrt(dim * total / n_slices)), False)


def distance_stats(real_sets, synth_sets) -> DistanceStats:
    """Mean/std of pairwise cloud distances: real-real vs real-synthetic."""
    if len(real_sets) < 2 or len(synth_sets) < 1:
        raise InvalidInput("need >= 2 real sets and >= 1 synthetic set")
    within = [
        wasserstein2(a, b).value for a, b in combinations(real_sets, 2)
    ]
    between = [
        wasserstein2(r, s).value for r in real_sets for s in synth_sets
    ]
    return DistanceStats(
        mu_e=float(np.mean(within)),
        sigma_e=float(np.std(within)),
        mu_g=float(np.mean(between)),
        sigma_g=float(np.std(between)),
        max_within=float(np.max(within)),
        min_between=float(np.min(between)),
    )


# ---------------------------------------------------------------------------
# feature-based conditioning-fidelity classifier


def corpus_features(corp: LabeledCorpus):
    """``(x, y)``: one :func:`feature_vector` row per matrix, in
    ``FEATURE_NAMES`` order with NaN features zeroed, and each matrix's
    index in ``REGIMES``."""
    x = np.stack([feature_vector(it.matrix).to_array() for it in corp.items])
    y = np.asarray([REGIMES.index(it.label) for it in corp.items])
    if not np.all(np.isfinite(x)):
        # degenerate feature values (flagged NaN) are zeroed for the model
        x = np.nan_to_num(x)
    return x, y


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_feature_classifier(
    x, y, seed: int = 0, hidden: int = 32, epochs: int = 400, lr: float = 1e-2
):
    """Softmax classifier over feature vectors, built on the neural engine."""
    g = np.random.Generator(np.random.PCG64(rng.mix(seed, 5)))
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    xs = ((x - mu) / sd).astype(np.float32)
    net = neural.Network(
        [
            neural.Dense(x.shape[1], hidden, g), neural.Tanh(),
            neural.Dense(hidden, len(REGIMES), g),
        ],
        (x.shape[1],),
    )
    opt = neural.Adam(net, lr=lr)
    t = np.eye(len(REGIMES), dtype=np.float32)[y]
    for _ in range(epochs):
        logits, caches = net.forward(xs)
        p = _softmax(logits.astype(np.float64))
        dlogits = ((p - t) / len(xs)).astype(np.float32)
        _, grads = net.backward(caches, dlogits)
        opt.step(grads)
    return net, (mu, sd)


def _predict(net, scaler, x):
    mu, sd = scaler
    xs = ((x - mu) / sd).astype(np.float32)
    logits, _ = net.forward(xs)
    return np.argmax(logits, axis=1)


def classifier_fidelity(
    real, synth, seed: int = 0, holdout_frac: float = 0.2
) -> FidelityResult:
    """Confusion matrix of a feature-vector softmax classifier applied to
    synthetic samples against their conditioning labels.

    ``real`` and ``synth`` are :func:`corpus_features` pairs ``(x, y)``;
    the classifier trains on ``real`` less a stratified holdout of at
    least one matrix per regime.  ``InvalidInput`` when that holdout
    would leave a regime of ``real`` with no training matrix.
    """
    x, y = real
    xs_, ys_ = synth

    # stratified deterministic holdout
    tr_idx, ho_idx = [], []
    for cls in range(len(REGIMES)):
        idx = np.flatnonzero(y == cls)
        g = rng.generator(seed, 100 + cls)
        idx = idx[g.permutation(len(idx))]
        k = max(1, int(round(holdout_frac * len(idx))))
        if 0 < len(idx) <= k:
            raise InvalidInput(
                f"the classifier's holdout takes all {len(idx)} real "
                f"{REGIMES[cls].value} matrices, leaving none to train on")
        ho_idx.extend(idx[:k])
        tr_idx.extend(idx[k:])
    tr_idx, ho_idx = np.asarray(tr_idx), np.asarray(ho_idx)

    net, scaler = train_feature_classifier(x[tr_idx], y[tr_idx], seed=seed)
    real_acc = float(np.mean(_predict(net, scaler, x[ho_idx]) == y[ho_idx]))

    pred = _predict(net, scaler, xs_)
    confusion = np.zeros((len(REGIMES), len(REGIMES)), dtype=int)
    np.add.at(confusion, (ys_, pred), 1)
    acc = float(np.trace(confusion)) / max(len(ys_), 1)
    return FidelityResult(
        confusion=confusion,
        accuracy=acc,
        real_holdout_accuracy=real_acc,
        weak_classifier=real_acc < 0.40,
    )
