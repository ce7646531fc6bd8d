"""Stylized facts of financial correlation matrices and derived features.

Six metrics are quantified per matrix:

1. positively shifted pairwise correlations (mean and skew),
2. dominant first eigenvalue relative to the Marchenko-Pastur bulk,
3. fraction of other eigenvalues above the Marchenko-Pastur edge,
4. sign consistency of the first eigenvector (Perron-Frobenius),
5. hierarchical cluster structure (cophenetic correlation),
6. scale-free-ness of the minimum spanning tree (degree tail exponent).

The distance transform throughout is d_ij = sqrt(2 (1 - rho_ij)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from .core import symmetrize
from .exceptions import DegenerateStructure, InvalidInput

DEFAULT_Q_RATIO = 80.0 / 252.0

FEATURE_NAMES = (
    "mean_corr",
    "std_corr",
    "eig1_share",
    "top5pct_eig_share",
    "evec1_dispersion",
    "cophenetic_coeff",
    "cluster_separation",
    "mst_tail_exponent",
)


@dataclass
class StylizedFactReport:
    sf1_mean_offdiag: float
    sf1_skew: float
    sf2_top_eig_share: float
    sf2_mp_bounds: tuple[float, float]
    sf3_outlier_eig_fraction: float
    sf4_first_evec_sign_consistency: float
    sf5_cophenetic_coeff: float
    sf6_mst_degree_tail_exponent: float
    sf6_max_degree: int
    degenerate_evec: bool = False
    insufficient_dimension: bool = False


def mp_bounds(q_ratio: float) -> tuple[float, float]:
    """Marchenko-Pastur support edges (1 +/- sqrt(q))^2 for q = dim/T."""
    if q_ratio <= 0:
        raise InvalidInput("q_ratio must be positive")
    sq = np.sqrt(q_ratio)
    return ((1.0 - sq) ** 2, (1.0 + sq) ** 2)


def corr_distance(c: np.ndarray) -> np.ndarray:
    d2 = np.clip(2.0 * (1.0 - c), 0.0, None)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


@lru_cache(maxsize=None)
def _upper(n: int):
    """Row-major indices (i, j) of the strict upper triangle, i < j
    (read-only: every caller shares them)."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@lru_cache(maxsize=None)
def _offdiag(n: int) -> np.ndarray:
    """Read-only mask of the off-diagonal entries of an n x n matrix."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def mst(c) -> list[tuple[int, int]]:
    """Minimum spanning tree on d = sqrt(2(1-rho)) by Kruskal.

    Ties broken lexicographically on (i, j) so the tree is deterministic.
    """
    return _mst(corr_distance(symmetrize(c)))


def _mst(d: np.ndarray) -> list[tuple[int, int]]:
    n = d.shape[0]
    iu, ju = _upper(n)
    rank = np.lexsort((ju, iu, d[iu, ju]))
    edges = zip(iu[rank].tolist(), ju[rank].tolist())
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j))
            if len(tree) == n - 1:
                break
    return tree


def mst_degrees(tree, n: int) -> np.ndarray:
    """Degree of each of the ``n`` nodes in the edge list ``tree``."""
    return np.bincount(np.asarray(tree, dtype=int).ravel(), minlength=n)


def degree_tail_exponent(degrees: np.ndarray) -> float:
    """Log-log least-squares slope of the degree frequency distribution.

    Fit is over degrees >= 2 when at least two distinct such degrees
    occur; otherwise over all degrees; 0.0 when even that is impossible.
    The returned exponent is the negated slope (positive for decaying
    tails).  A comparative feature, not a statistical estimate.

    ``np.bincount`` counts the integer degrees >= 1 in ``np.unique``'s
    order, and the fit is ``np.polyfit(x, y, 1)``'s own arithmetic less its
    checks (Vandermonde over its column norms, ``lstsq`` at rcond = len(x)
    eps, slope over its norm), so the slope is polyfit's bit for bit.
    """
    freq = np.bincount(degrees[degrees >= 1])
    vals = np.flatnonzero(freq)
    mask = vals >= 2
    if mask.sum() < 2:
        mask = np.ones_like(vals, dtype=bool)
    if mask.sum() < 2:
        return 0.0
    x = np.log(vals[mask].astype(float))
    y = np.log(freq[vals[mask]].astype(float))
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    coef = np.linalg.lstsq(lhs / scale, y, len(x) * np.finfo(float).eps)[0]
    return float(-(coef[0] / scale[0]))


class Linkage(NamedTuple):
    """Average-linkage tree on n leaves, in scipy's layout.

    Row k of ``z`` merges ids ``z[k, 0] < z[k, 1]`` at height ``z[k, 2]``
    into node ``n + k`` of ``z[k, 3]`` leaves; ids below n are leaves.
    ``order`` lists the leaves with the smaller id's subtree first at
    every node, as ``to_tree(z).pre_order()`` does, so node j's members
    are ``order[start[j]:start[j] + size[j]]``.
    """

    z: np.ndarray
    order: list[int]
    start: list[int]
    size: list[int]


def average_linkage(d: np.ndarray) -> Linkage:
    """UPGMA on a symmetric distance matrix by the nearest-neighbour chain.

    Follows scipy's ``nn_chain`` step for step, so ``z`` equals
    ``linkage(squareform(d), "average")`` bit for bit, ties included.  A
    chain starts at the lowest live slot.  Its tip x grows the chain by
    the first nearest neighbour y, unless D[x, y] is not strictly below
    the distance to the previous element p; then x and p merge.  The
    merged row (n_x D[x] + n_y D[y]) / (n_x + n_y) takes the larger slot
    and the smaller dies.  The merges are stable-sorted by height and
    relabelled by union-find, each as (smaller root, larger root).
    """
    inf = np.inf
    n = d.shape[0]
    rows = d.tolist()
    for i, row in enumerate(rows):
        row[i] = inf
    live = list(range(n))
    size = [1.0] * n  # exact, as scipy's int-to-double sizes are
    merges = []
    chain = []
    for _ in range(n - 1):
        if not chain:
            chain.append(live[0])
        while True:
            x = chain[-1]
            row = rows[x]
            h = min(row)
            y = row.index(h)
            if len(chain) > 1 and not h < row[chain[-2]]:
                y = chain[-2]  # as near as the minimum: h is its distance
                break
            chain.append(y)
        del chain[-2:]
        if x > y:
            x, y = y, x
        nx, ny = size[x], size[y]
        merges.append((h, x, y))
        live.remove(x)
        size[y] = nxy = nx + ny
        # dead slots hold inf, so the merged row is inf at x, y and dead slots
        merged = [(nx * a + ny * b) / nxy for a, b in zip(rows[x], rows[y])]
        rows[y] = merged
        for i in live:
            row = rows[i]
            row[y] = merged[i]
            row[x] = inf

    merges.sort(key=lambda m: m[0])
    parent = list(range(2 * n - 1))
    size = [1] * n + [0] * (n - 1)
    z = []
    for k, (h, x, y) in enumerate(merges):
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        x, y = min(x, y), max(x, y)
        parent[x] = parent[y] = n + k
        size[n + k] = size[x] + size[y]
        z.append((x, y, h, size[n + k]))

    start = [0] * (2 * n - 1)
    for k in range(n - 2, -1, -1):
        a, b = z[k][:2]
        start[a] = start[n + k]
        start[b] = start[n + k] + size[a]
    order = [0] * n
    for leaf in range(n):
        order[start[leaf]] = leaf
    return Linkage(np.array(z, dtype=float).reshape(-1, 4), order, start, size)


def cophenetic_coeff(c: np.ndarray) -> float:
    """Correlation of the distances with the average-linkage tree's
    cophenetic distances, summed as scipy's ``cophenet`` sums it.

    NaN, with no warning, where the squared distances 2(1 - rho_ij) span
    at most 16 eps = 3.6e-15: such a matrix (the identity, an equicorrelated
    one, a single pair) has no hierarchy; scipy's value there is noise.
    """
    return _cophenetic(corr_distance(c))


def _cophenetic(d: np.ndarray) -> float:
    n = d.shape[0]
    iu, ju = _upper(n)
    y = d[iu, ju]
    if y.size < 2 or np.ptp(y * y) <= 16 * np.finfo(float).eps:
        return float("nan")
    tree = average_linkage(d)
    # cophenetic distances between leaf positions in ``tree.order``: every
    # node joins its left block of positions to its right block
    coph = np.zeros((n, n))
    for k, (a, _, h, m) in enumerate(tree.z.tolist()):
        s = tree.start[n + k]
        mid = s + tree.size[int(a)]
        coph[s:mid, mid:s + int(m)] = h
    coph += coph.T
    pos = np.array(tree.start[:n])
    zz = coph[pos[iu], pos[ju]]
    yy = y - y.mean()
    zc = zz - zz.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(yy * zc) / np.sqrt(np.sum(yy**2) * np.sum(zc**2)))


def _skew(x: np.ndarray) -> float:
    """Biased sample skewness m3 / m2^1.5; 0.0 when x is constant up to
    rounding (m2 <= (eps * mean)^2, where scipy.stats.skew reads NaN)."""
    mean = x.mean()
    dev = x - mean
    m2 = np.mean(dev ** 2)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return 0.0
    return float(np.mean(dev ** 2 * dev) / m2 ** 1.5)


def _finite_symmetric(c) -> np.ndarray:
    c = symmetrize(c)
    if not np.all(np.isfinite(c)):
        raise InvalidInput("matrix has non-finite entries")
    return c


def stylized_report(c, q_ratio: float = DEFAULT_Q_RATIO) -> StylizedFactReport:
    c = _finite_symmetric(c)
    n = c.shape[0]
    off = c[_offdiag(n)]
    sf1_mean = float(off.mean())
    sf1_skew = _skew(off)

    w, v = np.linalg.eigh(c)
    lam_minus, lam_plus = mp_bounds(q_ratio)
    top = float(w[-1])
    sf2_share = top / n
    sf3 = float(np.sum(w[:-1] > lam_plus)) / n

    v1 = v[:, -1]
    degenerate = n >= 2 and (w[-1] - w[-2]) <= 1e-12 * max(1.0, w[-1])
    pos = np.sum(v1 > 0)
    neg = np.sum(v1 < 0)
    sf4 = max(pos, neg) / n

    if n < 4:
        return StylizedFactReport(
            sf1_mean, sf1_skew, sf2_share, (lam_minus, lam_plus), sf3, sf4,
            float("nan"), float("nan"), 0,
            degenerate_evec=degenerate, insufficient_dimension=True,
        )

    d = corr_distance(c)
    sf5 = _cophenetic(d)
    deg = mst_degrees(_mst(d), n)
    sf6 = degree_tail_exponent(deg)
    return StylizedFactReport(
        sf1_mean, sf1_skew, sf2_share, (lam_minus, lam_plus), sf3, sf4,
        sf5, sf6, int(deg.max()), degenerate_evec=degenerate,
    )


def _build(d: np.ndarray, dt: np.ndarray, k: int) -> list[int]:
    """Greedy PAM BUILD, in the order the medoids are chosen; ``dt`` is
    ``d.T`` in C order, so each candidate's gain is summed along a row.

    The first medoid minimises the total distance; each next one gains the
    most against the current nearest medoid.  A step depends only on the
    medoids before it, so the build for any j <= k is the first j of the
    build for k.
    """
    medoids = [int(np.argmin(d.sum(axis=0)))]
    cur = d[:, medoids[0]]
    while len(medoids) < k:
        gain = np.maximum(cur - dt, 0.0).sum(axis=1)
        gain[medoids] = -np.inf
        medoids.append(int(np.argmax(gain)))
        cur = np.minimum(cur, d[:, medoids[-1]])
    return medoids


def _swap(d: np.ndarray, dt: np.ndarray, medoids: list):
    """First-improvement PAM swaps from the sorted ``medoids``.

    A pass scans (slot, candidate) in order.  At the first candidate that
    lowers the cost by more than 1e-12 it swaps, then goes on from the next
    (slot, candidate) position against the new sorted medoid set; a pass
    with no swap ends the search, as do 100 passes.  Each scan scores every
    (slot, candidate) pair at once: slot s's base distance is each point's
    nearest medoid other than s, which is its second-nearest medoid where s
    is its nearest, and row c of ``dt`` holds the distances to candidate c,
    so each cost is summed exactly as ``d[:, trial].min(axis=1).sum()``
    would be.  Every pass ends on a scan of the final medoids, whose
    nearest-medoid indices are the labels.
    """
    n, k = d.shape[0], len(medoids)
    rows, slots = np.arange(n), np.arange(k)[:, None]
    best = None
    for _ in range(100):
        improved = False
        pos = 0  # flat (slot, candidate) position of the scan
        while True:
            dm = d[:, medoids]
            near = dm.argmin(axis=1)
            first = dm[rows, near]
            if best is None:
                best = float(first.sum())
            dm[rows, near] = np.inf
            base = np.where(near == slots, dm.min(axis=1), first)
            cost = np.minimum(base[:, None, :], dt).sum(axis=2)
            cost[:, medoids] = np.inf
            hits = np.flatnonzero(cost.ravel()[pos:] < best - 1e-12)
            if hits.size == 0:
                break
            pos += int(hits[0])
            s, cand = divmod(pos, n)
            best = float(cost[s, cand])
            medoids = sorted(medoids[:s] + medoids[s + 1:] + [cand])
            improved = True
            pos += 1
        if not improved:
            break
    return np.asarray(medoids), near


def _kmedoids(d: np.ndarray, k: int):
    """Deterministic PAM for k >= 1: greedy build (``_build``), then
    first-improvement swaps (``_swap``).  Returns the sorted medoids and
    each point's label, the index of its nearest medoid."""
    dt = np.ascontiguousarray(d.T)
    return _swap(d, dt, sorted(_build(d, dt, k)))


def _silhouette(d: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette; a point alone in its cluster scores 0."""
    n = d.shape[0]
    if labels.min() >= 0 and (counts := np.bincount(labels)).all():
        inv = labels  # labels 0..m-1, all present
    else:
        _, inv, counts = np.unique(labels, return_inverse=True,
                                   return_counts=True)
    if counts.size < 2:
        return -1.0
    onehot = np.eye(counts.size)[inv]
    sums = d @ onehot
    rows = np.arange(n)
    own = counts[inv] - 1
    a = (sums[rows, inv] - np.diag(d)) / np.maximum(own, 1)
    means = sums / counts
    means[rows, inv] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.zeros(n)
    ok = (own > 0) & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(s.mean())


def cluster_separation(c: np.ndarray, k_range=range(2, 7)):
    """Best mean silhouette over a k-medoids scan on sqrt(2(1-rho)).

    The scan stops at the first k >= dim; a k below 2 makes one cluster,
    whose silhouette (-1) never wins.  The greedy build runs once, to the
    largest k scanned; each k swaps from the first k of its medoids
    (``_build`` is prefix-stable), so every k gets the medoids that
    ``_kmedoids(d, k)`` gives.
    """
    return _cluster_separation(corr_distance(c), k_range)


def _cluster_separation(d: np.ndarray, k_range=range(2, 7)):
    ks = [k for k in takewhile(lambda k: k < d.shape[0], k_range) if k >= 2]
    if not ks:
        return -1.0, None
    dt = np.ascontiguousarray(d.T)
    build = _build(d, dt, max(ks))
    best = -1.0
    best_k = None
    for k in ks:
        _, labels = _swap(d, dt, sorted(build[:k]))
        s = _silhouette(d, labels)
        if s > best:
            best, best_k = s, k
    return best, best_k


@dataclass
class FeatureVector:
    mean_corr: float
    std_corr: float
    eig1_share: float
    top5pct_eig_share: float
    evec1_dispersion: float
    cophenetic_coeff: float
    cluster_separation: float
    mst_tail_exponent: float

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in FEATURE_NAMES])

    @classmethod
    def from_array(cls, a):
        return cls(*[float(x) for x in a])


def feature_vector(c) -> FeatureVector:
    """Fixed-order feature summary of the correlation structure."""
    c = _finite_symmetric(c)
    n = c.shape[0]
    if n < 4:
        raise InvalidInput("feature_vector requires dim >= 4")
    off = c[_offdiag(n)]
    if abs(off[0] - 1.0) < 1e-12 and np.allclose(off, off[0]):
        raise DegenerateStructure("all columns identical")

    w, v = np.linalg.eigh(c)
    eig1_share = float(w[-1]) / n
    ntop = max(2, int(np.ceil(0.05 * n)))  # one would repeat eig1_share
    top_share = float(np.sum(w[-ntop:])) / n

    v1 = v[:, -1]
    if np.sum(v1) < 0:
        v1 = -v1
    v1n = v1 / np.linalg.norm(v1)
    dispersion = float(np.std(v1n))
    if (w[-1] - w[-2]) <= 1e-12 * max(1.0, w[-1]):
        dispersion = float("nan")

    d = corr_distance(c)
    sep, _ = _cluster_separation(d)
    return FeatureVector(
        mean_corr=float(off.mean()),
        std_corr=float(off.std()),
        eig1_share=eig1_share,
        top5pct_eig_share=top_share,
        evec1_dispersion=dispersion,
        cophenetic_coeff=_cophenetic(d),
        cluster_separation=sep,
        mst_tail_exponent=degree_tail_exponent(mst_degrees(_mst(d), n)),
    )
