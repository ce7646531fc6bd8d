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
    if not 0 < q_ratio < np.inf:
        raise InvalidInput(
            f"q_ratio must be a finite number > 0, not {q_ratio}")
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


@lru_cache(maxsize=None)
def _below(n: int) -> np.ndarray:
    """Read-only mask of the strict lower triangle of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
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
    and the smaller dies; one pass over the live rows writes it in place
    and into each live row's columns.  The merges are stable-sorted by
    height and relabelled by union-find, each as (smaller root, larger
    root).
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
        rx, ry = rows[x], rows[y]
        # one pass over the live rows updates the merged row in place and
        # each row's columns y and x; at i = y the update reads ry[y] = inf,
        # so the diagonal stays inf, and dead slots already hold inf
        for i in live:
            row = rows[i]
            row[y] = ry[i] = (nx * rx[i] + ny * ry[i]) / nxy
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
    """``cophenetic_coeff`` on the distance matrix ``d``.  Each leaf pair's
    cophenetic distance is the height of its lowest common ancestor, read
    for every pair of leaf positions from one running maximum over the
    ranks of the gaps between adjacent positions."""
    n = d.shape[0]
    iu, ju = _upper(n)
    y = d[iu, ju]
    if y.size < 2 or np.ptp(y * y) <= 16 * np.finfo(float).eps:
        return float("nan")
    tree = average_linkage(d)
    # node k joins its left block of leaf positions to its right block, so
    # it owns the gap before its right child's first position; the lowest
    # common ancestor of positions p < q is the node of the largest row
    # among gaps p..q-1 (row, not height: heights can invert by an ulp)
    start = np.array(tree.start)
    rank = np.empty(n - 1, dtype=int)
    rank[start[tree.z[:, 1].astype(int)] - 1] = np.arange(n - 1)
    lca = np.maximum.accumulate(np.where(_below(n - 1), 0, rank), axis=1)
    p, q = start[iu], start[ju]
    zz = tree.z[lca[np.minimum(p, q), np.maximum(p, q) - 1], 2]
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


def _scan(dt: np.ndarray, sets: list):
    """Score every (slot, candidate) swap of each sorted medoid set at once.

    ``dt`` is ``d.T`` in C order with a row of inf appended at index n.
    Returns each point's nearest slot and distance per set, (sets, n), and
    the costs, one row per slot of each set in turn and one column per
    candidate, inf where the candidate is already a medoid.  Slot j's base
    distance is each point's nearest medoid other than j, which is its
    second-nearest medoid where j is its nearest, and row c of ``dt`` holds
    the distances to candidate c, so each cost is summed exactly as
    ``d[:, trial].min(axis=1).sum()`` would be.
    """
    n = dt.shape[1]
    m = max(map(len, sets))
    padded = np.array([s + [n] * (m - len(s)) for s in sets])
    dm = dt[padded]  # (sets, m, n); short sets' padded slots are inf
    near = dm.argmin(axis=1)
    at = np.arange(len(sets))[:, None], near, np.arange(n)
    first = dm[at]
    dm[at] = np.inf
    second = dm.min(axis=1)
    owner, slot = np.nonzero(padded < n)
    base = np.where(near[owner] == slot[:, None], second[owner], first[owner])
    cost = np.minimum(base[:, None, :], dt[:-1]).sum(axis=-1)
    taken = np.where(padded < n, padded, padded[:, :1])  # pads repeat a medoid
    cost[np.arange(owner.size)[:, None], taken[owner]] = np.inf
    return near, first, cost


def _swap(dt: np.ndarray, sets: list) -> list:
    """First-improvement PAM swaps from each sorted medoid set in ``sets``,
    searched in lockstep.  Returns one ``(medoids, labels)`` per set.

    A set's pass scans (slot, candidate) in order.  At the first candidate
    that lowers the cost by more than 1e-12 it swaps, then goes on from the
    next (slot, candidate) position against the new sorted medoid set; a
    pass with no swap ends the search, as do 100 passes.  Each round scores
    the swaps of every set still searching in one ``_scan``, and each set
    takes its own first hit from its own position, so it follows the
    sequence it would follow alone.  A new pass starts on the medoids its
    last scan just scored, so it reads the start of that scan instead of
    rescanning.  Every search ends on a scan of the final medoids, whose
    nearest-medoid indices are the labels.  ``dt`` is ``d.T`` in C order.
    """
    n = dt.shape[0]
    dt = np.vstack([dt, np.full(n, np.inf)])
    medoids = [list(s) for s in sets]
    best = None
    pos = [0] * len(sets)  # flat (slot, candidate) position; 0 at a pass start
    passes = [1] * len(sets)
    out = [None] * len(sets)
    active = list(range(len(sets)))
    while active:
        near, first, cost = _scan(dt, [medoids[j] for j in active])
        if best is None:  # the first round scans every set
            best = first.sum(axis=1).tolist()
        ks = np.array([len(medoids[j]) for j in active])
        lo = (np.cumsum(ks) - ks) * n  # each set's first flat cost index
        frm = lo + [pos[j] for j in active]
        thr = np.repeat([best[j] - 1e-12 for j in active], ks)
        # every set's hits as sorted flat indices, closed by cost.size: each
        # set's first hit from its position on, and its first hit overall
        hits = np.append(np.flatnonzero(cost < thr[:, None]), cost.size)
        nxt = hits[np.searchsorted(hits, frm)].tolist()
        wrap = hits[np.searchsorted(hits, lo)].tolist()
        for r, (j, k, lo_r, frm_r) in enumerate(
                zip(active, ks.tolist(), lo.tolist(), frm.tolist())):
            if nxt[r] < lo_r + k * n:
                at = nxt[r]
            elif wrap[r] < frm_r and passes[j] < 100:
                # a hit before the position means this pass swapped; the
                # next pass starts on these medoids, so this is its scan
                passes[j] += 1
                at = wrap[r]
            else:
                out[j] = np.asarray(medoids[j]), near[r]
                continue
            best[j] = cost.item(at)
            pos[j] = at - lo_r + 1
            s, cand = divmod(at - lo_r, n)
            medoids[j] = sorted(medoids[j][:s] + medoids[j][s + 1:] + [cand])
        active = [j for j in active if out[j] is None]
    return out


def _kmedoids(d: np.ndarray, k: int):
    """Deterministic PAM for k >= 1: greedy build (``_build``), then
    first-improvement swaps (``_swap`` on one set).  Returns the sorted
    medoids and each point's label, the index of its nearest medoid."""
    dt = np.ascontiguousarray(d.T)
    return _swap(dt, [sorted(_build(d, dt, k))])[0]


def _silhouettes(d: np.ndarray, labelings: list) -> np.ndarray:
    """Mean silhouette of each labeling; a point alone in its cluster
    scores 0, and a labeling of one cluster -1.

    Each labeling's cluster sums are one product ``d @ onehot`` with one
    column per present cluster; the rest runs on the stack of them, with
    padded clusters' sums at +inf, so each mean has the bits the labeling
    alone would give.
    """
    n = d.shape[0]
    out = np.full(len(labelings), -1.0)
    which, invs, counts = [], [], []
    for i, labels in enumerate(labelings):
        if labels.min() >= 0 and (cnt := np.bincount(labels)).all():
            inv = labels  # labels 0..m-1, all present
        else:
            _, inv, cnt = np.unique(labels, return_inverse=True,
                                    return_counts=True)
        if cnt.size >= 2:
            which.append(i)
            invs.append(inv)
            counts.append(cnt)
    if not which:
        return out
    m = max(cnt.size for cnt in counts)
    sums = np.full((len(which), n, m), np.inf)
    size = np.ones((len(which), m), dtype=int)
    for i, (inv, cnt) in enumerate(zip(invs, counts)):
        sums[i, :, :cnt.size] = d @ np.eye(cnt.size)[inv]
        size[i, :cnt.size] = cnt
    inv = np.array(invs)
    sets, rows = np.arange(len(which))[:, None], np.arange(n)
    own = size[sets, inv] - 1
    a = (sums[sets, rows, inv] - np.diag(d)) / np.maximum(own, 1)
    means = sums / size[:, None, :]
    means[sets, rows, inv] = np.inf
    b = means.min(axis=2)
    denom = np.maximum(a, b)
    s = np.zeros((len(which), n))
    ok = (own > 0) & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    out[which] = s.mean(axis=1)
    return out


def _silhouette(d: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette of one labeling (``_silhouettes``)."""
    return float(_silhouettes(d, [labels])[0])


def cluster_separation(c: np.ndarray):
    """Best mean silhouette over a k-medoids scan on sqrt(2(1-rho)).

    The scan covers k = 2..6, stopping below dim.  The greedy build runs
    once, to the largest k scanned; every k's swap search starts from the
    first k of its medoids (``_build`` is prefix-stable), and the searches
    run in one lockstep ``_swap``, so every k gets the medoids that
    ``_kmedoids(d, k)`` gives.  Their silhouettes are scored in one
    ``_silhouettes`` call.  Below dim 3 there is no k to scan: -1, None.
    """
    return _cluster_separation(corr_distance(c))


def _cluster_separation(d: np.ndarray):
    ks = list(range(2, min(7, d.shape[0])))
    if not ks:
        return -1.0, None
    dt = np.ascontiguousarray(d.T)
    build = _build(d, dt, max(ks))
    found = _swap(dt, [sorted(build[:k]) for k in ks])
    scores = _silhouettes(d, [labels for _, labels in found]).tolist()
    best = -1.0
    best_k = None
    for k, s in zip(ks, scores):
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
