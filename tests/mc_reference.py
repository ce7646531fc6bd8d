"""Reference forms of the Monte Carlo simulation path.

``kmedoids`` runs a whole greedy build for its own k, then scans
the swaps one slot at a time, each scan scoring the candidates from the
scan position on.  ``separation`` calls it once per k.  ``silhouette``
labels the clusters through ``np.unique``, ``hrp_weights`` takes
``np.diag`` of every bisection cluster, one-asset clusters included, and
scales the leaves' weights in place, ``mst_degrees`` counts in a Python
loop, ``degree_tail_exponent`` counts through ``np.unique`` and fits with
``np.polyfit``, and ``backtest_methods`` draws each return panel through
its own ``simulate_returns`` call, with its own Cholesky factor, and
scores each allocator on its own 1-D return paths.  Tests compare the
library's forms against these bit for bit, and ``install`` runs a whole
``mc.run`` on them.
"""

from collections import Counter

import numpy as np

from corrlab import facts, mc, portfolio, rng
from corrlab.core import cholesky, symmetrize
from corrlab.exceptions import InvalidInput, NotPositiveDefinite


def kmedoids(d, k, max_iter=100):
    n = d.shape[0]
    dt = np.ascontiguousarray(d.T)
    medoids = [int(np.argmin(d.sum(axis=0)))]
    while len(medoids) < k:
        cur = d[:, medoids].min(axis=1)
        gain = np.maximum(cur - dt, 0.0).sum(axis=1)
        gain[medoids] = -np.inf
        medoids.append(int(np.argmax(gain)))
    medoids = sorted(medoids)

    best = float(d[:, medoids].min(axis=1).sum())
    for _ in range(max_iter):
        improved = False
        for mi in range(k):
            start = 0
            while start < n:
                others = medoids[:mi] + medoids[mi + 1:]
                base = np.min(d[:, others], axis=1, initial=np.inf)
                cost = np.minimum(base, dt[start:]).sum(axis=1)
                cost[[m - start for m in medoids if m >= start]] = np.inf
                hits = np.flatnonzero(cost < best - 1e-12)
                if hits.size == 0:
                    break
                cand = start + int(hits[0])
                medoids, best = sorted(others + [cand]), float(cost[hits[0]])
                improved = True
                start = cand + 1
        if not improved:
            break
    labels = np.argmin(d[:, medoids], axis=1)
    return np.asarray(medoids), labels


def silhouette(d, labels):
    n = d.shape[0]
    uniq, inv = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        return -1.0
    onehot = np.eye(uniq.size)[inv]
    sums = d @ onehot
    counts = onehot.sum(axis=0)
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


def cluster_separation(c, k_range=range(2, 7)):
    return separation(facts.corr_distance(c), k_range)


def separation(d, k_range=range(2, 7)):
    best = -1.0
    best_k = None
    for k in k_range:
        if k >= d.shape[0]:
            break
        _, labels = kmedoids(d, k)
        s = silhouette(d, labels)
        if s > best:
            best, best_k = s, k
    return best, best_k


def mst_degrees(tree, n):
    deg = np.zeros(n, dtype=int)
    for i, j in tree:
        deg[i] += 1
        deg[j] += 1
    return deg


def degree_tail_exponent(degrees):
    vals, counts = np.unique(degrees[degrees >= 1], return_counts=True)
    mask = vals >= 2
    if mask.sum() < 2:
        mask = np.ones_like(vals, dtype=bool)
    if mask.sum() < 2:
        return 0.0
    x = np.log(vals[mask].astype(float))
    y = np.log(counts[mask].astype(float))
    return float(-np.polyfit(x, y, 1)[0])


def _cluster_var(sub):
    w = 1.0 / np.diag(sub)
    w = w / w.sum()
    return float(w @ sub @ w)


def hrp_weights(cov):
    cov = symmetrize(np.asarray(cov, dtype=float))
    if np.linalg.eigvalsh(cov)[0] <= 0:
        raise NotPositiveDefinite("covariance must be positive definite")
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    order = portfolio.quasi_diag_order(corr)

    p = cov[np.ix_(order, order)]
    n = cov.shape[0]
    wp = np.ones(n)
    stack = [(0, n)]
    while stack:
        a, b = stack.pop()
        if b - a <= 1:
            continue
        m = a + (b - a) // 2
        var_l = _cluster_var(p[a:m, a:m])
        var_r = _cluster_var(p[m:b, m:b])
        alpha = 1.0 - var_l / (var_l + var_r)
        wp[a:m] *= alpha
        wp[m:b] *= 1.0 - alpha
        stack.append((a, m))
        stack.append((m, b))
    w = np.empty(n)
    w[order] = wp
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def simulate_returns(corr, vols, t, seed, stream=0):
    corr = symmetrize(corr)
    vols = np.asarray(vols, dtype=float)
    if t < 2:
        raise InvalidInput("t must be >= 2")
    if np.any(vols <= 0):
        raise InvalidInput("vols must be positive")
    dim = corr.shape[0]
    c = corr + 1e-10 * np.eye(dim)
    try:
        chol = cholesky(c)
    except NotPositiveDefinite:
        raise NotPositiveDefinite("correlation matrix not PD after jitter")
    g = rng.generator(seed, stream)
    z = g.standard_normal((t, dim))
    return (z @ chol.T) * vols[None, :]


def max_drawdown(path):
    wealth = np.cumprod(1.0 + path)
    peak = np.maximum.accumulate(wealth)
    return float(np.max(1.0 - wealth / peak))


def weights_for(method, cov):
    if not np.all(np.isfinite(cov)):
        raise InvalidInput("covariance has non-finite entries")
    if method == "hrp":
        return hrp_weights(cov)
    if method == "ivp":
        return portfolio.ivp_weights(cov)
    return portfolio.ew_weights(cov.shape[0])


def backtest_methods(corr, vols, methods, t_in, t_out, seed):
    corr = symmetrize(corr)
    dim = corr.shape[0]
    for method in methods:
        if method not in portfolio.METHODS:
            raise InvalidInput(f"method must be one of {portfolio.METHODS}")
    if t_in < dim + 2 or t_out < dim + 2:
        raise InvalidInput("panels must have at least dim + 2 observations")

    panel_in = simulate_returns(corr, vols, t_in, seed, stream=1)
    panel_out = simulate_returns(corr, vols, t_out, seed, stream=2)
    cov_hat = np.cov(panel_in, rowvar=False, ddof=1)

    reports = {}
    for method in methods:
        w = weights_for(method, cov_hat)
        r_in = panel_in @ w
        r_out = panel_out @ w
        reports[method] = portfolio.RiskReport(
            in_sample_vol=float(r_in.std(ddof=1) * portfolio.ANNUALIZATION),
            out_sample_vol=float(r_out.std(ddof=1) * portfolio.ANNUALIZATION),
            max_drawdown=max_drawdown(r_out),
        )
    return reports


def install(monkeypatch):
    """Run ``feature_vector`` and ``mc.run`` on the reference forms, in
    place of the names they call.  Returns a ``Counter`` of the calls each
    reference form gets, so a test can see that every one of them ran."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, fn in (
        (facts, "_cluster_separation", separation),
        (facts, "mst_degrees", mst_degrees),
        (facts, "degree_tail_exponent", degree_tail_exponent),
        (mc, "backtest_methods", backtest_methods),
    ):
        monkeypatch.setattr(module, name, counted(name, fn))
    return calls
