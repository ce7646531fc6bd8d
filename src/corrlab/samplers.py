"""Random correlation-matrix generators.

Five constructions:

* :func:`sample_onion` -- extended onion method; ``eta = 1`` samples
  uniformly over the elliptope (LKJ density).
* :func:`sample_cvine` -- C-vine over Beta-distributed partial
  correlations rescaled to (-1, 1); skewed Beta parameters push the
  off-diagonals positive.
* :func:`sample_with_spectrum` -- Bendel-Mickey / Davies-Higham Givens
  rotations realizing a prescribed spectrum with an exactly unit diagonal.
* :func:`sample_one_factor` -- rank-one market-factor model whose matrices
  have positive entries (Perron-Frobenius leading eigenvector).
* :func:`sample_regime` -- hierarchical-block one-factor surrogate for
  stressed / normal / rally market regimes.

All samplers take an explicit master seed and an optional stream index so
batches can be drawn in parallel with order-independent results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .core import symmetrize
from .exceptions import InvalidInput


class RegimeLabel(Enum):
    STRESSED = "stressed"
    NORMAL = "normal"
    RALLY = "rally"


# the regime set, in the order of every one-hot code, corpus and study
REGIMES = tuple(RegimeLabel)


@dataclass
class RegimeParams:
    market_beta_range: tuple[float, float]
    n_clusters: int
    intra_boost: float
    noise_scale: float
    hierarchy_depth: int = 1

    def __post_init__(self):
        lo, hi = self.market_beta_range
        if not (0.0 < lo < hi < 1.0):
            raise InvalidInput("market beta range must satisfy 0 < lo < hi < 1")
        if self.n_clusters < 1 or self.hierarchy_depth < 1:
            raise InvalidInput("n_clusters and hierarchy_depth must be >= 1")
        if not (0 <= self.intra_boost < np.inf
                and 0 <= self.noise_scale < np.inf):
            raise InvalidInput(
                "intra_boost and noise_scale must be finite numbers >= 0")


# Defaults chosen so that mean correlation is ordered
# stressed > normal > rally and hierarchy is weakest under stress:
# a crash is one tight market factor with little cluster structure, while
# steady and rallying markets carry strong, heterogeneous clusters.
DEFAULT_REGIME_PARAMS = {
    RegimeLabel.STRESSED: RegimeParams((0.70, 0.74), 2, 0.03, 0.01, 1),
    RegimeLabel.NORMAL: RegimeParams((0.30, 0.46), 5, 0.50, 0.02, 2),
    RegimeLabel.RALLY: RegimeParams((0.20, 0.35), 5, 0.55, 0.02, 2),
}


def sample_onion(dim: int, eta: float, seed: int, stream: int = 0) -> np.ndarray:
    """Draw from the LKJ(eta) density via the extended onion method."""
    if dim < 2:
        raise InvalidInput("dim must be >= 2")
    if not 0 < eta < np.inf:
        raise InvalidInput(f"eta must be a finite number > 0, not {eta}")
    g = rng.generator(seed, stream)

    beta = eta + (dim - 2) / 2.0
    r = 2.0 * g.beta(beta, beta) - 1.0
    c = np.array([[1.0, r], [r, 1.0]])
    for k in range(2, dim):
        beta -= 0.5
        y = g.beta(k / 2.0, beta)
        u = g.standard_normal(k)
        u /= np.linalg.norm(u)
        w = np.sqrt(y) * u
        chol = np.linalg.cholesky(c + 1e-14 * np.eye(k))
        z = chol @ w
        c = np.block([[c, z[:, None]], [z[None, :], np.ones((1, 1))]])
    c = symmetrize(c)
    np.fill_diagonal(c, 1.0)
    return c


def sample_cvine(
    dim: int, beta_a: float, beta_b: float, seed: int, stream: int = 0
) -> np.ndarray:
    """C-vine construction from Beta(beta_a, beta_b) partial correlations."""
    if dim < 2:
        raise InvalidInput("dim must be >= 2")
    if not (0 < beta_a < np.inf and 0 < beta_b < np.inf):
        raise InvalidInput("beta parameters must be finite numbers > 0, not "
                           f"{beta_a} and {beta_b}")
    g = rng.generator(seed, stream)

    partials = np.zeros((dim, dim))
    c = np.eye(dim)
    for k in range(dim - 1):
        for i in range(k + 1, dim):
            partials[k, i] = 2.0 * g.beta(beta_a, beta_b) - 1.0
            p = partials[k, i]
            for l in range(k - 1, -1, -1):
                p = (
                    p * np.sqrt((1 - partials[l, i] ** 2) * (1 - partials[l, k] ** 2))
                    + partials[l, i] * partials[l, k]
                )
            c[k, i] = c[i, k] = p
    np.fill_diagonal(c, 1.0)
    return c


def sample_with_spectrum(
    eigenvalues, seed: int, stream: int = 0, tol: float = 1e-12
) -> np.ndarray:
    """Correlation matrix with the given spectrum (sum must equal dim).

    Conjugates diag(eigenvalues) by a random orthogonal matrix, then
    applies Givens rotations driving each diagonal entry to exactly 1
    (Bendel-Mickey as refined by Davies-Higham).  Pivot rule: pair the
    diagonal entries farthest below and above 1.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    dim = lam.size
    if dim < 2:
        raise InvalidInput("need at least two eigenvalues")
    if not np.all(lam >= 0):
        raise InvalidInput("eigenvalues must be numbers >= 0")
    if abs(lam.sum() - dim) > 1e-10:
        raise InvalidInput(
            f"eigenvalue sum must equal dim (got {lam.sum():.12g} != {dim})"
        )
    g = rng.generator(seed, stream)
    q, r = np.linalg.qr(g.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    a = symmetrize(q @ np.diag(lam) @ q.T)

    for _ in range(2 * dim):
        d = np.diag(a).copy()
        if np.all(np.abs(d - 1.0) <= tol):
            break
        i = int(np.argmin(d))
        j = int(np.argmax(d))
        if d[i] >= 1.0 - tol or d[j] <= 1.0 + tol:
            break
        # rotation in the (i, j) plane making a_ii exactly 1
        aii, ajj, aij = a[i, i], a[j, j], a[i, j]
        disc = aij * aij - (aii - 1.0) * (ajj - 1.0)
        t = (aij + np.sqrt(max(disc, 0.0))) / (ajj - 1.0)
        cth = 1.0 / np.sqrt(1.0 + t * t)
        sth = t * cth
        row_i = cth * a[i, :] - sth * a[j, :]
        row_j = sth * a[i, :] + cth * a[j, :]
        a[i, :], a[j, :] = row_i, row_j
        col_i = cth * a[:, i] - sth * a[:, j]
        col_j = sth * a[:, i] + cth * a[:, j]
        a[:, i], a[:, j] = col_i, col_j
        a[i, i] = 1.0
        a = symmetrize(a)
    np.fill_diagonal(a, 1.0)
    return a


def sample_one_factor(
    dim: int, beta_range: tuple[float, float], seed: int, stream: int = 0
) -> np.ndarray:
    """One-factor matrix C = beta beta^T + diag(1 - beta^2)."""
    lo, hi = beta_range
    if not (0.0 < lo <= hi < 1.0):
        raise InvalidInput("beta range must satisfy 0 < lo <= hi < 1")
    if dim < 2:
        raise InvalidInput("dim must be >= 2")
    g = rng.generator(seed, stream)
    beta = g.uniform(lo, hi, size=dim)
    c = np.outer(beta, beta)
    np.fill_diagonal(c, 1.0)
    return c


def sample_regime(
    regime: RegimeLabel,
    dim: int,
    params: RegimeParams | None = None,
    seed: int = 0,
    stream: int = 0,
) -> np.ndarray:
    """Hierarchical-block one-factor draw for the given market regime.

    Loadings: a market factor with regime-dependent range, cluster
    factors of heterogeneous strength (each cluster's variance share is
    drawn from (0.3, 1.0) x intra_boost), and nested sub-cluster factors
    when hierarchy_depth > 1.  The implied matrix C = B B^T + diag is PSD
    by construction; noise_scale perturbs the market loadings only.
    """
    if dim < 4:
        raise InvalidInput("dim must be >= 4")
    if params is None:
        params = DEFAULT_REGIME_PARAMS[regime]
    g = rng.generator(seed, stream)

    lo, hi = params.market_beta_range
    market = g.uniform(lo, hi, size=dim)
    if params.noise_scale > 0:
        market = np.clip(
            market + g.uniform(-params.noise_scale, params.noise_scale, dim),
            0.01,
            0.99,
        )

    k = min(params.n_clusters, dim // 2)
    # uneven cluster sizes: the dispersion they induce in the leading
    # eigenvector is what distinguishes a structured market from a crash
    raw = g.uniform(0.5, 2.0, size=k)
    sizes = np.maximum(1, np.round(raw / raw.sum() * dim).astype(int))
    while sizes.sum() > dim:
        sizes[np.argmax(sizes)] -= 1
    while sizes.sum() < dim:
        sizes[np.argmin(sizes)] += 1
    clusters = np.repeat(np.arange(k), sizes)
    boosts = params.intra_boost * g.uniform(0.15, 1.0, size=k)
    intra = np.sqrt(boosts[clusters]) * g.uniform(0.9, 1.0, size=dim)
    b_cluster = np.zeros((dim, k))
    b_cluster[np.arange(dim), clusters] = intra
    loadings = [market[:, None], b_cluster]

    if params.hierarchy_depth > 1:
        sub = clusters * 2 + (np.arange(dim) % 2)
        nsub = int(sub.max()) + 1
        sub_boosts = 0.5 * params.intra_boost * g.uniform(0.15, 1.0, size=nsub)
        sub_load = np.sqrt(sub_boosts[sub]) * g.uniform(0.9, 1.0, size=dim)
        b_sub = np.zeros((dim, nsub))
        b_sub[np.arange(dim), sub] = sub_load
        loadings.append(b_sub)

    b = np.hstack(loadings)
    # rescale rows so total systematic variance stays below 1
    row_norm2 = np.sum(b * b, axis=1)
    cap = 0.98
    scale = np.where(row_norm2 > cap, np.sqrt(cap / row_norm2), 1.0)
    b = b * scale[:, None]
    c = b @ b.T
    np.fill_diagonal(c, 1.0)
    return symmetrize(c)
