"""Risk-based allocation methods and synthetic-return backtesting.

Three allocators: hierarchical risk parity (cluster, quasi-diagonalize,
recursively split capital by inverse cluster variance), naive risk
parity (inverse variance), and equal weight.  Returns are zero-mean
Gaussian with covariance diag(vols) * corr * diag(vols); risk is
annualized realized volatility plus max drawdown on the out-of-sample
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import cholesky, symmetrize
from .exceptions import InvalidInput, NotPositiveDefinite
from .facts import average_linkage, corr_distance

ANNUALIZATION = np.sqrt(252.0)

METHODS = ("hrp", "ivp", "ew")


@dataclass
class RiskReport:
    in_sample_vol: float
    out_sample_vol: float
    max_drawdown: float

    @property
    def decay(self) -> float:
        return self.out_sample_vol - self.in_sample_vol


def _check_weights(w: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def ew_weights(dim: int) -> np.ndarray:
    if dim < 1:
        raise InvalidInput("dim must be >= 1")
    return np.full(dim, 1.0 / dim)


def ivp_weights(cov) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    var = np.diag(cov)
    if np.any(var <= 0):
        raise InvalidInput("variances must be positive")
    w = 1.0 / var
    return w / w.sum()


def _cluster_var(sub: np.ndarray) -> float:
    """Variance of the inverse-variance portfolio of one cluster."""
    w = 1.0 / np.diag(sub)
    w = w / w.sum()
    return float(w @ sub @ w)


def quasi_diag_order(corr: np.ndarray) -> list[int]:
    """Leaf order of the average-linkage tree on sqrt(2(1-rho))."""
    return average_linkage(corr_distance(corr)).order


def hrp_weights(cov) -> np.ndarray:
    """Hierarchical risk parity allocation (Lopez de Prado recursion)."""
    cov = symmetrize(np.asarray(cov, dtype=float))
    if np.linalg.eigvalsh(cov)[0] <= 0:
        raise NotPositiveDefinite("covariance must be positive definite")
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    order = quasi_diag_order(corr)

    # in quasi-diagonal order every bisection cluster is a contiguous block
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
    return _check_weights(w)


def weights_for(method: str, cov) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise InvalidInput("covariance has non-finite entries")
    if method == "hrp":
        return hrp_weights(cov)
    if method == "ivp":
        return ivp_weights(cov)
    if method == "ew":
        return ew_weights(cov.shape[0])
    raise InvalidInput(f"unknown method {method!r}")


def simulate_returns(corr, vols, t: int, seed: int, stream: int = 0):
    """T x dim zero-mean Gaussian panel with covariance D corr D."""
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


def max_drawdown(returns_path: np.ndarray) -> float:
    """Max drawdown of the cumulative (compounded) return path."""
    wealth = np.cumprod(1.0 + returns_path)
    peak = np.maximum.accumulate(wealth)
    return float(np.max(1.0 - wealth / peak))


def default_vols(dim: int, seed: int, stream: int = 0,
                 sigma: float = 0.10) -> np.ndarray:
    """Lognormal daily vols around 20% annualized."""
    g = rng.generator(seed, stream)
    return np.exp(g.normal(np.log(0.2 / ANNUALIZATION), sigma, size=dim))


def backtest_methods(
    corr,
    vols,
    methods,
    t_in: int,
    t_out: int,
    seed: int,
) -> dict:
    """Backtest several allocators on one pair of return panels.

    The panels depend only on ``corr``, ``vols``, the lengths and ``seed``,
    so they are drawn and the in-sample covariance estimated once; each
    report equals the one ``backtest`` gives for that method.  Returns
    ``{method: RiskReport}`` in the order of ``methods``.
    """
    corr = symmetrize(corr)
    dim = corr.shape[0]
    for method in methods:
        if method not in METHODS:
            raise InvalidInput(f"method must be one of {METHODS}")
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
        reports[method] = RiskReport(
            in_sample_vol=float(r_in.std(ddof=1) * ANNUALIZATION),
            out_sample_vol=float(r_out.std(ddof=1) * ANNUALIZATION),
            max_drawdown=max_drawdown(r_out),
        )
    return reports


def backtest(
    corr,
    vols,
    method: str,
    t_in: int,
    t_out: int,
    seed: int,
) -> RiskReport:
    """Fit weights on an in-sample panel, measure risk in and out of sample."""
    return backtest_methods(corr, vols, (method,), t_in, t_out, seed)[method]
