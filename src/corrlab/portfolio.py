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
from .core import symmetrize
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


def quasi_diag_order(corr: np.ndarray) -> list[int]:
    """Leaf order of the average-linkage tree on sqrt(2(1-rho))."""
    return average_linkage(corr_distance(corr)).order


def _ivp_var(inv_var: np.ndarray, block: np.ndarray) -> float:
    """Variance of the inverse-variance portfolio of a covariance block."""
    w = inv_var / inv_var.sum()
    return float(w @ block @ w)


def hrp_weights(cov) -> np.ndarray:
    """Hierarchical risk parity allocation (Lopez de Prado recursion).

    A one-asset block's normalised weight is x / x = 1.0 exactly, so its
    variance is its diagonal entry.  A block's weight is the product of its
    ancestors' split factors, multiplied root to leaf as in-place scaling is.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    if np.linalg.eigvalsh(cov)[0] <= 0:
        raise NotPositiveDefinite("covariance must be positive definite")
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)
    order = quasi_diag_order(corr)

    # in quasi-diagonal order every bisection cluster is a contiguous block
    p = cov[np.ix_(order, order)]
    inv_var = 1.0 / np.diag(p)

    n = cov.shape[0]
    wp = [1.0] * n
    stack = [(0, n, 1.0)]
    while stack:
        a, b, w = stack.pop()
        if b - a == 1:
            wp[a] = w
            continue
        m = a + (b - a) // 2
        var_l = p[a, a] if m - a == 1 else _ivp_var(inv_var[a:m], p[a:m, a:m])
        var_r = p[m, m] if b - m == 1 else _ivp_var(inv_var[m:b], p[m:b, m:b])
        alpha = 1.0 - var_l / (var_l + var_r)
        stack.append((a, m, w * alpha))
        stack.append((m, b, w * (1.0 - alpha)))
    w = np.empty(n)
    w[order] = wp
    return _check_weights(w)


def _check_finite(cov: np.ndarray) -> None:
    if not np.all(np.isfinite(cov)):
        raise InvalidInput("covariance has non-finite entries")


def _weights(method: str, cov: np.ndarray) -> np.ndarray:
    """``method``'s weights for a finite float covariance."""
    if method == "hrp":
        return hrp_weights(cov)
    if method == "ivp":
        return ivp_weights(cov)
    if method == "ew":
        return ew_weights(cov.shape[0])
    raise InvalidInput(f"unknown method {method!r}")


def weights_for(method: str, cov) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    _check_finite(cov)
    return _weights(method, cov)


def _return_factor(corr: np.ndarray, vols):
    """``(chol, vols)``: the Cholesky factor of ``corr`` plus 1e-10 I, and
    ``vols`` as checked floats.  ``corr`` is symmetric already (callers
    pass ``symmetrize``'s result), so it is factored as it stands."""
    vols = np.asarray(vols, dtype=float)
    if np.any(vols <= 0):
        raise InvalidInput("vols must be positive")
    c = corr + 1e-10 * np.eye(corr.shape[0])
    try:
        return np.linalg.cholesky(c), vols
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("correlation matrix not PD after jitter")


def _draw_returns(chol, vols, t: int, seed: int, stream: int):
    g = rng.generator(seed, stream)
    z = g.standard_normal((t, chol.shape[0]))
    return (z @ chol.T) * vols[None, :]


def simulate_returns(corr, vols, t: int, seed: int, stream: int = 0):
    """T x dim zero-mean Gaussian panel with covariance D corr D."""
    if t < 2:
        raise InvalidInput("t must be >= 2")
    return _draw_returns(*_return_factor(symmetrize(corr), vols), t, seed,
                         stream)


def max_drawdown(returns_path: np.ndarray) -> float | np.ndarray:
    """Max drawdown of the cumulative (compounded) return path: a float
    for one path, one value per row for a stack of paths."""
    wealth = np.cumprod(1.0 + returns_path, axis=-1)
    peak = np.maximum.accumulate(wealth, axis=-1)
    dd = np.max(1.0 - wealth / peak, axis=-1)
    return float(dd) if np.ndim(dd) == 0 else dd


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
    report equals the one ``backtest`` gives for that method.  Both panels
    come from one Cholesky factor, streams 1 and 2 of ``seed``, as two
    ``simulate_returns`` calls would draw them.  Each allocator's returns
    are one matrix-vector product per panel; their volatilities and
    drawdowns are taken along the rows of the stacked returns.  Returns
    ``{method: RiskReport}`` in the order of ``methods``.
    """
    corr = symmetrize(corr)
    dim = corr.shape[0]
    for method in methods:
        if method not in METHODS:
            raise InvalidInput(f"method must be one of {METHODS}")
    if t_in < dim + 2 or t_out < dim + 2:
        raise InvalidInput("panels must have at least dim + 2 observations")

    chol, vols = _return_factor(corr, vols)
    panel_in = _draw_returns(chol, vols, t_in, seed, stream=1)
    panel_out = _draw_returns(chol, vols, t_out, seed, stream=2)
    cov_hat = np.cov(panel_in, rowvar=False, ddof=1)
    _check_finite(cov_hat)

    ws = [_weights(method, cov_hat) for method in methods]
    vol_in = np.stack([panel_in @ w for w in ws]).std(ddof=1, axis=1)
    r_out = np.stack([panel_out @ w for w in ws])
    vol_out = r_out.std(ddof=1, axis=1)
    drawdowns = max_drawdown(r_out)
    return {
        method: RiskReport(
            in_sample_vol=float(vol_in[i] * ANNUALIZATION),
            out_sample_vol=float(vol_out[i] * ANNUALIZATION),
            max_drawdown=float(drawdowns[i]),
        )
        for i, method in enumerate(methods)
    }


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
