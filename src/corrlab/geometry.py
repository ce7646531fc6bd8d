"""Affine-invariant (Fisher-Rao) geometry on SPD matrices.

Implements the geodesic, the distance, and five notions of mean for a set
of correlation matrices:

* M1 -- Euclidean (arithmetic) mean,
* M2 -- Riemannian barycenter (Karcher mean), in general a covariance
  matrix that leaves the elliptope,
* M3 -- M2 renormalized to unit diagonal,
* M4 -- Frechet mean constrained to the elliptope,
* M5 -- Riemannian projection of M2 onto the elliptope.

The geodesic between two correlation matrices generally leaves the
elliptope (the elliptope is not totally geodesic in the SPD manifold);
the 2x2 pair with correlations +/-rho is the canonical illustration: the
midpoint is sqrt(1 - rho^2) * I, whose diagonal is below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import symmetrize
from .exceptions import ConvergenceFailure, InvalidInput, NotPositiveDefinite

_JITTER_EIG = 1e-10


class MeanMethod(Enum):
    M1_EUCLIDEAN = "m1"
    M2_RIEMANNIAN_BARYCENTER = "m2"
    M3_NORMALIZED_BARYCENTER = "m3"
    M4_CONSTRAINED_FRECHET = "m4"
    M5_RIEMANNIAN_PROJECTION = "m5"


@dataclass
class MeanResult:
    matrix: np.ndarray
    method: MeanMethod
    iterations: int
    converged: bool
    grad_norm: float
    jitter_applied: bool


def _eig_fun(a: np.ndarray, fun) -> np.ndarray:
    w, v = np.linalg.eigh(symmetrize(a))
    return (v * fun(w)) @ v.T


def _check_pd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = symmetrize(a)
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise NotPositiveDefinite(f"{name} has min eigenvalue {w[0]:.3e}")
    return a


def spd_sqrt(a):
    return _eig_fun(a, np.sqrt)


def spd_inv_sqrt(a):
    return _eig_fun(a, lambda w: 1.0 / np.sqrt(w))


def spd_power(a, t: float):
    return _eig_fun(a, lambda w: np.power(w, t))


def airm_distance(a, b) -> float:
    """Fisher-Rao distance ||log(A^{-1/2} B A^{-1/2})||_F."""
    a = _check_pd(a, "A")
    b = _check_pd(b, "B")
    if a.shape != b.shape:
        raise InvalidInput("dimension mismatch")
    ais = spd_inv_sqrt(a)
    w = np.linalg.eigvalsh(symmetrize(ais @ b @ ais))
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def geodesic(a, b, t: float) -> np.ndarray:
    """Point gamma(t) = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInput(f"t must lie in [0, 1], got {t}")
    a = _check_pd(a, "A")
    b = _check_pd(b, "B")
    if a.shape != b.shape:
        raise InvalidInput("dimension mismatch")
    asq = spd_sqrt(a)
    ais = spd_inv_sqrt(a)
    mid = spd_power(symmetrize(ais @ b @ ais), t)
    return symmetrize(asq @ mid @ asq)


def _jitter(mats):
    """Stack the symmetric ``mats``, adding 1e-10 I to each whose least
    eigenvalue is below 1e-10; return the stack and whether any was."""
    mats = np.stack(mats)
    low = np.linalg.eigvalsh(mats)[:, 0] < _JITTER_EIG
    mats[low] += _JITTER_EIG * np.eye(mats.shape[1])
    return mats, bool(low.any())


def _unit_diag(a):
    """D^{-1/2} A D^{-1/2}, D = Diag(diag A), with an exact unit diagonal."""
    d = np.sqrt(np.diag(a))
    out = a / np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return out


def karcher_mean(mats, tol: float = 1e-10, max_iter: int = 1000):
    """Riemannian barycenter (Pennec 2006; Bhatia 2007) by :func:`_descend`
    from the arithmetic mean; returns ``(x, iterations, grad_norm)``."""
    x0 = symmetrize(sum(mats) / len(mats))
    x, it, grad_norm = _descend(mats, x0, False, tol, max_iter)
    if grad_norm > tol:
        raise ConvergenceFailure(
            f"Karcher mean did not converge in {max_iter} iterations",
            last_iterate=x,
            residual=grad_norm,
        )
    return x, it, grad_norm


def _frechet_objective(c, mats) -> float:
    return sum(airm_distance(c, m) ** 2 for m in mats)


def _whiten(c, targets, unit_diag):
    """``(C^{1/2}, f(C), rounding of f, X)`` from one eigh of C and one
    stacked eigh of the whitened targets C^{-1/2} M_i C^{-1/2} (see
    :func:`_descend`); None if C or a target is not numerically SPD."""
    if not np.all(np.isfinite(c)):
        return None
    w, v = np.linalg.eigh(c)
    if w[0] <= 0:
        return None
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    lam, u = np.linalg.eigh(inv_root @ targets @ inv_root)
    if lam[:, 0].min() <= 0:
        return None
    logs = np.log(lam)
    f = float(np.sum(logs ** 2))
    # relative 1e-12, unless whitening (error ~ eps cond(C)) and eigh leave
    # the logs of an ill-conditioned target rougher than that
    rounding = max(1e-12 * f, 4 * np.finfo(float).eps * w[-1] / w[0]
                   * float(np.sum(np.abs(logs) * lam[:, -1:] / lam)))
    x = symmetrize(((u * logs[:, None, :]) @ u.transpose(0, 2, 1)).mean(0))
    if unit_diag:
        try:  # C o C is PD when C is (Schur), unless rounding says otherwise
            normal = np.linalg.solve(c * c, np.diag(root @ x @ root))
        except np.linalg.LinAlgError:
            return None
        x = x - (root * normal) @ root
    return root, f, rounding, x


def _descend(targets, start, unit_diag, tol, max_iter):
    """Minimize f(C) = sum_i d^2(C, M_i) by Riemannian gradient descent.

    At C the descent direction is C^{1/2} X C^{1/2}, where X is the mean
    log of the whitened targets, and a step of length t retracts it as
    C^{1/2} exp(t X) C^{1/2}.  With ``unit_diag`` the search stays on the
    elliptope: X loses its component along C^{1/2} Diag(lam) C^{1/2}
    (the normals of diag(C) = 1), lam solving (C o C) lam =
    diag(C^{1/2} X C^{1/2}), and each candidate is rescaled to unit
    diagonal.  t is the Barzilai-Borwein secant step, halved while f
    rises by more than its rounding.  Returns ``(C, iterations, ||X||)``;
    ||X|| <= tol certifies a stationary point.
    """
    targets = np.asarray(targets)
    c, state = start, _whiten(start, targets, unit_diag)
    if state is None:
        raise NotPositiveDefinite("descent start is not positive definite")
    root, obj, rounding, x = state
    step = 1.0
    for it in range(max_iter):
        grad_norm = float(np.linalg.norm(x))
        if grad_norm <= tol:
            return c, it, grad_norm
        w, v = np.linalg.eigh(step * x)
        with np.errstate(over="ignore", invalid="ignore"):  # overlong step
            cand = root @ (v * np.exp(w)) @ v.T @ root
            if unit_diag:
                d = 1.0 / np.sqrt(np.diag(cand))
                cand = cand * np.outer(d, d)
            cand = symmetrize(cand)
        state = _whiten(cand, targets, unit_diag)
        if state is None or not state[1] <= obj + rounding:
            step /= 2.0
            continue
        curvature = float(np.sum(x * (x - state[3])))
        step = step * grad_norm**2 / curvature if curvature > 0 else 1.0
        step = min(step, 1e3)
        c, (root, obj, rounding, x) = cand, state
    return c, max_iter, grad_norm


def mean(method: MeanMethod, mats) -> MeanResult:
    """Compute the requested mean of a non-empty set of correlation matrices.

    Every method but M1 first adds 1e-10 I to each matrix whose least
    eigenvalue is below 1e-10 (``jitter_applied``).  M2, M3 and M5 rest on
    the Karcher mean, and raise ``ConvergenceFailure`` when it cannot be
    certified.  M4 descends on the elliptope from the unit-diagonal
    arithmetic mean, a correlation matrix, so it needs no Karcher mean.
    M4 and M5 report ``converged`` from their own descent's certificate.
    """
    if not mats:
        raise InvalidInput("empty matrix set")
    mats = [symmetrize(m) for m in mats]
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise InvalidInput("matrices must share a common dimension")

    if method is MeanMethod.M1_EUCLIDEAN:
        m1 = sum(mats) / len(mats)
        return MeanResult(m1, method, 0, True, 0.0, False)

    mats_pd, jittered = _jitter(mats)
    if method is MeanMethod.M4_CONSTRAINED_FRECHET:
        targets, start = mats_pd, _unit_diag(mats_pd.mean(axis=0))
    else:
        sigma, iters, grad = karcher_mean(mats_pd)
        if method is MeanMethod.M2_RIEMANNIAN_BARYCENTER:
            return MeanResult(sigma, method, iters, True, grad, jittered)
        m3 = _unit_diag(sigma)
        if method is MeanMethod.M3_NORMALIZED_BARYCENTER:
            return MeanResult(m3, method, iters, True, grad, jittered)
        if method is not MeanMethod.M5_RIEMANNIAN_PROJECTION:
            raise InvalidInput(f"unknown method {method}")  # pragma: no cover
        targets, start = [sigma], m3

    c, it2, grad2 = _descend(targets, start, True, 1e-10, 200)
    np.fill_diagonal(c, 1.0)
    return MeanResult(c, method, it2, grad2 <= 1e-10, grad2, jittered)
