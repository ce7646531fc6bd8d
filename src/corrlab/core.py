"""Dense symmetric-matrix foundation.

Correlation matrices are represented as plain ``numpy.ndarray`` of shape
(n, n), float64.  A valid correlation matrix is symmetric, has a unit
diagonal, off-diagonal entries in [-1, 1] and is positive semidefinite;
:func:`validate` checks all of this and reports every violated condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import (
    ConvergenceFailure,
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
)

DEFAULT_TOL = 1e-8


class Violation(Enum):
    DIAGONAL = "Diagonal"
    RANGE = "Range"
    PSD = "PSD"
    ASYMMETRY = "Asymmetry"


@dataclass
class ValidationReport:
    is_valid: bool
    diag_max_dev: float
    offdiag_max_abs: float
    min_eigenvalue: float
    failures: list[Violation] = field(default_factory=list)


def as_symmetric(m) -> np.ndarray:
    """A float64 square array of dim >= 2; its symmetry is not checked."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise InvalidInput("matrix dimension must be >= 2")
    return a


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2 as float64."""
    a = as_symmetric(m)
    return (a + a.T) / 2.0


def validate(m, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check elliptope membership and report every violated condition.

    ``tol`` bounds the acceptable violation of unit diagonal / entry range;
    the smallest eigenvalue may be as low as ``-tol``.
    """
    a = as_symmetric(m)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInput("tol must be positive and finite")

    failures = []
    if not np.array_equal(a, a.T):
        failures.append(Violation.ASYMMETRY)
        a = (a + a.T) / 2.0

    diag_max_dev = float(np.max(np.abs(np.diag(a) - 1.0)))
    off = a[~np.eye(a.shape[0], dtype=bool)]
    offdiag_max_abs = float(np.max(np.abs(off))) if off.size else 0.0

    if diag_max_dev > max(tol, 1e-12):
        failures.append(Violation.DIAGONAL)
    if offdiag_max_abs > 1.0 + tol:
        failures.append(Violation.RANGE)

    w = np.linalg.eigvalsh(a)
    min_eig = float(w[0])
    if min_eig < -tol:
        failures.append(Violation.PSD)

    return ValidationReport(
        is_valid=not failures,
        diag_max_dev=diag_max_dev,
        offdiag_max_abs=offdiag_max_abs,
        min_eigenvalue=min_eig,
        failures=failures,
    )


def is_correlation(m, tol: float = DEFAULT_TOL) -> bool:
    return validate(m, tol).is_valid


def eigh(m):
    """Symmetric eigendecomposition, eigenvalues ascending.

    Returns ``(values, vectors)`` with ``M = V diag(values) V^T``.
    """
    a = symmetrize(m)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"eigendecomposition failed: {exc}")
    return w, v


def cholesky(m) -> np.ndarray:
    """Lower-triangular Cholesky factor of a positive definite matrix."""
    a = symmetrize(m)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite")


def _dual_point(a: np.ndarray, y: np.ndarray):
    """Eigendecomposition of A + Diag y and the dual objective there.

    Returns ``(w, v, f, theta)``: eigenvalues ascending, eigenvectors, the
    dual gradient F = diag(X) - 1 with X = (A + Diag y)_+, and the dual
    objective theta = ||w_+||^2 / 2 - sum(y).
    """
    m = a.copy()
    m[np.diag_indices_from(m)] += y
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # overflow from a huge input
        raise NumericalFailure(f"eigendecomposition failed: {exc}")
    return _dual_values(w, v, y)


def _dual_values(w, v, y):
    """:func:`_dual_point`'s ``(w, v, f, theta)`` from a known eigensystem."""
    wp = np.maximum(w, 0.0)
    f = (v * v) @ wp - 1.0
    return w, v, f, 0.5 * (wp @ wp) - y.sum()


def _uniform_shift(w):
    """The c minimising theta(y + c 1) at a dual point with eigenvalues
    ``w``.  A + Diag(y) + cI has the same eigenvectors, so c solves
    sum(max(w + c, 0)) = n: with the k largest eigenvalues active,
    c = (n - their sum) / k, for the largest k that keeps the k-th active."""
    n = w.size
    top = w[::-1]
    shifts = (n - np.cumsum(top)) / np.arange(1, n + 1)
    return shifts[np.flatnonzero(top + shifts > 0)[-1]]


def _newton_direction(w, v, f):
    """Inexact semismooth Newton direction: solve V h = -f by PCG.

    V h = diag(Q (Omega o (Q^T Diag(h) Q)) Q^T) + 1e-10 h, with Q the
    eigenvectors ``v``, is an element of the generalised Jacobian of the
    dual gradient; Omega holds the first divided differences of max(., 0)
    at the eigenvalues ``w``.
    """
    n = w.size
    k = int(np.searchsorted(w, 0.0, side="right"))  # eigenvalues <= 0
    omega = np.zeros((n, n))
    omega[k:, k:] = 1.0
    # mixed pairs: w_i > 0 >= w_j, so w_i - w_j >= w_i > 0 even at ties
    mixed = w[k:, None] / (w[k:, None] - w[None, :k])
    omega[k:, :k] = mixed
    omega[:k, k:] = mixed.T

    def matvec(h):
        return ((v @ (omega * ((v.T * h) @ v))) * v).sum(axis=1) + 1e-10 * h

    v2 = v * v
    precond = ((v2 @ omega) * v2).sum(axis=1) + 1e-10
    h = np.zeros(n)
    r = -f
    norm_f = np.linalg.norm(f)
    target = min(1e-2, norm_f) * norm_f
    z = r / precond
    p = z
    rz = r @ z
    for _ in range(n):
        q = matvec(p)
        step = rz / (p @ q)
        h += step * p
        r = r - step * q
        if np.linalg.norm(r) <= target:
            break
        z = r / precond
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return h


def nearest_correlation(
    s,
    tol: float = DEFAULT_TOL,
    max_iter: int = 200,
    return_info: bool = False,
):
    """Nearest correlation matrix in the Frobenius norm.

    Qi & Sun's (2006) semismooth Newton method on the dual: minimise
    theta(y) = ||(S + Diag y)_+||^2 / 2 - sum(y), whose gradient is
    F(y) = diag(X) - 1 with X = (S + Diag y)_+ PSD by construction.  Each
    Newton step solves its system by diagonally preconditioned CG
    (Borsdorf & Higham, 2010) and backtracks on theta (Armijo).

    The iteration starts from y = 1 - diag(S).  When every off-diagonal
    entry of S lies in [-1, 1] (a pseudo-correlation matrix), y first moves
    to y + c 1, with c the exact minimiser of theta along the all-ones
    direction (:func:`_uniform_shift`), which costs no eigendecomposition;
    on far inputs that shift empties the active set and costs steps, so
    they start at 1 - diag(S) itself.

    ``tol`` bounds the dual residual ||diag(X) - 1||_2 / sqrt(n), which
    certifies the result; ``return_info`` also returns that residual for
    every iterate, the (shifted) start first.  The list need not fall on
    inputs far outside the elliptope, because the Armijo search decreases
    theta, not ||F||: in seeded sweeps of 500 draws of 50 (G + G^T) at
    dim 16, 315 to 334 rose at some step.  Only its last entry certifies.
    ``max_iter`` bounds the Newton steps; when it is spent,
    ``ConvergenceFailure`` carries X and its residual.  The result is
    D^{-1/2} X D^{-1/2}, D = Diag(diag X): PSD with an exact unit diagonal.
    """
    a = symmetrize(s)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInput("tol must be positive and finite")
    if max_iter < 1:
        raise InvalidInput("max_iter must be >= 1")

    n = a.shape[0]
    y = 1.0 - np.diag(a)
    w, v, f, theta = _dual_point(a, y)
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    if off.max() <= 1.0:
        c = _uniform_shift(w)
        y = y + c
        w, v, f, theta = _dual_values(w + c, v, y)
    residuals = [float(np.linalg.norm(f) / np.sqrt(n))]
    steps = 0
    while not residuals[-1] <= tol:  # a NaN residual is no certificate
        if steps == max_iter:
            vs = v * np.sqrt(np.maximum(w, 0.0))
            raise ConvergenceFailure(
                f"no convergence within {max_iter} Newton steps",
                last_iterate=vs @ vs.T,
                residual=residuals[-1],
            )
        steps += 1
        h = _newton_direction(w, v, f)
        slope = f @ h
        # the slack absorbs rounding in theta near the optimum, where the
        # predicted decrease falls below theta's last bits
        slack = 1e-13 * abs(theta)
        for halvings in range(30):
            t = 0.5 ** halvings
            trial = _dual_point(a, y + t * h)
            if trial[3] <= theta + 1e-4 * t * slope + slack:
                break
        y = y + t * h
        w, v, f, theta = trial
        residuals.append(float(np.linalg.norm(f) / np.sqrt(n)))

    b = v * np.sqrt(np.maximum(w, 0.0))
    b /= np.sqrt((b * b).sum(axis=1))[:, None]
    out = b @ b.T
    out = (out + out.T) / 2.0
    np.fill_diagonal(out, 1.0)
    if return_info:
        return out, residuals
    return out
