"""Dense complex linear algebra used by every checker.

Every routine takes a single square ``complex128`` matrix of shape
``(n, n)`` or a stack of them of shape ``(..., n, n)`` and works on each
matrix of the stack independently: a stack call returns what the single
calls would return, stacked along the leading axes, and a single call
returns a plain ``float`` wherever a scalar is meant.  Validation is per
matrix too: each member is checked against its own scale, and one
invalid member rejects the whole stack.  Eigenvalue and singular-value
factorizations are delegated to LAPACK through ``numpy.linalg`` behind
the contracts below (descending order, validated reconstruction);
non-Hermitian exponentials go to ``scipy.linalg.expm``.

Conventions:

* Hermitian carriers are produced by :func:`hermitize`, which symmetrizes
  ``(M + M†)/2`` so downstream code never sees drift-generated asymmetry.
* Spectra are sorted descending by real part, then by absolute value.
* Singular values are the square roots of the eigenvalues of ``X†X``,
  clamped at zero.
"""

from __future__ import annotations

import numbers
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from .reports import checked_real

__all__ = [
    "EigenSolverError", "Spectrum",
    "as_complex_matrix", "hermitize", "is_hermitian", "require_hermitian",
    "adjoint", "herm_eigen", "general_eigen", "singular_values",
    "herm_fn", "expm", "expm_herm", "psd_power",
    "schatten_norm", "operator_norm", "frobenius_norm",
    "distance_delta2", "lie_trotter_product", "trace_expm", "trace_of_product",
]

#: Tolerance on ``|M - M†|`` accepted when a Hermitian argument is required.
HERMITIAN_ATOL = 1e-12


class EigenSolverError(RuntimeError):
    """Raised when a factorization does not converge within LAPACK's budget."""

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class Spectrum(NamedTuple):
    """Eigenvalues sorted descending (by real part, then absolute value),
    with the unitary eigenvector basis when one is available."""

    values: np.ndarray
    basis: np.ndarray | None = None


def _scalar(value):
    """A 0-d result as a Python float; stacked results pass through."""
    return float(value) if np.ndim(value) == 0 else value


def adjoint(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(A, -1, -2))


def as_complex_matrix(M) -> np.ndarray:
    """Validate and return ``M`` as a square, finite complex128 matrix or
    stack of matrices."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[-1] == 0:
        raise ValueError("matrix dimension must be positive")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def hermitize(M) -> np.ndarray:
    """Construct a Hermitian carrier: ``(M + M†)/2`` of a square matrix."""
    A = as_complex_matrix(M)
    return (A + adjoint(A)) / 2.0


def is_hermitian(M):
    """Whether ``|M - M†| <= HERMITIAN_ATOL * max(1, |M|)`` entrywise, each
    matrix at its own scale: a bool for one matrix, a bool array for a
    stack."""
    A = np.asarray(M)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1), initial=0.0))
    ok = np.abs(A - adjoint(A)).max(axis=(-2, -1), initial=0.0) \
        <= HERMITIAN_ATOL * scale
    return bool(ok) if ok.ndim == 0 else ok


def require_hermitian(M, what: str = "argument") -> np.ndarray:
    """Return the symmetrized matrix, rejecting genuinely non-Hermitian input."""
    A = as_complex_matrix(M)
    if not np.all(is_hermitian(A)):
        raise ValueError(f"{what} must be Hermitian")
    return (A + adjoint(A)) / 2.0


def herm_eigen(M) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, values descending.

    The returned basis ``U`` satisfies ``U diag(values) U† = M`` up to
    rounding (columns are eigenvectors in the same order as ``values``).
    """
    A = require_hermitian(M, "herm_eigen input")
    try:
        w, U = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"Hermitian eigensolver did not converge within the LAPACK "
            f"iteration budget on a {A.shape[-1]}x{A.shape[-1]} matrix: {exc}",
            matrix=A) from exc
    return Spectrum(values=w[..., ::-1].copy(), basis=U[..., ::-1].copy())


def general_eigen(M) -> Spectrum:
    """All complex eigenvalues of a square matrix (no eigenvectors)."""
    A = as_complex_matrix(M)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"general eigensolver did not converge within the LAPACK "
            f"iteration budget on a {A.shape[-1]}x{A.shape[-1]} matrix: {exc}",
            matrix=A) from exc
    order = np.lexsort((-np.abs(w), -w.real), axis=-1)
    return Spectrum(values=np.take_along_axis(w, order, axis=-1), basis=None)


def singular_values(M) -> np.ndarray:
    """Singular values ``mu_1 >= ... >= mu_N >= 0`` of a square matrix, by
    the SVD of ``M`` itself: the eigenvalues of ``M†M`` would square its
    condition number and lose the small singular values."""
    A = as_complex_matrix(M)
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"singular value decomposition did not converge on a "
            f"{A.shape[-1]}x{A.shape[-1]} matrix: {exc}", matrix=A) from exc


def herm_fn(M, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum."""
    w, U = herm_eigen(M)
    return (U * fn(w)[..., None, :]) @ adjoint(U)


def expm_herm(M) -> np.ndarray:
    """Exponential of a Hermitian matrix via its eigendecomposition."""
    return herm_fn(M, np.exp)


def expm(M) -> np.ndarray:
    """Matrix exponential of a square complex matrix or stack.

    Hermitian matrices go through the eigendecomposition route, everything
    else through ``scipy.linalg.expm`` (scaling and squaring with Pade
    approximants).
    """
    A = as_complex_matrix(M)
    herm = np.asarray(is_hermitian(A))
    out = np.empty_like(A)
    if herm.any():
        out[herm] = expm_herm(A[herm])
    if not herm.all():
        out[~herm] = scipy.linalg.expm(A[~herm])
    return out


def psd_power(M, p: float) -> np.ndarray:
    """Real power of a positive semidefinite Hermitian matrix (eigenvalues
    are clamped at zero before the power is taken)."""
    return herm_fn(M, lambda w: np.power(np.clip(w, 0.0, None), p))


def trace_expm(M):
    """``Tr exp(M)`` for Hermitian ``M``, summed over the spectrum."""
    A = require_hermitian(M, "trace_expm input")
    return _scalar(np.exp(np.linalg.eigvalsh(A)).sum(axis=-1))


def schatten_norm(M, p):
    """Schatten p-norm ``(sum mu_i^p)^(1/p)``; ``p=inf`` is the operator norm."""
    if p != np.inf and (not isinstance(p, numbers.Real) or p < 1):
        raise ValueError(f"Schatten order must satisfy p >= 1 or be inf, got {p}")
    mu = singular_values(M)
    if p == np.inf:
        return _scalar(mu[..., 0])
    return _scalar((mu ** p).sum(axis=-1) ** (1.0 / p))


def operator_norm(M):
    """Largest singular value."""
    return _scalar(singular_values(M)[..., 0])


def frobenius_norm(M):
    return _scalar(np.linalg.norm(as_complex_matrix(M), axis=(-2, -1)))


def distance_delta2(A, B):
    """Geodesic distance between ``exp(A)`` and ``exp(B)`` on positive
    definite matrices: ``sqrt(sum log^2 lambda_i(e^A e^-B))``.

    The eigenvalues of ``e^A e^-B`` are computed as those of the positive
    definite matrix ``e^(-B/2) e^A e^(-B/2)``; they are clamped at 1e-300
    before the log as a guard against underflow, not a semantics change.
    """
    Ah = require_hermitian(A, "distance_delta2 first argument")
    Bh = require_hermitian(B, "distance_delta2 second argument")
    if Ah.shape != Bh.shape:
        raise ValueError("distance_delta2 arguments must have equal dimension")
    half = herm_fn(Bh, lambda w: np.exp(-w / 2.0))
    P = hermitize(half @ expm_herm(Ah) @ half)
    lam = np.clip(np.linalg.eigvalsh(P), 1e-300, None)
    return _scalar(np.sqrt((np.log(lam) ** 2).sum(axis=-1)))


def lie_trotter_product(A, B, n: int) -> np.ndarray:
    """``(e^(A/n) e^(B/n))^n`` by explicit repeated multiplication."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    Ah = require_hermitian(A, "lie_trotter_product first argument")
    Bh = require_hermitian(B, "lie_trotter_product second argument")
    step = expm_herm(Ah / n) @ expm_herm(Bh / n)
    result = step
    for _ in range(n - 1):
        result = result @ step
    return result


def trace_of_product(A, B, context: str = ""):
    """``Tr(AB)`` of a provably real product, with the imaginary-residue
    check applied."""
    return checked_real(np.einsum('...ij,...ji->...', A, B), context)
