"""Dense complex linear algebra used by every checker.

Every routine takes a single square ``complex128`` matrix of shape
``(n, n)`` or a stack of them of shape ``(..., n, n)`` and works on each
matrix of the stack independently: a stack call returns what the single
calls would return, stacked along the leading axes, so a single call
returns a 0-d value wherever a scalar is meant.  A matrix is admitted
once, by the checker that receives it from its caller: a square one by
:func:`as_complex_matrix`, a Hermitian one by :func:`require_hermitian`
(within ``HERMITIAN_ATOL`` of its adjoint, then symmetrized), and the
Hermitian arguments of one call by :func:`hermitian_args`, which also
requires one shape, unbroadcast.  Each member of a stack is checked at
its own scale, and one invalid member rejects the stack with a message
naming the argument, such as ``gt_gap argument 1``.  The other routines
compute on admitted arrays, cast to ``complex128``, and check nothing
again; the Hermitian ones read the lower triangle, as LAPACK does.
Exponentials are taken of Hermitian matrices only, by eigendecomposition.
A factorization that does not converge raises numpy's ``LinAlgError``.
One scalar routine rides along: :func:`gauss_legendre`, the adaptive
quadrature rule behind every integral a checker compares with a closed form.

Conventions:

* Hermitian carriers are produced by :func:`hermitize`, which symmetrizes
  ``(M + M†)/2`` so downstream code never sees drift-generated asymmetry.
* Spectra are sorted descending by real part, then by absolute value.
* Singular values come from the SVD of the matrix itself, descending.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable

import numpy as np

from .reports import checked_real

__all__ = [
    "QuadratureError",
    "as_complex_matrix", "hermitize", "is_hermitian", "require_hermitian",
    "hermitian_args",
    "adjoint", "herm_eigen", "general_eigen", "singular_values",
    "herm_fn", "expm_herm", "psd_power",
    "schatten_norm", "operator_norm", "frobenius_norm",
    "distance_delta2", "lie_trotter_product", "trace_expm", "trace_of_product",
    "gauss_legendre", "pin_blas_to_one_thread",
]

#: Tolerance on ``|M - M†|`` accepted when a Hermitian argument is required.
HERMITIAN_ATOL = 1e-12


class QuadratureError(RuntimeError):
    """Raised when :func:`gauss_legendre` cannot meet its tolerance."""


def adjoint(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(A, -1, -2))


def as_complex_matrix(M, what: str) -> np.ndarray:
    """Validate and return ``M`` as a square, finite complex128 matrix or
    stack of matrices; the messages name ``M`` as ``what``."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {A.shape}")
    if A.shape[-1] == 0:
        raise ValueError(f"{what} must have positive dimension")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{what} must have finite entries")
    return A


def hermitize(M) -> np.ndarray:
    """Construct a Hermitian carrier: ``(M + M†)/2`` of a square matrix."""
    A = np.asarray(M, dtype=np.complex128)
    H = A + adjoint(A)
    H /= 2.0
    return H


def is_hermitian(M):
    """Whether ``|M - M†| <= HERMITIAN_ATOL * max(1, |M|)`` entrywise, each
    matrix at its own scale: a bool array over the stack."""
    A = np.asarray(M)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1), initial=0.0))
    # the moduli overwrite the difference they are taken of
    gap = A - adjoint(A)
    np.abs(gap, out=gap)
    return gap.real.max(axis=(-2, -1), initial=0.0) <= HERMITIAN_ATOL * scale


def require_hermitian(M, what: str) -> np.ndarray:
    """Return the symmetrized matrix, rejecting genuinely non-Hermitian input."""
    A = as_complex_matrix(M, what)
    if not np.all(is_hermitian(A)):
        raise ValueError(f"{what} must be Hermitian")
    return hermitize(A)


def hermitian_args(what: str, *matrices) -> tuple[np.ndarray, ...]:
    """Each Hermitian argument of the call ``what`` as
    :func:`require_hermitian` returns it; all must have one shape."""
    args = tuple(require_hermitian(M, f"{what} argument {i}")
                 for i, M in enumerate(matrices, 1))
    if len({A.shape for A in args}) > 1:
        raise ValueError(f"{what} arguments must have equal dimension")
    return args


def herm_eigen(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, U)`` of a Hermitian matrix, values
    descending.

    The basis ``U`` satisfies ``U diag(values) U† = M`` up to rounding
    (columns are eigenvectors in the same order as ``values``).
    """
    w, U = np.linalg.eigh(np.asarray(M, dtype=np.complex128))
    # eigh's ascending order flipped: herm_fn's products sum in this order
    return w[..., ::-1].copy(), U[..., ::-1].copy()


def general_eigen(M) -> np.ndarray:
    """All complex eigenvalues of a square matrix (no eigenvectors), sorted
    descending by real part, then by absolute value."""
    w = np.linalg.eigvals(np.asarray(M, dtype=np.complex128))
    order = np.lexsort((-np.abs(w), -w.real), axis=-1)
    return np.take_along_axis(w, order, axis=-1)


def singular_values(M) -> np.ndarray:
    """Singular values ``mu_1 >= ... >= mu_N >= 0`` of a square matrix, by
    the SVD of ``M`` itself: the eigenvalues of ``M†M`` would square its
    condition number and lose the small singular values."""
    return np.linalg.svd(np.asarray(M, dtype=np.complex128), compute_uv=False)


def herm_fn(M, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum."""
    w, U = herm_eigen(M)
    scaled = U * fn(w)[..., None, :]
    # U is herm_eigen's own copy: conjugated in place, its transpose is U†
    # with the strides adjoint(U) would give
    np.conj(U, out=U)
    return scaled @ np.swapaxes(U, -1, -2)


def expm_herm(M) -> np.ndarray:
    """Exponential of a Hermitian matrix via its eigendecomposition."""
    return herm_fn(M, np.exp)


def psd_power(M, p: float) -> np.ndarray:
    """Real power of a positive semidefinite Hermitian matrix (eigenvalues
    are clamped at zero before the power is taken)."""
    return herm_fn(M, lambda w: np.power(np.clip(w, 0.0, None), p))


def trace_expm(M):
    """``Tr exp(M)`` for Hermitian ``M``, summed over the spectrum."""
    A = np.asarray(M, dtype=np.complex128)
    return np.exp(np.linalg.eigvalsh(A)).sum(axis=-1)


def schatten_norm(M, p):
    """Schatten p-norm ``(sum mu_i^p)^(1/p)``; ``p=inf`` is the operator norm."""
    if p != np.inf and (not isinstance(p, numbers.Real) or p < 1):
        raise ValueError(f"Schatten order must satisfy p >= 1 or be inf, got {p}")
    mu = singular_values(M)
    if p == np.inf:
        return mu[..., 0]
    return (mu ** p).sum(axis=-1) ** (1.0 / p)


def operator_norm(M):
    """Largest singular value."""
    return singular_values(M)[..., 0]


def frobenius_norm(M):
    return np.linalg.norm(np.asarray(M, dtype=np.complex128), axis=(-2, -1))


def distance_delta2(A, B):
    """Geodesic distance between ``exp(A)`` and ``exp(B)`` on positive
    definite matrices: ``sqrt(sum log^2 lambda_i(e^A e^-B))``.

    The eigenvalues of ``e^A e^-B`` are computed as those of the positive
    definite matrix ``e^(-B/2) e^A e^(-B/2)``; they are clamped at 1e-300
    before the log as a guard against underflow, not a semantics change.
    """
    Ah, Bh = hermitian_args("distance_delta2", A, B)
    half = herm_fn(Bh, lambda w: np.exp(-w / 2.0))
    P = hermitize(half @ expm_herm(Ah) @ half)
    lam = np.clip(np.linalg.eigvalsh(P), 1e-300, None)
    return np.sqrt((np.log(lam) ** 2).sum(axis=-1))


def lie_trotter_product(A, B, n: int) -> np.ndarray:
    """``(e^(A/n) e^(B/n))^n`` by explicit repeated multiplication."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    Ah, Bh = hermitian_args("lie_trotter_product", A, B)
    step = expm_herm(Ah / n) @ expm_herm(Bh / n)
    result = step
    for _ in range(n - 1):
        result = result @ step
    return result


def trace_of_product(A, B, context: str):
    """``Tr(AB)`` of a provably real product, with the imaginary-residue
    check applied."""
    return checked_real(np.einsum('...ij,...ji->...', A, B), context)


#: Panels :func:`gauss_legendre` may cut its interval into before it gives up.
_MAX_PANELS = 512


@functools.cache
def _gauss_rules():
    """The 20- and 40-point Gauss-Legendre rules on ``[-1, 1]``: all 60
    nodes (the 20 first) and the two weight vectors."""
    from numpy.polynomial.legendre import leggauss
    x20, w20 = leggauss(20)
    x40, w40 = leggauss(40)
    return np.concatenate([x20, x40]), w20, w40


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], b: float,
                   epsabs: float, epsrel: float) -> float:
    """``int_0^b f(x) dx`` for finite ``b`` by adaptive Gauss-Legendre
    quadrature.  Both callers map their integral onto ``[0, b]``, so the
    lower end is fixed.

    ``f`` takes a 1-d array of nodes and returns the integrand at each.
    Each panel is integrated by the 20- and the 40-point rule; the value is
    the sum of the 40-point results and the error estimate the sum of the
    two rules' absolute differences.  While that estimate exceeds
    ``max(epsabs, epsrel * |value|)``, the panels with the largest
    differences are bisected, as few as leave at most half the tolerance on
    the others, and all new panels are evaluated in one call of ``f``.
    Raises :class:`QuadratureError` when that would take more than
    ``_MAX_PANELS`` panels, or when ``f`` is not finite at a node.
    """
    x, w20, w40 = _gauss_rules()
    # evaluated panels: ends, 40-point results, |40-point - 20-point|
    lo, hi, fine, diff = (np.empty(0) for _ in range(4))
    new_lo, new_hi = np.zeros(1), np.array([float(b)])
    while True:
        half = (new_hi - new_lo) / 2.0
        nodes = ((new_hi + new_lo) / 2.0)[:, None] + half[:, None] * x
        y = np.asarray(f(nodes.ravel()), dtype=np.float64).reshape(nodes.shape)
        if not np.all(np.isfinite(y)):
            raise QuadratureError(f"integrand is not finite on [0, {b}]")
        panel = half * (y[:, 20:] @ w40)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        fine = np.concatenate([fine, panel])
        diff = np.concatenate([diff, np.abs(panel - half * (y[:, :20] @ w20))])
        value, error = math.fsum(fine), math.fsum(diff)
        tol = max(epsabs, epsrel * abs(value))
        if error <= tol:
            return value
        order = np.argsort(-diff, kind="stable")
        split = np.zeros(diff.size, dtype=bool)
        split[order[:np.count_nonzero(
            error - np.cumsum(diff[order]) > tol / 2.0) + 1]] = True
        if lo.size + np.count_nonzero(split) > _MAX_PANELS:
            raise QuadratureError(
                f"no convergence on [0, {b}] within {_MAX_PANELS} panels: "
                f"error estimate {error:.3g} against tolerance {tol:.3g}")
        mid = (lo[split] + hi[split]) / 2.0
        new_lo, new_hi = np.concatenate([lo[split], mid]), \
            np.concatenate([mid, hi[split]])
        lo, hi, fine, diff = lo[~split], hi[~split], fine[~split], diff[~split]


def _bundled_openblas():
    """numpy's bundled OpenBLAS, which importing numpy loaded, as a
    ``ctypes`` library; None when numpy carries none."""
    import ctypes
    from pathlib import Path
    libs = sorted(Path(np.__file__).parents[1].glob(
        "numpy.libs/libscipy_openblas64_*"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def pin_blas_to_one_thread():
    """Run numpy's bundled OpenBLAS on one thread in this process: more
    threads change the rounding of some LAPACK calls (``eigvals`` from
    n = 128).  Without that library or its setter, it does nothing."""
    lib = _bundled_openblas()
    if hasattr(lib, "scipy_openblas_set_num_threads64_"):
        lib.scipy_openblas_set_num_threads64_(1)
