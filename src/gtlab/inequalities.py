"""Checkers for the trace inequalities, lemmas and identities.

Every checker evaluates both sides of one inequality instance and returns
a :class:`~gtlab.reports.GapReport`.  The statements are exact theorems,
so the tolerance only admits floating-point slack; a failing
report on valid input is an implementation bug by definition.

The matrix checkers also take stacks of shape ``(..., n, n)`` (with the
conventions of :mod:`gtlab.linalg`) and then return one report whose
sides are arrays over the stack; top-k parameters may be given per matrix
as an integer array of the stack's leading shape.  The 2x2 reduction
checkers take the Pauli coefficient vectors of :mod:`gtlab.pauli`, one
pair or a ``(..., 3)`` stack of pairs.  The counter-example hunts and the
equality-order scan are searches and fits, not checkers: they return a
witness (or None) and a fitted order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pauli
from .linalg import (adjoint, as_complex_matrix, distance_delta2, expm_herm,
                     frobenius_norm, gauss_legendre, general_eigen, herm_fn,
                     hermitian_args, hermitize, psd_power, schatten_norm,
                     singular_values, trace_expm, trace_of_product)
from .reports import GapReport, checked_real, inequality_tol
from .samplers import RngStream

__all__ = [
    "MajorizationError",
    "OrderScanResult", "Witness",
    "gt_gap", "cauchy_trace_gap", "word_trace_bound", "dyadic_power_gap",
    "weyl_dominance_gap", "power_trace_gap", "phi_power_premise_gap",
    "spectral_chain_gap", "phi_exp_gap", "top_k_abs_eigensum",
    "karamata_gap", "karamata_spectral_gap", "schatten_gap",
    "symmetrized_gap", "log_metric_gap", "weak_majorization_gap",
    "alt_trace_gap", "nonhermitian_phi_gap",
    "hermitian_part_dominance", "lieb_triple_gap", "lieb_rhs_closed",
    "lieb_rhs_quadrature", "triple_gt_scan",
    "abc_trace_scan", "pauli_reduce_gap", "pauli_route_discrepancy",
    "pauli_law_gap", "equality_order_scan", "oscillator_bound",
]

WORD_TOKENS = ("X", "X*")


class MajorizationError(ValueError):
    """A sequence pair violates the descending/prefix-sum precondition;
    distinct from an inequality violation."""


def _trace(P: np.ndarray) -> np.ndarray:
    return np.einsum('...ii->...', P)


def _top_k_sum(values: np.ndarray, k) -> np.ndarray:
    """Sum of the first ``k`` entries along the last axis, with ``k`` an
    integer or one integer per row."""
    n = values.shape[-1]
    k = np.asarray(k)
    if np.any((k < 1) | (k > n)):
        raise ValueError("k must satisfy 1 <= k <= N")
    return np.where(np.arange(n) < k[..., None], values, 0.0).sum(axis=-1)


# ---------------------------------------------------------------------------
# trace inequality of exponentials

def gt_gap(A, B) -> GapReport:
    """Golden-Thompson gap: ``Tr e^(A+B) <= Tr(e^A e^B)`` for Hermitian A, B.

    Equality holds exactly when A and B commute.
    """
    Ah, Bh = hermitian_args("gt_gap", A, B)
    lhs = trace_expm(Ah + Bh)
    rhs = trace_of_product(expm_herm(Ah), expm_herm(Bh), "product trace in gt_gap")
    return GapReport.from_sides(lhs, rhs)


# ---------------------------------------------------------------------------
# word bounds on mixed products

def cauchy_trace_gap(X, Y) -> GapReport:
    """``|Tr(XY)|^2 <= Tr(X†X) Tr(Y†Y)`` for any square X, Y."""
    Xm = as_complex_matrix(X, "cauchy_trace_gap argument 1")
    Ym = as_complex_matrix(Y, "cauchy_trace_gap argument 2")
    if Xm.shape != Ym.shape:
        raise ValueError("cauchy_trace_gap arguments must have equal dimension")
    lhs = np.abs(np.einsum('...ij,...ji->...', Xm, Ym)) ** 2
    rhs = checked_real(np.einsum('...ij,...ij->...', Xm.conj(), Xm)
                       * np.einsum('...ij,...ij->...', Ym.conj(), Ym),
                       "gram traces in cauchy_trace_gap")
    return GapReport.from_sides(lhs, rhs)


def _validate_word(word) -> np.ndarray:
    letters = np.asarray(word)
    if letters.ndim == 0 or letters.shape[-1] == 0 or letters.shape[-1] % 2:
        raise ValueError("word length must be even and positive")
    bad = ~np.isin(letters, WORD_TOKENS)
    if np.any(bad):
        raise ValueError(f"word letters must be in {WORD_TOKENS}, "
                         f"got {letters[bad][0]!r}")
    return letters


def word_trace_bound(X, word: Sequence[str]) -> GapReport:
    """``|Tr P| <= Tr (XX†)^n`` for P any product of ``2n`` factors X, X†.

    ``word`` lists the factors in order, e.g. ``("X", "X*", "X", "X*")``;
    for a stack of matrices it may also be an array of shape ``(..., 2n)``
    holding one word per matrix.
    """
    Xm = as_complex_matrix(X, "word_trace_bound argument 1")
    is_x = _validate_word(word) == "X"
    n = is_x.shape[-1] // 2
    Xh = adjoint(Xm)
    P = np.where(is_x[..., 0, None, None], Xm, Xh)
    for j in range(1, 2 * n):
        P = P @ np.where(is_x[..., j, None, None], Xm, Xh)
    G = Xm @ Xh
    Gn = G
    for _ in range(n - 1):
        Gn = Gn @ G
    lhs = np.abs(_trace(P))
    rhs = checked_real(_trace(Gn), "gram power trace in word_trace_bound")
    return GapReport.from_sides(lhs, rhs)


def dyadic_power_gap(A, B, k: int) -> GapReport:
    """``|Tr (AB)^(2^k)| <= Tr(A^(2^k) B^(2^k))`` for Hermitian A, B.

    The word-bound route with ``X = AB``, iterated ``k`` times.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    Ah, Bh = hermitian_args("dyadic_power_gap", A, B)
    M = Ah @ Bh
    P = M
    for _ in range(k):
        P = P @ P
    Ap, Bp = Ah, Bh
    for _ in range(k):
        Ap, Bp = Ap @ Ap, Bp @ Bp
    lhs = np.abs(_trace(P))
    rhs = trace_of_product(Ap, Bp, "power trace in dyadic_power_gap")
    return GapReport.from_sides(lhs, rhs)


# ---------------------------------------------------------------------------
# singular values against eigenvalues

def _abs_eigen_desc(X) -> np.ndarray:
    lam = np.abs(general_eigen(X))
    return np.sort(lam, axis=-1)[..., ::-1]


def weyl_dominance_gap(X, s: int, k) -> GapReport:
    """``sum_{i<=k} mu_i^(2s) >= sum_{i<=k} |lambda_i|^(2s)``.

    Singular values dominate absolute eigenvalues under any increasing
    ``w`` with ``w(exp(.))`` convex; the built-in family is ``w(x) = x^(2s)``.
    """
    if s < 1 or int(s) != s:
        raise ValueError("the built-in dominance family requires integer s >= 1")
    Xm = as_complex_matrix(X, "weyl_dominance_gap argument 1")
    lhs = _top_k_sum(_abs_eigen_desc(Xm) ** (2 * s), k)
    rhs = _top_k_sum(singular_values(Xm) ** (2 * s), k)
    return GapReport.from_sides(lhs, rhs)


def power_trace_gap(X, s: int) -> GapReport:
    """``Tr (X†X)^s >= |Tr X^(2s)|``: the full-trace power specialization
    combined with the triangle inequality over the spectrum."""
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    Xm = as_complex_matrix(X, "power_trace_gap argument 1")
    P = np.linalg.matrix_power(Xm, 2 * s)
    G = np.linalg.matrix_power(adjoint(Xm) @ Xm, s)
    lhs = np.abs(_trace(P))
    rhs = checked_real(_trace(G), "gram power trace in power_trace_gap")
    return GapReport.from_sides(lhs, rhs)


def spectral_chain_gap(X, s: int) -> GapReport:
    """The worse, per instance, of ``sum |lambda|^(2s) <= sum mu^(2s)`` and
    ``|Tr X^(2s)| <= sum |lambda|^(2s)``: the chain from the power trace
    through the absolute eigenvalues to the singular values."""
    Xm = as_complex_matrix(X, "spectral_chain_gap argument 1")
    lam_sum = (np.abs(general_eigen(Xm)) ** (2 * s)).sum(axis=-1)
    first = GapReport.from_sides(lam_sum,
                                 (singular_values(Xm) ** (2 * s)).sum(axis=-1))
    power_trace = np.abs(np.trace(np.linalg.matrix_power(Xm, 2 * s),
                                  axis1=-2, axis2=-1))
    second = GapReport.from_sides(power_trace, lam_sum)
    pick = first.margin / np.maximum(1.0, first.rhs) \
        <= second.margin / np.maximum(1.0, second.rhs)
    return GapReport.from_sides(np.where(pick, first.lhs, second.lhs),
                                np.where(pick, first.rhs, second.rhs))


def top_k_abs_eigensum(X, k):
    """``sum of the k largest |eigenvalues|`` of a square matrix."""
    Xm = as_complex_matrix(X, "top_k_abs_eigensum argument 1")
    return _top_k_sum(_abs_eigen_desc(Xm), k)


def phi_power_premise_gap(X, s: int, k: int) -> GapReport:
    """``phi((X†X)^s) >= |phi(X^(2s))|`` for the top-k absolute eigenvalue
    sum, evaluated on the powered matrices themselves."""
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    Xm = as_complex_matrix(X, "phi_power_premise_gap argument 1")
    lhs = top_k_abs_eigensum(np.linalg.matrix_power(Xm, 2 * s), k)
    gram = np.linalg.matrix_power(hermitize(adjoint(Xm) @ Xm), s)
    rhs = top_k_abs_eigensum(gram, k)
    return GapReport.from_sides(lhs, rhs)


def phi_exp_gap(A, B, k) -> GapReport:
    """``phi(e^(A+B)) <= phi(e^A e^B)`` for the top-k absolute eigenvalue sum
    and Hermitian A, B."""
    Ah, Bh = hermitian_args("phi_exp_gap", A, B)
    lam_sum = np.exp(np.linalg.eigvalsh(Ah + Bh))[..., ::-1]
    half = herm_fn(Bh, lambda w: np.exp(w / 2.0))
    prod_eigs = np.linalg.eigvalsh(hermitize(half @ expm_herm(Ah) @ half))[..., ::-1]
    return GapReport.from_sides(_top_k_sum(lam_sum, k), _top_k_sum(prod_eigs, k))


# ---------------------------------------------------------------------------
# convex-order transfer for sequences

def validate_majorization_pair(a, b, err) -> tuple[np.ndarray, np.ndarray]:
    """Check ``b`` descending with every prefix sum of ``b`` at most the
    matching prefix sum of ``a``; raises :class:`MajorizationError`.

    Arrays of shape ``(..., m)`` hold one sequence pair per row, each
    checked on its own.  ``err``, shaped like ``a``, bounds the absolute
    error of each computed pair ``(a_j, b_j)``; a prefix sum may fall short
    by the sum of its entries' bounds on top of the rounding slack."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim == 0 or av.shape[-1] == 0:
        raise MajorizationError("sequences must be of equal positive length")
    if np.any(np.diff(bv, axis=-1) > 1e-15):
        raise MajorizationError("b must be sorted descending")
    # rounding slack: prefix conditions often hold with exact equality
    # (e.g. at the determinant endpoint of spectral sequences), so admit
    # accumulation noise proportional to the summand magnitudes
    cum_a = np.cumsum(av, axis=-1)
    cum_b = np.cumsum(bv, axis=-1)
    scale = np.maximum.accumulate(np.maximum(np.abs(av), np.abs(bv)), axis=-1)
    guard = 1e-10 * np.maximum(1.0, np.maximum(np.abs(cum_a), scale)) \
        + np.cumsum(err, axis=-1)
    if np.any(cum_a - cum_b < -guard):
        raise MajorizationError("prefix sums of b must not exceed those of a")
    return av, bv


def karamata_gap(a, b, err) -> GapReport:
    """``sum e^(b_i) <= sum e^(a_i)`` (Karamata for the convex increasing
    exponential) whenever ``b`` is descending with dominated prefix sums
    (``err`` as in :func:`validate_majorization_pair`)."""
    av, bv = validate_majorization_pair(a, b, err)
    lhs = np.sum(np.exp(bv), axis=-1)
    rhs = np.sum(np.exp(av), axis=-1)
    return GapReport.from_sides(lhs, rhs)


def karamata_spectral_gap(X) -> GapReport:
    """:func:`karamata_gap` on the log singular values ``a`` and the log
    absolute eigenvalues ``b`` of a square matrix, whose prefix sums
    ``a`` dominates (Weyl)."""
    Xm = as_complex_matrix(X, "karamata_spectral_gap argument 1")
    sigma = np.clip(singular_values(Xm), 1e-300, None)
    lam = np.clip(_abs_eigen_desc(Xm), 1e-300, None)
    # backward-stable SVD and eigensolver: each value v_j is off by at most
    # about n eps sigma_max, so its logarithm by that over v_j
    unit = Xm.shape[-1] * np.finfo(np.float64).eps * sigma[..., :1]
    return karamata_gap(np.log(sigma), np.log(lam),
                        err=unit / sigma + unit / lam)


# ---------------------------------------------------------------------------
# norm variants of the exponential trace bound

def alt_trace_gap(P, Q, r: float, s: float) -> GapReport:
    """``Tr (P^(1/2) Q P^(1/2))^(rs) <= Tr (P^(r/2) Q^r P^(r/2))^s`` for
    positive definite P, Q and ``r >= 1, s > 0``."""
    if r < 1 or s <= 0:
        raise ValueError("requires r >= 1 and s > 0")
    Ph, Qh = hermitian_args("alt_trace_gap", P, Q)
    for name, M in (("P", Ph), ("Q", Qh)):
        if np.any(np.linalg.eigvalsh(M)[..., 0] <= 0):
            raise ValueError(f"alt_trace_gap requires positive definite input ({name})")
    sq = psd_power(Ph, 0.5)
    inner = hermitize(sq @ Qh @ sq)
    lhs = (np.clip(np.linalg.eigvalsh(inner), 0.0, None) ** (r * s)).sum(axis=-1)
    rh = psd_power(Ph, r / 2.0)
    outer = hermitize(rh @ psd_power(Qh, r) @ rh)
    rhs = (np.clip(np.linalg.eigvalsh(outer), 0.0, None) ** s).sum(axis=-1)
    return GapReport.from_sides(lhs, rhs)


def schatten_gap(A, B, p: float) -> GapReport:
    """``||e^(A+B)||_p <= ||e^A e^B||_p`` for Hermitian A, B and p >= 1 or
    inf.

    The product norm is taken on the positive definite carrier
    ``e^(B/2) e^A e^(B/2)``, whose spectrum is the eigenvalue moduli of
    ``e^A e^B``; at p=1 this reduces exactly to the trace check.
    """
    Ah, Bh = hermitian_args("schatten_gap", A, B)
    lhs = schatten_norm(expm_herm(Ah + Bh), p)
    half = herm_fn(Bh, lambda w: np.exp(w / 2.0))
    rhs = schatten_norm(hermitize(half @ expm_herm(Ah) @ half), p)
    return GapReport.from_sides(lhs, rhs)


def symmetrized_gap(A, B, p: float) -> GapReport:
    """``Tr e^(A+B) <= Tr (e^(pB/2) e^(pA) e^(pB/2))^(1/p)`` for Hermitian
    A, B and finite p >= 1."""
    if p == np.inf or p < 1:
        raise ValueError("symmetrized_gap requires finite p >= 1")
    Ah, Bh = hermitian_args("symmetrized_gap", A, B)
    lhs = trace_expm(Ah + Bh)
    half = herm_fn(Bh, lambda w: np.exp(p * w / 2.0))
    inner = hermitize(half @ expm_herm(p * Ah) @ half)
    rhs = (np.clip(np.linalg.eigvalsh(inner), 0.0, None) ** (1.0 / p)).sum(axis=-1)
    return GapReport.from_sides(lhs, rhs)


def log_metric_gap(A, B) -> GapReport:
    """``||A - B||_2 <= delta_2(e^A, e^B)`` for Hermitian A, B."""
    Ah, Bh = hermitian_args("log_metric_gap", A, B)
    return GapReport.from_sides(frobenius_norm(Ah - Bh), distance_delta2(Ah, Bh))


def weak_majorization_gap(A, B) -> GapReport:
    """Worst partial-sum margin of the eigenvalues of ``e^(A+B)`` against
    the singular values of ``e^A e^B`` for Hermitian A, B."""
    Ah, Bh = hermitian_args("weak_majorization_gap", A, B)
    lam = np.cumsum(np.exp(np.linalg.eigvalsh(Ah + Bh))[..., ::-1], axis=-1)
    mu = np.cumsum(singular_values(expm_herm(Ah) @ expm_herm(Bh)), axis=-1)
    pick = np.argmin(mu - lam, axis=-1)[..., None]
    return GapReport.from_sides(np.take_along_axis(lam, pick, -1)[..., 0],
                                np.take_along_axis(mu, pick, -1)[..., 0])


# ---------------------------------------------------------------------------
# non-Hermitian extension

def nonhermitian_phi_gap(A, B, k: int) -> GapReport:
    """``|phi(e^(A+B))| <= phi(e^((A+A†)/2) e^((B+B†)/2))`` for the top-k
    absolute eigenvalue sum; A, B need not be Hermitian.  The left side is
    evaluated by spectral mapping, ``|lambda(e^M)| = e^(Re lambda(M))``,
    without forming ``e^(A+B)``."""
    Am = as_complex_matrix(A, "nonhermitian_phi_gap argument 1")
    Bm = as_complex_matrix(B, "nonhermitian_phi_gap argument 2")
    if Am.shape != Bm.shape:
        raise ValueError("nonhermitian_phi_gap arguments must have equal dimension")
    lhs = _top_k_sum(np.exp(general_eigen(Am + Bm).real), k)
    half = herm_fn(hermitize(Bm), lambda w: np.exp(w / 2.0))
    prod_eigs = np.linalg.eigvalsh(hermitize(half @ expm_herm(hermitize(Am)) @ half))
    rhs = _top_k_sum(prod_eigs[..., ::-1], k)
    return GapReport.from_sides(lhs, rhs)


def hermitian_part_dominance(A) -> GapReport:
    """``lambda_1((A+A†)/2) >= Re lambda_1(A)`` for any square A."""
    Am = as_complex_matrix(A, "hermitian_part_dominance argument 1")
    lhs = general_eigen(Am).real.max(axis=-1)
    rhs = np.linalg.eigvalsh(hermitize(Am))[..., -1]
    return GapReport.from_sides(lhs, rhs)


# ---------------------------------------------------------------------------
# three-matrix bound with resolvent kernel

def _lieb_kernel(gamma: np.ndarray) -> np.ndarray:
    """``(log g_i - log g_j)/(g_i - g_j)`` as ``log1p(d/m)/d`` with
    ``d = |g_i - g_j|`` and ``m = min(g_i, g_j)``, and ``1/m`` where they
    are equal.  ``d`` is exact for nearly equal eigenvalues and ``log1p``
    of a non-negative argument is well-conditioned, so every entry is
    accurate to a few ulps with no series branch."""
    gi = gamma[..., :, None]
    gj = gamma[..., None, :]
    low = np.minimum(gi, gj)
    d = np.abs(gi - gj)
    with np.errstate(divide='ignore', invalid='ignore'):
        return np.where(d == 0, 1.0 / low, np.log1p(d / low) / d)


def lieb_rhs_closed(A, B, C) -> np.ndarray:
    """Closed form of ``int_0^inf Tr(e^A (t+e^-C)^-1 e^B (t+e^-C)^-1) dt``
    through the eigendecomposition of ``e^-C``."""
    Ah, Bh, Ch = hermitian_args("lieb_rhs_closed", A, B, C)
    w, W = np.linalg.eigh(-Ch)
    gamma = np.exp(w)
    M = adjoint(W) @ expm_herm(Ah) @ W
    N = adjoint(W) @ expm_herm(Bh) @ W
    value = np.einsum('...ij,...ji,...ij->...', M, N, _lieb_kernel(gamma))
    return checked_real(value, "closed-form kernel sum in lieb_rhs_closed")


def lieb_rhs_quadrature(A, B, C) -> float:
    """The same integral by adaptive Gauss-Legendre quadrature
    (:func:`~gtlab.linalg.gauss_legendre`) on ``(0, T]``, through a Moebius
    change of variables, plus an analytic bound on the ``t > T`` tail, to
    within ``tol = 1e-10`` relative to its scale.  The resolvent is
    evaluated by one batched linear solve over all nodes of a refinement
    round, independently of the closed-form kernel."""
    tol = 1e-10
    Ah, Bh, Ch = hermitian_args("lieb_rhs_quadrature", A, B, C)
    n = Ah.shape[0]
    eA, eB, emC, eC = (expm_herm(M) for M in (Ah, Bh, -Ch, Ch))
    eye = np.eye(n)
    # the extreme eigenvalues of e^-C, from those of -C so the smallest
    # keeps its relative accuracy
    w = np.linalg.eigvalsh(-Ch)
    gmin, t_switch = math.exp(w[0]), math.exp((w[0] + w[-1]) / 2.0)

    def integrand(t: np.ndarray) -> np.ndarray:
        # (t + e^-C)^-1 = (1 + t e^C)^-1 e^C.  Below t_switch the right
        # side is solved, above it the left, so no system's condition
        # number exceeds 1 + sqrt(cond e^-C); the left side alone would
        # leave noise of cond(e^-C) ulps near t = 0, which stalls the
        # quadrature on widely spread e^-C
        t = t[:, None, None]
        low = t < t_switch
        R = np.linalg.solve(np.where(low, eye + t * eC, t * eye + emC),
                            np.where(low, eC, eye))
        return np.einsum('kij,kji->k', eA @ R, eB @ R).real

    tr_eA = float(np.trace(eA).real)
    norm_eB = float(np.linalg.eigvalsh(eB)[-1])
    scale = max(1.0, abs(float(integrand(np.zeros(1))[0])) * gmin)
    # tail:  integrand(t) <= Tr(e^A) ||e^B||_op / (t + gmin)^2,  so the
    # mass beyond T is at most Tr(e^A) ||e^B||_op / (T + gmin) <= tol/2
    T = 2.0 * tr_eA * norm_eB / (tol * scale) + 1.0
    s0 = float(np.trace(emC).real / n)
    u_max = T / (T + s0)

    def transformed(u: np.ndarray) -> np.ndarray:
        t = s0 * u / (1.0 - u)
        return integrand(t) * s0 / (1.0 - u) ** 2

    return gauss_legendre(transformed, u_max, 0.25 * tol * scale, 0.25 * tol)


def lieb_triple_gap(A, B, C) -> GapReport:
    """``Tr e^(A+B+C)`` against the resolvent-kernel upper bound for three
    Hermitian matrices; reduces to the two-matrix bound at ``C = 0``."""
    Ah, Bh, Ch = hermitian_args("lieb_triple_gap", A, B, C)
    return GapReport.from_sides(trace_expm(Ah + Bh + Ch),
                                lieb_rhs_closed(Ah, Bh, Ch))


# ---------------------------------------------------------------------------
# counter-example hunts

@dataclass(frozen=True)
class Witness:
    """A found counter-example: both sides evaluated on concrete matrices."""

    trial_index: int
    lhs: float
    rhs: float
    matrices: tuple
    context: str
    vectors: tuple | None = None


def triple_gt_scan(stream: RngStream, budget: int) -> Witness | None:
    """Search Gaussian 2x2 traceless triples for
    ``Tr e^(A+B+C) > |Tr(e^A e^B e^C)|``; None when the budget is spent.
    Each block draws ``a``, ``b``, then ``c``."""
    if budget < 1:
        raise ValueError("budget must be positive")
    for done, count, rng in stream.blocks(budget, 3):
        a = rng.standard_normal((count, 3))
        b = rng.standard_normal((count, 3))
        c = rng.standard_normal((count, 3))
        lhs = pauli.trace_exp_sum(a, b + c)
        rhs = np.abs(pauli.trace_exp_triple(a, b, c))
        hits = np.nonzero(lhs > rhs + inequality_tol(lhs, rhs))[0]
        for idx in hits:
            av, bv, cv = a[idx], b[idx], c[idx]
            Am, Bm, Cm = pauli.to_matrix(av), pauli.to_matrix(bv), pauli.to_matrix(cv)
            lhs_m = trace_expm(Am + Bm + Cm)
            rhs_m = abs(np.trace(expm_herm(Am) @ expm_herm(Bm) @ expm_herm(Cm)))
            if lhs_m > rhs_m + inequality_tol(lhs_m, rhs_m):
                return Witness(trial_index=done + int(idx), lhs=lhs_m,
                               rhs=rhs_m, matrices=(Am, Bm, Cm),
                               vectors=(av, bv, cv),
                               context="Tr e^(A+B+C) exceeds |Tr(e^A e^B e^C)|")
    return None


def abc_trace_scan(stream: RngStream, budget: int) -> Witness | None:
    """Search Gaussian 3x3 real symmetric triples for
    ``|Tr (ABC)^(2^k)| > Tr(A^(2^k) B^(2^k) C^(2^k))`` at ``k = 1``."""
    if budget < 1:
        raise ValueError("budget must be positive")
    for done, count, rng in stream.blocks(budget, 27):
        G = rng.standard_normal((count, 3, 3, 3))
        sym = (G + np.swapaxes(G, 2, 3)) / 2.0
        A, B, C = sym[:, 0], sym[:, 1], sym[:, 2]
        P = A @ B @ C
        P = P @ P
        Ap, Bp, Cp = A @ A, B @ B, C @ C
        lhs = np.abs(np.einsum('tii->t', P))
        rhs = np.einsum('tij,tjk,tki->t', Ap, Bp, Cp)
        hits = np.nonzero(lhs > rhs + inequality_tol(lhs, rhs))[0]
        if hits.size:
            idx = int(hits[0])
            return Witness(trial_index=done + idx,
                           lhs=float(lhs[idx]), rhs=float(rhs[idx]),
                           matrices=(A[idx].copy(), B[idx].copy(), C[idx].copy()),
                           context="|Tr (ABC)^(2^k)| exceeds the power bound, k=1")
    return None


# ---------------------------------------------------------------------------
# 2x2 reduction

def pauli_reduce_gap(a, b) -> GapReport:
    """2x2 reduction of the exponential trace bound for the traceless
    Hermitian pair represented by the coefficient vectors ``a`` and ``b``
    (each ``(..., 3)``): ``cosh|a+b| <= cosh|a| cosh|b| - cos(theta) sinh|a|
    sinh|b|``, both sides half the closed-form traces of
    :mod:`gtlab.pauli`."""
    num, cross = pauli.product_terms(a, b)
    return GapReport.from_sides(0.5 * pauli.trace_exp_sum(a, b), num + cross)


def pauli_route_discrepancy(a, b, lhs, rhs) -> float:
    """Largest relative discrepancy between the sides ``lhs`` and ``rhs``
    of ``pauli_reduce_gap(a, b)`` and the same halved traces computed from
    batched eigendecompositions of the represented matrices."""
    sides = np.stack([lhs, rhs])
    matrix_sides = 0.5 * np.stack([
        trace_expm(pauli.to_matrix(a + b)),
        trace_of_product(expm_herm(pauli.to_matrix(a)),
                         expm_herm(pauli.to_matrix(b)),
                         "product trace in the 2x2 reduction")])
    return float(np.max(np.abs(sides - matrix_sides)
                        / np.maximum(1.0, np.abs(sides))))


def pauli_law_gap(a, b, rhs) -> GapReport:
    """:func:`pauli_reduce_gap` restated as the hyperbolic law of cosines:
    ``|a+b|^2 <= |c|^2``, where ``|c|`` is the arccosh of the reduction's
    right side ``rhs``, so that ``|c|^2 >= |a|^2 + |b|^2 - 2|a||b|
    cos(theta)``."""
    v = pauli.as_vector(a) + pauli.as_vector(b)
    c = np.arccosh(np.maximum(rhs, 1.0))
    return GapReport.from_sides(np.sum(v ** 2, axis=-1), c * c)


# ---------------------------------------------------------------------------
# equality order scan

#: Scales of the equality-order scan: 13 points spanning two decades.
_SCAN_EPSILONS = tuple(np.geomspace(1e-3, 1e-1, 13))


@dataclass(frozen=True)
class OrderScanResult:
    gaps: np.ndarray
    commuting: bool
    slope: float | None
    coefficient: float


def equality_order_scan(A, B) -> OrderScanResult:
    """Leading order of ``g(eps) = Tr(e^(eps A) e^(eps B)) - Tr e^(eps(A+B))``.

    Commuting pairs give ``g = 0`` on the whole grid; otherwise the slope
    ``s`` (expected 4) of ``log g = s log eps + log c + kappa eps^2`` is
    fitted over the gaps above rounding level, and ``g/eps^4`` is
    extrapolated to zero by a linear fit in ``eps^2`` over their lower half.
    """
    Ah, Bh = hermitian_args("equality_order_scan", A, B)
    eps = np.array(_SCAN_EPSILONS)
    E = eps[:, None, None]
    lhs = trace_of_product(expm_herm(E * Ah), expm_herm(E * Bh),
                           "product trace in equality_order_scan")
    rhs = trace_expm(E * (Ah + Bh))
    gaps = lhs - rhs
    scale = max(1.0, np.abs(lhs).max(), np.abs(rhs).max())
    if np.max(np.abs(gaps)) <= 1e-12 * scale:
        return OrderScanResult(gaps=gaps, commuting=True,
                               slope=None, coefficient=0.0)
    # a 2x2 pair's gaps at the smallest eps are at rounding level and
    # carry no slope; the eps^2 column takes up the next order of g
    usable = gaps > 1e-13 * scale
    if np.count_nonzero(usable) < 4:
        raise ValueError("grid too coarse for a stable fit: fewer than 4 "
                         "gap values above rounding level")
    e = eps[usable]
    design = np.stack([np.log(e), np.ones_like(e), e ** 2], axis=1)
    slope = np.linalg.lstsq(design, np.log(gaps[usable]), rcond=None)[0][0]
    # the usable points up to the median one: at least 3 of the 4 or more
    low = usable & (eps <= eps[usable][np.count_nonzero(usable) // 2])
    _, intercept = np.polyfit(eps[low] ** 2, gaps[low] / eps[low] ** 4, 1)
    return OrderScanResult(gaps=gaps, commuting=False, slope=float(slope),
                           coefficient=float(intercept))


# ---------------------------------------------------------------------------
# scalar oscillator bound

def oscillator_bound(beta) -> GapReport:
    """``1/sinh(beta) <= 1/beta`` for positive beta (a float or an array)."""
    beta = np.asarray(beta, dtype=np.float64)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    lhs = np.where(beta > 700, 0.0, 1.0 / np.sinh(np.minimum(beta, 700.0)))
    return GapReport.from_sides(lhs, 1.0 / beta)
