"""Concentration machinery for sums of random matrices.

Covers the scaled Gram matrix :func:`covariance` of an ``N x k`` block or
a stack ``(..., N, k)`` (Hermitian up to rounding) and its deviation
experiment, the exponential moment (Bernstein-Chebyshev) pipeline, the
Ahlswede-Winter tail bound with its per-trial exponential step and its
moment-generating-function lemma, the sign-series trace bound in its
self-consistent corrected form
``E Tr e^(mu Z) <= Tr e^((mu^2/2) sum A_p^2)`` (checked exactly for
Rademacher signs, by enumeration, and for Gaussian signs by Monte Carlo),
and the scalar Chernoff baseline the matrix results generalize.

Monte Carlo experiments draw their trials in the blocks of
:meth:`~gtlab.samplers.RngStream.blocks`, block ``b`` from child ``b`` of
the stream they are given (the Gaussian sign series draws its chunks from
one generator), in a fixed, documented order, so results are reproducible
and independent of scheduling.  Each reduces block by block (counts, sums
and :func:`~gtlab.reports.merge_moments`, whose means and standard errors
:func:`~gtlab.reports.mean_and_se` reads), so its memory is one block's
whatever the trial count.  A tail experiment is one sample of ``N x k``
Gaussian blocks, whose deviation spectra are counted against each of its
thresholds; :meth:`~gtlab.reports.TailReport.from_counts` judges each
exact tail (:func:`exact_tail`) against its bound and the count against
the exact tail.  The Chebyshev step and the moment-generating-function
lemma each run on one fixed block shape.  The Chebyshev step holds draw
by draw, so the means of its two sides over the same draws obey it
exactly: it is judged with the rounding tolerance of an exact inequality
at one fixed exponent ``c``, which sets only its slack.

A sign series is given by its Hermitian terms: an array of shape
``(m, d, d)``, or ``(..., m, d, d)`` for a stack of series sharing a
length ``m`` and a dimension ``d``; ``mu`` is one value or an array
broadcasting against the stack's leading axes.  Only the Monte Carlo
check takes one series.  The deterministic sides are computed once per
call for all of them: an exact enumeration eigensolves ``sum_p e_p A_p``
over the half of the ``2^m`` sign patterns with ``e_m = -1`` (the other
half negates them, so the mean of ``Tr cosh(mu Z)`` over the half is the
full average of ``Tr e^(mu Z)``) and ``sum_p A_p^2`` once, and derives
every mu's sides from those two spectra; stacked series of one ``(m, d)``
group are validated and eigensolved together.  A stacked call returns,
member by member, the bits of the single calls.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (adjoint, hermitian_args, hermitize, require_hermitian,
                     trace_of_product)
from .reports import GapReport, TailReport, mean_and_se, merge_moments
from .samplers import RngStream, block_instances, standard_complex

__all__ = [
    "covariance",
    "covariance_deviations", "gaussian_row_sigma2",
    "aw_bound", "exact_tail", "empirical_tail", "bernstein_tail_check",
    "aw_mgf_lemma_check", "oliveira_mgf_check",
    "oliveira_mgf_montecarlo", "oliveira_recursion_profile",
    "mgf_factor_check", "oliveira_vs_aw", "scalar_chernoff",
    "exp_trace_dominance", "trace_product_dominance",
]

#: The scalar baseline sums N two-point variables of total variance sigma^2
#: and is checked at one threshold.
_CHERNOFF_VARS = 20
_CHERNOFF_SIGMA2 = 1.0
_CHERNOFF_EPS = 3.0

#: The Chebyshev step is checked on ``N x k`` blocks at one threshold and
#: one exponent ``c``; the moment-generating-function lemma on blocks small
#: enough that both its sides are estimable to adequate precision.
_BERNSTEIN_SHAPE, _BERNSTEIN_EPS, _BERNSTEIN_C = (16, 2), 1.0, 6.0
_MGF_SHAPE, _MGF_BATCHES = (4, 2), 10


# ---------------------------------------------------------------------------
# covariance construction

def covariance(X) -> np.ndarray:
    """Scaled Gram matrices ``(1/N) X†X`` of an ``N x k`` block or a stack
    ``(..., N, k)`` of them, ``N >= k >= 1``; Hermitian up to rounding."""
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim < 2 or not 1 <= X.shape[-1] <= X.shape[-2]:
        raise ValueError("requires N x k blocks, N >= k >= 1")
    return adjoint(X) @ X / X.shape[-2]


def gaussian_row_sigma2(n: int, k: int) -> float:
    """Variance proxy ``sum_p ||E (S_p)^2||_op`` for standard complex
    Gaussian rows, in closed form.

    For a standard complex Gaussian row ``v`` of length k,
    ``E[(v v†)^2] = (k+1) I``, so ``E S^2 = k I / N^2`` and the sum over
    the N rows is ``k/N``.
    """
    return k / n


def covariance_deviations(rng: np.random.Generator, count: int, n: int,
                          k: int):
    """``count`` standard complex Gaussian ``n x k`` blocks ``X`` and their
    deviations ``covariance(X) - I``."""
    X = standard_complex(rng, (count, n, k))
    return X, covariance(X) - np.eye(k)


def _row_norms_sq(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms ``|x_p|^2`` of the rows of each block."""
    return (X.real ** 2 + X.imag ** 2).sum(axis=-1)


def _ascending_spectra(dev: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian ``k x k`` matrices,
    read from the lower triangle as LAPACK reads it: in closed form for
    ``k <= 2`` (see :func:`_deviation_draw`), by ``eigvalsh`` above."""
    k = dev.shape[-1]
    if k == 1:
        return dev[..., 0].real
    if k == 2:
        a, d = dev[..., 0, 0].real, dev[..., 1, 1].real
        mean = (a + d) / 2.0
        radius = np.hypot((a - d) / 2.0, np.abs(dev[..., 1, 0]))
        return np.stack((mean - radius, mean + radius), axis=-1)
    return np.linalg.eigvalsh(dev)


def _deviation_draw(rng: np.random.Generator, count: int, n: int, k: int):
    """``count`` Gaussian ``n x k`` blocks ``X`` and the ascending spectra
    ``w`` of their deviations ``X†X/N - I``.

    The spectra are in closed form for the dimensions the runners use: a
    1 x 1 deviation ``[[a]]`` is its own eigenvalue ``a``, and
    ``[[a, b*], [b, d]]`` has the eigenvalues
    ``(a + d)/2 -+ hypot((a - d)/2, |b|)``; larger dimensions go to LAPACK.
    """
    X, dev = covariance_deviations(rng, count, n, k)
    return X, _ascending_spectra(dev)


# ---------------------------------------------------------------------------
# tail bound and empirical tails

def aw_bound(k: int, eps: float, sigma2: float) -> float:
    """``k max(e^(-eps^2/(4 sigma^2)), e^(-eps/2))``; requires the summand
    normalization ``||S_p|| <= 1`` for the guarantee to apply."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return k * max(math.exp(-eps * eps / (4.0 * sigma2)), math.exp(-eps / 2.0))


def _determinant(rows):
    """The determinant of a positive semidefinite matrix given as rows, by
    elimination without pivoting: a zero pivot of such a matrix leaves a
    zero row in its Schur complement, hence a zero determinant."""
    product = 1
    while rows:
        (pivot, *head), *rest = rows
        product *= pivot
        if not pivot:
            break
        rows = [[x - first / pivot * y for x, y in zip(row, head)]
                for first, *row in rest]
    return product


def exact_tail(n: int, k: int, eps: float) -> float:
    """``Pr(||Sigma - I||_op > eps)`` for ``Sigma = X†X/n`` of an ``n x k``
    standard complex Gaussian block, exactly.

    The eigenvalues of ``X†X`` form the Laguerre unitary ensemble, so by
    Andreief's identity (Forrester, *Log-gases and Random Matrices*, 2010,
    ch. 3) all lie in ``[a, b] = [max(n (1 - eps), 0), n (1 + eps)]`` with
    probability ``det[int_a^b x^m e^(-x) dx] / det[m!]``, ``m = i+j+n-k``
    over ``i, j < k``; each integral is ``Gamma(m+1, a) - Gamma(m+1, b)``.
    Both run in 50-digit decimals, so a tail near 1e-8 keeps its digits
    through ``1 - ratio``, in a context of their own, whatever the
    caller's decimal context.
    """
    import decimal

    with decimal.localcontext(decimal.Context(prec=50)):
        zero, eps = decimal.Decimal(0), decimal.Decimal(eps)

        def upper_gamma(x):
            # Gamma(m + 1, x) = m Gamma(m, x) + x^m e^(-x), m = 0..n+k-2
            term, value, values = (-x).exp(), zero, []
            for m in range(n + k - 1):
                value = m * value + term
                values.append(value)
                term *= x
            return values

        lower = upper_gamma(max(n * (1 - eps), zero))
        upper, full = upper_gamma(n * (1 + eps)), upper_gamma(zero)
        orders = [range(i + n - k, i + n) for i in range(k)]
        inside = _determinant([[lower[m] - upper[m] for m in row]
                               for row in orders])
        return float(1 - inside / _determinant([[full[m] for m in row]
                                                 for row in orders]))


def empirical_tail(n: int, k: int, epsilons, trials: int,
                   stream: RngStream) -> list[TailReport]:
    """Monte Carlo frequencies of ``||Sigma - I||_op > eps`` for ``n x k``
    Gaussian blocks, one report per threshold of ``epsilons``, all read
    from the same ``trials`` draws from ``stream``.  Each judges its exact
    tail against the analytic bound with the closed-form Gaussian variance
    proxy, and its count against the exact tail; one-sided frequencies and
    the rate of trials with a row outside the summand normalization are
    reported alongside.  A report depends only on its own threshold, so it
    has the bits of the one-threshold call on the same stream.
    """
    eps = np.array(epsilons, dtype=np.float64)
    two_sided = np.zeros(len(eps), dtype=np.int64)
    upper = np.zeros_like(two_sided)
    lower = np.zeros_like(two_sided)
    assume = 0
    for _, count, rng in stream.blocks(trials, n * k):
        X, w = _deviation_draw(rng, count, n, k)
        lam_max, lam_min = w[:, -1:], w[:, :1]
        two_sided += (np.maximum(lam_max, -lam_min) > eps).sum(axis=0)
        upper += (lam_max > eps).sum(axis=0)
        lower += (-lam_min > eps).sum(axis=0)
        assume += int((_row_norms_sq(X) > n + 1).any(axis=1).sum())
    sigma2 = gaussian_row_sigma2(n, k)
    return [TailReport.from_counts(
        int(two_sided[j]), trials, exact_tail(n, k, e),
        aw_bound(k, e, sigma2),
        {"upper_tail": int(upper[j]) / trials, "lower_tail": int(lower[j]) / trials,
         "assumption_violation_rate": assume / trials, "sigma2": sigma2})
        for j, e in enumerate(epsilons)]


def bernstein_tail_check(trials: int, stream: RngStream) -> GapReport:
    """Monte Carlo check of the exponentiated Chebyshev step:
    ``Pr(lambda_max(Sigma - I) > eps) <= e^(-c eps) E Tr e^(c (Sigma - I))``
    over ``trials`` draws of ``16 x 2`` blocks, in the blocks of
    ``stream.child(0).blocks``, at ``eps = 1`` and ``c = 6``.

    The step holds draw by draw,
    ``1{lambda_max > eps} <= e^(c (lambda_max - eps))
    <= e^(-c eps) Tr e^(c (Sigma - I))``, and both sides are means over the
    same draws, so the sample means obey it exactly: the report carries the
    rounding tolerance of an exact inequality and no confidence interval.
    ``c`` sets only the slack ``rhs - lhs``.  Over seeds 1-200 at 2000,
    8000 and 20000 trials, ``c = 6`` gives a median slack near 0.05 and a
    99th percentile below 0.12; ``c = 5`` trades a median near 0.07 for a
    99th percentile below 0.10, and ``c = 8`` lets it reach 0.36.
    """
    eps, c = _BERNSTEIN_EPS, _BERNSTEIN_C
    n, k = _BERNSTEIN_SHAPE
    exceed, rhs_sum = 0, 0.0
    for _, count, rng in stream.child(0).blocks(trials, n * k):
        _, w = _deviation_draw(rng, count, n, k)
        exceed += int((w[:, -1] > eps).sum())
        rhs_sum += float((math.exp(-c * eps)
                          * np.exp(c * w).sum(axis=1)).sum())
    return GapReport.from_sides(exceed / trials, rhs_sum / trials)


# ---------------------------------------------------------------------------
# moment-generating-function lemma for the covariance experiment

def _rank_one_weights(rows: np.ndarray, mu: float, n: int) -> np.ndarray:
    """The weight ``c = expm1(mu |x|^2/n)/|x|^2`` of each row ``x`` of
    ``rows``, for which ``e^(mu S) = e^(-mu/n) (I + c x† x)`` with
    ``S = (x† x - I)/n`` (0 at ``x = 0``, where ``x† x`` vanishes)."""
    sq = _row_norms_sq(rows)
    return np.divide(np.expm1(mu * sq / n), sq, out=np.zeros_like(sq),
                     where=sq > 0)


def _factor_mean(weighted_sum: np.ndarray, count: int, mu: float,
                 n: int) -> np.ndarray:
    """The mean of ``e^(mu S)`` over ``count`` rows whose
    ``sum c x† x`` (:func:`_rank_one_weights`) is ``weighted_sum``."""
    eye = np.eye(weighted_sum.shape[-1])
    return math.exp(-mu / n) * (eye + weighted_sum / count)


def aw_mgf_lemma_check(mu: float, trials: int,
                       stream: RngStream) -> GapReport:
    """``E Tr e^(mu (Sigma - I)) <= k ||E e^(mu S)||_op^N`` with both sides
    estimated by Monte Carlo over ``trials`` draws of ``4 x 2`` blocks,
    drawn in the blocks of ``stream.blocks``.

    Each row ``x`` of a draw gives the summand ``S = (x† x - I)/N``; since
    ``x† x`` has the one nonzero eigenvalue ``|x|^2``, its exponential is
    ``e^(mu S) = e^(-mu/N) (I + expm1(mu |x|^2/N)/|x|^2 · x† x)``.  The
    right side's expectation is the mean of those over all rows, and its
    standard error comes from the means of 10 ``array_split`` batches of
    the rows in draw order; each block adds its rows to their batches by
    global row index.  The report's tolerance carries the combined
    confidence radius, so ``passed`` is CI-aware; the per-term expectations
    reuse the identical row draws, which tightens the comparison near
    equality.
    """
    n, k = _MGF_SHAPE
    rows_total = trials * n
    q, r = divmod(rows_total, _MGF_BATCHES)
    edges = [j * q + min(j, r) for j in range(_MGF_BATCHES + 1)]
    sums = np.zeros((_MGF_BATCHES, k, k), dtype=np.complex128)
    moments = (0, 0.0, 0.0)
    for start, count, rng in stream.blocks(trials, n * k):
        X, w = _deviation_draw(rng, count, n, k)
        moments = merge_moments(moments, [np.exp(mu * w).sum(axis=1)])
        rows = X.reshape(count * n, k)
        weighted = _rank_one_weights(rows, mu, n)[:, None] * rows
        first = start * n
        for j in range(_MGF_BATCHES):
            lo = max(edges[j] - first, 0)
            hi = min(edges[j + 1] - first, len(rows))
            if lo < hi:
                sums[j] += adjoint(rows[lo:hi]) @ weighted[lo:hi]
    (lhs,), (lhs_se,) = mean_and_se(moments)

    batch_norms = [
        np.linalg.norm(_factor_mean(s, hi - lo, mu, n), ord=2)
        for s, lo, hi in zip(sums, edges, edges[1:])]
    _, (factor_se,) = mean_and_se(merge_moments((0, 0.0, 0.0), [batch_norms]))
    mean = _factor_mean(sums.sum(axis=0), rows_total, mu, n)
    factor_norm = float(np.linalg.norm(mean, ord=2))
    rhs = k * factor_norm ** n
    rhs_se = k * n * factor_norm ** (n - 1) * factor_se
    tol = 2.0 * math.sqrt(lhs_se ** 2 + rhs_se ** 2) + 1e-12 * max(1.0, lhs, rhs)
    return GapReport.from_sides(lhs, rhs, tol=tol)


# ---------------------------------------------------------------------------
# sign-series trace bound

def _all_sign_patterns(length: int) -> np.ndarray:
    bits = (np.arange(1 << length)[:, None] >> np.arange(length)[None, :]) & 1
    return 2.0 * bits - 1.0


def _checked_terms(terms) -> np.ndarray:
    """The terms of one series ``(m, d, d)`` or a stack ``(..., m, d, d)``
    as a complex array, symmetrized; rejects terms of unequal dimension, a
    series without terms and non-Hermitian terms."""
    try:
        terms = np.asarray(terms, dtype=np.complex128)
    except ValueError as exc:
        raise ValueError("all series terms must share one dimension") from exc
    if terms.ndim < 3 or terms.shape[-3] == 0:
        raise ValueError("series needs at least one term")
    return require_hermitian(terms, "series term")


def _series_rhs(terms: np.ndarray, mu) -> np.ndarray:
    """Deterministic right side ``Tr e^((mu^2/2) sum_p A_p^2)`` of terms
    :func:`_checked_terms` admitted: an array over the series stack
    broadcast against ``mu`` (0-d for one series at one mu)."""
    sq = np.einsum('...pij,...pjk->...ik', terms, terms)
    w = np.linalg.eigvalsh(hermitize(sq))
    return np.exp(0.5 * np.asarray(mu)[..., None] ** 2 * w).sum(axis=-1)


def oliveira_mgf_check(terms, mu) -> GapReport:
    """``E Tr e^(mu Z) <= Tr e^((mu^2/2) sum A_p^2)`` for the sign series
    ``Z = sum_p e_p A_p``, the left side averaged exactly over all
    Rademacher sign patterns (a deterministic verdict).  Takes stacked
    series and arrays of mu, eigensolving each series once for every mu."""
    terms = _checked_terms(terms)
    m = terms.shape[-3]
    # pattern i and pattern 2^m - 1 - i give Z and -Z, so the first half
    # of the patterns averages Tr (e^(mu Z) + e^(-mu Z))/2 = Tr cosh(mu Z)
    signs = _all_sign_patterns(m)[:1 << (m - 1)]
    w = np.linalg.eigvalsh(np.einsum('sp,...pij->...sij', signs, terms))
    mu = np.asarray(mu, dtype=np.float64)
    lhs = np.cosh(mu[..., None, None] * w).sum(axis=-1).mean(axis=-1)
    return GapReport.from_sides(lhs, _series_rhs(terms, mu))


def oliveira_mgf_montecarlo(terms, stream: RngStream,
                            trials: int) -> GapReport:
    """The bound of :func:`oliveira_mgf_check` at mu = 1 for one series
    with Gaussian signs (a series at mu is the series of the terms
    ``mu A_p`` at 1): the left side is estimated from ``trials`` sign
    draws on ``stream``, and the tolerance is two standard errors (plus
    rounding slack)."""
    terms = _checked_terms(terms)
    rng = stream.generator()
    moments = (0, 0.0, 0.0)
    # a sign row or one Z per instance; as one generator draws the chunks
    # in turn, the chunk bounds memory and fixes no sign
    chunk = block_instances(max(terms.shape[0], terms[0].size))
    for start in range(0, trials, chunk):
        signs = rng.standard_normal((min(chunk, trials - start), terms.shape[0]))
        w = np.linalg.eigvalsh(np.einsum('sp,pij->sij', signs, terms))
        moments = merge_moments(moments, [np.exp(w).sum(axis=1)])
    (lhs,), (se,) = mean_and_se(moments)
    rhs = _series_rhs(terms, 1.0)
    tol = 2.0 * se + 1e-12 * max(1.0, lhs, rhs)
    return GapReport.from_sides(lhs, rhs, tol=tol)


def oliveira_recursion_profile(terms, mu) -> np.ndarray:
    """Exactly enumerated ``E Tr e^(D_j)``, ``j = 0..m``, for the
    interpolating family

    ``D_j = D_0 + sum_{p<=j} (mu e_p A_p - (mu^2/2) A_p^2)``,
    ``D_0 = (mu^2/2) sum_p A_p^2``,

    which starts at the deterministic right side and ends at ``mu Z``:
    shape ``(..., m + 1)`` over the series stack broadcast against
    ``mu``.  The sequence is non-increasing in ``j``.
    """
    terms = _checked_terms(terms)
    mu = np.asarray(mu, dtype=np.float64)[..., None, None, None]
    sq = 0.5 * mu ** 2 * np.einsum('...pij,...pjk->...pik', terms, terms)
    D0 = hermitize(sq.sum(axis=-3))
    profile = []
    for j in range(terms.shape[-3] + 1):
        # at j = 0 both sums are empty, hence zero
        signs = _all_sign_patterns(j)
        D = (D0 - sq[..., :j, :, :].sum(axis=-3))[..., None, :, :] \
            + mu * np.einsum('sp,...pij->...sij', signs, terms[..., :j, :, :])
        w = np.linalg.eigvalsh(hermitize(D))
        profile.append(np.exp(w).sum(axis=-1).mean(axis=-1))
    return np.stack(profile, axis=-1)


def mgf_factor_check(A, mu) -> GapReport:
    """``|| e^(-mu^2 A^2/2) E e^(mu e A) ||_op <= 1`` for a Rademacher sign e
    (``A`` one Hermitian matrix or a stack; ``mu`` one value or an array
    broadcasting against the stack's leading axes).

    The expectation ``cosh(mu A)`` is exact, so the only slack is rounding:
    ``1e-15`` relative to ``max(1, lhs)``.  A Gaussian sign's expectation
    ``e^(mu^2 A^2/2)`` makes the factor identically 1: nothing to check.
    """
    w = np.linalg.eigvalsh(require_hermitian(A, "mgf_factor_check input"))
    factor = np.exp(-0.5 * mu ** 2 * w ** 2) * np.cosh(mu * w)
    lhs = np.abs(factor).max(axis=-1)
    return GapReport.from_sides(lhs, 1.0, tol=1e-15 * np.maximum(1.0, lhs))


def oliveira_vs_aw(terms, mu) -> GapReport:
    """The series trace bound is never weaker than the direct adaptation
    ``d e^(mu^2 sum_p ||A_p^2||_op)`` of the covariance-lemma argument
    (one series, or a stack of series with their mu)."""
    terms = _checked_terms(terms)
    lhs = _series_rhs(terms, mu)
    norms = (np.abs(np.linalg.eigvalsh(terms)).max(axis=-1) ** 2).sum(axis=-1)
    # math.exp, member by member: numpy's vectorized exp can differ from it
    # in the last bit, and a stacked call must give the single call's bits
    exponent = np.square(mu) * norms
    rhs = terms.shape[-1] * np.vectorize(math.exp, otypes=[float])(exponent)
    return GapReport.from_sides(lhs, rhs)


# ---------------------------------------------------------------------------
# scalar baseline

def scalar_chernoff(stream: RngStream, trials: int) -> TailReport:
    """The tail ``Pr(S >= eps)`` at ``eps = 3`` against ``max(e^(-eps^2/4),
    e^(-eps sigma/2))``, where ``S`` sums ``N = 20`` symmetric two-point
    variables ``+-sqrt(sigma^2/N)``, ``sigma^2 = 1``: each is mean zero and
    confined to [-1, 1], and ``S`` has variance ``sigma^2``.  The exact tail
    sums ``C(N, j) / 2^N`` over the ``j`` positive signs whose event holds in
    the sampler's float arithmetic (1351/2^20); ``trials`` draws count it.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n, sigma2, eps = _CHERNOFF_VARS, _CHERNOFF_SIGMA2, _CHERNOFF_EPS
    scale = math.sqrt(sigma2 / n)
    bound = max(math.exp(-eps * eps / 4.0),
                math.exp(-eps * math.sqrt(sigma2) / 2.0))
    exceed = 0
    for _, count, rng in stream.blocks(trials, n):
        signs = 2.0 * rng.integers(0, 2, size=(count, n)) - 1.0
        exceed += int((scale * signs.sum(axis=1) >= eps).sum())
    exact = sum(math.comb(n, j) for j in range(n + 1)
                if scale * (2 * j - n) >= eps) / 2**n
    return TailReport.from_counts(exceed, trials, exact, bound, extras={})


# ---------------------------------------------------------------------------
# deterministic trace steps

def exp_trace_dominance(M, c: float) -> GapReport:
    """The per-trial step of the Ahlswede-Winter argument,
    ``e^(c lambda_max(M)) <= Tr e^(c M)`` for Hermitian M (one matrix or a
    stack): the left side is one of the right side's terms, so the only
    slack is rounding, ``1e-12`` relative to the right side."""
    w = np.linalg.eigvalsh(require_hermitian(M, "exp_trace_dominance input"))
    rhs = np.exp(c * w).sum(axis=-1)
    return GapReport.from_sides(np.exp(c * w[..., -1]), rhs, tol=1e-12 * rhs)


def trace_product_dominance(P, Q) -> GapReport:
    """``Tr(PQ) <= ||Q||_op Tr P`` for positive definite P and Hermitian Q
    (single matrices or stacks).  A Cholesky factorization confirms that P
    is positive definite, and ``Tr P`` is its real diagonal sum; only Q is
    eigensolved."""
    Ph, Qh = hermitian_args("trace_product_dominance", P, Q)
    try:
        np.linalg.cholesky(Ph)
    except np.linalg.LinAlgError:
        raise ValueError("trace_product_dominance requires positive "
                         "definite P") from None
    wq = np.linalg.eigvalsh(Qh)
    lhs = trace_of_product(Ph, Qh, "trace in trace_product_dominance")
    trace_p = np.einsum('...ii->...', Ph).real
    rhs = np.maximum(-wq[..., 0], wq[..., -1]) * trace_p
    return GapReport.from_sides(lhs, rhs)
