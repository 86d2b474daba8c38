"""Concentration machinery for sums of random matrices.

Covers the empirical covariance deviation experiment, the exponential
moment (Bernstein-Chebyshev) pipeline, the Ahlswede-Winter tail bound
with its moment-generating-function lemma, the sign-series trace bound in
its self-consistent corrected form ``E Tr e^(mu Z) <= Tr e^((mu^2/2) sum
A_p^2)``, and the scalar Chernoff baseline the matrix results generalize.

Monte Carlo experiments draw all trials from one stream generator in a
fixed, documented order (trial data is row ``i`` of the draw), so results
are reproducible and independent of scheduling; sub-experiments draw from
child streams of the experiment's stream.  A tail experiment is one
attempt on the stream it is given, decided by
:meth:`~gtlab.reports.TailReport.from_counts`; whether a straddling
interval reruns is the caller's policy.

A :class:`MatrixSeries` holds one series or a stack of series sharing a
length ``m`` and a dimension ``d`` (terms of shape ``(..., m, d, d)``),
and ``mu`` is one value or an array broadcasting against the stack's
leading axes.  The deterministic sides are computed once per call for all
of them: an exact enumeration eigensolves ``sum_p e_p A_p`` over the
``2^m`` sign patterns and ``sum_p A_p^2`` once, and derives every mu's
sides from those two spectra; stacked series of one ``(m, d)`` group are
validated and eigensolved together.  A stacked call returns, member by
member, the bits of the single calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import herm_fn, hermitize, require_hermitian, trace_of_product
from .reports import GapReport, TailReport, binomial_ci
from .samplers import RngStream, standard_complex

__all__ = [
    "ResourceGuardError", "CovarianceExperiment", "MatrixSeries",
    "ScalarChernoffParams", "covariance", "gaussian_row_sigma2",
    "aw_bound", "empirical_tail", "bernstein_tail_check",
    "optimal_bernstein_c", "aw_mgf_lemma_check", "oliveira_mgf_check",
    "oliveira_recursion_profile", "mgf_factor_check", "oliveira_vs_aw",
    "scalar_chernoff", "trace_product_dominance",
]

#: Exact enumeration of sign patterns is refused above this series length.
ENUMERATE_LIMIT = 14

#: Trials per stream block in the tail experiments; the block size fixes
#: the draw order.
_TAIL_CHUNK = 4096

#: Sign patterns evaluated per stack in the Monte Carlo sign series.  The
#: chunks draw from one generator in turn, which yields the same signs as a
#: single draw, so the chunk size bounds memory and fixes no draw.
_SIGN_CHUNK = 65536

SIGN_KINDS = ("rademacher", "gaussian")


class ResourceGuardError(RuntimeError):
    """A request exceeded a hard cost guard (e.g. enumeration length)."""


@dataclass(frozen=True)
class CovarianceExperiment:
    """Deviation experiment for the scaled Gram matrix of a Gaussian block.

    ``n_samples`` rows by ``dim`` columns; ``epsilon`` is the deviation
    threshold and ``c`` an optional exponent for the Bernstein step
    (auto-optimized when absent).
    """

    n_samples: int
    dim: int
    epsilon: float
    c: float | None = None
    trials: int = 10000

    def __post_init__(self):
        if not 1 <= self.dim <= self.n_samples:
            raise ValueError("requires 1 <= dim <= n_samples")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.c is not None and self.c <= 0:
            raise ValueError("c must be positive when given")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class MatrixSeries:
    """Fixed Hermitian terms combined with random signs: ``sum_p e_p A_p``.

    ``terms`` is a sequence of ``m`` matrices of one dimension ``d``, or an
    array of shape ``(..., m, d, d)`` holding a stack of such series;
    ``mu`` is a float or an array broadcasting against the stack's leading
    axes.  Both are stored as arrays of those shapes (``mu`` as a float
    when scalar), and every term is validated as Hermitian.
    """

    terms: np.ndarray
    sign_kind: str = "rademacher"
    mu: float | np.ndarray = 1.0

    def __post_init__(self):
        if self.sign_kind not in SIGN_KINDS:
            raise ValueError(f"sign_kind must be one of {SIGN_KINDS}")
        try:
            terms = np.asarray(self.terms, dtype=np.complex128)
        except ValueError as exc:
            raise ValueError("all series terms must share one dimension") from exc
        if terms.ndim < 3 or terms.shape[-3] == 0:
            raise ValueError("series needs at least one term")
        terms = require_hermitian(terms, "series term")
        mu = np.asarray(self.mu, dtype=np.float64)
        np.broadcast_shapes(terms.shape[:-3], mu.shape)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "mu", float(mu) if mu.ndim == 0 else mu)

    @property
    def dim(self) -> int:
        return self.terms.shape[-1]

    @property
    def length(self) -> int:
        return self.terms.shape[-3]

    def require_single(self, what: str):
        """Reject a stack of series or an array of mu for ``what``."""
        if self.terms.ndim != 3 or np.ndim(self.mu) != 0:
            raise ValueError(f"{what} takes one series and one mu")


@dataclass(frozen=True)
class ScalarChernoffParams:
    """Sum of iid mean-zero variables confined to [-1, 1]; the built-in
    generator uses symmetric two-point variables of variance sigma2/N."""

    n_vars: int
    sigma2: float
    epsilon: float

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("n_vars must be positive")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


# ---------------------------------------------------------------------------
# covariance construction

def covariance(X_block, check_rank_one: bool = False) -> np.ndarray:
    """Scaled Gram matrix ``(1/N) X†X`` of an ``N x k`` block, ``N >= k``.

    With ``check_rank_one`` the result is re-derived as the average of the
    rank-one row contributions and both routes must agree to 1e-12.
    """
    X = np.asarray(X_block, dtype=np.complex128)
    if X.ndim != 2:
        raise ValueError("expected a 2-d block")
    n, k = X.shape
    if not 1 <= k <= n:
        raise ValueError("requires N >= k >= 1")
    sigma = hermitize(X.conj().T @ X / n)
    if check_rank_one:
        acc = np.einsum('pi,pj->ij', X.conj(), X) / n
        scale = max(1.0, float(np.abs(sigma).max()))
        if np.abs(acc - sigma).max() > 1e-12 * scale:
            raise RuntimeError("rank-one decomposition disagrees with the "
                               "direct Gram product beyond 1e-12")
    return sigma


def gaussian_row_sigma2(exp: CovarianceExperiment) -> float:
    """Variance proxy ``sum_p ||E (S_p)^2||_op`` for standard complex
    Gaussian rows, in closed form.

    For a standard complex Gaussian row ``v`` of length k,
    ``E[(v v†)^2] = (k+1) I``, so ``E S^2 = k I / N^2`` and the sum over
    the N rows is ``k/N``.
    """
    return exp.dim / exp.n_samples


def _deviation_draw(rng: np.random.Generator, count: int,
                    exp: CovarianceExperiment):
    """``count`` Gaussian blocks ``X`` of ``exp`` and the ascending spectra
    ``w`` of their deviations ``X†X/N - I``."""
    n, k = exp.n_samples, exp.dim
    X = standard_complex(rng, (count, n, k))
    dev = np.einsum('tpi,tpj->tij', X.conj(), X) / n
    dev[:, np.arange(k), np.arange(k)] -= 1.0
    return X, np.linalg.eigvalsh(dev)


# ---------------------------------------------------------------------------
# tail bound and empirical tails

def aw_bound(exp: CovarianceExperiment, sigma2: float) -> float:
    """``k max(e^(-eps^2/(4 sigma^2)), e^(-eps/2))``; requires the summand
    normalization ``||S_p|| <= 1`` for the guarantee to apply."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    eps = exp.epsilon
    return exp.dim * max(math.exp(-eps * eps / (4.0 * sigma2)),
                         math.exp(-eps / 2.0))


def _tail_counts(exp: CovarianceExperiment, stream: RngStream):
    """Vectorized deviation statistics; returns counts and per-trial checks."""
    n, eps = exp.n_samples, exp.epsilon
    c = exp.c if exp.c is not None else 1.0
    two_sided = upper = lower = 0
    assumption_violations = 0
    for _, count, rng in stream.blocks(exp.trials, _TAIL_CHUNK):
        X, w = _deviation_draw(rng, count, exp)
        lam_max, lam_min = w[:, -1].real, w[:, 0].real
        up = lam_max > eps
        low = -lam_min > eps
        two = np.maximum(lam_max, -lam_min) > eps
        # sample-level union bound: a two-sided exceedance is always one of
        # the one-sided exceedances
        if np.any(two & ~(up | low)):
            raise RuntimeError("union-bound accounting failed at sample level")
        # per-trial exponential-moment dominance: e^(c lam_max) <= Tr e^(c dev)
        if np.any(np.exp(c * lam_max) >
                  np.exp(c * w).sum(axis=1) * (1 + 1e-12)):
            raise RuntimeError("per-trial trace dominance failed")
        two_sided += int(two.sum())
        upper += int(up.sum())
        lower += int(low.sum())
        row_sq = np.einsum('tpi,tpi->tp', X.conj(), X).real
        assumption_violations += int((row_sq > n + 1).any(axis=1).sum())
    return two_sided, upper, lower, assumption_violations


def empirical_tail(exp: CovarianceExperiment, stream: RngStream) -> TailReport:
    """Monte Carlo frequency of ``||Sigma - I||_op > eps`` over
    ``exp.trials`` draws from ``stream``, against the analytic tail bound
    with the closed-form Gaussian variance proxy; the verdict is
    :meth:`TailReport.from_counts`.  One-sided frequencies and the
    summand-normalization violation rate are reported alongside.
    """
    sigma2 = gaussian_row_sigma2(exp)
    trials = exp.trials
    two, up, low, assume = _tail_counts(exp, stream)
    extras = {"upper_tail": up / trials, "lower_tail": low / trials,
              "assumption_violation_rate": assume / trials, "sigma2": sigma2}
    return TailReport.from_counts(two, trials, aw_bound(exp, sigma2), extras)


def optimal_bernstein_c(exp: CovarianceExperiment, stream: RngStream) -> float:
    """Golden-section minimizer of ``e^(-c eps) E Tr e^(c (Sigma - I))``
    over ``(0, c_max]``, on a fixed pilot sample of 2000 draws (common
    random numbers)."""
    _, w = _deviation_draw(stream.generator(), 2000, exp)

    def objective(c: float) -> float:
        return float(np.log(np.exp(c * w).sum(axis=1).mean()) - c * exp.epsilon)

    lo, hi = 1e-3, 0.9 * exp.n_samples
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = objective(x2)
    return float((lo + hi) / 2.0)


def bernstein_tail_check(exp: CovarianceExperiment, stream: RngStream) -> GapReport:
    """Monte Carlo check of the exponentiated Chebyshev step:
    ``Pr(lambda_max(Sigma - I) > eps) <= e^(-c eps) E Tr e^(c (Sigma - I))``.

    ``c`` is the experiment's value or else the golden-section optimum,
    found on a pilot sample from ``stream.child(1)``; the check draws from
    ``stream.child(0)``.
    """
    c = exp.c if exp.c is not None else optimal_bernstein_c(exp, stream.child(1))
    _, w = _deviation_draw(stream.child(0).generator(), exp.trials, exp)
    exceed = int((w[:, -1] > exp.epsilon).sum())
    lhs = exceed / exp.trials
    _, lhs_ucl = binomial_ci(exceed, exp.trials)
    values = math.exp(-c * exp.epsilon) * np.exp(c * w).sum(axis=1)
    rhs = float(values.mean())
    rhs_se = float(values.std(ddof=1) / math.sqrt(exp.trials))
    tol = (lhs_ucl - lhs) + 2.0 * rhs_se + 1e-12
    return GapReport.from_sides(lhs, rhs, tol=tol)


# ---------------------------------------------------------------------------
# moment-generating-function lemma for the covariance experiment

def aw_mgf_lemma_check(exp: CovarianceExperiment, mu: float,
                       stream: RngStream) -> GapReport:
    """``E Tr e^(mu (Sigma - I)) <= k ||E e^(mu S)||_op^N`` with both sides
    estimated by Monte Carlo on small instances (k <= 3, N <= 8).

    The report's tolerance carries the combined confidence radius, so
    ``passed`` is CI-aware; the per-term expectations reuse the identical
    row draws, which tightens the comparison near equality.
    """
    n, k = exp.n_samples, exp.dim
    if k > 3 or n > 8:
        raise ValueError("lemma check is restricted to k <= 3, N <= 8 so both "
                         "sides are estimable to adequate precision")
    trials = exp.trials
    X, w = _deviation_draw(stream.generator(), trials, exp)
    lhs_samples = np.exp(mu * w).sum(axis=1)
    lhs = float(lhs_samples.mean())
    lhs_se = float(lhs_samples.std(ddof=1) / math.sqrt(trials))

    rows = X.reshape(trials * n, k)
    S = np.einsum('ri,rj->rij', rows.conj(), rows) / n
    S[:, np.arange(k), np.arange(k)] -= 1.0 / n
    factors = herm_fn(S, lambda w: np.exp(mu * w))
    batches = np.array_split(factors, 10)
    batch_norms = [float(np.linalg.norm(b.mean(axis=0), ord=2)) for b in batches]
    factor_norm = float(np.linalg.norm(factors.mean(axis=0), ord=2))
    factor_se = float(np.std(batch_norms, ddof=1) / math.sqrt(len(batch_norms)))
    rhs = k * factor_norm ** n
    rhs_se = k * n * factor_norm ** (n - 1) * factor_se
    tol = 2.0 * math.sqrt(lhs_se ** 2 + rhs_se ** 2) + 1e-12 * max(1.0, lhs, rhs)
    return GapReport.from_sides(lhs, rhs, tol=tol)


# ---------------------------------------------------------------------------
# sign-series trace bound

def _require_enumerable(length: int):
    if length > ENUMERATE_LIMIT:
        raise ResourceGuardError(
            f"exact enumeration over 2^{length} sign patterns exceeds the "
            f"guard (max length {ENUMERATE_LIMIT})")


def _all_sign_patterns(length: int) -> np.ndarray:
    bits = (np.arange(1 << length)[:, None] >> np.arange(length)[None, :]) & 1
    return 2.0 * bits - 1.0


def series_rhs(series: MatrixSeries):
    """Deterministic right side ``Tr e^((mu^2/2) sum_p A_p^2)``: a float,
    or an array over the series stack broadcast against ``mu``."""
    terms = series.terms
    sq = np.einsum('...pij,...pjk->...ik', terms, terms)
    w = np.linalg.eigvalsh(hermitize(sq))
    mu = np.asarray(series.mu)[..., None]
    rhs = np.exp(0.5 * mu ** 2 * w).sum(axis=-1)
    return float(rhs) if rhs.ndim == 0 else rhs


def oliveira_mgf_check(series: MatrixSeries, mode: str = "enumerate",
                       stream: RngStream | None = None,
                       trials: int | None = None) -> GapReport:
    """``E Tr e^(mu Z) <= Tr e^((mu^2/2) sum A_p^2)`` for the sign series
    ``Z = sum_p e_p A_p``.

    ``enumerate`` averages exactly over all Rademacher sign patterns (a
    deterministic verdict, guarded at series length 14); it takes stacked
    series and arrays of mu, eigensolving each series once for every mu.
    ``montecarlo`` estimates the left side of one series at one mu for
    either sign kind from ``trials`` sign draws on ``stream``, and reports
    with a CI-aware tolerance.
    """
    terms = series.terms
    m, mu = series.length, series.mu
    rhs = series_rhs(series)
    if mode == "enumerate":
        if series.sign_kind != "rademacher":
            raise ValueError("enumeration requires Rademacher signs")
        _require_enumerable(m)
        signs = _all_sign_patterns(m)
        Z = np.einsum('sp,...pij->...sij', signs, terms)
        w = np.linalg.eigvalsh(Z)
        lhs = np.exp(np.asarray(mu)[..., None, None] * w).sum(axis=-1) \
            .mean(axis=-1)
        return GapReport.from_sides(lhs, rhs)
    if mode == "montecarlo":
        series.require_single("montecarlo mode")
        if stream is None or trials is None:
            raise ValueError("montecarlo mode requires a stream and trials")
        if trials < 1:
            raise ValueError("trials must be positive")
        rng = stream.generator()
        samples = np.empty(trials)
        for start in range(0, trials, _SIGN_CHUNK):
            count = min(_SIGN_CHUNK, trials - start)
            if series.sign_kind == "rademacher":
                signs = 2.0 * rng.integers(0, 2, size=(count, m)) - 1.0
            else:
                signs = rng.standard_normal((count, m))
            Z = np.einsum('sp,pij->sij', signs, terms)
            w = np.linalg.eigvalsh(Z)
            samples[start:start + count] = np.exp(mu * w).sum(axis=1)
        lhs = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(trials))
        tol = 2.0 * se + 1e-12 * max(1.0, lhs, rhs)
        return GapReport.from_sides(lhs, rhs, tol=tol)
    raise ValueError(f"unknown mode {mode!r}")


def oliveira_recursion_profile(series: MatrixSeries) -> np.ndarray:
    """Exactly enumerated ``E Tr e^(D_j)`` for the interpolating family

    ``D_j = D_0 + sum_{p<=j} (mu e_p A_p - (mu^2/2) A_p^2)``,
    ``D_0 = (mu^2/2) sum_p A_p^2``,

    which starts at the deterministic right side and ends at ``mu Z``.
    The sequence is non-increasing in ``j``.
    """
    if series.sign_kind != "rademacher":
        raise ValueError("the recursion profile enumerates Rademacher signs")
    series.require_single("the recursion profile")
    _require_enumerable(series.length)
    terms = series.terms
    mu = series.mu
    sq = 0.5 * mu ** 2 * np.einsum('pij,pjk->pik', terms, terms)
    D0 = hermitize(sq.sum(axis=0))
    profile = np.empty(series.length + 1)
    for j in range(series.length + 1):
        base = D0 - sq[:j].sum(axis=0) if j else D0
        signs = _all_sign_patterns(j)
        if j:
            D = base[None, :, :] + mu * np.einsum('sp,pij->sij', signs, terms[:j])
        else:
            D = base[None, :, :]
        w = np.linalg.eigvalsh(hermitize(D))
        profile[j] = float(np.exp(w).sum(axis=1).mean())
    return profile


def mgf_factor_check(A, mu: float, sign_kind: str = "rademacher") -> GapReport:
    """``|| e^(-mu^2 A^2/2) E e^(mu e A) ||_op <= 1`` for a random sign e
    (``A`` one Hermitian matrix or a stack).

    The expectation is exact: ``cosh(mu A)`` for Rademacher signs,
    ``e^(mu^2 A^2/2)`` for Gaussian ones (making the factor identically 1),
    so the only slack is rounding: ``1e-15`` relative to ``max(1, lhs)``.
    """
    if sign_kind not in SIGN_KINDS:
        raise ValueError(f"sign_kind must be one of {SIGN_KINDS}")
    Ah = require_hermitian(A, "mgf_factor_check input")
    w = np.linalg.eigvalsh(Ah)
    damp = np.exp(-0.5 * mu ** 2 * w ** 2)
    if sign_kind == "rademacher":
        factor = damp * np.cosh(mu * w)
    else:
        factor = damp * np.exp(0.5 * mu ** 2 * w ** 2)
    lhs = np.abs(factor).max(axis=-1)
    return GapReport.from_sides(lhs, 1.0, tol=1e-15 * np.maximum(1.0, lhs))


def oliveira_vs_aw(series: MatrixSeries) -> GapReport:
    """The series trace bound is never weaker than the direct adaptation
    ``d e^(mu^2 sum_p ||A_p^2||_op)`` of the covariance-lemma argument
    (one series, or a stack of series with their mu)."""
    lhs = series_rhs(series)
    norms = (np.abs(np.linalg.eigvalsh(series.terms)).max(axis=-1) ** 2).sum(axis=-1)
    # math.exp, member by member: numpy's vectorized exp can differ from it
    # in the last bit, and a stacked call must give the single call's bits
    exponent = np.square(series.mu) * norms
    rhs = series.dim * np.vectorize(math.exp, otypes=[float])(exponent)
    return GapReport.from_sides(lhs, rhs)


# ---------------------------------------------------------------------------
# scalar baseline

def scalar_chernoff(params: ScalarChernoffParams, stream: RngStream,
                    trials: int = 100000) -> TailReport:
    """Monte Carlo tail of a sum of symmetric two-point variables against
    ``max(e^(-eps^2/4), e^(-eps sigma/2))``.

    Each variable takes values ``+-sqrt(sigma2/N)`` with equal probability,
    hence mean zero and per-variable variance ``sigma2/N``; the scale must
    fit in [-1, 1] for the parameters to be realizable.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    n, sigma2, eps = params.n_vars, params.sigma2, params.epsilon
    scale = math.sqrt(sigma2 / n)
    if scale > 1.0:
        raise ValueError(f"per-variable variance {sigma2}/{n} is not realizable "
                         "with values confined to [-1, 1]")
    sigma = math.sqrt(sigma2)
    bound = max(math.exp(-eps * eps / 4.0), math.exp(-eps * sigma / 2.0))
    rng = stream.generator()
    if scale == 0.0:
        exceed = trials if eps <= 0.0 else 0
    else:
        signs = 2.0 * rng.integers(0, 2, size=(trials, n)) - 1.0
        sums = scale * signs.sum(axis=1)
        exceed = int((sums >= eps).sum())
    return TailReport.from_counts(
        exceed, trials, bound,
        extras={"per_variable_value": scale, "per_variable_variance": sigma2 / n})


# ---------------------------------------------------------------------------
# deterministic trace step

def trace_product_dominance(P, Q) -> GapReport:
    """``Tr(PQ) <= ||Q||_op Tr P`` for positive definite P and Hermitian Q
    (single matrices or stacks)."""
    Ph = require_hermitian(P, "trace_product_dominance first argument")
    Qh = require_hermitian(Q, "trace_product_dominance second argument")
    if Ph.shape != Qh.shape:
        raise ValueError("arguments must have equal dimension")
    wp = np.linalg.eigvalsh(Ph)
    if np.any(wp[..., 0] <= 0):
        raise ValueError("first argument must be positive definite")
    wq = np.linalg.eigvalsh(Qh)
    lhs = trace_of_product(Ph, Qh, "trace in trace_product_dominance")
    rhs = np.maximum(-wq[..., 0], wq[..., -1]) * wp.sum(axis=-1)
    return GapReport.from_sides(lhs, rhs)
