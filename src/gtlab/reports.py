"""Result records shared by every checker.

Each inequality evaluation produces a :class:`GapReport` carrying both
sides, the signed margin ``rhs - lhs`` and a pass verdict, so that a
violation is always attributable to a concrete numeric instance; a
checker evaluated on a stack of instances returns one report whose
fields are arrays with one entry per instance.  Monte
Carlo tail comparisons produce :class:`TailReport`, whose one verdict rule
(:meth:`TailReport.from_counts`) turns an exact binomial interval into a
pass/fail/indeterminate status, and ensemble-average experiments a
:class:`RatioEstimate`.  Every Monte Carlo mean is reduced by
:func:`merge_moments` and its standard error read by :func:`mean_and_se`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Relative floating-point slack admitted for exact inequalities.  The
#: checked statements are exact theorems, so only rounding noise is
#: tolerated: a margin below ``-inequality_tol(...)`` is a failure.
REL_TOL = 1e-9

#: Relative bound on the imaginary residue of traces that are provably real.
IMAG_REL_TOL = 1e-10


def inequality_tol(lhs, rhs):
    """Slack for an exact ``lhs <= rhs`` check: ``REL_TOL * max(1, |lhs|,
    |rhs|)``, elementwise for arrays of sides."""
    return REL_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


@dataclass(frozen=True)
class GapReport:
    """Two sides of inequality instances, with ``margin = rhs - lhs``.

    ``passed`` is equivalent to ``margin >= -tol``.  Every field is an
    array over the stack of instances, 0-d for one instance.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    tol: np.ndarray

    @classmethod
    def from_sides(cls, lhs, rhs, tol=None) -> "GapReport":
        """Report on sides that broadcast against each other and ``tol``
        (:func:`inequality_tol` when absent); scalar sides give 0-d
        fields."""
        lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=np.float64),
                                       np.asarray(rhs, dtype=np.float64))
        tol = inequality_tol(lhs, rhs) if tol is None \
            else np.broadcast_to(np.asarray(tol, dtype=np.float64), lhs.shape)
        margin = rhs - lhs
        return cls(lhs=lhs, rhs=rhs, margin=margin, passed=margin >= -tol,
                   tol=tol)


@dataclass(frozen=True)
class TailReport:
    """Empirical tail probability against an analytic bound, with the
    three-valued ``status`` of :meth:`from_counts`."""

    empirical_tail: float
    ci_low: float
    ci_high: float
    bound_value: float
    status: str
    trials: int
    extras: dict[str, Any]

    @classmethod
    def from_counts(cls, exceed: int, trials: int, bound: float,
                    extras: dict) -> "TailReport":
        """Verdict on ``exceed`` exceedances in ``trials`` against ``bound``,
        from the 95% Clopper-Pearson interval of the tail: ``"pass"`` when
        the bound is vacuous (>= 1) or the interval lies at or below it,
        ``"fail"`` when the interval lies above it, and ``"indeterminate"``
        when it straddles the bound."""
        ci_low, ci_high = binomial_ci(exceed, trials)
        if bound >= 1.0 or ci_high <= bound:
            status = "pass"
        elif ci_low > bound:
            status = "fail"
        else:
            status = "indeterminate"
        return cls(empirical_tail=exceed / trials, ci_low=ci_low,
                   ci_high=ci_high, bound_value=bound, status=status,
                   trials=trials, extras=dict(extras))


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio of two ensemble means with delta-method error propagation."""

    ratio: float
    ratio_se: float
    ci_low: float
    ci_high: float
    extras: dict[str, Any]

    @classmethod
    def from_moments(cls, moments, extras: dict) -> "RatioEstimate":
        """Build the estimate from the moments of the samples ``(numerator,
        denominator)`` (:func:`merge_moments`)."""
        count, _, comoment = moments
        (num_mean, den_mean), (num_se, den_se) = mean_and_se(moments)
        cov = comoment[0, 1] / ((count - 1) * count)
        ratio = num_mean / den_mean
        var = (num_se / den_mean) ** 2 \
            + (num_mean * den_se / den_mean**2) ** 2 \
            - 2.0 * num_mean * cov / den_mean**3
        se = math.sqrt(max(var, 0.0))
        return cls(ratio=float(ratio), ratio_se=float(se),
                   ci_low=float(ratio - 1.96 * se), ci_high=float(ratio + 1.96 * se),
                   extras=dict(extras))


def merge_moments(moments, block):
    """The moments ``(count, mean, comoment)`` of the samples seen so far
    merged with those of ``block`` by Chan, Golub and LeVeque's pairwise
    update; ``(0, 0.0, 0.0)`` before the first block.  ``block`` holds
    ``p`` components of the same samples, one row each (a ``(p, size)``
    array or ``p`` arrays of ``size`` values); ``comoment`` is the ``p x
    p`` sum of ``(x - mean_x) conj(y - mean_y)`` that ``np.cov`` divides by
    ``count - 1``."""
    count, mean, comoment = moments
    # one floating copy of the block, centred in place
    dev = np.array(block, dtype=np.result_type(np.asarray(block[0]), 1.0))
    size = dev.shape[-1]
    block_mean = dev.mean(axis=-1)
    dev -= block_mean[:, None]
    total = count + size
    delta = block_mean - mean
    spread = np.outer(delta, delta.conj()) * (count * size / total)
    return (total, mean + delta * (size / total),
            comoment + dev @ dev.conj().T + spread)


def mean_and_se(moments):
    """The means of the components merged into ``moments`` and the
    standard errors of those means, the variance divided by ``count - 1``;
    fewer than two samples raise."""
    count, mean, comoment = moments
    if count < 2:
        raise ValueError("a standard error needs at least two trials")
    return mean, np.sqrt(np.diagonal(comoment).real / ((count - 1) * count))


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """Clopper-Pearson (exact) two-sided 95% binomial confidence interval.

    For ``k`` successes in ``N`` trials and ``X ~ Bin(N, p)``, ``high`` is
    the ``p`` at which ``P(X <= k) = alpha/2`` and ``low`` the ``p`` at
    which ``P(X >= k) = alpha/2`` (the beta quantiles ``B^-1(1-alpha/2;
    k+1, N-k)`` and ``B^-1(alpha/2; k, N-k+1)``).  ``k = 0`` and ``k = N``
    have closed forms; otherwise :func:`_tail_root` solves the equation by
    Newton steps inside a bisection bracket, on binomial tails summed from
    C. Loader's saddle-point point probabilities ("Fast and accurate
    computation of binomial probabilities", 2000).  Each bound lies within
    ``8 * 2**-52`` of the exact quantile, relative (tested up to ``N =
    10**6``).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    alpha = 1.0 - 0.95
    log_target = math.log(alpha / 2)
    if successes == 0:
        low = 0.0
    elif successes == trials:
        low = math.exp(log_target / trials)
    else:
        low = _tail_root(successes, trials, False, log_target)
    if successes == trials:
        high = 1.0
    elif successes == 0:
        high = -math.expm1(log_target / trials)
    else:
        high = _tail_root(successes, trials, True, log_target)
    return low, high


#: ``log(n!) - log(sqrt(2 pi n) (n/e)^n)`` for ``n = 1..15`` (entry 0 is
#: unused), rounded from 40-digit mpmath values.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula for ``log(n!)``, ``n >= 1``: the table
    up to 15, then Loader's truncations of the asymptotic series."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn)
                                 / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """Loader's deviance term ``x log(x/m) + m - x``, by its series in
    ``(x - m)/(x + m)`` when ``x`` is near ``m``, where the closed form
    cancels."""
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = d / (x + m)
    s = d * v
    term = 2.0 * x * v
    v *= v
    j = 1
    while True:
        term *= v
        j += 2
        s_next = s + term / j
        if s_next == s:
            return s
        s = s_next


def _log_cdf(k: int, n: int, p: float, q: float) -> tuple[float, float]:
    """``(log P(X <= k), S)`` for ``X ~ Bin(n, p)`` and ``0 < k < n``,
    where ``S`` is ``P(X <= k)`` over ``P(X = k)``.

    ``q = 1 - p`` comes separately, so that ``P(X >= k)``, which is
    ``_log_cdf(n - k, n, q, p)``, rounds no ``1 - q``.  ``P(X = k)`` is
    Loader's saddle-point form.  The tail is summed from ``k`` down by the
    ratio of successive terms, until a term falls below ``2**-60`` of the
    sum.  The ratio is below 1 and falls away from ``k`` when ``p >=
    k/n``: the only points where :func:`_tail_root` evaluates it.
    """
    s = t = 1.0
    r = q / p
    for j in range(k, 0, -1):
        t *= j * r / (n - j + 1)
        s += t
        if t <= s * 2**-60:
            break
    log_pmf = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
               - _bd0(k, n * p) - _bd0(n - k, n * q)
               + 0.5 * math.log(n / (2.0 * math.pi * k * (n - k))))
    return log_pmf + math.log(s), s


def _tail_root(k: int, n: int, below: bool, log_target: float) -> float:
    """The ``p`` at which ``log P(X <= k)`` (``below``; ``p > k/n``) or
    ``log P(X >= k)`` (``p < k/n``) equals ``log_target``, for ``X ~
    Bin(n, p)`` and ``0 < k < n``.

    Newton steps on the log of the tail start at ``k/n`` and are taken in
    ``log(1-p)`` (``below``) or ``log p``, where the tail is close to a
    power of the variable.  Their slopes are exact: ``dF/dp = -(n-k)/(1-p)
    P(X = k)`` below and ``k/p P(X = k)`` above give ``(n-k)/S`` and
    ``k/S`` with :func:`_log_cdf`'s ``S``.  A step that leaves the bracket
    of points known to lie on either side of the root bisects it instead.
    The iteration ends on a Newton step shorter than ``2**-40 p``, whose
    error is of the order of its square, below rounding.
    """
    lo, hi = (k / n, 1.0) if below else (0.0, k / n)
    p = k / n
    for _ in range(100):
        q = 1.0 - p
        log_tail, s = _log_cdf(k, n, p, q) if below \
            else _log_cdf(n - k, n, q, p)
        g = log_tail - log_target
        if (g > 0) == below:
            lo = p
        else:
            hi = p
        if below:
            new = p - q * math.expm1(-g * s / (n - k))
        else:
            new = p * math.exp(-g * s / k)
        if abs(new - p) <= 2**-40 * new:
            return new
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        p = new
    raise ArithmeticError(f"no Clopper-Pearson bound for {k} of {n}")


def checked_real(value, context: str):
    """Discard the imaginary residue of a provably real quantity: a float
    array shaped like ``value``.

    The residue must stay below ``IMAG_REL_TOL * max(1, |value|)`` for
    every entry; anything larger is an implementation error rather than
    rounding, and raises a ``ValueError`` that names ``context``.
    """
    value = np.asarray(value, dtype=np.complex128)
    bad = np.abs(value.imag) > IMAG_REL_TOL * np.maximum(1.0, np.abs(value))
    if np.any(bad):
        first = complex(value[bad][0])
        raise ValueError(
            f"imaginary residue {first.imag:.3e} on a real quantity "
            f"(|value| = {abs(first):.3e}): {context}")
    return value.real
