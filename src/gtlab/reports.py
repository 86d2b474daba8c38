"""Result records shared by every checker.

Each inequality evaluation produces a :class:`GapReport` carrying both
sides, the signed margin ``rhs - lhs`` and a pass verdict, so that a
violation is always attributable to a concrete numeric instance; a
checker evaluated on a stack of instances returns one report whose
fields are arrays with one entry per instance.  Monte
Carlo tail comparisons produce :class:`TailReport`, whose one verdict rule
(:meth:`TailReport.from_counts`) turns an exact binomial interval into a
pass/fail/indeterminate status, and ensemble-average experiments a
:class:`RatioEstimate`.
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
    """Empirical tail probability against an analytic bound.

    ``passed`` means ``status == "pass"``; see :meth:`from_counts`.
    """

    empirical_tail: float
    ci_low: float
    ci_high: float
    bound_value: float
    passed: bool
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
                   ci_high=ci_high, bound_value=bound, passed=status == "pass",
                   status=status, trials=trials, extras=dict(extras))


@dataclass(frozen=True)
class RatioEstimate:
    """Ratio of two ensemble means with delta-method error propagation."""

    ratio: float
    ratio_se: float
    ci_low: float
    ci_high: float
    extras: dict[str, Any]

    @classmethod
    def from_moments(cls, num_mean, num_se, den_mean, den_se, cov,
                     extras: dict) -> "RatioEstimate":
        """Build the estimate from means, standard errors and the covariance
        of the two mean estimators (not of the per-trial values)."""
        ratio = num_mean / den_mean
        var = (num_se / den_mean) ** 2 \
            + (num_mean * den_se / den_mean**2) ** 2 \
            - 2.0 * num_mean * cov / den_mean**3
        se = math.sqrt(max(var, 0.0))
        return cls(ratio=float(ratio), ratio_se=float(se),
                   ci_low=float(ratio - 1.96 * se), ci_high=float(ratio + 1.96 * se),
                   extras=dict(extras))


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """Clopper-Pearson (exact) two-sided 95% binomial confidence interval.

    The bounds are beta quantiles: for ``x`` successes in ``n`` trials,
    ``low = B^-1(alpha/2; x, n-x+1)`` and ``high = B^-1(1-alpha/2; x+1,
    n-x)``, where ``B^-1(q; a, b) = betaincinv(a, b, q)``, the inverse of
    the regularized incomplete beta function, is the ``q``-quantile of
    Beta(a, b).
    """
    # imported here: scipy.special is most of the package's import time,
    # and only the tail cases reach this function
    from scipy.special import betaincinv

    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    alpha = 1.0 - 0.95
    if successes == 0:
        low = 0.0
    else:
        low = float(betaincinv(successes, trials - successes + 1, alpha / 2))
    if successes == trials:
        high = 1.0
    else:
        high = float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return low, high


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
