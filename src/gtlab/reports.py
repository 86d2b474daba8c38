"""Result records shared by every checker.

Each inequality evaluation produces a :class:`GapReport` carrying both
sides, the signed margin ``rhs - lhs`` and a pass verdict, so that a
violation is always attributable to a concrete numeric instance; a
checker evaluated on a stack of instances returns one report whose
fields are arrays with one entry per instance.  A tail whose probability
is known exactly produces a :class:`TailReport`, whose one verdict rule
(:meth:`TailReport.from_counts`) compares the exact tail with its bound
and checks the Monte Carlo count of the same event against it, and an
ensemble-average experiment a :class:`RatioEstimate`.  Every Monte Carlo
mean is reduced by :func:`merge_moments` and its standard error read by
:func:`mean_and_se`.
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


#: The chance that a correct sampler's tail count leaves its band.
TAIL_ALPHA = 1e-6


@dataclass(frozen=True)
class TailReport:
    """An exact tail probability against an analytic bound, and the Monte
    Carlo count of the same event: the verdict of :meth:`from_counts`."""

    exact_tail: float
    bound_value: float
    exceed: int
    trials: int
    band: float
    passed: bool
    extras: dict[str, Any]

    @property
    def empirical_tail(self) -> float:
        return self.exceed / self.trials

    @classmethod
    def from_counts(cls, exceed: int, trials: int, exact: float, bound: float,
                    extras: dict) -> "TailReport":
        """Pass when ``exact <= bound`` within :func:`inequality_tol` and the
        ``exceed`` exceedances in ``trials`` draws lie within the band
        ``|exceed - trials exact| <= L/3 + sqrt(L^2/9 + 2 L trials exact (1
        - exact))``, ``L = ln(2/TAIL_ALPHA)``, which Bernstein's inequality
        for a binomial count (Boucheron, Lugosi and Massart, *Concentration
        Inequalities*, 2013, Thm 2.10) leaves with probability at most
        :data:`TAIL_ALPHA`."""
        log_term = math.log(2.0 / TAIL_ALPHA)
        band = log_term / 3.0 + math.sqrt(
            log_term**2 / 9.0 + 2.0 * log_term * trials * exact * (1.0 - exact))
        passed = (bound - exact >= -inequality_tol(exact, bound)
                  and abs(exceed - trials * exact) <= band)
        return cls(exact_tail=exact, bound_value=bound, exceed=exceed,
                   trials=trials, band=band, passed=bool(passed),
                   extras=dict(extras))


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
