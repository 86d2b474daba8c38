"""Quantitative ensemble averages of the trace-inequality sides.

Two studies: the 2x2 Gaussian traceless ensemble, where the ratio of the
averaged sides equals 4/3 exactly (computed both by Monte Carlo and by
radial quadrature), and the Hermitization study comparing the mean top
eigenvalue of ``(A + A†)/2`` with the mean largest real part of the
spectrum of a Ginibre matrix, whose ratio tends to sqrt(2) as the
dimension grows.

The Monte Carlo ratio draws its pairs in blocks, block ``b`` from child
``b`` of its stream; the Hermitization study draws trial ``i`` from child
``i``, and a failed eigensolve raises.

The Hermitization trials are independent and bound by LAPACK ``zgeev``,
which OpenBLAS does not run in parallel across threads of one process, so
they run on every core (:func:`~gtlab.linalg.fork_map`): one forked worker
process per core, each with one BLAS thread, takes chunks of trials from a
shared queue, and under ``gtlab ratio`` the tag's own worker forks them.
Results are gathered in trial order, so the report is the same bits for
any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inequalities as ineq
from . import pauli
from .linalg import fork_map, gauss_legendre
from .reports import GapReport, RatioEstimate, mean_and_se, merge_moments
from .samplers import RngStream, ginibre

__all__ = [
    "RadialQuadratureResult", "pauli_ratio_mc", "pauli_ratio_quadrature",
    "radial_cosh_moment", "hermitization_ratio",
]

#: Leading pairs of the Monte Carlo ratio re-evaluated through matrix
#: exponentials.
MATRIX_CHECK = 1000


def radial_cosh_moment(scale: float) -> float:
    """``E cosh(scale * R)`` for ``R`` chi-distributed with 3 degrees of
    freedom, by adaptive Gauss-Legendre quadrature
    (:func:`~gtlab.linalg.gauss_legendre`) of the radial density
    ``sqrt(2/pi) r^2 exp(-r^2/2)``, mapped from ``[0, inf)`` to ``[0, 1)``
    by ``r = u/(1-u)``, to within 1e-10 absolute and relative.

    The integrand is written in exponential form so large radii underflow
    to zero instead of overflowing ``cosh``.
    """
    c = math.sqrt(2.0 / math.pi)

    def integrand(u: np.ndarray) -> np.ndarray:
        r = u / (1.0 - u)
        return 0.5 * c * r * r * (np.exp(scale * r - r * r / 2.0)
                                  + np.exp(-scale * r - r * r / 2.0)) \
            / (1.0 - u) ** 2

    return gauss_legendre(integrand, 1.0, 1e-10, 1e-10)


@dataclass(frozen=True)
class RadialQuadratureResult:
    ratio: float
    numerator: float
    denominator: float


def pauli_ratio_quadrature() -> RadialQuadratureResult:
    """Ratio ``E Tr(e^A e^B) / E Tr e^(A+B)`` over independent standard
    Gaussian coefficient vectors, by radial quadrature.

    Both six-dimensional Gaussian integrals reduce to one-dimensional
    radial ones: the numerator factorizes into the square of
    ``E cosh|a|`` (the angular cross term averages to zero) and the
    denominator is ``E cosh|a+b|`` with ``|a+b| = sqrt(2) R``, ``R``
    chi-distributed with 3 degrees of freedom; each is integrated by
    :func:`radial_cosh_moment`.
    """
    single = radial_cosh_moment(1.0)
    denom = radial_cosh_moment(math.sqrt(2.0))
    numerator = single * single
    return RadialQuadratureResult(ratio=numerator / denom,
                                  numerator=numerator, denominator=denom)


def pauli_ratio_mc(trials: int, stream: RngStream) -> RatioEstimate:
    """Monte Carlo estimate of the averaged-sides ratio on Gaussian pairs.

    The numerator estimator averages ``cosh|a| cosh|b|``; the angular
    cross term (zero in expectation) is retained separately as a variance
    check, and the trace factor 2 cancels in the ratio.  Trials are drawn
    in blocks, block ``b`` from ``stream.child(b)``.  The first
    ``MATRIX_CHECK`` trials are re-evaluated through matrix exponentials
    and the worst relative discrepancy is reported.  The violations are the
    pairs whose 2x2 reduction fails, judged on the averaged sides, which are
    those of :func:`~gtlab.inequalities.pauli_reduce_gap`.
    """
    ratio = cross_moments = (0, 0.0, 0.0)
    violations = 0
    matrix_disc = 0.0
    for done, count, rng in stream.blocks(trials, 3):
        a = rng.standard_normal((count, 3))
        b = rng.standard_normal((count, 3))
        num, cross = pauli.product_terms(a, b)
        den = 0.5 * pauli.trace_exp_sum(a, b)
        report = GapReport.from_sides(den, num + cross)
        violations += int(np.count_nonzero(~report.passed))
        ratio = merge_moments(ratio, (num, den))
        cross_moments = merge_moments(cross_moments, (cross,))
        if done < MATRIX_CHECK:
            take = min(MATRIX_CHECK - done, count)
            matrix_disc = max(matrix_disc, ineq.pauli_route_discrepancy(
                a[:take], b[:take], den[:take], report.rhs[:take]))
    (cross_mean,), (cross_se,) = mean_and_se(cross_moments)
    extras = {
        "cross_term_mean": cross_mean,
        "cross_term_se": cross_se,
        "trialwise_violations": violations,
        "matrix_route_max_discrepancy": matrix_disc,
        "matrix_route_trials": min(MATRIX_CHECK, trials),
    }
    return RatioEstimate.from_moments(ratio, extras=extras)


def _hermitization_trial(task: tuple[int, RngStream]) -> tuple[float, float]:
    """One Hermitization trial of size ``n`` on ``stream`` (``task = (n,
    stream)``): ``(top Hermitian eigenvalue, max real eigenvalue part)``."""
    n, stream = task
    A = ginibre(stream.generator(), n)
    top = np.linalg.eigvalsh((A + A.conj().T) / 2.0)[-1]
    return float(top), float(np.linalg.eigvals(A).real.max())


def hermitization_ratio(n: int, trials: int, stream: RngStream) -> RatioEstimate:
    """Mean top eigenvalue of the Hermitian part against the mean largest
    real eigenvalue part, over Ginibre draws of size ``n``.

    This is a finite-size estimate of a large-dimension limit (sqrt(2));
    the estimate is reported with its confidence interval and dimension,
    never as the limit itself.  Trial ``i`` draws from ``stream.child(i)``;
    an eigensolve that fails raises numpy's ``LinAlgError``.  The trials
    run on every core (:func:`~gtlab.linalg.fork_map`); the results are
    the same bits for any worker count.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if trials < 2:
        raise ValueError("a standard error needs at least two trials")
    results = fork_map(_hermitization_trial,
                       [(n, stream.child(i)) for i in range(trials)])
    moments = merge_moments((0, 0.0, 0.0), np.transpose(results))
    return RatioEstimate.from_moments(moments, extras={"dim": n})
