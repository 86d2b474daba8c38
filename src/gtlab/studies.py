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
they run in ``min(trials, cores)`` forked worker processes, ``cores``
being this process's CPU affinity, each with BLAS pinned to one thread
(:func:`~gtlab.linalg.pin_blas_to_one_thread`).  Results are gathered in
trial order, so the report is the same bits for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import inequalities as ineq
from . import pauli
from .linalg import gauss_legendre, pin_blas_to_one_thread
from .reports import GapReport, RatioEstimate
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
    if trials < 1:
        raise ValueError("trials must be positive")
    sums = np.zeros(7)  # num, num^2, den, den^2, num*den, cross, cross^2
    violations = 0
    matrix_disc = 0.0
    for done, count, rng in stream.blocks(trials, 3):
        a = rng.standard_normal((count, 3))
        b = rng.standard_normal((count, 3))
        num, cross = pauli.product_terms(a, b)
        den = 0.5 * pauli.trace_exp_sum(a, b)
        report = GapReport.from_sides(den, num + cross)
        violations += int(np.count_nonzero(~report.passed))
        sums += [num.sum(), (num ** 2).sum(), den.sum(), (den ** 2).sum(),
                 (num * den).sum(), cross.sum(), (cross ** 2).sum()]
        if done < MATRIX_CHECK:
            take = min(MATRIX_CHECK - done, count)
            matrix_disc = max(matrix_disc, ineq.pauli_route_discrepancy(
                a[:take], b[:take], den[:take], report.rhs[:take]))
    t = float(trials)
    num_mean = sums[0] / t
    den_mean = sums[2] / t
    num_var = max(sums[1] / t - num_mean ** 2, 0.0)
    den_var = max(sums[3] / t - den_mean ** 2, 0.0)
    cov = (sums[4] / t - num_mean * den_mean) / t
    cross_mean = sums[5] / t
    cross_var = max(sums[6] / t - cross_mean ** 2, 0.0)
    extras = {
        "cross_term_mean": cross_mean,
        "cross_term_se": math.sqrt(cross_var / t),
        "trialwise_violations": violations,
        "matrix_route_max_discrepancy": matrix_disc,
        "matrix_route_trials": min(MATRIX_CHECK, trials),
    }
    return RatioEstimate.from_moments(num_mean, math.sqrt(num_var / t),
                                      den_mean, math.sqrt(den_var / t),
                                      cov, extras=extras)


def _worker_count(trials: int) -> int:
    """Worker processes for the Hermitization trials: one per core this
    process may run on, at most one per trial.  A daemonic process, such
    as a pool worker, may not start children, so it runs the trials
    itself."""
    import multiprocessing
    if not hasattr(os, "sched_getaffinity") \
            or multiprocessing.current_process().daemon:
        return 1
    return min(trials, len(os.sched_getaffinity(0)))


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
    run in :func:`_worker_count` forked processes, each with one BLAS
    thread; the results are the same bits for any worker count.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if trials < 2:
        raise ValueError("a standard error needs at least two trials")
    tasks = [(n, stream.child(i)) for i in range(trials)]
    workers = _worker_count(trials)
    if workers == 1:
        results = list(map(_hermitization_trial, tasks))
    else:
        import multiprocessing
        # fork, not spawn: two spawned workers re-import numpy and scipy in
        # ~1.7 s, more than 200 trials at n=16 take in-process.  gtlab runs
        # no threads of its own, and OpenBLAS parks its pool at fork.  Two
        # workers at two BLAS threads each would oversubscribe the cores.
        with multiprocessing.get_context("fork").Pool(
                workers, initializer=pin_blas_to_one_thread) as pool:
            results = pool.map(_hermitization_trial, tasks,
                               chunksize=math.ceil(trials / (4 * workers)))
    num = np.array([r[0] for r in results])
    den = np.array([r[1] for r in results])
    t = float(trials)
    num_mean, den_mean = float(num.mean()), float(den.mean())
    num_se = float(num.std(ddof=1) / math.sqrt(t))
    den_se = float(den.std(ddof=1) / math.sqrt(t))
    cov = float(((num - num_mean) * (den - den_mean)).sum() / (t - 1) / t)
    return RatioEstimate.from_moments(num_mean, num_se, den_mean, den_se,
                                      cov, extras={"dim": n})
