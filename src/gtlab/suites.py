"""Named verification suites over the checker modules.

Each suite is an ordered list of equation-tagged cases; a case runs one
checker (or a Monte Carlo sweep of it) and records both sides, the margin
and a pass/fail status.  The registry below maps every equation tag to
one row, ``(suite, checker operation, runner)``, and the suite lists are
the exhaustive in-scope coverage the report document is built from.
``run_suite`` calls each runner as ``runner(params, stream, tag)``, so a
runner emits the tag it is given instead of spelling it.

Most rows are their own runner, of one of three kinds.  A :class:`Sweep`
case counts the instances whose GapReport fails (each against its
report's ``tol``) and records the one with the smallest ``margin / tol``;
a :class:`Residual` case records the instance with the largest ratio of
residual to threshold; a :class:`Hunt` passes when its scan finds a
witness.  Adding such a checker takes one batched function and one row.
A hand-written runner remains where a tag has a second route (the matrix
traces behind the 2x2 reduction, quadrature behind the three-matrix
kernel), several cases, or a statistical verdict.

Randomness: each tag draws from its own stream, the path ``(label,)``
under the seed, where ``label`` is the CRC-32 of the tag's name
(:func:`_tag_stream`), so adding, removing or reordering rows moves no
other tag's draws; a runner that needs several streams takes children of
it.  A Monte Carlo check that reruns a chance miss draws its first attempt
from ``child(0)`` of its stream and the rerun from ``child(1)``.  A sweep
over ``trials`` instances gives instance ``i`` the dimension
``dims[i % len(dims)]`` and the parameter ``cycle[i % len(cycle)]`` of its
check (an order ``s``, ``k`` or ``p``, a pair ``(r, s)``, a word length).
Instances sharing a (dimension, parameter) group are drawn and checked
together, one stack per block of :mod:`~gtlab.samplers`'s block rule at
the entries one instance of the row's draw takes (``n^2`` for an ``n x n``
matrix, ``4 n^2`` for Eq.J's ``4n x n`` blocks, ``n^2 + 2 half`` for
Lemma.2's matrix and word, 3 for Eq.AB's vector, ``m d^2`` for a series of
shape ``(m, d)``); each (group, block) stack comes from one
generator, the ``b``-th in group-then-block order from child ``b`` of the
tag's path.  Every runner reduces its stacks one at a time, keeping the
worst instance so far (:class:`_Worst`), counts, sums or moments, so
memory holds one stack whatever the trial count.  Eq.RU draws one sample
per (N, k) experiment and reads all its thresholds from it, group ``g``
from child ``(g, 0)``.  A report is therefore a pure function of (config,
seed).

Rows whose instances differ in shape run on the one dimension ``1`` with
the shapes as the cycle: the sign series ``(m, d)`` of Eq.OB's
enumeration, Eq.DDN and Eq.RUvsOB (:func:`_series_shapes`), and Eq.S3's
``N x k`` blocks, every N in 4..23 with k cycling through 1..min(N, 5).
Eq.AB's coefficient vectors run on dimension ``1`` too.  Only Eq.OB's
Monte Carlo series is drawn alone.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from . import concentration as conc
from . import inequalities as ineq
from . import pauli, samplers, studies
from .linalg import (expm_herm, frobenius_norm, hermitize, operator_norm,
                     singular_values, lie_trotter_product, distance_delta2,
                     trace_of_product)
from .reports import REL_TOL, GapReport, TailReport, mean_and_se, merge_moments
from .samplers import RngStream, ginibre, gue, standard_complex

__all__ = [
    "CaseRecord", "SuiteParams", "Sweep", "Residual", "Hunt", "RunnerError",
    "REGISTRY", "SUITE_TAGS", "SUITE_NAMES", "run_suite",
]

@dataclass(frozen=True)
class CaseRecord:
    """One suite case: an equation tag, both sides, margin and verdict.
    ``extra`` may hold numpy values; the report document makes them
    JSON-native."""

    name: str
    equation: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    status: str
    trials: int
    ci: tuple[float, float] | None
    extra: dict[str, Any]


@dataclass(frozen=True)
class SuiteParams:
    """The settings of one run, the config's top-level keys: the master
    ``seed``, and the ``trials`` and distinct ``dims`` of a sweep; each
    runner derives its own counts from them."""

    seed: int
    trials: int = 1000
    dims: tuple[int, ...] = (2, 3, 4)


class RunnerError(RuntimeError):
    """A tag's runner raised: the message names the tag and the exception."""


def _case(name: str, tag: str, lhs, rhs, margin, passed, trials: int,
          ci: tuple[float, float] | None = None,
          extra: dict | None = None) -> CaseRecord:
    """The one constructor of a case record: ``status`` is ``"pass"`` or
    ``"fail"`` as ``passed`` says, and ``extra`` is copied."""
    passed = bool(passed)
    return CaseRecord(name=name, equation=tag, lhs=float(lhs), rhs=float(rhs),
                      margin=float(margin), passed=passed,
                      status="pass" if passed else "fail",
                      trials=trials, ci=ci, extra=dict(extra or {}))


def _gap_case(name: str, tag: str, report: GapReport, trials: int,
              extra: dict | None = None) -> CaseRecord:
    return _case(name, tag, report.lhs, report.rhs, report.margin,
                 report.passed, trials, extra=extra)


def _tail_case(name: str, tag: str, report: TailReport) -> CaseRecord:
    """Case of a tail report: the exact tail against the bound; the count
    of the same event and its band lead ``extra``."""
    return _case(name, tag, report.exact_tail, report.bound_value,
                 report.bound_value - report.exact_tail, report.passed,
                 report.trials,
                 extra={"exact_tail": report.exact_tail,
                        "empirical_tail": report.empirical_tail,
                        "exceedances": report.exceed, "band": report.band,
                        **report.extras})


def _residual_case(name: str, tag: str, residual: float, threshold: float,
                   trials: int, extra: dict | None = None) -> CaseRecord:
    return _case(name, tag, residual, threshold, threshold - residual,
                 residual <= threshold, trials, extra=extra)


class _Worst:
    """The worst instance of a sweep whose stacks are checked one at a
    time, so that memory holds one stack whatever the trial count.

    :meth:`add` takes one stack's scores and the sides to record, broadcast
    together and raveled.  The kept instance is the one ``pick``
    (``np.argmin`` or ``np.argmax``) chooses over the concatenated scores
    of every stack: the first extreme wins, and so does the first NaN.
    ``instances`` counts the scores, ``violations`` the failing instances
    of the GapReports given to :meth:`add_gap`.
    """

    def __init__(self, pick=np.argmin):
        self.pick, self.score, self.sides = pick, None, ()
        self.instances = self.violations = 0

    def add(self, scores, *sides):
        scores, *sides = map(np.ravel, np.broadcast_arrays(scores, *sides))
        i = int(self.pick(scores))
        # pick over the pair prefers the candidate exactly when pick over
        # the concatenation would: strictly more extreme, or a NaN against
        # a number
        if self.score is None or self.pick((self.score, scores[i])) == 1:
            self.score, self.sides = scores[i], tuple(side[i] for side in sides)
        self.instances += scores.size

    def add_gap(self, report: GapReport) -> GapReport:
        """Add one stack's GapReport, scored by ``margin / tol``."""
        self.violations += int(np.count_nonzero(~report.passed))
        self.add(report.margin / report.tol, report.lhs, report.rhs,
                 report.margin)
        return report

    def gap_case(self, name: str, tag: str,
                 extra: dict | None = None) -> CaseRecord:
        """The sweep case of the GapReports added: the sides of the
        instance with the smallest ``margin / tol`` and the violation
        count (pass means zero violations)."""
        lhs, rhs, margin = self.sides
        return _case(name, tag, lhs, rhs, margin, self.violations == 0,
                     self.instances,
                     extra={"violations": self.violations, **(extra or {})})


def _worst_case(name: str, tag: str, reports,
                extra: dict | None = None) -> CaseRecord:
    """Aggregate sweep case over the instances of ``reports`` (single or
    stacked, raveled), an iterable read one report at a time
    (:meth:`_Worst.gap_case`)."""
    worst = _Worst()
    for report in reports:
        worst.add_gap(report)
    return worst.gap_case(name, tag, extra)


def _escalating(attempt, trials, stream):
    """Run a Monte Carlo check, rerunning a chance miss once.

    ``attempt(trials, stream)`` returns ``(result, verdict)``, the verdict
    ``"pass"``, ``"fail"`` or ``"chance"`` (a miss of a statistical bound).
    The first attempt draws from ``stream.child(0)``; a chance miss reruns
    on tenfold trials from ``stream.child(1)``, and the rerun decides.
    Returns ``(result, verdict, escalated)``.
    """
    result, verdict = attempt(trials, stream.child(0))
    if verdict != "chance":
        return result, verdict, False
    return (*attempt(10 * trials, stream.child(1)), True)


# ---------------------------------------------------------------------------
# the batched sweep runner

def _groups(trials: int, dims: tuple, cycle: tuple) -> dict:
    """Instance counts per ``(n, c)`` group, in order of first appearance,
    for the schedule giving instance ``i`` the dimension
    ``dims[i % len(dims)]`` and the parameter ``cycle[i % len(cycle)]``."""
    period = math.lcm(len(dims), len(cycle))
    counts: dict = {}
    for r in range(min(period, trials)):
        key = (dims[r % len(dims)], cycle[r % len(cycle)])
        counts[key] = counts.get(key, 0) + (trials - r + period - 1) // period
    return counts


def _matrix_entries(n: int, c) -> int:
    """The entries of one ``n x n`` matrix: an instance of most draws."""
    return n * n


def _stacks(trials: int, dims: tuple, stream: RngStream, draw, cycle=(None,),
            entries=_matrix_entries):
    """Yield ``((n, c), draw(rng, n, count, c))`` for each block of each
    group of ``trials`` instances, a block holding
    ``block_instances(entries(n, c))`` instances; the b-th stack overall is
    drawn from one generator on ``stream.child(b)``."""
    b = 0
    for (n, c), total in _groups(trials, dims, cycle).items():
        size = samplers.block_instances(entries(n, c))
        for start in range(0, total, size):
            rng = stream.child(b).generator()
            b += 1
            yield (n, c), draw(rng, n, min(size, total - start), c)


@dataclass(frozen=True)
class Sweep:
    """The runner of a sweep row: case ``name`` over ``size(trials)``
    instances (default all) of the dimensions ``dims`` (default the
    config's), each stack drawn by ``draw(rng, n, count, c)`` with ``c`` from
    ``cycle`` and judged by ``check(*drawn)``, which returns its GapReport.
    ``entries(n, c)`` is the entries one instance of the draw takes, which
    size its blocks.  The case records the worst instance and the violation
    count."""

    name: str
    draw: Callable
    check: Callable
    cycle: tuple = (None,)
    size: Callable | None = None
    dims: tuple | None = None
    entries: Callable = _matrix_entries

    def _results(self, params: SuiteParams, stream: RngStream):
        """``check(*drawn)`` of each stack of the row's instances, one stack
        at a time."""
        trials = params.trials if self.size is None else self.size(params.trials)
        return (self.check(*drawn) for _, drawn in _stacks(
            trials, self.dims or params.dims, stream, self.draw, self.cycle,
            self.entries))

    def __call__(self, params: SuiteParams, stream: RngStream, tag: str):
        return [_worst_case(self.name, tag, self._results(params, stream))]


@dataclass(frozen=True)
class Residual(Sweep):
    """The runner of a residual row: a :class:`Sweep` whose ``check(*drawn)``
    returns each instance's residual and threshold; the case records the
    instance with the largest ratio of the two."""

    def __call__(self, params: SuiteParams, stream: RngStream, tag: str):
        worst = _Worst(np.argmax)
        for res, thr in self._results(params, stream):
            worst.add(np.divide(res, thr), res, thr)
        return [_residual_case(self.name, tag, *worst.sides, worst.instances)]


@dataclass(frozen=True)
class Hunt:
    """The runner of a counter-example hunt: case ``name`` runs ``scan(stream,
    budget)`` on ``max(trials, 100000)`` trials and passes when the scan
    returns a witness, whose sides and matrices the case records."""

    name: str
    scan: Callable

    def __call__(self, params: SuiteParams, stream: RngStream, tag: str):
        budget = max(params.trials, 100000)
        witness = self.scan(stream, budget)
        if witness is None:
            return [_case(self.name, tag, math.nan, math.nan, math.nan, False,
                          budget, extra={"found": False})]
        extra = {"found": True, "trial_index": witness.trial_index,
                 "matrices": witness.matrices, "context": witness.context}
        if witness.vectors is not None:
            extra["vectors"] = witness.vectors
        return [_case(self.name, tag, witness.lhs, witness.rhs,
                      witness.lhs - witness.rhs, True, witness.trial_index + 1,
                      extra=extra)]


def _sweep_row(suite: str, name: str, draw, check, cycle=(None,), **extent):
    """The registry row of a :class:`Sweep`; its operation is the checker."""
    operation = f"{check.__module__.rpartition('.')[2]}.{check.__name__}"
    return suite, operation, Sweep(name, draw, check, cycle, **extent)


def _draw(sampler, matrices: int):
    """A sweep draw: ``matrices`` stacks from ``sampler`` (``gue`` or
    ``ginibre``), followed by the group's cycle parameter when the row has
    a cycle, as the arguments of the check."""
    def draw(rng, n, count, c):
        drawn = tuple(sampler(rng, n, count) for _ in range(matrices))
        return drawn if c is None else (*drawn, c)
    return draw


def _word_draw(rng, n, count, half):
    """A Ginibre stack and a random word of ``2 half`` letters per matrix."""
    X = ginibre(rng, n, count)
    return X, np.where(rng.integers(0, 2, size=(count, 2 * half)) == 1, "X", "X*")


def _weyl_draw(rng, n, count, s):
    """A Ginibre stack, the order ``s`` and a random ``k`` per matrix."""
    X = ginibre(rng, n, count)
    return X, s, rng.integers(1, n + 1, size=count)


def _alt_draw(rng, n, count, rs):
    """The exponentials of two GUE stacks, then ``r`` and ``s``."""
    return expm_herm(gue(rng, n, count)), expm_herm(gue(rng, n, count)), *rs


def _phi_premise_draw(rng, n, count, c):
    """A Ginibre stack, the order ``s`` and ``k = n`` or ``k = 1``."""
    s, full = c
    return ginibre(rng, n, count), s, n if full else 1


def _phi_exp_draw(rng, n, count, c):
    """Two GUE stacks and a random ``k`` per pair."""
    return gue(rng, n, count), gue(rng, n, count), rng.integers(1, n + 1, size=count)


def _nonhermitian_draw(rng, n, count, full):
    """Two Ginibre stacks and ``k = n`` or ``k = 1``."""
    return ginibre(rng, n, count), ginibre(rng, n, count), n if full else 1


def _deviation_draw(rng, n, count, c):
    """The deviations ``X†X/(4n) - I`` of ``4n x n`` complex Gaussian
    blocks ``X``, then the exponent ``c``."""
    return conc.covariance_deviations(rng, count, 4 * n, n)[1], c


def _trace_product_draw(rng, n, count, c):
    """The exponential of a GUE stack and a second GUE stack."""
    return expm_herm(gue(rng, n, count)), gue(rng, n, count)


def _mgf_factor_draw(rng, n, count, c):
    """A GUE stack and the mus ``(0.5, 2.0)`` as a column against it."""
    return gue(rng, n, count), np.array((0.5, 2.0))[:, None, None]


def _series_shapes(max_len: int) -> tuple:
    """A diagonal cycle of series shapes ``(m, d)``, ``m <= max_len``,
    ``d <= 4``, whose first ``max_len`` take every length and dimension and
    all ``4 max_len`` every pair."""
    return tuple((i % max_len + 1, (i // max_len + i) % 4 + 1)
                 for i in range(4 * max_len))


def _series_entries(n, shape) -> int:
    """The entries of one series of the cycle's shape ``(m, d)``: its ``m``
    terms of ``d x d``, drawn as one GUE stack."""
    m, d = shape
    return m * d * d


def _series_draw(draw_mus):
    """A draw of GUE series of the cycle's shape ``(m, d)``: the terms as one
    GUE stack, then ``draw_mus(rng, count)``, the mus they are checked at."""
    def draw(rng, n, count, shape):
        m, d = shape
        terms = gue(rng, d, count * m).reshape(count, m, d, d)
        return terms, draw_mus(rng, count)
    return draw


# ---------------------------------------------------------------------------
# inequalities suite runners

def _run_gt(params, stream, tag):
    # one case per dimension, each sweep on its own child stream
    cases = []
    for j, n in enumerate(params.dims):
        sweep = Sweep(f"gt-sweep-n{n}", _draw(gue, 2), ineq.gt_gap, dims=(n,))
        cases += sweep(params, stream.child(j), tag)
    return cases


def _run_pauli_reduce(params, stream, tag):
    """Both forms of the 2x2 reduction over Gaussian coefficient pairs, each
    block drawing its ``a`` rows, then its ``b`` rows.  The cosh form's
    sides are checked against the matrix traces
    (:func:`~gtlab.inequalities.pauli_route_discrepancy`); a relative
    discrepancy above 1e-10 fails its case."""
    cosh, law = _Worst(), _Worst()
    discrepancy = 0.0
    for _, count, rng in stream.blocks(params.trials, 3):
        a = rng.standard_normal((count, 3))
        b = rng.standard_normal((count, 3))
        report = cosh.add_gap(ineq.pauli_reduce_gap(a, b))
        law.add_gap(ineq.pauli_law_gap(a, b, report.rhs))
        discrepancy = max(discrepancy, ineq.pauli_route_discrepancy(
            a, b, report.lhs, report.rhs))
    case = cosh.gap_case("pauli-2x2-cosh", tag,
                         extra={"max_route_discrepancy": discrepancy})
    if discrepancy > 1e-10:
        case = dataclasses.replace(case, passed=False, status="fail")
    return [case, law.gap_case("pauli-law-of-cosines", "Eq.1aA")]


_BETAS = (1e-6, 0.5, 1.0, 2.0, 10.0, 100.0)


def _run_oscillator(params, stream, tag):
    return [_worst_case("oscillator-bound", tag,
                        [ineq.oscillator_bound(np.array(_BETAS))])]


def _run_lie_trotter(params, stream, tag):
    A = pauli.SIGMA3.copy()
    B = pauli.SIGMA1.copy()
    target = expm_herm(hermitize(A + B))
    ns = [2 ** j for j in range(1, 11)]
    devs = [operator_norm(lie_trotter_product(A, B, n) - target) for n in ns]
    slope, _ = np.polyfit(np.log(ns), np.log(devs), 1)
    # commuting pairs reproduce the exponential of the sum at every n
    D1, D2 = np.diag([0.7, -0.3, 0.1]), np.diag([1.1, 0.2, -0.5])
    comm_dev = max(operator_norm(lie_trotter_product(D1, D2, n)
                                 - expm_herm(D1 + D2)) for n in (1, 3, 8))
    residual = abs(slope + 1.0)
    return [_case("lie-trotter-order", tag, residual, 0.1, 0.1 - residual,
                  residual <= 0.1 and comm_dev <= 1e-12, len(ns),
                  extra={"fitted_slope": float(slope),
                         "commuting_deviation": comm_dev})]


def _top_k_residual(A):
    """The top-``n`` absolute eigensum of ``e^A`` against its trace norm."""
    P = expm_herm(A)
    top = ineq.top_k_abs_eigensum(P, P.shape[-1])
    s1 = singular_values(P).sum(axis=-1)
    return np.abs(top - s1) / np.maximum(1.0, s1), REL_TOL


def _delta2_residual(A):
    """``delta_2(e^A, I) = ||A||_F``, each instance judged against
    ``1e-10 + err``.  The eigenvalues ``mu_j`` of the computed ``e^A`` are
    backward stable: each is off by about ``n eps mu_max``, so its
    logarithm by that over ``mu_j``; ``err`` combines those in l2, relative
    to ``max(1, ||A||_F)`` as the residual is.  It grows like cond(e^A)."""
    d = distance_delta2(A, np.zeros_like(A))
    f = frobenius_norm(A)
    w = np.linalg.eigvalsh(A)
    unit = A.shape[-1] * np.finfo(np.float64).eps * np.exp(w[..., -1:] - w)
    scale = np.maximum(1.0, f)
    return np.abs(d - f) / scale, 1e-10 + np.linalg.norm(unit, axis=-1) / scale


#: Leading instances of the three-matrix sweep that are re-evaluated one by
#: one through quadrature.
_LIEB_CROSS_CHECKS = 20


def _run_lieb(params, stream, tag):
    dims = tuple(n for n in params.dims if n <= 5) or (min(params.dims),)
    worst = _Worst()
    cross = _groups(min(params.trials, _LIEB_CROSS_CHECKS), dims, (None,))
    agreement = 0.0
    reduction = 0.0
    for key, (A, B, C) in _stacks(params.trials, dims, stream, _draw(gue, 3)):
        report = worst.add_gap(ineq.lieb_triple_gap(A, B, C))
        m = cross.pop(key, 0)
        if not m:
            continue
        for a, b, c, cf in zip(A[:m], B[:m], C[:m], report.rhs[:m]):
            qd = ineq.lieb_rhs_quadrature(a, b, c)
            agreement = max(agreement, abs(cf - qd) / max(1.0, abs(cf)))
        direct = trace_of_product(expm_herm(A[:m]), expm_herm(B[:m]),
                                  "product trace in the Lieb C = 0 reduction")
        reduced = ineq.lieb_rhs_closed(A[:m], B[:m], np.zeros_like(C[:m]))
        reduction = max(reduction, float(
            (np.abs(reduced - direct) / np.maximum(1.0, direct)).max()))
    extra = {"closed_vs_quadrature": agreement, "c_zero_reduction": reduction}
    case = worst.gap_case("lieb-triple", tag, extra=extra)
    if agreement > 1e-8 or reduction > 1e-10:
        case = dataclasses.replace(case, passed=False, status="fail")
    return [case]


def _run_equality_order(params, stream, tag):
    rng = stream.generator()
    n = max(params.dims)
    d1 = np.diag(rng.standard_normal(n))
    d2 = np.diag(rng.standard_normal(n))
    comm = ineq.equality_order_scan(d1, d2)
    comm_residual = float(np.max(np.abs(comm.gaps)))
    cases = [_residual_case("equality-commuting", tag, comm_residual, 1e-12,
                            comm.gaps.size,
                            extra={"commuting_flag": comm.commuting})]
    worst_slope = 0.0
    details = {}
    # a 1x1 pair always commutes and has no slope to fit
    m = max(2, n)
    for label, A, B in (("sigma", pauli.SIGMA3, pauli.SIGMA1),
                        ("gue", gue(rng, m), gue(rng, m))):
        scan = ineq.equality_order_scan(hermitize(A), hermitize(B))
        worst_slope = max(worst_slope, abs(scan.slope - 4.0))
        details[f"slope_{label}"] = scan.slope
        details[f"coefficient_{label}"] = scan.coefficient
    cases.append(_residual_case("equality-order-fit", tag, worst_slope, 0.1, 2,
                                extra=details))
    return cases


# ---------------------------------------------------------------------------
# concentration suite runners

def _run_covariance_identity(params, stream, tag):
    n, k = 32, 2
    X = np.sqrt(n) * np.eye(n, k, dtype=np.complex128)
    exact_residual = float(np.abs(conc.covariance(X) - np.eye(k)).max())
    trials = max(params.trials, 2000)
    moments = (0, 0.0, 0.0)
    for _, count, rng in stream.blocks(trials, n * k):
        sigma = conc.covariance(standard_complex(rng, (count, n, k)))
        moments = merge_moments(moments, sigma.reshape(count, k * k).T)
    mean, se = mean_and_se(moments)
    dev_units = float((np.abs(mean - np.eye(k).ravel())
                       / np.maximum(se, 1e-30)).max())
    return [_case("covariance-mean", tag, dev_units, 4.0, 4.0 - dev_units,
                  exact_residual <= 1e-12 and dev_units <= 4.0, trials,
                  extra={"constructed_identity_residual": exact_residual})]


def _rank_one_residual(X):
    """The average of the rank-one row contributions against the Gram
    product of :func:`~gtlab.concentration.covariance`."""
    rank_one = np.einsum('...pi,...pj->...ij', X.conj(), X) / X.shape[-2]
    return np.abs(rank_one - conc.covariance(X)).max(axis=(-2, -1)), 1e-12


def _opnorm_residual(M):
    """The operator norm from the extreme eigenvalues and from the SVD."""
    w = np.linalg.eigvalsh(M)
    eig_route = np.maximum(-w[..., 0], w[..., -1])
    sv_route = operator_norm(M)
    return np.abs(eig_route - sv_route) / np.maximum(1.0, sv_route), 1e-12


def _run_scalar_chernoff(params, stream, tag):
    trials = max(params.trials, 10000)
    report = conc.scalar_chernoff(stream.child(0), trials=trials)
    return [_tail_case("scalar-chernoff", tag, report)]


def _run_union_bound(params, stream, tag):
    report, = conc.empirical_tail(16, 2, (0.5,), min(params.trials, 4000),
                                  stream.child(0))
    lhs = report.empirical_tail
    rhs = report.extras["upper_tail"] + report.extras["lower_tail"]
    return [_case("tail-union-bound", tag, lhs, rhs, rhs - lhs,
                  lhs <= rhs + 1e-15, report.trials, extra=report.extras)]


def _run_bernstein(params, stream, tag):
    trials = min(max(params.trials, 2000), 20000)
    report = conc.bernstein_tail_check(trials, stream)
    return [_gap_case("bernstein-chebyshev", tag, report, trials)]


def _run_mgf_lemma(params, stream, tag):
    trials = min(max(params.trials, 4000), 40000)
    return [_gap_case(f"mgf-lemma-mu{mu:+g}", tag,
                      conc.aw_mgf_lemma_check(mu, trials, stream.child(j)), trials)
            for j, mu in enumerate((1.0, -1.0))]


def _run_domination_grid(params, stream, tag):
    """One sample per (N, k) experiment, read at every threshold, group
    ``g`` from child ``(g, 0)``.  The k = 2 bounds exceed 1; the closest
    informative cell, (8, 1) at eps 0.5, has the exact tail 0.1406 against
    0.779."""
    cases = []
    trials = min(max(params.trials, 1000), 20000)
    epsilons = (0.5, 1.0, 2.0)
    for g, (n, k) in enumerate(((8, 1), (8, 2), (16, 1), (16, 2))):
        reports = conc.empirical_tail(n, k, epsilons, trials, stream.child(g, 0))
        cases.extend(_tail_case(f"tail-domination-N{n}-k{k}-eps{eps:g}", tag,
                                report)
                     for eps, report in zip(epsilons, reports))
    return cases


def _run_oliveira(params, stream, tag):
    """The enumerated series are the stacks of child 0, each at every mu;
    the Monte Carlo pair draws its series (length, dimension, terms) from
    child 1 and its signs through :func:`_escalating` on child 2."""
    enumeration = Sweep("sign-series-enumerate", _series_draw(
        lambda rng, count: np.array((0.5, 1.0, 2.0))[:, None]),
        conc.oliveira_mgf_check, _series_shapes(10),
        lambda trials: min(max(trials // 20, 10), 100), (1,), _series_entries)
    enum_case, = enumeration(params, stream.child(0), tag)
    rng = stream.child(1).generator()
    m, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    gaussian = np.stack([gue(rng, d) for _ in range(m)])

    def attempt(trials, signs):
        report = conc.oliveira_mgf_montecarlo(gaussian, signs, trials)
        return report, "pass" if report.passed else "chance"

    trials = max(params.trials, 10000)
    mc, _, escalated = _escalating(attempt, trials, stream.child(2))
    mc_case = _gap_case("sign-series-montecarlo", tag, mc,
                        10 * trials if escalated else trials,
                        extra={"escalated": escalated})
    return [enum_case, mc_case]


def _recursion_residual(terms, mus):
    """The largest relative rise along each series' recursion profile."""
    profile = conc.oliveira_recursion_profile(terms, mus)
    increases = np.diff(profile) / np.maximum(1.0, profile[..., :-1])
    return increases.max(axis=-1), 1e-12


# ---------------------------------------------------------------------------
# studies suite runners

def _run_ratio_quadrature(params, stream, tag):
    result = studies.pauli_ratio_quadrature()
    residual = abs(result.ratio - 4.0 / 3.0)
    return [_residual_case("pauli-ratio-quadrature", tag, residual, 1e-8, 1,
                           extra={"ratio": result.ratio,
                                  "numerator": result.numerator,
                                  "denominator": result.denominator})]


def _run_ratio_mc(params, stream, tag):
    target = 4.0 / 3.0

    def attempt(trials, pairs):
        est = studies.pauli_ratio_mc(trials, pairs)
        extras = est.extras
        within = (abs(est.ratio - target) <= 3.0 * est.ratio_se
                  and abs(extras["cross_term_mean"]) <= 4.0 * extras["cross_term_se"])
        exact = (extras["matrix_route_max_discrepancy"] <= 1e-10
                 and extras["trialwise_violations"] == 0)
        # a violated exact identity is no chance miss: it fails at once
        return est, "fail" if not exact else "pass" if within else "chance"

    trials = max(params.trials, 10000)
    est, verdict, escalated = _escalating(attempt, trials, stream)
    allowed = 3.0 * est.ratio_se
    return [_case("pauli-ratio-montecarlo", tag, est.ratio, target,
                  allowed - abs(est.ratio - target), verdict == "pass",
                  10 * trials if escalated else trials,
                  ci=(est.ci_low, est.ci_high),
                  extra={**est.extras, "escalated": escalated})]


def _run_hermitization(params, stream, tag):
    n = max(16, max(params.dims))
    trials = min(max(params.trials // 10, 20), 200)
    est = studies.hermitization_ratio(n, trials, stream)
    target = math.sqrt(2.0)
    rel_dev = abs(est.ratio - target) / target
    threshold = 0.10
    return [_case(f"hermitization-ratio-n{n}", tag, est.ratio, target,
                  threshold - rel_dev, rel_dev <= threshold, trials,
                  ci=(est.ci_low, est.ci_high), extra=est.extras)]


# ---------------------------------------------------------------------------
# registry

#: equation tag -> (suite, checker operation, runner); ``runner(params,
#: stream, tag)`` returns the tag's cases, each judged against a fixed
#: slack.  A row without a runner names a tag another row's runner emits.
REGISTRY: dict[str, tuple[str, str, Callable | None]] = {
    "Eq.AB": ("inequalities", "pauli.squared_norm_identity_residual", Residual(
        "pauli-parametrization", lambda rng, n, count, c: (
            rng.standard_normal((count, 3)),),
        lambda a: (pauli.squared_norm_identity_residual(a), 1e-12), dims=(1,),
        entries=lambda n, c: 3)),
    "Eq.1": ("inequalities", "inequalities.gt_gap", _run_gt),
    "Eq.1a": ("inequalities", "inequalities.pauli_reduce_gap", _run_pauli_reduce),
    "Eq.1aA": ("inequalities", "inequalities.pauli_law_gap", None),
    "Eq.1b": ("inequalities", "inequalities.oscillator_bound", _run_oscillator),
    "Eq.LT": ("inequalities", "linalg.lie_trotter_product", _run_lie_trotter),
    "Lemma.1": _sweep_row("inequalities", "cauchy-trace", _draw(ginibre, 2),
                          ineq.cauchy_trace_gap),
    "Lemma.2": _sweep_row("inequalities", "word-trace", _word_draw,
                          ineq.word_trace_bound, (1, 2, 3, 4),
                          entries=lambda n, half: n * n + 2 * half),
    "Lemma.3": _sweep_row("inequalities", "dyadic-power", _draw(gue, 2),
                          ineq.dyadic_power_gap, (1, 2, 3)),
    "Eq.2.6": _sweep_row("inequalities", "weyl-dominance", _weyl_draw,
                         ineq.weyl_dominance_gap, (1, 2)),
    "Eq.H": _sweep_row("inequalities", "spectral-chain", _draw(ginibre, 1),
                       ineq.spectral_chain_gap, (1, 2)),
    "Eq.W2": _sweep_row("inequalities", "power-trace", _draw(ginibre, 1),
                        ineq.power_trace_gap, (1, 2, 3)),
    "Eq.ALT": _sweep_row("inequalities", "araki-lieb-thirring", _alt_draw,
                         ineq.alt_trace_gap,
                         ((2.0, 1.0), (2.0, 3.0), (3.0, 0.5))),
    "Lemma.5": _sweep_row("inequalities", "karamata", _draw(ginibre, 1),
                          ineq.karamata_spectral_gap),
    "Eq.4": _sweep_row("inequalities", "phi-power-premise", _phi_premise_draw,
                       ineq.phi_power_premise_gap,
                       ((1, True), (2, True), (1, False), (2, False))),
    "Eq.4.2": ("inequalities", "inequalities.top_k_abs_eigensum", Residual(
        "top-k-functional-consistency", _draw(gue, 1), _top_k_residual,
        size=partial(min, 500))),
    "Eq.4.1": _sweep_row("inequalities", "phi-exponential", _phi_exp_draw,
                         ineq.phi_exp_gap),
    "Eq.4.1w": _sweep_row("inequalities", "weak-majorization", _draw(gue, 2),
                          ineq.weak_majorization_gap),
    "Eq.5": _sweep_row("inequalities", "schatten-norm", _draw(gue, 2),
                       ineq.schatten_gap, (1.0, 2.0, 4.0, np.inf)),
    "Eq.5a": _sweep_row("inequalities", "symmetrized-trace", _draw(gue, 2),
                        ineq.symmetrized_gap, (1.0, 2.0, 4.0)),
    "Eq.Sn": _sweep_row("inequalities", "log-metric", _draw(gue, 2),
                        ineq.log_metric_gap),
    "Eq.Sn1": ("inequalities", "linalg.distance_delta2", Residual(
        "delta2-identity", _draw(gue, 1), _delta2_residual,
        size=partial(min, 500))),
    "Eq.4.1a": _sweep_row("inequalities", "nonhermitian-phi", _nonhermitian_draw,
                          ineq.nonhermitian_phi_gap, (True, False)),
    "Eq.4.1b": _sweep_row("inequalities", "hermitian-part", _draw(ginibre, 1),
                          ineq.hermitian_part_dominance),
    "Eq.4.1c": ("inequalities", "inequalities.lieb_triple_gap", _run_lieb),
    "EqualityOrder": ("inequalities", "inequalities.equality_order_scan",
                      _run_equality_order),
    "Eq.S": ("concentration", "concentration.covariance", _run_covariance_identity),
    "Eq.S3": ("concentration", "concentration.covariance", Residual(
        "rank-one-decomposition", lambda rng, n, count, shape: (
            standard_complex(rng, (count, *shape)),), _rank_one_residual,
        tuple((n, (n - 4) % min(n, 5) + 1) for n in range(4, 24)),
        partial(min, 200), (1,), lambda n, shape: shape[0] * shape[1])),
    "Eq.SP": ("concentration", "linalg.operator_norm", Residual(
        "operator-norm-identity", _draw(gue, 1), _opnorm_residual,
        size=partial(min, 300))),
    "Eq.C": ("concentration", "concentration.scalar_chernoff", _run_scalar_chernoff),
    "Eq.rf": ("concentration", "concentration.empirical_tail", _run_union_bound),
    "Eq.rf1": ("concentration", "concentration.bernstein_tail_check", _run_bernstein),
    "Eq.J": _sweep_row("concentration", "per-trial-exponential-dominance",
                       _deviation_draw, conc.exp_trace_dominance, (0.5, 2.0),
                       entries=lambda n, c: 4 * n * n),
    "Eq.GTE": ("concentration", "concentration.aw_mgf_lemma_check", _run_mgf_lemma),
    "Eq.4.29": _sweep_row("concentration", "trace-product-dominance",
                          _trace_product_draw, conc.trace_product_dominance),
    "Eq.RU": ("concentration", "concentration.aw_bound", _run_domination_grid),
    "Eq.OB": ("concentration", "concentration.oliveira_mgf_check", _run_oliveira),
    "Eq.DDN": ("concentration", "concentration.oliveira_recursion_profile",
               Residual("recursion-non-increasing", _series_draw(
                   lambda rng, count: rng.choice((0.5, 1.0, 2.0), size=count)),
                   _recursion_residual, _series_shapes(8),
                   lambda trials: min(20, max(trials // 100, 5)), (1,),
                   _series_entries)),
    "Eq.DD1": _sweep_row("concentration", "mgf-factor-bound", _mgf_factor_draw,
                         conc.mgf_factor_check, size=partial(min, 300)),
    "Eq.RUvsOB": _sweep_row(
        "concentration", "series-vs-direct-bound", _series_draw(
            lambda rng, count: rng.choice((0.5, 2.0), size=count)),
        conc.oliveira_vs_aw, _series_shapes(6),
        size=lambda trials: min(max(trials, 200), 1000), dims=(1,),
        entries=_series_entries),
    "Eq.R": ("studies", "studies.pauli_ratio_mc", _run_ratio_mc),
    "Eq.R.quadrature": ("studies", "studies.pauli_ratio_quadrature",
                        _run_ratio_quadrature),
    "Limit.sqrt2": ("studies", "studies.hermitization_ratio", _run_hermitization),
    "Eq.4.1d": ("counterexamples", "inequalities.triple_gt_scan",
                Hunt("hunt-triple-exponential", ineq.triple_gt_scan)),
    "ABC.trace": ("counterexamples", "inequalities.abc_trace_scan",
                  Hunt("hunt-abc-trace", ineq.abc_trace_scan)),
}

SUITE_NAMES = ("inequalities", "concentration", "studies", "counterexamples")

SUITE_TAGS: dict[str, tuple[str, ...]] = {
    suite: tuple(tag for tag, (s, _, runner) in REGISTRY.items()
                 if s == suite and runner is not None)
    for suite in SUITE_NAMES
}


def _tag_stream(seed: int, tag: str) -> RngStream:
    """The stream of ``tag`` under ``seed``: its one label is the CRC-32 of
    the tag's name, so it does not depend on the registry's order."""
    return RngStream(seed, (zlib.crc32(tag.encode()),))


def run_suite(name: str, params: SuiteParams) -> list[CaseRecord]:
    """Execute one named suite; each tag's runner draws from
    :func:`_tag_stream` under the seed, making the output deterministic,
    and is handed the tag.  A runner that raises ends the run with a
    :class:`RunnerError`."""
    if name not in SUITE_TAGS:
        raise ValueError(f"unknown suite {name!r}")
    cases: list[CaseRecord] = []
    for tag in SUITE_TAGS[name]:
        _, _, runner = REGISTRY[tag]
        stream = _tag_stream(params.seed, tag)
        try:
            cases.extend(runner(params, stream, tag))
        except Exception as exc:
            raise RunnerError(f"{tag}: {type(exc).__name__}: {exc}") from exc
    return cases
