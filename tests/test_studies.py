import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy.integrate import dblquad

from gtlab import linalg, studies
from gtlab.samplers import ginibre


class TestQuadratureRatio:
    def test_ratio_is_four_thirds(self):
        result = studies.pauli_ratio_quadrature()
        assert abs(result.ratio - 4.0 / 3.0) <= 1e-10

    def test_closed_form_moments(self):
        # completing the square in the radial integrals gives
        # E cosh(sR) = (1 + s^2) exp(s^2/2) for R chi with 3 dof
        for s in (0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 3.0):
            value = studies.radial_cosh_moment(s)
            exact = (1.0 + s * s) * math.exp(s * s / 2.0)
            assert abs(value - exact) <= 1e-12 * exact, s

    def test_numerator_factorizes_against_2d_quadrature(self):
        result = studies.pauli_ratio_quadrature()
        c = 2.0 / math.pi

        def integrand(rb, ra):
            radial = ra * ra * rb * rb * math.exp(-(ra * ra + rb * rb) / 2.0)
            return c * radial * math.cosh(ra) * math.cosh(rb)

        direct, err = dblquad(integrand, 0.0, 20.0, 0.0, 20.0,
                              epsabs=1e-10, epsrel=1e-10)
        assert abs(result.numerator - direct) <= 1e-8 * direct


class TestMonteCarloRatio:
    def test_matches_target_within_error(self, stream):
        est = studies.pauli_ratio_mc(200000, stream)
        assert abs(est.ratio - 4.0 / 3.0) <= 3.0 * est.ratio_se
        assert est.ci_low <= est.ratio <= est.ci_high

    def test_cross_term_averages_to_zero(self, stream):
        est = studies.pauli_ratio_mc(200000, stream)
        assert abs(est.extras["cross_term_mean"]) \
            <= 4.0 * est.extras["cross_term_se"]

    def test_no_trialwise_violations(self, stream):
        est = studies.pauli_ratio_mc(100000, stream)
        assert est.extras["trialwise_violations"] == 0
        # every trial satisfies the trace bound, so the ratio cannot dip
        # below one beyond its confidence slack
        assert est.ratio >= 1.0 - 3.0 * est.ratio_se

    def test_matrix_route_cross_check(self, stream):
        est = studies.pauli_ratio_mc(5000, stream)
        assert est.extras["matrix_route_max_discrepancy"] <= 1e-10

    def test_agrees_with_quadrature(self, stream):
        quad_ratio = studies.pauli_ratio_quadrature().ratio
        est = studies.pauli_ratio_mc(200000, stream)
        assert est.ci_low <= quad_ratio <= est.ci_high

    def test_one_pair_has_no_standard_error(self, stream):
        with pytest.raises(ValueError, match="at least two trials"):
            studies.pauli_ratio_mc(1, stream)

    def test_deterministic(self, stream):
        a = studies.pauli_ratio_mc(20000, stream)
        b = studies.pauli_ratio_mc(20000, stream)
        assert a.ratio == b.ratio


def _cores(monkeypatch, count):
    """Pretend this process may run on ``count`` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _ratio_in_worker(stream):
    return studies.hermitization_ratio(16, 20, stream)


def _thread_count_trial(task):
    """A Hermitization trial that returns its process's BLAS thread count."""
    return linalg._bundled_openblas().scipy_openblas_get_num_threads64_(), 1


@pytest.fixture
def forks(monkeypatch):
    """The start methods of the pools ``hermitization_ratio`` creates."""
    methods = []
    get_context = multiprocessing.get_context

    def recording(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    return methods


class TestHermitizationRatio:
    def test_small_dimension_sane(self, stream):
        est = studies.hermitization_ratio(2, 200, stream)
        assert math.isfinite(est.ratio) and math.isfinite(est.ratio_se)
        assert est.ratio > 1.0

    def test_scale_invariance(self, monkeypatch, stream):
        # both eigenvalue sides are homogeneous of degree one in the entries
        base = studies.hermitization_ratio(8, 50, stream)
        monkeypatch.setattr(studies, "ginibre",
                            lambda rng, n: 3.0 * ginibre(rng, n))
        scaled = studies.hermitization_ratio(8, 50, stream)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_reports_dimension(self, stream):
        est = studies.hermitization_ratio(4, 20, stream)
        assert est.extras["dim"] == 4

    def test_pool_matches_in_process(self, monkeypatch, stream, forks):
        _cores(monkeypatch, 1)
        in_process = studies.hermitization_ratio(16, 40, stream)
        _cores(monkeypatch, 2)
        pooled = studies.hermitization_ratio(16, 40, stream)
        assert forks == ["fork"]
        # means, standard errors, the covariance (through ratio_se and the
        # interval) and the extras, bit for bit
        assert pooled == in_process

    def test_worker_rule(self, monkeypatch):
        # one worker per core, whatever the BLAS thread setting, and at
        # most one per trial
        _cores(monkeypatch, 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert (studies._worker_count(200), studies._worker_count(3),
                studies._worker_count(1)) == (4, 3, 1)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(studies._worker_count,
                                    (200,)).get(60) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert studies._worker_count(200) == 1

    def test_pool_workers_run_one_blas_thread(self, monkeypatch, stream):
        lib = linalg._bundled_openblas()
        if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy carries no bundled OpenBLAS")
        monkeypatch.setattr(studies, "_hermitization_trial",
                            _thread_count_trial)
        _cores(monkeypatch, 2)
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)  # a caller that never pinned
        try:
            assert studies.hermitization_ratio(4, 8, stream).ratio == 1.0
        finally:
            lib.scipy_openblas_set_num_threads64_(before)

    def test_runs_inside_a_daemonic_pool_worker(self, monkeypatch, stream):
        # a pool worker may not start a pool of its own: the study must
        # run its trials in the worker itself
        _cores(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.map_async(_ratio_in_worker, [stream]).get(60)[0]
        _cores(monkeypatch, 1)
        assert in_worker == _ratio_in_worker(stream)

    def test_validation(self, stream):
        with pytest.raises(ValueError):
            studies.hermitization_ratio(0, 10, stream)
        with pytest.raises(ValueError):
            studies.hermitization_ratio(4, 0, stream)

    def test_one_trial_has_no_standard_error(self, stream):
        with pytest.raises(ValueError, match="at least two trials"):
            studies.hermitization_ratio(4, 1, stream)
