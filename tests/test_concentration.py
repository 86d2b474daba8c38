import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from gtlab import concentration as conc
from gtlab import linalg, pauli
from gtlab.reports import TailReport, binomial_ci, inequality_tol
from gtlab.samplers import RngStream, standard_complex
from conftest import assert_stack_matches_single, gue


class TestCovariance:
    def test_scaled_orthonormal_columns_identity(self):
        n, k = 16, 3
        X = np.sqrt(n) * np.eye(n, k, dtype=complex)
        sigma = conc.covariance(X)
        assert np.abs(sigma - np.eye(k)).max() == 0.0

    def test_mean_is_identity(self, stream):
        n, k, trials = 32, 2, 10000
        rng = stream.generator()
        sigmas = conc.covariance(standard_complex(rng, (trials, n, k)))
        mean = sigmas.mean(axis=0)
        se = sigmas.std(axis=0, ddof=1) / math.sqrt(trials)
        assert (np.abs(mean - np.eye(k)) <= 4.0 * np.maximum(se, 1e-12)).all()

    def test_rank_one_mode_agrees(self, rng):
        X = standard_complex(rng, (10, 3))
        sigma = conc.covariance(X)
        rank_one = np.einsum('pi,pj->ij', X.conj(), X) / 10
        assert np.abs(sigma - rank_one).max() <= 1e-12

    def test_stack_matches_each_block(self, rng):
        assert_stack_matches_single(conc.covariance,
                                    standard_complex(rng, (6, 10, 3)))

    def test_dimension_validation(self, rng):
        with pytest.raises(ValueError):
            conc.covariance(standard_complex(rng, (2, 5)))

    @pytest.mark.parametrize("shape", [(4, 2, 5), (3, 0), (5,)])
    def test_stack_validation(self, rng, shape):
        with pytest.raises(ValueError, match="N >= k >= 1"):
            conc.covariance(standard_complex(rng, shape))

    def test_deviations_keep_the_bits_of_the_gram_product(self, stream):
        # the tail experiments' spectra are computed from these bits
        X, dev = conc.covariance_deviations(stream.generator(), 512, 12, 3)
        gram = linalg.adjoint(X) @ X / 12
        gram[:, np.arange(3), np.arange(3)] -= 1.0
        assert dev.tobytes() == gram.tobytes()


class TestVarianceProxy:
    def test_closed_form_k_over_n(self):
        assert conc.gaussian_row_sigma2(8, 2) == 2.0 / 8.0

    def test_scalar_closed_form_one_over_n(self):
        # k=1: S = (|x|^2 - 1)/N with E|x|^4 = 2, so E S^2 = 1/N^2 and the
        # sum over N terms is 1/N
        assert conc.gaussian_row_sigma2(16, 1) == pytest.approx(1.0 / 16.0)

    def test_monte_carlo_matches_closed_form(self, stream):
        # S_p = (v v† - I)/N for standard complex rows v; the proxy is
        # ||sum_p E S_p^2||_op = N ||E S^2||_op, estimated from the draws
        n, k, draws = 16, 2, 10000
        v = standard_complex(stream.generator(), (draws, k))
        S = (np.einsum('ti,tj->tij', v, v.conj()) - np.eye(k)) / n
        scaled_sq = n * (S @ S)
        estimate = np.linalg.norm(scaled_sq.mean(axis=0), 2)
        se = np.abs(scaled_sq).std(axis=0, ddof=1).max() / np.sqrt(draws)
        assert abs(estimate - conc.gaussian_row_sigma2(n, k)) <= 4.0 * se


class TestAwBound:
    def test_frozen_value(self):
        assert conc.aw_bound(2, 2.0, sigma2=1.0) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-12)

    def test_zero_epsilon_vacuous(self):
        assert conc.aw_bound(3, 0.0, sigma2=0.5) == pytest.approx(3.0)

    def test_nonpositive_sigma2(self):
        with pytest.raises(ValueError):
            conc.aw_bound(2, 1.0, sigma2=0.0)


class TestEmpiricalTail:
    @staticmethod
    def tail(n, k, eps, trials, stream):
        """The report of one experiment."""
        report, = conc.empirical_tail(n, k, (eps,), trials, stream)
        return report

    def test_zero_threshold_tail_one(self, stream):
        report = self.tail(8, 2, 0.0, 500, stream.child(0))
        assert report.empirical_tail == 1.0

    def test_huge_threshold_tail_zero(self, stream):
        report = self.tail(2, 2, 1000.0, 500, stream.child(0))
        assert report.empirical_tail == 0.0
        assert report.status != "fail"

    def test_union_bound_frequencies(self, stream):
        report = self.tail(8, 2, 0.5, 3000, stream.child(0))
        assert report.empirical_tail <= (report.extras["upper_tail"]
                                         + report.extras["lower_tail"] + 1e-15)

    def test_domination_small_grid(self, stream):
        # informative-bound cells must dominate the empirical upper limit;
        # the (16, 1) experiment is one sample read at two thresholds
        groups = [(8, 1, (0.5,)), (16, 1, (1.0, 2.0)), (16, 2, (2.0,)),
                  (32, 1, (2.0,))]
        for i, (n, k, epsilons) in enumerate(groups):
            reports = conc.empirical_tail(n, k, epsilons, 4000,
                                          stream.child(i, 0))
            assert len(reports) == len(epsilons)
            for report in reports:
                assert report.bound_value < 1.0
                assert report.status == "pass"

    def test_assumption_rate_reported(self, stream):
        report = self.tail(8, 4, 1.0, 1000, stream.child(0))
        assert 0.0 <= report.extras["assumption_violation_rate"] <= 1.0


class TestExpTraceDominance:
    def test_one_by_one_stack_is_an_equality(self, rng):
        # the left side is the right side's only term
        M = rng.standard_normal((50, 1, 1))
        for c in (0.5, 2.0, -1.0):
            report = conc.exp_trace_dominance(M, c)
            assert np.array_equal(report.lhs, report.rhs)
            assert report.passed.all()

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(lambda M: conc.exp_trace_dominance(M, 2.0),
                                    gue(rng, 3, 20))

    def test_frozen_values(self):
        report = conc.exp_trace_dominance(np.diag([1.0, -1.0]), 2.0)
        assert report.lhs == pytest.approx(math.exp(2.0), rel=1e-15)
        assert report.rhs == pytest.approx(2.0 * math.cosh(2.0), rel=1e-15)
        assert report.tol == 1e-12 * report.rhs

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            conc.exp_trace_dominance(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestBernsteinStep:
    def test_tail_check_passes(self, stream):
        report = conc.bernstein_tail_check(5000, stream)
        assert report.passed

    def test_sides_recomputed_under_the_exact_rule(self, stream):
        # the frequency of lambda_max > eps and the mean of
        # e^(-c eps) Tr e^(c (Sigma - I)) over the draws of the blocks of
        # stream.child(0), three at these trials, recomputed with eigvalsh,
        # judged with an exact inequality's rounding tolerance
        trials, c, eps = 5000, 6.0, 1.0
        report = conc.bernstein_tail_check(trials, stream)
        X = np.concatenate([
            standard_complex(rng, (count, 16, 2))
            for _, count, rng in stream.child(0).blocks(trials, 16 * 2)])
        w = np.linalg.eigvalsh(conc.covariance(X) - np.eye(2))
        assert report.lhs == (w[:, -1] > eps).mean()
        assert report.rhs == pytest.approx(
            np.exp(c * (w - eps)).sum(axis=1).mean(), rel=1e-12)
        assert report.tol == inequality_tol(report.lhs, report.rhs)


class TestMgfLemma:
    def test_mu_zero_exact_equality(self, stream):
        report = conc.aw_mgf_lemma_check(0.0, 200, stream)
        assert report.lhs == pytest.approx(2.0, abs=1e-12)
        assert report.rhs == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_scalar_case_equality_within_error(self, monkeypatch, stream):
        monkeypatch.setattr(conc, "_MGF_SHAPE", (6, 1))
        report = conc.aw_mgf_lemma_check(0.8, 20000, stream)
        assert report.passed
        # iid factorization makes the two sides equal in expectation
        assert abs(report.margin) <= 2.0 * report.tol

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_small_instance_passes(self, mu, stream):
        assert conc.aw_mgf_lemma_check(mu, 20000, stream).passed

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_blocked_sides_match_the_whole_draw(self, mu, stream):
        # three blocks of 8192 draws whose edges fall inside the ten
        # batches of the 80004 rows (four of 8001 rows, six of 8000); the
        # sides and the tolerance recomputed from the concatenated draw
        trials, n, k = 20001, 4, 2
        report = conc.aw_mgf_lemma_check(mu, trials, stream)
        X = np.concatenate([standard_complex(rng, (count, n, k))
                            for _, count, rng in stream.blocks(trials, n * k)])
        samples = np.exp(mu * np.linalg.eigvalsh(
            conc.covariance(X) - np.eye(k))).sum(axis=1)
        lhs_se = samples.std(ddof=1) / math.sqrt(trials)
        rows = X.reshape(trials * n, k)
        weights = conc._rank_one_weights(rows, mu, n)

        def factor_norm(part, cp):
            mean = conc._factor_mean(part.conj().T @ (cp[:, None] * part),
                                     len(part), mu, n)
            return np.linalg.norm(mean, ord=2)

        norm = factor_norm(rows, weights)
        batches = [factor_norm(part, cp) for part, cp in zip(
            np.array_split(rows, 10), np.array_split(weights, 10))]
        rhs = k * norm ** n
        rhs_se = k * n * norm ** (n - 1) * np.std(batches, ddof=1) / math.sqrt(10)
        assert report.lhs == pytest.approx(samples.mean(), rel=1e-12)
        assert report.rhs == pytest.approx(rhs, rel=1e-12)
        assert report.tol == pytest.approx(
            2.0 * math.sqrt(lhs_se ** 2 + rhs_se ** 2), rel=1e-9)


class TestClosedFormKernels:
    """The closed forms behind the covariance spectra and the lemma's right
    side, against LAPACK."""

    @staticmethod
    def assert_spectra_match_lapack(dev):
        w = conc._ascending_spectra(dev)
        ref = np.linalg.eigvalsh(dev)
        scale = np.maximum(1.0, np.abs(ref).max(axis=-1, keepdims=True))
        assert w.shape == ref.shape
        assert (np.abs(w - ref) <= 1e-14 * scale).all()

    @pytest.mark.parametrize("n, k", [(4, 2), (16, 2), (8, 1), (16, 1)])
    def test_drawn_deviations(self, n, k, stream):
        _, dev = conc.covariance_deviations(stream.generator(), 4096, n, k)
        self.assert_spectra_match_lapack(dev)

    def test_crafted_2x2(self):
        def dev(a, d, b):
            return np.array([[a, np.conj(b)], [b, d]], dtype=complex)

        crafted = [
            # diagonal, in either order and at several scales
            dev(0.5, -0.25, 0), dev(-0.25, 0.5, 0), dev(3e5, -2e5, 0),
            dev(1e-9, 2e-9, 0),
            # a = d with b = 0: a double eigenvalue
            dev(0.75, 0.75, 0), dev(-1.0, -1.0, 0), dev(0.0, 0.0, 0),
            # |b| >> |a - d|: the off-diagonal sets the spread
            dev(0.3, 0.3 + 1e-12, 2.0 - 1.5j), dev(-0.5, -0.5, 1e6j),
            dev(1e-3, 2e-3, 7.0 + 1e-4j), dev(0.0, 1e-15, 1e-3 - 1e-3j),
        ]
        self.assert_spectra_match_lapack(np.stack(crafted))

    @pytest.mark.parametrize("mu, top", [(-1.0, 1e2), (1.0, 1e1)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_factor_means_match_the_matrix_exponential(self, mu, top, k, rng):
        # rows of lengths 1e-8 to ``top``, and two zero rows; at |x| = 1e2
        # and mu = 1, e^(|x|^2/4) is beyond double range for either route
        n = 4
        lengths = np.concatenate([np.geomspace(1e-8, top, 398), [0.0, 0.0]])
        rows = standard_complex(rng, (400, k))
        rows *= (lengths / np.linalg.norm(rows, axis=1))[:, None]
        rows = rows[rng.permutation(400)]
        S = np.einsum('ri,rj->rij', rows.conj(), rows) / n
        S[:, np.arange(k), np.arange(k)] -= 1.0 / n
        factors = linalg.herm_fn(S, lambda w: np.exp(mu * w))
        weights = conc._rank_one_weights(rows, mu, n)
        for part, cp, ref_part in zip(np.array_split(rows, 10),
                                      np.array_split(weights, 10),
                                      np.array_split(factors, 10)):
            mean = conc._factor_mean(
                part.conj().T @ (cp[:, None] * part), len(part), mu, n)
            ref = ref_part.mean(axis=0)
            assert np.linalg.norm(mean - ref, ord=2) \
                <= 1e-13 * np.linalg.norm(ref, ord=2)


class TestSignSeries:
    def test_single_pauli_term_frozen(self):
        report = conc.oliveira_mgf_check([pauli.SIGMA3], 1.0)
        assert report.lhs == pytest.approx(2.0 * math.cosh(1.0), abs=1e-12)
        assert report.rhs == pytest.approx(2.0 * math.exp(0.5), abs=1e-12)
        assert report.passed

    def test_zero_terms_equal_dimension(self):
        report = conc.oliveira_mgf_check(np.zeros((2, 3, 3)), 1.0)
        assert report.lhs == pytest.approx(3.0)
        assert report.rhs == pytest.approx(3.0)

    def test_commuting_diagonal_enumeration(self, rng):
        terms = [np.diag(rng.standard_normal(3)) for _ in range(10)]
        report = conc.oliveira_mgf_check(terms, 1.0)
        assert report.passed
        assert report.margin >= 0.0

    def test_gaussian_montecarlo(self, stream, rng):
        # the series at mu = 0.7 is the series of the terms 0.7 A_p at 1
        terms = 0.7 * np.stack([gue(rng, 3) for _ in range(5)])
        report = conc.oliveira_mgf_montecarlo(terms, stream, 20000)
        assert report.passed

    def test_random_enumerated_sweep(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            mu = float(rng.choice([0.5, -0.5, 1.0, 2.0]))
            terms = [gue(rng, d) for _ in range(m)]
            assert conc.oliveira_mgf_check(terms, mu).passed

    @pytest.mark.parametrize("m", range(1, 11))
    def test_half_enumeration_matches_all_patterns(self, m, rng):
        # the check eigensolves half of the 2^m patterns; every pattern
        # solved directly gives the same average of Tr e^(mu Z)
        mus = np.array([0.5, -0.5, 2.0, -2.0])
        patterns = conc._all_sign_patterns(m)
        for d in range(1, 5):
            terms = gue(rng, d, m)
            w = np.linalg.eigvalsh(np.einsum('sp,pij->sij', patterns, terms))
            brute = np.exp(mus[:, None, None] * w).sum(axis=-1).mean(axis=-1)
            report = conc.oliveira_mgf_check(terms, mus)
            np.testing.assert_allclose(report.lhs, brute, rtol=1e-13, atol=0)

    def test_recursion_profile_non_increasing(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 9))
            terms = [gue(rng, 3) for _ in range(m)]
            mu = float(rng.choice([0.5, 1.0, 2.0]))
            profile = conc.oliveira_recursion_profile(terms, mu)
            assert profile.size == m + 1
            increases = np.diff(profile) / np.maximum(1.0, profile[:-1])
            assert increases.max() <= 1e-12

    def test_recursion_endpoints_match_bound_sides(self, rng):
        terms = [gue(rng, 2) for _ in range(6)]
        profile = conc.oliveira_recursion_profile(terms, 1.3)
        report = conc.oliveira_mgf_check(terms, 1.3)
        assert profile[0] == pytest.approx(report.rhs, rel=1e-12)
        assert profile[-1] == pytest.approx(report.lhs, rel=1e-12)


class TestSeriesStacks:
    """Many mu for one series, or a stack of series of one (m, d), in one
    call: the bits of one call per series and mu."""

    MUS = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

    def test_multi_mu_enumeration_matches_single_mu(self, rng):
        for m, d in ((1, 1), (1, 3), (4, 2), (7, 4), (10, 3)):
            terms = [gue(rng, d) for _ in range(m)]
            report = conc.oliveira_mgf_check(terms, np.array(self.MUS))
            rhs = conc.series_rhs(terms, np.array(self.MUS))
            assert report.lhs.shape == rhs.shape == (len(self.MUS),)
            for j, mu in enumerate(self.MUS):
                single = conc.oliveira_mgf_check(terms, mu)
                assert (report.lhs[j], report.rhs[j], report.passed[j]) \
                    == (single.lhs, single.rhs, single.passed)
                assert rhs[j] == conc.series_rhs(terms, mu)

    def test_stacked_direct_bound_matches_single(self, rng):
        for m, d in ((1, 1), (3, 2), (6, 4)):
            terms = gue(rng, d, 5 * m).reshape(5, m, d, d)
            mus = rng.choice(self.MUS, size=5)
            assert_stack_matches_single(conc.oliveira_vs_aw, terms, mus)
            stacked = conc.oliveira_vs_aw(terms, mus)
            rhs = conc.series_rhs(terms, mus)
            for g in range(5):
                single = conc.oliveira_vs_aw(terms[g], mus[g])
                assert (stacked.lhs[g], stacked.rhs[g]) \
                    == (single.lhs, single.rhs)
                assert rhs[g] == conc.series_rhs(terms[g], mus[g])

    def test_stacked_direct_bound_keeps_scalar_exp(self, rng):
        # 1x1 series [[a]]: the direct bound is e^(mu^2 a^2) from math.exp,
        # which numpy's vectorized exp misses by an ulp on a few percent of
        # these inputs
        a = rng.standard_normal(200)
        mus = rng.choice(self.MUS, size=200)
        report = conc.oliveira_vs_aw(a.reshape(200, 1, 1, 1), mus)
        assert report.rhs.tolist() == [math.exp(mu ** 2 * (x * x))
                                       for mu, x in zip(mus, a)]

    def test_one_non_hermitian_term_rejects_the_stack(self, rng):
        terms = gue(rng, 3, 12).reshape(4, 3, 3, 3)
        terms[2, 1, 0, 1] += 1e-3
        for check in (conc.series_rhs, conc.oliveira_mgf_check,
                      conc.oliveira_vs_aw, conc.oliveira_recursion_profile):
            with pytest.raises(ValueError, match="Hermitian"):
                check(terms, np.ones(4))

    def test_stacked_recursion_profile_matches_single(self, rng):
        for m, d in ((1, 1), (3, 2), (8, 4)):
            terms = gue(rng, d, 5 * m).reshape(5, m, d, d)
            mus = rng.choice((0.5, 1.0, 2.0), size=5)
            profiles = conc.oliveira_recursion_profile(terms, mus)
            assert profiles.shape == (5, m + 1)
            assert_stack_matches_single(conc.oliveira_recursion_profile,
                                        terms, mus)

    def test_shape_checks(self, rng):
        terms = gue(rng, 2, 8).reshape(4, 2, 2, 2)
        for check in (conc.series_rhs, conc.oliveira_mgf_check,
                      conc.oliveira_vs_aw, conc.oliveira_recursion_profile):
            with pytest.raises(ValueError):
                check(terms, np.ones(3))
            with pytest.raises(ValueError, match="share one dimension"):
                check([gue(rng, 2), gue(rng, 3)], 1.0)
            with pytest.raises(ValueError, match="at least one term"):
                check((), 1.0)
        # only the Monte Carlo series takes one series
        with pytest.raises(ValueError):
            conc.oliveira_mgf_montecarlo(terms, RngStream(1), 100)


class TestMgfFactor:
    def test_rademacher_frozen_value(self):
        report = conc.mgf_factor_check(pauli.SIGMA3, 2.0)
        assert report.lhs == pytest.approx(math.exp(-2.0) * math.cosh(2.0),
                                           abs=1e-12)
        assert report.passed

    def test_mu_zero(self, rng):
        report = conc.mgf_factor_check(gue(rng, 4), 0.0)
        assert report.lhs == pytest.approx(1.0, abs=1e-15)

    def test_sweep_bounded_by_one(self, rng):
        for _ in range(100):
            A = gue(rng, int(rng.integers(1, 5)))
            mu = float(rng.standard_normal())
            assert conc.mgf_factor_check(A, mu).passed

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(
            lambda A: conc.mgf_factor_check(A, 0.7), gue(rng, 3, 6))


class TestSeriesVsDirectBound:
    def test_single_term_frozen(self):
        report = conc.oliveira_vs_aw([pauli.SIGMA3], 1.0)
        assert report.lhs == pytest.approx(2.0 * math.exp(0.5), abs=1e-12)
        assert report.rhs == pytest.approx(2.0 * math.e, abs=1e-12)
        assert report.passed

    def test_zero_series_equality(self):
        report = conc.oliveira_vs_aw(np.zeros((1, 4, 4)), 1.0)
        assert report.lhs == pytest.approx(4.0)
        assert report.rhs == pytest.approx(4.0)

    def test_random_sweep(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            mu = float(rng.choice([0.5, -0.5, 2.0, -2.0]))
            terms = [gue(rng, d) for _ in range(m)]
            assert conc.oliveira_vs_aw(terms, mu).passed


class TestScalarChernoff:
    def test_exact_binomial_oracle(self, stream):
        # sum >= 3 with 20 steps of size 1/sqrt(20) means at least 17 heads
        trials = 100000
        report = conc.scalar_chernoff(stream, trials=trials)
        exact = float(1.0 - binom.cdf(16, 20, 0.5))
        assert report.ci_low <= exact <= report.ci_high
        assert report.ci_high <= math.exp(-1.5)
        assert report.status == "pass"
        # max(e^(-eps^2/4), e^(-eps sigma/2)) at eps = 3, sigma = 1
        assert report.bound_value == max(math.exp(-9 / 4), math.exp(-3 / 2))


class TestTraceProductDominance:
    def test_random_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            P = linalg.expm_herm(gue(rng, n))
            assert conc.trace_product_dominance(P, gue(rng, n)).passed

    def test_requires_positive_definite(self, rng):
        with pytest.raises(ValueError, match="positive definite"):
            conc.trace_product_dominance(-np.eye(3), gue(rng, 3))

    def test_one_indefinite_member_rejects_the_stack(self, rng):
        P = np.stack([np.eye(3), np.diag([1.0, 1.0, -1e-3]), np.eye(3)])
        with pytest.raises(ValueError, match="positive definite"):
            conc.trace_product_dominance(P, gue(rng, 3, 3))

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(conc.trace_product_dominance,
                                    linalg.expm_herm(gue(rng, 3, 6)),
                                    gue(rng, 3, 6))


#: The (exceedances, trials) pairs of the binomial intervals of one
#: ``tail`` run on ``{"suites": ["concentration"], "trials": 8000,
#: "seed": 1001}``.
TAIL_BULK_COUNTS = (
    (7, 10000), (1131, 2000), (1133, 4000), (61, 8000), (1163, 8000),
    (81, 8000), (1, 8000), (4901, 8000), (542, 8000), (7, 8000), (324, 8000),
    (7, 8000), (0, 8000), (2107, 8000), (48, 8000), (0, 8000))


def exact_binomial_tail(mp, k, N, p, below):
    """``P(X <= k)`` (``below``) or ``P(X >= k)`` for ``X ~ Bin(N, p)`` at
    mpmath's working precision, summed from ``k`` outward by the ratio of
    successive terms (``mpmath.betainc`` does not converge at ``N =
    10**6``, ``k = N/2``)."""
    q = 1 - p
    term = total = mp.binomial(N, k) * p**k * q**(N - k)
    cutoff = mp.mpf(10) ** -40
    js = range(k, 0, -1) if below else range(k, N)
    for j in js:
        term *= j * q / ((N - j + 1) * p) if below \
            else (N - j) * p / ((j + 1) * q)
        total += term
        if term < total * cutoff:
            break
    return total


class TestBinomialCi:
    def test_edge_cases(self):
        low, high = binomial_ci(0, 100)
        assert low == 0.0 and 0.0 < high < 0.05
        low, high = binomial_ci(100, 100)
        assert high == 1.0 and low > 0.95

    def test_coverage_shape(self):
        low, high = binomial_ci(50, 100)
        assert low < 0.5 < high

    def test_closed_forms_at_the_edges(self):
        log_target = math.log((1.0 - 0.95) / 2)
        for N in (1, 2, 10, 100, 8000, 80000, 10**6):
            assert binomial_ci(0, N) == (0.0, -math.expm1(log_target / N))
            assert binomial_ci(N, N) == (math.exp(log_target / N), 1.0)

    def test_bounds_bracket_the_exact_quantiles(self):
        # each bound v is within 8 * 2**-52 * v of the exact quantile: the
        # 50-digit tail at v * (1 -+ 8 * 2**-52) lies on both sides of
        # alpha/2
        mp = pytest.importorskip("mpmath")
        grid = {(k, N) for N in (1, 2, 10, 100, 8000, 80000, 10**6)
                for k in (0, 1, 2, N // 2, N - 1, N) if k <= N}
        with mp.workdps(50):
            target = mp.mpf((1.0 - 0.95) / 2)
            for k, N in sorted(grid | set(TAIL_BULK_COUNTS)):
                low, high = binomial_ci(k, N)
                # P(X >= k) rises with p through alpha/2 at low, and
                # P(X <= k) falls through it at high
                for v, below, sign in ((low, False, 1), (high, True, -1)):
                    if v in (0.0, 1.0):
                        continue
                    for side in (-1, 1):
                        p = mp.mpf(v) * (1 + side * 8 * mp.mpf(2) ** -52)
                        tail = exact_binomial_tail(mp, k, N, p, below)
                        assert sign * side * (tail - target) > 0, \
                            (k, N, "high" if below else "low", side)

    @given(st.integers(1, 10**5).flatmap(
        lambda N: st.tuples(st.integers(0, N - 1), st.just(N))))
    @settings(max_examples=100, deadline=None)
    def test_bounds_hold_the_estimate_and_rise_with_successes(self, case):
        k, N = case
        low, high = binomial_ci(k, N)
        next_low, next_high = binomial_ci(k + 1, N)
        assert low <= k / N <= high
        assert next_low <= (k + 1) / N <= next_high
        assert low <= next_low and high <= next_high

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_ci(5, 0)
        with pytest.raises(ValueError):
            binomial_ci(7, 5)


class TestTailVerdict:
    """``TailReport.from_counts`` decides every tail case from the 95%
    Clopper-Pearson interval of the counts."""

    @staticmethod
    def verdict(exceed, trials, bound):
        return TailReport.from_counts(exceed, trials, bound, {}).status

    def test_vacuous_bound_passes_with_the_interval_at_the_top(self):
        low, high = binomial_ci(100, 100)
        assert (low, high) == (pytest.approx(0.9638, abs=1e-4), 1.0)
        assert self.verdict(100, 100, 1.0) == "pass"
        assert self.verdict(100, 100, 2.0 * math.exp(-0.25)) == "pass"

    def test_boundaries(self):
        low, high = binomial_ci(30, 1000)
        assert self.verdict(30, 1000, high) == "pass"
        assert self.verdict(30, 1000, np.nextafter(high, 0.0)) == "indeterminate"
        assert self.verdict(30, 1000, 0.5 * (low + high)) == "indeterminate"
        assert self.verdict(30, 1000, low) == "indeterminate"
        assert self.verdict(30, 1000, np.nextafter(low, 0.0)) == "fail"

    def test_report_fields(self):
        report = TailReport.from_counts(30, 1000, 0.01, {"a": 1.0})
        assert (report.empirical_tail, report.trials, report.bound_value) \
            == (0.03, 1000, 0.01)
        assert (report.ci_low, report.ci_high) == binomial_ci(30, 1000)
        assert report.extras == {"a": 1.0}
