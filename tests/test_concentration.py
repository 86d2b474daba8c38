import math

import numpy as np
import pytest
from scipy.stats import beta, binom

from gtlab import concentration as conc
from gtlab import linalg, pauli
from gtlab.reports import TailReport, binomial_ci
from gtlab.samplers import RngStream, standard_complex
from conftest import assert_stack_matches_single, gue


def series_of(*terms, mu=1.0, sign_kind="rademacher"):
    return conc.MatrixSeries(terms=tuple(np.asarray(t, dtype=complex)
                                         for t in terms),
                             sign_kind=sign_kind, mu=mu)


class TestCovariance:
    def test_scaled_orthonormal_columns_identity(self):
        n, k = 16, 3
        X = np.sqrt(n) * np.eye(n, k, dtype=complex)
        sigma = conc.covariance(X, check_rank_one=True)
        assert np.abs(sigma - np.eye(k)).max() == 0.0

    def test_mean_is_identity(self, stream):
        n, k, trials = 32, 2, 10000
        rng = stream.generator()
        draws = standard_complex(rng, (trials, n, k))
        sigmas = np.einsum('tpi,tpj->tij', draws.conj(), draws) / n
        mean = sigmas.mean(axis=0)
        se = sigmas.std(axis=0, ddof=1) / math.sqrt(trials)
        assert (np.abs(mean - np.eye(k)) <= 4.0 * np.maximum(se, 1e-12)).all()

    def test_rank_one_mode_agrees(self, rng):
        X = standard_complex(rng, (10, 3))
        sigma = conc.covariance(X, check_rank_one=True)
        direct = linalg.hermitize(X.conj().T @ X / 10)
        assert np.abs(sigma - direct).max() <= 1e-12

    def test_dimension_validation(self, rng):
        with pytest.raises(ValueError):
            conc.covariance(standard_complex(rng, (2, 5)))


class TestVarianceProxy:
    def test_closed_form_k_over_n(self):
        exp = conc.CovarianceExperiment(n_samples=8, dim=2, epsilon=1.0)
        assert conc.gaussian_row_sigma2(exp) == 2.0 / 8.0

    def test_scalar_closed_form_one_over_n(self):
        # k=1: S = (|x|^2 - 1)/N with E|x|^4 = 2, so E S^2 = 1/N^2 and the
        # sum over N terms is 1/N
        exp = conc.CovarianceExperiment(n_samples=16, dim=1, epsilon=1.0)
        assert conc.gaussian_row_sigma2(exp) == pytest.approx(1.0 / 16.0)

    def test_monte_carlo_matches_closed_form(self, stream):
        # S_p = (v v† - I)/N for standard complex rows v; the proxy is
        # ||sum_p E S_p^2||_op = N ||E S^2||_op, estimated from the draws
        exp = conc.CovarianceExperiment(n_samples=16, dim=2, epsilon=1.0)
        n, k, draws = exp.n_samples, exp.dim, 10000
        v = standard_complex(stream.generator(), (draws, k))
        S = (np.einsum('ti,tj->tij', v, v.conj()) - np.eye(k)) / n
        scaled_sq = n * (S @ S)
        estimate = np.linalg.norm(scaled_sq.mean(axis=0), 2)
        se = np.abs(scaled_sq).std(axis=0, ddof=1).max() / np.sqrt(draws)
        assert abs(estimate - conc.gaussian_row_sigma2(exp)) <= 4.0 * se


class TestAwBound:
    def test_frozen_value(self):
        exp = conc.CovarianceExperiment(n_samples=8, dim=2, epsilon=2.0)
        assert conc.aw_bound(exp, sigma2=1.0) == pytest.approx(2.0 * math.exp(-1.0),
                                                               abs=1e-12)

    def test_zero_epsilon_vacuous(self):
        exp = conc.CovarianceExperiment(n_samples=8, dim=3, epsilon=0.0)
        assert conc.aw_bound(exp, sigma2=0.5) == pytest.approx(3.0)

    def test_nonpositive_sigma2(self):
        exp = conc.CovarianceExperiment(n_samples=8, dim=2, epsilon=1.0)
        with pytest.raises(ValueError):
            conc.aw_bound(exp, sigma2=0.0)


class TestEmpiricalTail:
    def test_zero_threshold_tail_one(self, stream):
        exp = conc.CovarianceExperiment(n_samples=8, dim=2, epsilon=0.0,
                                        trials=500)
        report = conc.empirical_tail(exp, stream.child(0))
        assert report.empirical_tail == 1.0

    def test_huge_threshold_tail_zero(self, stream):
        exp = conc.CovarianceExperiment(n_samples=2, dim=2, epsilon=1000.0,
                                        trials=500)
        report = conc.empirical_tail(exp, stream.child(0))
        assert report.empirical_tail == 0.0
        assert report.status != "fail"

    def test_union_bound_frequencies(self, stream):
        exp = conc.CovarianceExperiment(n_samples=8, dim=2, epsilon=0.5,
                                        trials=3000)
        report = conc.empirical_tail(exp, stream.child(0))
        assert report.empirical_tail <= (report.extras["upper_tail"]
                                         + report.extras["lower_tail"] + 1e-15)

    def test_domination_small_grid(self, stream):
        # informative-bound cells must dominate the empirical upper limit
        for i, (n, k, eps) in enumerate([(8, 1, 0.5), (16, 1, 1.0),
                                         (16, 2, 2.0), (32, 1, 2.0)]):
            exp = conc.CovarianceExperiment(n_samples=n, dim=k, epsilon=eps,
                                            trials=4000)
            report = conc.empirical_tail(exp, stream.child(i, 0))
            assert report.bound_value < 1.0
            assert report.status == "pass"

    def test_assumption_rate_reported(self, stream):
        exp = conc.CovarianceExperiment(n_samples=8, dim=4, epsilon=1.0,
                                        trials=1000)
        report = conc.empirical_tail(exp, stream.child(0))
        assert 0.0 <= report.extras["assumption_violation_rate"] <= 1.0


class TestBernsteinStep:
    def test_tail_check_passes(self, stream):
        exp = conc.CovarianceExperiment(n_samples=16, dim=2, epsilon=1.0,
                                        trials=5000)
        report = conc.bernstein_tail_check(exp, stream)
        assert report.passed

    def test_fixed_exponent(self, stream):
        exp = conc.CovarianceExperiment(n_samples=16, dim=2, epsilon=1.0,
                                        c=3.0, trials=3000)
        assert conc.bernstein_tail_check(exp, stream).passed

    def test_optimizer_returns_interior_point(self, stream):
        exp = conc.CovarianceExperiment(n_samples=16, dim=2, epsilon=1.0,
                                        trials=2000)
        c = conc.optimal_bernstein_c(exp, stream)
        assert 0.0 < c < 16.0


class TestMgfLemma:
    def test_mu_zero_exact_equality(self, stream):
        exp = conc.CovarianceExperiment(n_samples=4, dim=2, epsilon=1.0,
                                        trials=200)
        report = conc.aw_mgf_lemma_check(exp, 0.0, stream)
        assert report.lhs == pytest.approx(2.0, abs=1e-12)
        assert report.rhs == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_scalar_case_equality_within_error(self, stream):
        exp = conc.CovarianceExperiment(n_samples=6, dim=1, epsilon=1.0,
                                        trials=20000)
        report = conc.aw_mgf_lemma_check(exp, 0.8, stream)
        assert report.passed
        # iid factorization makes the two sides equal in expectation
        assert abs(report.margin) <= 2.0 * report.tol

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_small_instance_passes(self, mu, stream):
        exp = conc.CovarianceExperiment(n_samples=4, dim=2, epsilon=1.0,
                                        trials=20000)
        assert conc.aw_mgf_lemma_check(exp, mu, stream).passed

    def test_size_guard(self, stream):
        exp = conc.CovarianceExperiment(n_samples=12, dim=2, epsilon=1.0,
                                        trials=100)
        with pytest.raises(ValueError, match="restricted"):
            conc.aw_mgf_lemma_check(exp, 1.0, stream)


class TestSignSeries:
    def test_single_pauli_term_frozen(self):
        report = conc.oliveira_mgf_check(series_of(pauli.SIGMA3, mu=1.0))
        assert report.lhs == pytest.approx(2.0 * math.cosh(1.0), abs=1e-12)
        assert report.rhs == pytest.approx(2.0 * math.exp(0.5), abs=1e-12)
        assert report.passed

    def test_zero_terms_equal_dimension(self):
        report = conc.oliveira_mgf_check(series_of(np.zeros((3, 3)),
                                                   np.zeros((3, 3))))
        assert report.lhs == pytest.approx(3.0)
        assert report.rhs == pytest.approx(3.0)

    def test_commuting_diagonal_enumeration(self, rng):
        terms = [np.diag(rng.standard_normal(3)) for _ in range(10)]
        report = conc.oliveira_mgf_check(series_of(*terms, mu=1.0))
        assert report.passed
        assert report.margin >= 0.0

    def test_enumeration_guard(self, rng):
        terms = [np.eye(2) for _ in range(15)]
        with pytest.raises(conc.ResourceGuardError):
            conc.oliveira_mgf_check(series_of(*terms))

    def test_enumeration_needs_rademacher(self):
        with pytest.raises(ValueError, match="Rademacher"):
            conc.oliveira_mgf_check(series_of(pauli.SIGMA3,
                                              sign_kind="gaussian"))

    @pytest.mark.parametrize("sign_kind", ["rademacher", "gaussian"])
    def test_montecarlo_mode(self, sign_kind, stream, rng):
        series = series_of(*(gue(rng, 3) for _ in range(5)), mu=0.7,
                           sign_kind=sign_kind)
        report = conc.oliveira_mgf_check(series, mode="montecarlo",
                                         stream=stream, trials=20000)
        assert report.passed

    def test_random_enumerated_sweep(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            mu = float(rng.choice([0.5, -0.5, 1.0, 2.0]))
            series = series_of(*(gue(rng, d) for _ in range(m)), mu=mu)
            assert conc.oliveira_mgf_check(series).passed

    def test_recursion_profile_non_increasing(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 9))
            series = series_of(*(gue(rng, 3) for _ in range(m)),
                               mu=float(rng.choice([0.5, 1.0, 2.0])))
            profile = conc.oliveira_recursion_profile(series)
            assert profile.size == m + 1
            increases = np.diff(profile) / np.maximum(1.0, profile[:-1])
            assert increases.max() <= 1e-12

    def test_recursion_endpoints_match_bound_sides(self, rng):
        series = series_of(*(gue(rng, 2) for _ in range(6)), mu=1.3)
        profile = conc.oliveira_recursion_profile(series)
        report = conc.oliveira_mgf_check(series)
        assert profile[0] == pytest.approx(report.rhs, rel=1e-12)
        assert profile[-1] == pytest.approx(report.lhs, rel=1e-12)


class TestSeriesStacks:
    """Many mu for one series, or a stack of series of one (m, d), in one
    call: the bits of one call per series and mu."""

    MUS = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

    def test_multi_mu_enumeration_matches_single_mu(self, rng):
        for m, d in ((1, 1), (1, 3), (4, 2), (7, 4), (10, 3)):
            terms = [gue(rng, d) for _ in range(m)]
            many = series_of(*terms, mu=np.array(self.MUS))
            report = conc.oliveira_mgf_check(many)
            rhs = conc.series_rhs(many)
            assert report.lhs.shape == rhs.shape == (len(self.MUS),)
            for j, mu in enumerate(self.MUS):
                one = series_of(*terms, mu=mu)
                single = conc.oliveira_mgf_check(one)
                assert (report.lhs[j], report.rhs[j], report.passed[j]) \
                    == (single.lhs, single.rhs, single.passed)
                assert rhs[j] == conc.series_rhs(one)

    def test_stacked_direct_bound_matches_single(self, rng):
        def check(terms, mu):
            return conc.oliveira_vs_aw(conc.MatrixSeries(terms=terms, mu=mu))

        for m, d in ((1, 1), (3, 2), (6, 4)):
            terms = gue(rng, d, 5 * m).reshape(5, m, d, d)
            mus = rng.choice(self.MUS, size=5)
            assert_stack_matches_single(check, terms, mus)
            stacked = check(terms, mus)
            rhs = conc.series_rhs(conc.MatrixSeries(terms=terms, mu=mus))
            for g in range(5):
                single = check(terms[g], mus[g])
                assert (stacked.lhs[g], stacked.rhs[g]) \
                    == (single.lhs, single.rhs)
                assert rhs[g] == conc.series_rhs(
                    conc.MatrixSeries(terms=terms[g], mu=mus[g]))

    def test_stacked_direct_bound_keeps_scalar_exp(self, rng):
        # 1x1 series [[a]]: the direct bound is e^(mu^2 a^2) from math.exp,
        # which numpy's vectorized exp misses by an ulp on a few percent of
        # these inputs
        a = rng.standard_normal(200)
        mus = rng.choice(self.MUS, size=200)
        report = conc.oliveira_vs_aw(
            conc.MatrixSeries(terms=a.reshape(200, 1, 1, 1), mu=mus))
        assert report.rhs.tolist() == [math.exp(mu ** 2 * (x * x))
                                       for mu, x in zip(mus, a)]

    def test_one_non_hermitian_term_rejects_the_stack(self, rng):
        terms = gue(rng, 3, 12).reshape(4, 3, 3, 3)
        terms[2, 1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            conc.MatrixSeries(terms=terms, mu=np.ones(4))

    def test_shape_checks(self, rng):
        terms = gue(rng, 2, 8).reshape(4, 2, 2, 2)
        with pytest.raises(ValueError):
            conc.MatrixSeries(terms=terms, mu=np.ones(3))
        with pytest.raises(ValueError, match="share one dimension"):
            series_of(gue(rng, 2), gue(rng, 3))
        with pytest.raises(ValueError, match="at least one term"):
            conc.MatrixSeries(terms=())
        many = series_of(gue(rng, 2), mu=np.array(self.MUS))
        with pytest.raises(ValueError, match="one series and one mu"):
            conc.oliveira_mgf_check(many, mode="montecarlo",
                                    stream=RngStream(1), trials=100)
        with pytest.raises(ValueError, match="one series and one mu"):
            conc.oliveira_recursion_profile(many)


class TestMgfFactor:
    def test_gaussian_factor_is_one(self, rng):
        report = conc.mgf_factor_check(gue(rng, 3), 1.7, "gaussian")
        assert abs(report.lhs - 1.0) <= 1e-12

    def test_rademacher_frozen_value(self):
        report = conc.mgf_factor_check(pauli.SIGMA3, 2.0, "rademacher")
        assert report.lhs == pytest.approx(math.exp(-2.0) * math.cosh(2.0),
                                           abs=1e-12)
        assert report.passed

    def test_mu_zero(self, rng):
        report = conc.mgf_factor_check(gue(rng, 4), 0.0, "rademacher")
        assert report.lhs == pytest.approx(1.0, abs=1e-15)

    def test_sweep_bounded_by_one(self, rng):
        for _ in range(100):
            A = gue(rng, int(rng.integers(1, 5)))
            mu = float(rng.standard_normal())
            for kind in conc.SIGN_KINDS:
                assert conc.mgf_factor_check(A, mu, kind).passed

    @pytest.mark.parametrize("kind", conc.SIGN_KINDS)
    def test_stack_matches_single(self, kind, rng):
        assert_stack_matches_single(
            lambda A: conc.mgf_factor_check(A, 0.7, kind), gue(rng, 3, 6))


class TestSeriesVsDirectBound:
    def test_single_term_frozen(self):
        report = conc.oliveira_vs_aw(series_of(pauli.SIGMA3, mu=1.0))
        assert report.lhs == pytest.approx(2.0 * math.exp(0.5), abs=1e-12)
        assert report.rhs == pytest.approx(2.0 * math.e, abs=1e-12)
        assert report.passed

    def test_zero_series_equality(self):
        report = conc.oliveira_vs_aw(series_of(np.zeros((4, 4))))
        assert report.lhs == pytest.approx(4.0)
        assert report.rhs == pytest.approx(4.0)

    def test_random_sweep(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            mu = float(rng.choice([0.5, -0.5, 2.0, -2.0]))
            series = series_of(*(gue(rng, d) for _ in range(m)), mu=mu)
            assert conc.oliveira_vs_aw(series).passed


class TestScalarChernoff:
    def test_zero_threshold_vacuous(self, stream):
        params = conc.ScalarChernoffParams(n_vars=20, sigma2=1.0, epsilon=0.0)
        report = conc.scalar_chernoff(params, stream, trials=20000)
        assert report.bound_value == 1.0
        assert 0.3 <= report.empirical_tail <= 0.8

    def test_exact_binomial_oracle(self, stream):
        # sum >= 3 with 20 steps of size 1/sqrt(20) means at least 17 heads
        params = conc.ScalarChernoffParams(n_vars=20, sigma2=1.0, epsilon=3.0)
        trials = 100000
        report = conc.scalar_chernoff(params, stream, trials=trials)
        exact = float(1.0 - binom.cdf(16, 20, 0.5))
        assert report.ci_low <= exact <= report.ci_high
        assert report.ci_high <= math.exp(-1.5)
        assert report.passed

    def test_degenerate_zero_variance(self, stream):
        params = conc.ScalarChernoffParams(n_vars=10, sigma2=0.0, epsilon=0.5)
        report = conc.scalar_chernoff(params, stream, trials=1000)
        assert report.empirical_tail == 0.0

    def test_unrealizable_variance(self, stream):
        params = conc.ScalarChernoffParams(n_vars=20, sigma2=50.0, epsilon=1.0)
        with pytest.raises(ValueError, match="realizable"):
            conc.scalar_chernoff(params, stream)


class TestTraceProductDominance:
    def test_random_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            P = linalg.expm_herm(gue(rng, n))
            assert conc.trace_product_dominance(P, gue(rng, n)).passed

    def test_requires_positive_definite(self, rng):
        with pytest.raises(ValueError, match="positive definite"):
            conc.trace_product_dominance(-np.eye(3), gue(rng, 3))

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(conc.trace_product_dominance,
                                    linalg.expm_herm(gue(rng, 3, 6)),
                                    gue(rng, 3, 6))


class TestBinomialCi:
    def test_edge_cases(self):
        low, high = binomial_ci(0, 100)
        assert low == 0.0 and 0.0 < high < 0.05
        low, high = binomial_ci(100, 100)
        assert high == 1.0 and low > 0.95

    def test_coverage_shape(self):
        low, high = binomial_ci(50, 100)
        assert low < 0.5 < high

    def test_matches_beta_quantiles_exactly(self):
        for N in (1, 2, 10, 100, 8000, 80000, 10**6):
            for k in sorted({k for k in (0, 1, 2, N // 2, N - 1, N) if k <= N}):
                alpha = 1.0 - 0.95
                low, high = binomial_ci(k, N)
                assert low == (beta.ppf(alpha / 2, k, N - k + 1)
                               if k else 0.0), (k, N)
                assert high == (beta.ppf(1 - alpha / 2, k + 1, N - k)
                                if k < N else 1.0), (k, N)

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
        report = TailReport.from_counts(exceed, trials, bound)
        assert report.passed == (report.status == "pass")
        return report.status

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
