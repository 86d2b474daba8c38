import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from gtlab import inequalities as ineq
from gtlab import linalg, pauli, suites
from gtlab.reports import GapReport, checked_real
from gtlab.samplers import RngStream
from conftest import assert_stack_matches_single, gue, ginibre


@st.composite
def graded_products(draw):
    """``(U diag(sigma) V, sigma)`` with Haar unitaries U, V and singular
    values graded from 1 down to 1e-12 (the ones between drawn on a log
    scale)."""
    n = draw(st.integers(2, 6))
    inner = draw(st.lists(st.floats(-12.0, 0.0), min_size=n - 2,
                          max_size=n - 2))
    sigma = 10.0 ** np.concatenate([[0.0], np.sort(inner)[::-1], [-12.0]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, V = unitary_group.rvs(n, size=2, random_state=rng)
    return (U * sigma) @ V, sigma


class TestGoldenThompson:
    def test_commuting_diagonal_equality(self):
        A = np.diag([0.4, -0.9, 1.2])
        B = np.diag([-0.3, 0.8, 0.5])
        report = ineq.gt_gap(A, B)
        assert report.passed
        assert abs(report.margin) <= 1e-10

    def test_two_by_two_closed_forms(self):
        report = ineq.gt_gap(pauli.SIGMA3, pauli.SIGMA1)
        assert abs(report.lhs - 2.0 * math.cosh(math.sqrt(2.0))) <= 1e-12
        assert abs(report.rhs - 2.0 * math.cosh(1.0) ** 2) <= 1e-12
        assert report.passed and report.margin > 0

    def test_random_sweep_no_violations(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 5))
            report = ineq.gt_gap(gue(rng, n), gue(rng, n))
            assert report.passed

    def test_unitary_conjugation_invariance(self, rng, stream):
        A, B = gue(rng, 4), gue(rng, 4)
        base = ineq.gt_gap(A, B)
        for i in range(10):
            U = unitary_group.rvs(4, random_state=stream.child(i).generator())
            rotated = ineq.gt_gap(U @ A @ U.conj().T, U @ B @ U.conj().T)
            scale = max(1.0, abs(base.margin))
            assert abs(rotated.margin - base.margin) <= 1e-9 * scale

    def test_shift_invariance(self, rng):
        A, B = gue(rng, 3), gue(rng, 3)
        base = ineq.gt_gap(A, B)
        for c in (-1.5, 0.7, 2.0):
            shifted = ineq.gt_gap(A + c * np.eye(3), B)
            rescaled = shifted.margin / math.exp(c)
            assert abs(rescaled - base.margin) <= 1e-9 * max(1.0, abs(base.margin))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ineq.gt_gap(np.eye(2), np.eye(3))

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(ineq.gt_gap, gue(rng, 3, 6), gue(rng, 3, 6))


class TestWordBounds:
    def test_cauchy_random(self, rng):
        for _ in range(200):
            report = ineq.cauchy_trace_gap(ginibre(rng, 3), ginibre(rng, 3))
            assert report.passed

    def test_cauchy_equality_at_adjoint(self, rng):
        # Y = X† is Cauchy-Schwarz's equality case: |Tr XX†|^2 = (Tr X†X)^2
        X = ginibre(rng, 3, 5)
        report = ineq.cauchy_trace_gap(X, linalg.adjoint(X))
        assert np.all(np.abs(report.margin) <= report.tol)

    def test_alternating_word_equality(self, rng):
        X = ginibre(rng, 3)
        report = ineq.word_trace_bound(X, ("X", "X*", "X", "X*"))
        assert report.passed
        assert abs(report.margin) <= report.tol

    def test_diagonal_real_equality_any_word(self, rng):
        X = np.diag(rng.standard_normal(4)).astype(complex)
        for word in (("X", "X"), ("X*", "X", "X", "X*"),
                     ("X", "X", "X*", "X", "X", "X*")):
            report = ineq.word_trace_bound(X, word)
            assert report.passed
            # all factors commute and X is real diagonal, so |Tr P| equals
            # the Gram-power trace whenever the word is balanced in total
            # power; the even-length words above are
            assert abs(report.margin) <= report.tol

    def test_random_words(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 5))
            half = int(rng.integers(1, 4))
            word = ["X" if b else "X*"
                    for b in rng.integers(0, 2, size=2 * half)]
            assert ineq.word_trace_bound(ginibre(rng, n), word).passed

    def test_word_validation(self):
        with pytest.raises(ValueError):
            ineq.word_trace_bound(np.eye(2), ("X",))
        with pytest.raises(ValueError):
            ineq.word_trace_bound(np.eye(2), ("X", "Y"))

    def test_dyadic_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            report = ineq.dyadic_power_gap(gue(rng, n), gue(rng, n), k)
            assert report.passed

    def test_stack_matches_single(self, rng):
        X, Y = ginibre(rng, 3, 6), ginibre(rng, 3, 6)
        assert_stack_matches_single(ineq.cauchy_trace_gap, X, Y)
        words = np.where(rng.integers(0, 2, size=(6, 4)) == 1, "X", "X*")
        assert_stack_matches_single(ineq.word_trace_bound, X, words)
        assert_stack_matches_single(
            lambda A, B: ineq.dyadic_power_gap(A, B, 2), gue(rng, 3, 6),
            gue(rng, 3, 6))


class TestWeylKaramata:
    def test_shift_matrix_by_hand(self):
        # singular values (1, 0) and eigenvalues (0, 0): 1 >= 0
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        report = ineq.weyl_dominance_gap(X, s=1, k=2)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(1.0, abs=1e-12)

    def test_karamata_spectral_gap_takes_a_nested_list(self):
        # a normal matrix: singular values equal absolute eigenvalues
        report = ineq.karamata_spectral_gap([[1, 0], [0, 2]])
        assert report.passed
        assert report.margin == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_equality_every_k(self, rng):
        M = gue(rng, 5)
        for k in range(1, 6):
            report = ineq.weyl_dominance_gap(M, s=1, k=k)
            assert abs(report.margin) <= 1e-9 * max(1.0, report.rhs)

    def test_dominance_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            report = ineq.weyl_dominance_gap(ginibre(rng, n),
                                             s=int(rng.integers(1, 3)),
                                             k=int(rng.integers(1, n + 1)))
            assert report.passed

    def test_power_trace_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            report = ineq.power_trace_gap(ginibre(rng, n),
                                          s=int(rng.integers(1, 4)))
            assert report.passed

    def test_karamata_identical_sequences(self):
        a = np.array([2.0, 0.5, -1.0])
        report = ineq.karamata_gap(a, np.sort(a)[::-1], np.zeros_like(a))
        assert abs(report.margin) <= report.tol

    def test_karamata_from_spectra(self, rng):
        for _ in range(100):
            X = ginibre(rng, 4)
            a = np.log(np.clip(linalg.singular_values(X), 1e-300, None))
            lam = np.sort(np.abs(linalg.general_eigen(X)))[::-1]
            b = np.log(np.clip(lam, 1e-300, None))
            assert ineq.karamata_gap(a, b, np.zeros_like(a)).passed

    def test_prefix_violation_raises(self):
        with pytest.raises(ineq.MajorizationError):
            ineq.karamata_gap([0.0, 0.0], [1.0, -1.0], np.zeros(2))

    def test_not_descending_raises(self):
        with pytest.raises(ineq.MajorizationError):
            ineq.karamata_gap([3.0, 3.0], [0.0, 1.0], np.zeros(2))

    def test_stack_matches_single(self, rng):
        X = ginibre(rng, 4, 6)
        k = rng.integers(1, 5, size=6)
        assert_stack_matches_single(
            lambda M, kk: ineq.weyl_dominance_gap(M, s=2, k=kk), X, k)
        assert_stack_matches_single(lambda M: ineq.power_trace_gap(M, s=3), X)
        a = np.log(linalg.singular_values(X))
        b = np.log(np.sort(np.abs(linalg.general_eigen(X)))[:, ::-1])
        assert_stack_matches_single(ineq.karamata_gap, a, b, np.zeros_like(a))

    def test_majorization_checked_row_by_row(self):
        # the second row's first prefix sum of b exceeds that of a
        a = np.array([[2.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert ineq.karamata_gap(a[:1], b[:1], np.zeros((1, 2))).passed.all()
        with pytest.raises(ineq.MajorizationError):
            ineq.validate_majorization_pair(a, b, np.zeros_like(a))

    def test_guard_admits_backward_error_of_ill_conditioned_spectra(self):
        # cond 3e7: the log-spectra's computed determinant endpoints differ
        # by up to 4e-9 (12 of these draws tripped the fixed 1e-10 guard)
        rng = np.random.default_rng(0)
        mu = np.array([3.0, 1.0, 1e-7])
        U = unitary_group.rvs(3, size=100, random_state=rng)
        V = unitary_group.rvs(3, size=100, random_state=rng)
        X = (U * mu) @ V
        for M in X:
            assert ineq.karamata_spectral_gap(M).passed
        report = ineq.karamata_spectral_gap(X)
        assert report.passed.all()

    @given(graded_products())
    @settings(max_examples=60, deadline=None)
    def test_graded_spectra(self, product):
        X, sigma = product
        # forming X and taking its SVD are backward stable: each perturbs
        # every singular value by a small multiple of n eps sigma_1
        bound = 4 * sigma.size * np.finfo(np.float64).eps * sigma[0] / sigma
        got = linalg.singular_values(X)
        assert np.all(np.abs(got - sigma) / sigma <= bound)
        assert ineq.karamata_spectral_gap(X).passed

    def test_guard_still_catches_a_real_deficit(self):
        mu = np.array([3.0, 1.0, 1e-7])
        a = np.log(mu)
        unit = 3 * np.finfo(np.float64).eps * mu[0]
        err = 2.0 * unit / mu
        # the widest prefix: last entry, guard ~1e-10 * 16 + 4e-8
        ineq.validate_majorization_pair(a, a, err)
        with pytest.raises(ineq.MajorizationError):
            ineq.validate_majorization_pair(a, a + [0.0, 0.0, 1e-6], err)
        with pytest.raises(ineq.MajorizationError):
            ineq.karamata_gap(a, a + [1e-6, 0.0, 0.0], err=err)

    @given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
           st.lists(st.floats(0.0, 3.0), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_karamata_property(self, b_raw, slack):
        b = np.sort(np.asarray(b_raw))[::-1]
        m = b.size
        prefix_b = np.cumsum(b)
        prefix_a = prefix_b + np.asarray(slack[:m])
        a = np.diff(np.concatenate([[0.0], prefix_a]))
        assert ineq.karamata_gap(a, b, np.zeros_like(a)).passed


def alt_of_exponentials(A, B, r, s):
    """The Araki-Lieb-Thirring check on ``(e^A, e^B)``, as the Eq.ALT sweep
    draws it."""
    return ineq.alt_trace_gap(linalg.expm_herm(A), linalg.expm_herm(B), r, s)


class TestNormVariants:
    def test_schatten_one_matches_trace_gap(self, rng):
        A, B = gue(rng, 3), gue(rng, 3)
        trace_report = ineq.gt_gap(A, B)
        norm_report = ineq.schatten_gap(A, B, p=1)
        assert norm_report.lhs == pytest.approx(trace_report.lhs, rel=1e-10)
        assert norm_report.rhs == pytest.approx(trace_report.rhs, rel=1e-10)

    def test_commuting_log_metric_equality(self):
        A = np.diag([0.6, -0.2, 1.1])
        B = np.diag([-0.4, 0.9, 0.3])
        report = ineq.log_metric_gap(A, B)
        assert abs(report.margin) <= 1e-10

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_schatten_sweep(self, p, rng):
        for _ in range(150):
            n = int(rng.integers(2, 7))
            assert ineq.schatten_gap(gue(rng, n), gue(rng, n), p=p).passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_symmetrized_sweep(self, p, rng):
        for _ in range(150):
            n = int(rng.integers(2, 6))
            assert ineq.symmetrized_gap(gue(rng, n), gue(rng, n), p=p).passed

    def test_log_metric_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            assert ineq.log_metric_gap(gue(rng, n), gue(rng, n)).passed

    @pytest.mark.parametrize("r,s", [(2.0, 1.0), (2.0, 3.0), (3.0, 0.5)])
    def test_alt_sweep(self, r, s, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            assert alt_of_exponentials(gue(rng, n), gue(rng, n), r=r,
                                       s=s).passed

    def test_alt_rejects_indefinite(self, rng):
        M = gue(rng, 3)
        M = M - (np.linalg.eigvalsh(M)[-1] + 1.0) * np.eye(3)  # negative definite
        with pytest.raises(ValueError, match="positive definite"):
            ineq.alt_trace_gap(-M, M, 2.0, 1.0)

    def test_alt_parameter_domain(self):
        with pytest.raises(ValueError):
            ineq.alt_trace_gap(np.eye(2), np.eye(2), 0.5, 1.0)

    def test_weak_majorization_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            assert ineq.weak_majorization_gap(gue(rng, n), gue(rng, n)).passed

    def test_weak_majorization_margin_is_the_worst_partial_sum(self):
        # recomputed through scipy's Pade exponential and numpy's SVD; at
        # this stack the worst partial sum falls past k = 1 for hundreds of
        # pairs, so a margin read at the wrong index differs there
        rng = RngStream(5).generator()
        A, B = gue(rng, 4, 2000), gue(rng, 4, 2000)
        mu = np.cumsum(np.linalg.svd(expm(A) @ expm(B), compute_uv=False),
                       axis=-1)
        lam = np.cumsum(np.exp(np.linalg.eigvalsh(A + B))[..., ::-1], axis=-1)
        gaps = mu - lam
        assert np.count_nonzero(np.argmin(gaps, axis=-1) > 0) >= 100
        report = ineq.weak_majorization_gap(A, B)
        assert np.all(np.abs(report.margin - gaps.min(axis=-1))
                      <= 1e-10 * lam[:, -1])

    def test_phi_exponential_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            assert ineq.phi_exp_gap(gue(rng, n), gue(rng, n),
                                    k=int(rng.integers(1, n + 1))).passed

    def test_phi_premise_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            assert ineq.phi_power_premise_gap(ginibre(rng, n),
                                              s=int(rng.integers(1, 3)),
                                              k=int(rng.integers(1, n + 1))).passed

    @pytest.mark.parametrize("variant,kwargs", [
        ("schatten", {"p": 1.0}), ("schatten", {"p": np.inf}),
        ("symmetrized", {"p": 2.0}), ("log-metric", {}),
        ("alt", {"r": 2.0, "s": 3.0}), ("weak-majorization", {})])
    def test_stack_matches_single(self, variant, kwargs, rng):
        check = {"schatten": ineq.schatten_gap,
                 "symmetrized": ineq.symmetrized_gap,
                 "log-metric": ineq.log_metric_gap,
                 "alt": alt_of_exponentials,
                 "weak-majorization": ineq.weak_majorization_gap}[variant]
        assert_stack_matches_single(lambda A, B: check(A, B, **kwargs),
                                    gue(rng, 3, 6), gue(rng, 3, 6))

    def test_spectral_functionals_stack_matches_single(self, rng):
        k = rng.integers(1, 4, size=6)
        assert_stack_matches_single(ineq.phi_exp_gap, gue(rng, 3, 6),
                                    gue(rng, 3, 6), k)
        X = ginibre(rng, 3, 6)
        assert_stack_matches_single(
            lambda M, kk: ineq.phi_power_premise_gap(M, s=2, k=kk), X, k)
        assert_stack_matches_single(ineq.top_k_abs_eigensum, X, k)
        P = linalg.expm_herm(gue(rng, 3, 6))
        assert_stack_matches_single(
            lambda A, B: ineq.alt_trace_gap(A, B, 3.0, 0.5), P, P[::-1])


class TestNonHermitian:
    def test_normal_matrix_equality(self, rng):
        # a normal matrix's Hermitian part has eigenvalues Re(lambda_i)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        U = unitary_group.rvs(4, random_state=RngStream(5, (1,)).generator())
        A = U @ np.diag(w) @ U.conj().T
        report = ineq.hermitian_part_dominance(A)
        assert abs(report.margin) <= 1e-9

    def test_shift_matrix_hermitian_part(self):
        report = ineq.hermitian_part_dominance(np.array([[0.0, 1.0],
                                                         [0.0, 0.0]]))
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.5, abs=1e-12)

    def test_phi_gap_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = 1 if rng.integers(0, 2) else n
            assert ineq.nonhermitian_phi_gap(ginibre(rng, n), ginibre(rng, n),
                                             k=k).passed

    @pytest.mark.parametrize("kind, bound", [
        ("ginibre", 1e-12), ("ginibre-x8", 1e-12), ("triangular-x5", 1e-12),
        ("near-defective", 1e-5)])
    def test_phi_lhs_against_50_digit_reference(self, kind, bound):
        # the left side against the eigenvalues of the same double-precision
        # matrix in mpmath at 50 digits.  A unitary conjugate of a Jordan
        # block with a 1e-13 corner has eigenvalues conditioned like
        # 1e-13^(1/n - 1), which limits any double-precision route; there
        # the error stays within 10x that of e^M by scaling and squaring
        mp = pytest.importorskip("mpmath")
        import scipy.linalg
        for n in range(2, 6):
            rng = RngStream(4101, (n,)).generator()
            if kind == "near-defective":
                J = np.eye(n, k=1, dtype=complex)
                J[n - 1, 0] = 1e-13
                lam = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                U = unitary_group.rvs(n, size=6, random_state=rng)
                M = U @ (J + lam[:, None, None] * np.eye(n)) \
                    @ U.conj().swapaxes(-1, -2)
            else:
                M = ginibre(rng, n, 6) * {"ginibre": 1, "ginibre-x8": 8,
                                          "triangular-x5": 5}[kind]
                if kind == "triangular-x5":
                    M = np.triu(M)
            with mp.workdps(50):
                mods = [sorted((mp.exp(mp.re(e)) for e in
                                mp.eig(mp.matrix(m.tolist()))[0]),
                               reverse=True) for m in M]
            for k in (1, n):
                reference = np.array([float(mp.fsum(v[:k])) for v in mods])
                lhs = ineq.nonhermitian_phi_gap(M, np.zeros_like(M), k).lhs
                error = np.max(np.abs(lhs - reference) / reference)
                assert error <= bound, (n, k, error)
                if kind == "near-defective":
                    old = ineq.top_k_abs_eigensum(scipy.linalg.expm(M), k)
                    old_error = np.max(np.abs(old - reference) / reference)
                    assert error <= max(10 * old_error, 1e-12), \
                        (n, k, error, old_error)

    def test_hermitian_part_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            assert ineq.hermitian_part_dominance(ginibre(rng, n)).passed

    def test_stack_matches_single(self, rng):
        A, B = ginibre(rng, 3, 6), ginibre(rng, 3, 6)
        assert_stack_matches_single(ineq.nonhermitian_phi_gap, A, B,
                                    rng.integers(1, 4, size=6))
        assert_stack_matches_single(ineq.hermitian_part_dominance, A)


class TestLiebTriple:
    def test_c_zero_reduces_to_product_trace(self, rng):
        A, B = gue(rng, 4), gue(rng, 4)
        Z = np.zeros((4, 4))
        rhs = ineq.lieb_rhs_closed(A, B, Z)
        direct = float(np.trace(linalg.expm_herm(A) @ linalg.expm_herm(B)).real)
        assert abs(rhs - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_commuting_bc_three_factor_bound(self, rng):
        A = gue(rng, 3)
        B = np.diag(rng.standard_normal(3)).astype(complex)
        C = np.diag(rng.standard_normal(3)).astype(complex)
        report = ineq.lieb_triple_gap(A, B, C)
        assert report.passed
        # with [B, C] = 0 the three-factor product bound itself holds
        prod = np.trace(linalg.expm_herm(A) @ linalg.expm_herm(B)
                        @ linalg.expm_herm(C))
        assert report.lhs <= prod.real + 1e-9 * max(1.0, abs(prod))

    @given(st.floats(-6.0, 6.0), st.floats(-10.0, -5.0), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_kernel_near_equal_eigenvalues(self, log_g, log10_x, negative):
        gj = math.exp(log_g)
        gi = gj * (1.0 - 10.0 ** log10_x if negative else 1.0 + 10.0 ** log10_x)
        # the exact relative gap of the two floats, then the series of
        # log1p(x)/x to four terms (truncation below 1e-20 relative)
        x = float((Fraction(gi) - Fraction(gj)) / Fraction(gj))
        reference = (1.0 - x / 2.0 + x * x / 3.0 - x ** 3 / 4.0) / gj
        K = ineq._lieb_kernel(np.array([gi, gj]))
        assert abs(K[0, 1] - reference) <= 1e-13 * reference
        assert K[1, 0] == K[0, 1]
        assert K[1, 1] == 1.0 / gj

    def test_quadrature_agreement(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A, B, C = gue(rng, n), gue(rng, n), gue(rng, n)
            cf = ineq.lieb_rhs_closed(A, B, C)
            qd = ineq.lieb_rhs_quadrature(A, B, C)
            assert abs(cf - qd) <= 1e-8 * max(1.0, abs(cf))

    @pytest.mark.parametrize("scale", [2.0, 3.0])
    def test_quadrature_agreement_on_scaled_triples(self, scale):
        # scaled triples spread e^-C over up to ten decades: the resolvent
        # peaks sharply near t = 0, where QUADPACK used to miss by up to 100%
        rng = RngStream(11, (int(scale),)).generator()
        for _ in range(40):
            n = int(rng.integers(2, 6))
            A, B, C = (scale * gue(rng, n) for _ in range(3))
            cf = ineq.lieb_rhs_closed(A, B, C)
            qd = ineq.lieb_rhs_quadrature(A, B, C)
            assert abs(cf - qd) <= 1e-8 * max(1.0, abs(cf)), (n, cf, qd)

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadrature_against_50_digit_reference(self, n):
        # the integral itself, in mpmath at 50 digits: exponentials, resolvent
        # and tanh-sinh quadrature all in extended precision
        mp = pytest.importorskip("mpmath")
        rng = RngStream(2024, (n,)).generator()
        A, B, C = gue(rng, n), gue(rng, n), gue(rng, n)
        with mp.workdps(50):
            eA, eB, emC = (mp.expm(mp.matrix(M.tolist())) for M in (A, B, -C))

            def integrand(t):
                R = mp.inverse(t * mp.eye(n) + emC)
                P = eA * R * eB * R
                return mp.re(sum(P[i, i] for i in range(n)))

            reference = float(mp.quad(integrand, [0, 1, mp.inf]))
        qd = ineq.lieb_rhs_quadrature(A, B, C)
        assert abs(qd - reference) <= 1e-10 * max(1.0, abs(reference))

    def test_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            assert ineq.lieb_triple_gap(gue(rng, n), gue(rng, n),
                                        gue(rng, n)).passed

    @staticmethod
    def _suite_case():
        cases = suites.run_suite("inequalities",
                                 suites.SuiteParams(seed=1, trials=20, dims=(3,)))
        return next(c for c in cases if c.name == "lieb-triple")

    def test_cross_check_mode_runs(self):
        # the suite re-evaluates its leading triples through quadrature
        case = self._suite_case()
        assert case.status == "pass"
        assert case.extra["closed_vs_quadrature"] <= 1e-8

    def test_stack_matches_single(self, rng):
        stacks = gue(rng, 3, 6), gue(rng, 3, 6), gue(rng, 3, 6)
        assert_stack_matches_single(ineq.lieb_rhs_closed, *stacks)
        assert_stack_matches_single(ineq.lieb_triple_gap, *stacks)

    def test_cross_check_flags_kernel_bug(self, monkeypatch):
        monkeypatch.setattr(ineq, "lieb_rhs_quadrature",
                            lambda *a, **k: -1.0)
        case = self._suite_case()
        assert case.status == "fail" and not case.passed
        assert case.extra["closed_vs_quadrature"] > 1e-8

    def test_degenerate_kernel_eigenvalues(self):
        # repeated eigenvalues of e^-C exercise the series branch
        A = np.diag([0.5, -0.5, 0.1])
        B = np.diag([0.2, 0.9, -0.3])
        C = np.diag([0.7, 0.7, 0.7])
        cf = ineq.lieb_rhs_closed(A, B, C)
        qd = ineq.lieb_rhs_quadrature(A, B, C)
        assert abs(cf - qd) <= 1e-8 * max(1.0, abs(cf))


class TestCounterexamples:
    def test_triple_witness_found(self, stream):
        witness = ineq.triple_gt_scan(stream, budget=100000)
        assert witness is not None
        assert witness.lhs > witness.rhs
        A, B, C = witness.matrices
        lhs = linalg.trace_expm(A + B + C)
        rhs = abs(np.trace(linalg.expm_herm(A) @ linalg.expm_herm(B)
                           @ linalg.expm_herm(C)))
        # the recorded sides are those of the recorded matrices
        assert (witness.lhs, witness.rhs) == pytest.approx((lhs, rhs),
                                                           rel=1e-12)
        assert lhs > rhs

    def test_abc_witness_found(self, stream):
        witness = ineq.abc_trace_scan(stream, budget=100000)
        assert witness is not None
        A, B, C = witness.matrices
        lhs = abs(np.trace(np.linalg.matrix_power(A @ B @ C, 2)))
        rhs = np.trace(A @ A @ B @ B @ C @ C).real
        assert lhs > rhs

    def test_zero_third_matrix_never_violates(self, stream):
        # pinning C to zero reduces the hunt to the two-matrix theorem, so a
        # witness found there is a bug in the hunt
        assert ineq.triple_gt_scan(_ZeroThirdStream(stream), budget=10000) \
            is None


class _ZeroThirdStream:
    """Stands in for a stream so that ``triple_gt_scan`` draws ``a`` and
    ``b`` from ``stream`` and a zero ``c``: the third draw of each block
    is zeros."""

    def __init__(self, stream):
        self.stream = stream

    def blocks(self, total, entries):
        for start, count, rng in self.stream.blocks(total, entries):
            self.rng, self.draws = rng, 0
            yield start, count, self

    def standard_normal(self, shape):
        self.draws += 1
        return np.zeros(shape) if self.draws == 3 \
            else self.rng.standard_normal(shape)


def law_gap(a, b):
    """:func:`~gtlab.inequalities.pauli_law_gap` on the right side of
    ``pauli_reduce_gap(a, b)``."""
    return ineq.pauli_law_gap(a, b, ineq.pauli_reduce_gap(a, b).rhs)


class TestPauliReduce:
    def test_opposite_vectors_equality(self):
        a = np.array([0.3, -1.2, 0.5])
        cosh, law = ineq.pauli_reduce_gap(a, -a), law_gap(a, -a)
        assert cosh.lhs == pytest.approx(1.0, abs=1e-12)
        assert cosh.rhs == pytest.approx(1.0, abs=1e-12)
        assert cosh.passed and law.passed and law.lhs == 0.0

    def test_orthogonal_frozen_values(self):
        a, b = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        cosh, law = ineq.pauli_reduce_gap(a, b), law_gap(a, b)
        assert cosh.lhs == pytest.approx(math.cosh(math.sqrt(2.0)), abs=1e-12)
        assert cosh.rhs == pytest.approx(math.cosh(1.0) ** 2, abs=1e-12)
        assert law.lhs == pytest.approx(2.0, abs=1e-12)
        assert law.rhs == pytest.approx(math.acosh(math.cosh(1.0) ** 2) ** 2,
                                        abs=1e-12)
        assert cosh.passed and law.passed

    def test_sweep_vectorized(self, rng):
        a = rng.standard_normal((100000, 3))
        b = rng.standard_normal((100000, 3))
        for check in (ineq.pauli_reduce_gap, law_gap):
            assert check(a, b).passed.all()

    def test_one_row_sweeps_pass(self, rng):
        # one pair at a time agrees with the stacked call, and passes
        a, b = rng.standard_normal((2, 200, 3))
        for check in (ineq.pauli_reduce_gap, law_gap):
            assert_stack_matches_single(check, a, b)
            assert check(a, b).passed.all()


class TestEqualityOrderScan:
    def test_commuting_gap_vanishes(self):
        A = np.diag([0.8, -0.4, 0.3])
        B = np.diag([0.1, 0.9, -0.6])
        result = ineq.equality_order_scan(A, B)
        assert result.commuting
        assert np.max(np.abs(result.gaps)) <= 1e-12
        assert result.slope is None

    def test_pauli_pair_fourth_order(self):
        result = ineq.equality_order_scan(pauli.SIGMA3, pauli.SIGMA1)
        assert not result.commuting
        assert abs(result.slope - 4.0) <= 0.05
        # hand expansion: the quartic coefficient is the squared commutator
        # Frobenius norm over 24, here 8/24
        assert result.coefficient == pytest.approx(1.0 / 3.0, rel=1e-3)

    def test_scaling_consistency(self, rng):
        A, B = gue(rng, 3), gue(rng, 3)
        base = ineq.equality_order_scan(A, B)
        doubled = ineq.equality_order_scan(2.0 * A, B)
        comm = A @ B - B @ A
        # doubling A doubles the commutator, so the quartic coefficient
        # picks up a factor 4
        assert doubled.coefficient / base.coefficient == pytest.approx(4.0,
                                                                       rel=1e-2)
        expected = float(np.linalg.norm(comm) ** 2 / 24.0)
        assert base.coefficient == pytest.approx(expected, rel=1e-2)


class TestOscillator:
    def test_frozen_values(self):
        unit = ineq.oscillator_bound(1.0)
        assert unit.lhs == pytest.approx(1.0 / math.sinh(1.0), abs=1e-12)
        assert unit.passed
        tiny = ineq.oscillator_bound(1e-6)
        assert tiny.margin < 1e-6
        assert tiny.passed
        ten = ineq.oscillator_bound(10.0)
        assert ten.lhs == pytest.approx(9.08e-5, rel=1e-3)
        assert ten.rhs == pytest.approx(0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ineq.oscillator_bound(0.0)

    def test_large_beta_underflows_cleanly(self):
        report = ineq.oscillator_bound(1000.0)
        assert report.lhs == 0.0
        assert report.passed

    def test_stack_matches_single(self):
        assert_stack_matches_single(ineq.oscillator_bound,
                                    np.array([1e-6, 0.5, 10.0, 700.0, 1000.0]))

    @given(st.floats(min_value=1e-8, max_value=700.0))
    @settings(max_examples=100, deadline=None)
    def test_holds_on_domain(self, beta):
        assert ineq.oscillator_bound(beta).passed


class TestGapReportPolicy:
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_pass_iff_margin_within_tolerance(self, lhs, rhs):
        report = GapReport.from_sides(lhs, rhs)
        assert report.margin == rhs - lhs
        assert report.passed == (report.margin >= -report.tol)

    def test_stack_matches_single(self, rng):
        lhs, rhs = rng.standard_normal(8) * 1e3, rng.standard_normal(8) * 1e3
        assert_stack_matches_single(GapReport.from_sides, lhs, rhs)
        # one instance gives 0-d fields, equal to the stack's member; the
        # case record alone makes Python numbers
        stack = GapReport.from_sides(lhs, rhs)
        single = GapReport.from_sides(lhs[0], rhs[0])
        for field in ("lhs", "rhs", "margin", "passed", "tol"):
            value = getattr(single, field)
            assert np.ndim(value) == 0
            assert value == getattr(stack, field)[0]
        case = suites._gap_case("case", "Eq.1", single, 1)
        assert type(case.lhs) is float and type(case.rhs) is float
        assert type(case.margin) is float and type(case.passed) is bool

    def test_checked_real_stack(self):
        values = np.array([1.0 + 1e-13j, -2.0 + 0j])
        np.testing.assert_array_equal(checked_real(values, "values"),
                                      [1.0, -2.0])
        with pytest.raises(ValueError, match="imaginary residue"):
            checked_real(np.array([1.0, 1.0 + 1e-3j]), "values")
