import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import unitary_group

import gtlab
from gtlab import concentration as conc
from gtlab import inequalities as ineq
from gtlab import linalg, pauli
from conftest import assert_stack_matches_single, gue, ginibre


def charpoly_coefficients(M):
    """Faddeev-LeVerrier recursion: trace-based characteristic polynomial
    coefficients, independent of any eigensolver."""
    n = M.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.zeros_like(M)
    ck = 1.0 + 0j
    for k in range(1, n + 1):
        aux = M @ aux + ck * M
        ck = -np.trace(aux) / k
        coeffs[k] = ck
    return coeffs


class TestHermEigen:
    def test_identity(self):
        values, basis = linalg.herm_eigen(np.eye(3))
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_signs(self):
        values, _ = linalg.herm_eigen(pauli.SIGMA3)
        np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)

    def test_matches_characteristic_polynomial_roots(self, rng):
        M = gue(rng, 5)
        values, _ = linalg.herm_eigen(M)
        roots = np.roots(charpoly_coefficients(M))
        np.testing.assert_allclose(values, np.sort(roots.real)[::-1], atol=1e-8)

    def test_basis_unitary_and_reconstructs(self, rng):
        for n in (2, 4, 7):
            M = gue(rng, n)
            values, U = linalg.herm_eigen(M)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n), 2) <= 1e-10
            recon = (U * values) @ U.conj().T
            assert np.linalg.norm(recon - M, 2) <= 1e-9 * np.linalg.norm(M, 2)

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(linalg.herm_eigen, gue(rng, 4, 6))


class TestGeneralEigen:
    def test_nilpotent(self):
        values = linalg.general_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(values, [0.0, 0.0], atol=1e-12)

    def test_two_by_two_quadratic_formula(self, rng):
        for _ in range(50):
            M = ginibre(rng, 2)
            tr, det = np.trace(M), np.linalg.det(M)
            disc = np.sqrt(tr * tr - 4.0 * det)
            expected = sorted([(tr + disc) / 2.0, (tr - disc) / 2.0],
                              key=lambda z: (-z.real, -abs(z)))
            got = linalg.general_eigen(M)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_trace_and_determinant_identities(self, rng):
        M = ginibre(rng, 6)
        values = linalg.general_eigen(M)
        assert abs(values.sum() - np.trace(M)) <= 1e-9 * abs(np.trace(M))
        det = np.linalg.det(M)
        assert abs(np.prod(values) - det) <= 1e-8 * abs(det)

    def test_agrees_with_hermitian_route(self, rng):
        M = gue(rng, 5)
        general = np.sort(linalg.general_eigen(M).real)
        hermitian = np.sort(linalg.herm_eigen(M)[0])
        np.testing.assert_allclose(general, hermitian, atol=1e-8)

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(linalg.general_eigen, ginibre(rng, 4, 6))


class TestSingularValues:
    def test_unitary_gives_ones(self, rng):
        Q, _ = np.linalg.qr(ginibre(rng, 4))
        np.testing.assert_allclose(linalg.singular_values(Q), np.ones(4),
                                   atol=1e-10)

    def test_shift_matrix_by_hand(self):
        # X†X = diag(0, 1), so the singular values are (1, 0)
        mu = linalg.singular_values(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(mu, [1.0, 0.0], atol=1e-14)

    def test_hermitian_case_absolute_eigenvalues(self, rng):
        M = gue(rng, 5)
        mu = linalg.singular_values(M)
        lam = np.sort(np.abs(linalg.herm_eigen(M)[0]))[::-1]
        np.testing.assert_allclose(mu, lam, atol=1e-10)

    def test_frobenius_consistency(self, rng):
        X = ginibre(rng, 6)
        mu = linalg.singular_values(X)
        gram_trace = np.trace(X.conj().T @ X).real
        assert abs((mu ** 2).sum() - gram_trace) <= 1e-10 * gram_trace

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(linalg.singular_values, ginibre(rng, 4, 6))

    def test_ill_conditioned_smallest_value(self, rng):
        # cond 3e7: the eigenvalues of X†X (cond 9e14) lose the smallest
        # singular value to rounding (13% off on these draws)
        mu = np.array([3.0, 1.0, 1e-7])
        U = unitary_group.rvs(3, size=100, random_state=rng)
        V = unitary_group.rvs(3, size=100, random_state=rng)
        got = linalg.singular_values((U * mu) @ V)
        np.testing.assert_allclose(got, np.broadcast_to(mu, got.shape),
                                   rtol=1e-6, atol=0)


def phi_exp_lhs(M, k):
    """The left side of Eq.4.1a, ``sum of the k largest |lambda(e^M)|``, as
    ``nonhermitian_phi_gap`` evaluates it for the pair ``(M, 0)``."""
    return ineq.nonhermitian_phi_gap(M, np.zeros_like(M), k).lhs


class TestExpm:
    def test_zero_matrix(self):
        for k in (1, 2, 3):
            assert phi_exp_lhs(np.zeros((3, 3)), k) == k

    def test_general_route_triangular_closed_form(self, rng):
        # the eigenvalues of exp([[a, c], [0, b]]) are e^a and e^b
        for _ in range(25):
            a, b, c = (rng.standard_normal(3)
                       + 1j * rng.standard_normal(3)) * 0.8
            M = np.array([[a, c], [0.0, b]])
            ea, eb = np.exp(a.real), np.exp(b.real)
            assert phi_exp_lhs(M, 2) == pytest.approx(ea + eb, rel=1e-12)
            assert phi_exp_lhs(M, 1) == pytest.approx(max(ea, eb), rel=1e-12)

    def test_general_route_heavy_scaling(self, rng):
        # a norm ~40 off-diagonal, where a scaling-and-squaring exponential
        # needs several squarings, leaves the spectrum alone
        a, b, c = 2.0 + 1.0j, -1.5 + 0.5j, 40.0
        M = np.array([[a, c], [0.0, b]])
        ea, eb = np.exp(a.real), np.exp(b.real)
        assert phi_exp_lhs(M, 2) == pytest.approx(ea + eb, rel=1e-12)
        assert phi_exp_lhs(M, 1) == pytest.approx(ea, rel=1e-12)

    def test_trace_expm_spectrum_sum(self, rng):
        M = gue(rng, 6)
        direct = np.exp(linalg.herm_eigen(M)[0]).sum()
        assert abs(linalg.trace_expm(M) - direct) <= 1e-10 * direct

    @pytest.mark.parametrize("fn", [
        linalg.expm_herm, linalg.trace_expm,
        lambda M: linalg.herm_fn(M, np.cos),
        lambda M: linalg.psd_power(linalg.expm_herm(M), 0.7)])
    def test_hermitian_routes_stack_matches_single(self, fn, rng):
        assert_stack_matches_single(fn, gue(rng, 3, 6))

    def test_trace_of_product_stack_matches_single(self, rng):
        A = linalg.expm_herm(gue(rng, 3, 6))
        B = linalg.expm_herm(gue(rng, 3, 6))
        assert_stack_matches_single(
            lambda a, b: linalg.trace_of_product(a, b, "trace"), A, B)

    def test_trace_of_product_rejects_complex_trace(self):
        with pytest.raises(ValueError, match="imaginary residue"):
            linalg.trace_of_product(np.eye(2), 1j * np.eye(2), "trace")


class TestSinhc:
    def test_limit_at_zero(self):
        assert pauli.sinhc(0.0) == 1.0

    def test_series_matches_direct_at_cutoff(self):
        for r in (0.9e-4, 1.1e-4):
            direct = np.sinh(r) / r
            assert abs(pauli.sinhc(r) - direct) <= 1e-13


class TestPauliClosedForms:
    """One value per vector, 0-d for one vector."""

    def test_stack_matches_single(self, rng):
        a, b, c = rng.standard_normal((3, 6, 3))
        for fn, args in ((pauli.squared_norm_identity_residual, (a,)),
                         (pauli.trace_exp_sum, (a, b)),
                         (lambda a, b: pauli.product_terms(a, b)[0], (a, b)),
                         (lambda a, b: pauli.product_terms(a, b)[1], (a, b)),
                         (pauli.trace_exp_triple, (a, b, c))):
            assert_stack_matches_single(fn, *args)
            assert fn(*args).shape == (6,)
            assert np.ndim(fn(*(x[0] for x in args))) == 0


class TestNorms:
    def test_schatten_one_of_diagonal(self):
        assert abs(linalg.schatten_norm(np.diag([3.0, -4.0]), 1) - 7.0) <= 1e-12

    def test_schatten_two_is_frobenius(self, rng):
        X = ginibre(rng, 5)
        s2 = linalg.schatten_norm(X, 2)
        fro = linalg.frobenius_norm(X)
        assert abs(s2 - fro) <= 1e-12 * fro

    def test_operator_norm_hermitian_extremes(self, rng):
        M = gue(rng, 5)
        w, _ = linalg.herm_eigen(M)
        expected = max(-w[-1], w[0])
        assert abs(linalg.operator_norm(M) - expected) <= 1e-12 * expected

    def test_order_validation(self):
        with pytest.raises(ValueError):
            linalg.schatten_norm(np.eye(2), 0.5)

    @pytest.mark.parametrize("fn", [
        linalg.operator_norm, linalg.frobenius_norm,
        *(lambda X, p=p: linalg.schatten_norm(X, p)
          for p in (1.0, 2.0, 4.0, np.inf))])
    def test_stack_matches_single(self, fn, rng):
        assert_stack_matches_single(fn, ginibre(rng, 4, 6))


class TestDelta2:
    def test_distance_to_identity_is_frobenius(self, rng):
        A = gue(rng, 4)
        d = linalg.distance_delta2(A, np.zeros((4, 4)))
        assert abs(d - linalg.frobenius_norm(A)) <= 1e-10

    def test_symmetry(self, rng):
        A, B = gue(rng, 4), gue(rng, 4)
        d1 = linalg.distance_delta2(A, B)
        d2 = linalg.distance_delta2(B, A)
        assert abs(d1 - d2) <= 1e-10 * max(1.0, d1)

    def test_rejects_nonhermitian(self, rng):
        with pytest.raises(ValueError):
            linalg.distance_delta2(ginibre(rng, 3), gue(rng, 3))

    def test_stack_matches_single(self, rng):
        assert_stack_matches_single(linalg.distance_delta2, gue(rng, 3, 6),
                                    gue(rng, 3, 6))

    def test_underflow_guard_keeps_value_finite(self):
        # eigenvalues of the exponential below the double range are clamped
        A = np.diag([-800.0, 0.0])
        value = linalg.distance_delta2(A, np.zeros((2, 2)))
        assert np.isfinite(value) and value > 0.0


class TestLieTrotter:
    def test_single_step_is_plain_product(self):
        A, B = np.diag([0.3, -0.2]), pauli.SIGMA1
        expected = linalg.expm_herm(A) @ linalg.expm_herm(
            linalg.hermitize(B))
        np.testing.assert_allclose(linalg.lie_trotter_product(A, B, 1),
                                   expected, atol=1e-13)

    def test_commuting_diagonal_exact(self):
        A = np.diag([0.5, -1.0, 0.25])
        B = np.diag([-0.75, 0.4, 1.0])
        target = linalg.expm_herm(A + B)
        for n in (1, 2, 7, 64):
            got = linalg.lie_trotter_product(A, B, n)
            assert np.abs(got - target).max() <= 1e-12

    def test_first_order_convergence(self):
        A, B = pauli.SIGMA3, pauli.SIGMA1
        target = linalg.expm_herm(linalg.hermitize(A + B))
        ns = [2 ** j for j in range(1, 11)]
        devs = [linalg.operator_norm(linalg.lie_trotter_product(A, B, n) - target)
                for n in ns]
        slope, _ = np.polyfit(np.log(ns), np.log(devs), 1)
        assert abs(slope + 1.0) <= 0.1

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            linalg.lie_trotter_product(np.eye(2), np.eye(2), 0)


class TestValidation:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match=r"^M must be a square matrix, "
                                             r"got shape \(2, 3\)$"):
            linalg.as_complex_matrix(np.ones((2, 3)), "M")

    def test_rejects_nonfinite(self):
        M = np.eye(2, dtype=complex)
        M[0, 1] = np.nan
        with pytest.raises(ValueError, match="^M must have finite entries$"):
            linalg.as_complex_matrix(M, "M")

    def test_hermitize_symmetrizes(self, rng):
        X = ginibre(rng, 4)
        H = linalg.hermitize(X)
        assert np.array_equal(H, H.conj().T)

    @pytest.mark.parametrize(
        "fn", [lambda M: linalg.as_complex_matrix(M, "M"), linalg.hermitize,
               linalg.adjoint],
        ids=["as_complex_matrix", "hermitize", "adjoint"])
    def test_stack_matches_single(self, fn, rng):
        assert_stack_matches_single(fn, ginibre(rng, 3, 4))

    def test_hermitian_check_per_member(self, rng):
        stack = np.stack([gue(rng, 3), ginibre(rng, 3), gue(rng, 3)])
        assert linalg.is_hermitian(stack).tolist() == [True, False, True]
        assert_stack_matches_single(
            lambda M: linalg.require_hermitian(M, "stack"), stack[[0, 2]])
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.require_hermitian(stack, "stack")

    def test_stack_scale_is_per_matrix(self):
        # the first member is off Hermitian by 1e-8 at unit scale; measured
        # against its 1e6-norm neighbour it would pass as rounding noise
        slightly_off = np.eye(2) + np.array([[0.0, 1e-8], [0.0, 0.0]])
        stack = np.stack([slightly_off, 1e6 * np.eye(2)])
        assert linalg.is_hermitian(stack).tolist() == [False, True]
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.require_hermitian(stack, "stack")

    def test_stack_rejects_nonfinite_member(self, rng):
        stack = gue(rng, 3, 4)
        stack[2, 0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            linalg.as_complex_matrix(stack, "stack")


#: Every caller of ``linalg.hermitian_args``, the number of Hermitian
#: arguments it takes and the other arguments it is called with.
HERMITIAN_ARG_CALLERS = [
    (ineq.gt_gap, 2, ()),
    (ineq.dyadic_power_gap, 2, (1,)),
    (ineq.phi_exp_gap, 2, (1,)),
    (ineq.alt_trace_gap, 2, (2.0, 1.0)),
    (ineq.schatten_gap, 2, (2.0,)),
    (ineq.symmetrized_gap, 2, (2.0,)),
    (ineq.log_metric_gap, 2, ()),
    (ineq.weak_majorization_gap, 2, ()),
    (ineq.equality_order_scan, 2, ()),
    (ineq.lieb_rhs_closed, 3, ()),
    (ineq.lieb_rhs_quadrature, 3, ()),
    (ineq.lieb_triple_gap, 3, ()),
    (linalg.distance_delta2, 2, ()),
    (linalg.lie_trotter_product, 2, (2,)),
    (conc.trace_product_dominance, 2, ()),
]
CALLER_IDS = [fn.__name__ for fn, _, _ in HERMITIAN_ARG_CALLERS]


class TestHermitianArgs:
    """Every function that takes a tuple of Hermitian matrices admits it by
    ``hermitian_args``: a non-Hermitian argument and unequal shapes raise a
    ``ValueError`` naming the function."""

    def test_every_caller_is_listed(self):
        callers = {
            fn.__qualname__
            for info in pkgutil.iter_modules(gtlab.__path__)
            for fn in vars(importlib.import_module(f"gtlab.{info.name}")).values()
            if inspect.isfunction(fn) and fn is not linalg.hermitian_args
            and "hermitian_args" in fn.__code__.co_names}
        assert callers == set(CALLER_IDS)

    @pytest.mark.parametrize("fn, count, extra", HERMITIAN_ARG_CALLERS,
                             ids=CALLER_IDS)
    def test_non_hermitian_argument_names_the_function(self, fn, count, extra):
        for i in range(count):
            args = [np.eye(2)] * count
            args[i] = np.array([[1.0, 1.0], [0.0, 1.0]])
            with pytest.raises(ValueError,
                               match=f"{fn.__name__} argument {i + 1} must "
                                     f"be Hermitian"):
                fn(*args, *extra)

    @pytest.mark.parametrize("fn, count, extra", HERMITIAN_ARG_CALLERS,
                             ids=CALLER_IDS)
    @pytest.mark.parametrize("odd", [np.eye(3), np.stack([np.eye(2)] * 5)],
                             ids=["3x3", "stack"])
    def test_unequal_shapes_are_rejected(self, fn, count, extra, odd):
        for i in range(count):
            args = [np.eye(2)] * count
            args[i] = odd
            with pytest.raises(ValueError, match=f"{fn.__name__} arguments "
                                                 f"must have equal dimension"):
                fn(*args, *extra)


#: Functions that validate their general square matrices themselves, with
#: the number of such arguments and the other arguments they take.
MATRIX_ARG_CALLERS = [
    (ineq.cauchy_trace_gap, 2, ()),
    (ineq.word_trace_bound, 1, (("X", "X*"),)),
    (ineq.weyl_dominance_gap, 1, (1, 1)),
    (ineq.power_trace_gap, 1, (1,)),
    (ineq.spectral_chain_gap, 1, (1,)),
    (ineq.top_k_abs_eigensum, 1, (1,)),
    (ineq.phi_power_premise_gap, 1, (1, 1)),
    (ineq.nonhermitian_phi_gap, 2, (1,)),
    (ineq.hermitian_part_dominance, 1, ()),
    (ineq.karamata_spectral_gap, 1, ()),
]


def with_nan(M):
    M = np.array(M, dtype=complex)
    M[0, 1] = np.nan
    return M


class TestArgumentNames:
    """A matrix argument that is not square or not finite raises a message
    naming the function and the argument's position, whether the function
    validates it through ``hermitian_args`` or by itself."""

    @pytest.mark.parametrize(
        "fn, count, extra", HERMITIAN_ARG_CALLERS + MATRIX_ARG_CALLERS,
        ids=CALLER_IDS + [fn.__name__ for fn, _, _ in MATRIX_ARG_CALLERS])
    @pytest.mark.parametrize("bad, message", [
        (with_nan(np.eye(2)), "must have finite entries"),
        (np.ones((2, 3)), r"must be a square matrix, got shape \(2, 3\)")],
        ids=["nan", "2x3"])
    def test_invalid_matrix_names_the_argument(self, fn, count, extra, bad,
                                               message):
        for i in range(count):
            args = [np.eye(2)] * count
            args[i] = bad
            with pytest.raises(ValueError, match=f"^{fn.__name__} argument "
                                                 f"{i + 1} {message}$"):
                fn(*args, *extra)


#: The functions that admit a matrix argument.
ADMISSIONS = {"as_complex_matrix", "is_hermitian", "require_hermitian",
              "hermitian_args", "_checked_terms"}
#: Every gtlab function whose code names one of them: the admission helpers
#: and the checkers that receive matrices from their callers.
ADMITTERS = {fn for fn, _, _ in HERMITIAN_ARG_CALLERS + MATRIX_ARG_CALLERS} | {
    linalg.require_hermitian, linalg.hermitian_args, conc._checked_terms,
    conc.oliveira_mgf_check, conc.oliveira_mgf_montecarlo,
    conc.oliveira_recursion_profile, conc.oliveira_vs_aw,
    conc.mgf_factor_check, conc.exp_trace_dominance}
#: The routines that compute on admitted arrays.
ROUTINES = {linalg.herm_eigen, linalg.trace_expm, linalg.general_eigen,
            linalg.singular_values, linalg.frobenius_norm, linalg.hermitize,
            linalg.herm_fn, linalg.expm_herm, linalg.psd_power,
            linalg.schatten_norm, linalg.operator_norm}


def names_in(code) -> set[str]:
    """The global and attribute names that ``code`` and the code nested in
    it (comprehensions, lambdas) refer to."""
    return set(code.co_names).union(
        *(names_in(c) for c in code.co_consts if inspect.iscode(c)))


class TestAdmission:
    """A matrix is admitted once, by the checker that receives it from its
    caller; the routines it passes the admitted arrays to check nothing
    again."""

    def test_only_checkers_and_helpers_admit(self):
        admitters = {
            fn
            for info in pkgutil.iter_modules(gtlab.__path__)
            for fn in vars(importlib.import_module(f"gtlab.{info.name}")).values()
            if inspect.isfunction(fn) and names_in(fn.__code__) & ADMISSIONS}
        assert admitters == ADMITTERS
        assert not ADMITTERS & ROUTINES


class TestGaussLegendre:
    # integrands on [0, b]; the first and third are centred inside it
    SMOOTH = [
        (lambda x: np.exp(-(x - 3.0) ** 2), 5.0),
        (lambda x: np.cos(10.0 * x) / (1.0 + x * x), 5.0),
        (lambda x: 1.0 / (1.0 + 25.0 * (x - 1.0) ** 2), 2.0),
        (lambda x: np.log1p(x) * np.exp(-x / 3.0), 40.0),
        (lambda x: 1.0 / (x + 1e-3) ** 2, 1.0),
    ]

    @pytest.mark.parametrize("case", range(len(SMOOTH)))
    def test_agrees_with_quadpack(self, case):
        f, b = self.SMOOTH[case]
        sizes = []

        def batched(x):
            sizes.append(x.shape)
            return f(x)

        value = linalg.gauss_legendre(batched, b, 1e-12, 1e-12)
        reference, _ = quad(lambda x: float(f(np.float64(x))), 0.0, b,
                            epsabs=1e-13, epsrel=1e-13, limit=400)
        assert abs(value - reference) <= 1e-11 * max(1.0, abs(reference))
        # every refinement round is one call on a 1-d batch of whole panels
        assert all(len(s) == 1 and s[0] % 60 == 0 for s in sizes)

    def test_non_converging_integrand_raises(self):
        # int_0^1 dx/x diverges: each bisection of the first panel leaves
        # the same 20/40-point difference
        with pytest.raises(linalg.QuadratureError, match="panels"):
            linalg.gauss_legendre(lambda x: 1.0 / x, 1.0, 1e-10, 1e-10)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(linalg.QuadratureError, match="finite"):
            linalg.gauss_legendre(lambda x: np.where(x > 0.5, np.nan, x),
                                  1.0, 1e-10, 1e-10)
