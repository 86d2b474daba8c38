"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a PASS line when it holds."""

import math
import time

import numpy as np

from gtlab import concentration as conc
from gtlab import inequalities as ineq
from gtlab import linalg, pauli, studies, suites
from gtlab.samplers import RngStream
from conftest import gue

SEED = 20650901


def stream_for(criterion: int) -> RngStream:
    return RngStream(SEED).child(criterion)


def announce(number: int, label: str):
    print(f"ACCEPTANCE {number} ({label}): PASS")


class TestAcceptance:
    def test_01_golden_thompson_sweep(self):
        start = time.monotonic()
        base = stream_for(1)
        for j, n in enumerate(range(2, 9)):
            # 10^4 GUE pairs per dimension, in stream blocks of 8192
            for _, count, rng in base.child(j).blocks(10000, 8192):
                # default tolerance: 1e-9 relative to max(1, |lhs|, |rhs|)
                report = ineq.gt_gap(gue(rng, n, count), gue(rng, n, count))
                assert report.passed.all(), (n, report.margin.min())
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        announce(1, f"trace-exponential sweep, 7x10^4 pairs in {elapsed:.1f}s")

    def test_02_pauli_ratio(self):
        start = time.monotonic()
        quad = studies.pauli_ratio_quadrature()
        assert abs(quad.ratio - 4.0 / 3.0) <= 1e-8
        est = studies.pauli_ratio_mc(1_000_000, stream_for(2))
        dev = abs(est.ratio - 4.0 / 3.0)
        assert dev <= 3.0 * est.ratio_se, (est.ratio, est.ratio_se)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        announce(2, f"2x2 Gaussian ratio 4/3, mc dev {dev:.2e} in {elapsed:.1f}s")

    def test_03_hermitization_trend(self):
        target = math.sqrt(2.0)
        small = studies.hermitization_ratio(16, 200, stream_for(3).child(0))
        large = studies.hermitization_ratio(256, 200, stream_for(3).child(1))
        rel = abs(large.ratio - target) / target
        assert rel <= 0.08, large.ratio
        assert abs(large.ratio - target) < abs(small.ratio - target), \
            (small.ratio, large.ratio)
        announce(3, f"hermitization ratio {large.ratio:.4f} within 8% of "
                    f"sqrt(2), trend {small.ratio:.4f} -> {large.ratio:.4f}")

    def test_04_sign_series_enumeration(self):
        start = time.monotonic()
        rng = stream_for(4).generator()
        mus = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
        checked = 0
        for _ in range(100):
            m = int(rng.integers(1, 13))
            d = int(rng.integers(1, 5))
            terms = tuple(gue(rng, d) for _ in range(m))
            for mu in mus:
                report = conc.oliveira_mgf_check(terms, mu)
                assert report.passed, (m, d, mu, report)
                checked += 1
        # exact enumeration: the verdict is deterministic
        repeat = conc.oliveira_mgf_check(terms, 2.0)
        again = conc.oliveira_mgf_check(terms, 2.0)
        assert repeat == again
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        announce(4, f"{checked} exact sign enumerations in {elapsed:.1f}s")

    def test_05_tail_domination_grid(self):
        start = time.monotonic()
        base = stream_for(5)
        informative = 0
        epsilons = (0.5, 1.0, 2.0)
        # one sample per (n, k), read at every eps
        for g, (n, k) in enumerate((n, k) for n in (8, 16, 32)
                                   for k in (1, 2, 4)):
            reports = conc.empirical_tail(n, k, epsilons, 10000,
                                          base.child(g, 0))
            for eps, report in zip(epsilons, reports):
                if report.bound_value < 1.0:
                    informative += 1
                    assert report.ci_high <= report.bound_value, \
                        (n, k, eps, report)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        assert informative >= 9
        announce(5, f"tail bound dominated on {informative} informative "
                    f"cells in {elapsed:.1f}s")

    def test_06_triple_bound_kernel(self):
        rng = stream_for(6).generator()
        for _ in range(100):
            n = int(rng.integers(2, 6))
            A, B, C = gue(rng, n), gue(rng, n), gue(rng, n)
            cf = ineq.lieb_rhs_closed(A, B, C)
            qd = ineq.lieb_rhs_quadrature(A, B, C)
            assert abs(cf - qd) <= 1e-8 * max(1.0, abs(cf))
            assert ineq.lieb_triple_gap(A, B, C).passed
            reduced = ineq.lieb_rhs_closed(A, B, np.zeros_like(C))
            direct = float(np.trace(linalg.expm_herm(A)
                                    @ linalg.expm_herm(B)).real)
            assert abs(reduced - direct) <= 1e-10 * max(1.0, abs(direct))
        announce(6, "three-matrix kernel vs quadrature on 100 triples")

    def test_07_counterexample_hunts(self):
        # each hunt row scans a budget of 100000 trials; its witness
        # serializes with its evaluated sides
        params = suites.SuiteParams(seed=SEED, trials=1)
        found = []
        for j, tag in enumerate(("Eq.4.1d", "ABC.trace")):
            case, = suites.REGISTRY[tag][2](params, stream_for(7).child(j), tag)
            assert case.extra["found"] is True
            assert case.lhs > case.rhs
            assert case.extra["matrices"]
            found.append(case.extra["trial_index"])
        announce(7, f"witnesses at trials {found[0]} and {found[1]}")

    def test_08_reduction_consistency(self):
        params = suites.SuiteParams(seed=SEED, trials=100000)
        cosh, law = suites._run_pauli_reduce(params, stream_for(8), "Eq.1a")
        discrepancy = cosh.extra["max_route_discrepancy"]
        assert discrepancy <= 1e-10
        assert cosh.extra["violations"] == 0 and cosh.status == "pass"
        assert law.extra["violations"] == 0 and law.status == "pass"
        announce(8, f"10^5 pairs, route discrepancy {discrepancy:.2e}")

    def test_09_equality_condition(self):
        rng = stream_for(9).generator()
        for _ in range(3):
            d1 = np.diag(rng.standard_normal(4))
            d2 = np.diag(rng.standard_normal(4))
            scan = ineq.equality_order_scan(d1, d2)
            assert scan.commuting
            assert np.max(np.abs(scan.gaps)) <= 1e-12
        slopes = []
        for A, B in ((pauli.SIGMA3, pauli.SIGMA1),
                     (gue(rng, 3), gue(rng, 3)),
                     (gue(rng, 4), gue(rng, 4))):
            scan = ineq.equality_order_scan(linalg.hermitize(A),
                                            linalg.hermitize(B))
            assert not scan.commuting
            assert abs(scan.slope - 4.0) <= 0.1, scan.slope
            slopes.append(scan.slope)
        announce(9, f"commuting gap at zero, fitted orders {slopes}")

    def test_10_property_suites(self):
        rng = stream_for(10).generator()
        # product-limit convergence order
        target = linalg.expm_herm(linalg.hermitize(pauli.SIGMA3 + pauli.SIGMA1))
        ns = [2 ** j for j in range(1, 11)]
        devs = [linalg.operator_norm(
            linalg.lie_trotter_product(pauli.SIGMA3, pauli.SIGMA1, n) - target)
            for n in ns]
        slope, _ = np.polyfit(np.log(ns), np.log(devs), 1)
        assert abs(slope + 1.0) <= 0.1

        # per-trial exponential dominance on covariance deviations
        for c in (0.5, 2.0):
            _, deviations = conc.covariance_deviations(
                stream_for(10).child(int(10 * c), 0).generator(), 4000, 12, 3)
            assert conc.exp_trace_dominance(deviations, c).passed.all()

        # trace-product dominance
        for _ in range(500):
            n = int(rng.integers(2, 6))
            assert conc.trace_product_dominance(
                linalg.expm_herm(gue(rng, n)), gue(rng, n)).passed

        # interpolated sign-series expectation is non-increasing
        for _ in range(20):
            m = int(rng.integers(1, 11))
            d = int(rng.integers(1, 5))
            terms = tuple(gue(rng, d) for _ in range(m))
            mu = float(rng.choice([0.5, 1.0, 2.0]))
            profile = conc.oliveira_recursion_profile(terms, mu)
            assert (np.diff(profile)
                    <= 1e-12 * np.maximum(1.0, profile[:-1])).all()

        # damped sign-average factor stays below one
        for _ in range(200):
            A = gue(rng, int(rng.integers(1, 5)))
            mu = float(rng.standard_normal())
            assert conc.mgf_factor_check(A, mu).passed

        # singular-value dominance and convex-order transfer
        for _ in range(500):
            n = int(rng.integers(2, 6))
            X = (rng.standard_normal((n, n))
                 + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            assert ineq.weyl_dominance_gap(X, s=1 + int(rng.integers(0, 2)),
                                           k=int(rng.integers(1, n + 1))).passed
            a = np.log(np.clip(linalg.singular_values(X), 1e-300, None))
            lam = np.sort(np.abs(linalg.general_eigen(X)))[::-1]
            b = np.log(np.clip(lam, 1e-300, None))
            assert ineq.karamata_gap(a, b, np.zeros_like(a)).passed

        # log-metric lower bound on the flat distance
        for _ in range(300):
            n = int(rng.integers(2, 6))
            assert ineq.log_metric_gap(gue(rng, n), gue(rng, n)).passed
        announce(10, "property suites (convergence order, per-trial "
                     "dominance, recursion, factors, dominance transfer)")
