"""The benchmark's workloads: one gtlab CLI invocation each, sized so that
several fit in one measured run.

The workload seed is the benchmark's argument; gtlab only sees the
generated config, whose ``seed`` field is that argument.  Sizes are fixed
per workload, so every seed does the same amount of work on different
draws.  ``cases`` pins the case names each report must contain: a change
that drops or renames a tag fails the correctness gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    suite: str
    sizes: dict
    cases: tuple[str, ...]
    why: str

    def config(self, seed: int) -> str:
        """The config document gtlab receives for ``seed``."""
        return json.dumps({"suites": [self.suite], **self.sizes, "seed": seed})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-loop",
        subcommand="verify",
        suite="inequalities",
        sizes={"dims": [2, 3, 4], "trials": 500},
        cases=(
            "pauli-parametrization", "gt-sweep-n2", "gt-sweep-n3",
            "gt-sweep-n4", "pauli-2x2-cosh", "pauli-law-of-cosines",
            "oscillator-bound", "lie-trotter-order", "cauchy-trace",
            "word-trace", "dyadic-power", "weyl-dominance", "spectral-chain",
            "power-trace", "araki-lieb-thirring", "karamata",
            "phi-power-premise", "top-k-functional-consistency",
            "phi-exponential", "weak-majorization", "schatten-norm",
            "symmetrized-trace", "log-metric", "delta2-identity",
            "nonhermitian-phi", "hermitian-part", "lieb-triple",
            "equality-commuting", "equality-order-fit"),
        why="Per-instance loops over 2x2 to 4x4 matrices: time goes to "
            "dispatch, generator construction, validation and one LAPACK "
            "call per tiny matrix, so batching shows here first."),
    Workload(
        name="tail-bulk",
        subcommand="tail",
        suite="concentration",
        sizes={"trials": 8000},
        cases=(
            "covariance-mean", "rank-one-decomposition",
            "operator-norm-identity", "scalar-chernoff", "tail-union-bound",
            "bernstein-chebyshev", "per-trial-exponential-dominance",
            "mgf-lemma-mu+1", "mgf-lemma-mu-1", "trace-product-dominance",
            *(f"tail-domination-N{n}-k{k}-eps{eps}"
              for n in (8, 16) for k in (1, 2) for eps in ("0.5", "1", "2")),
            "sign-series-enumerate", "sign-series-montecarlo",
            "recursion-non-increasing", "mgf-factor-bound",
            "series-vs-direct-bound"),
        why="Same samplers and LAPACK layers in bulk stacks, one generator "
            "per chunk, plus one per-instance loop (Eq.4.29); the largest "
            "arrays, so memory shows in peak_rss_mb."),
    Workload(
        name="ratio-lapack",
        subcommand="ratio",
        suite="studies",
        sizes={"dims": [128], "trials": 1_000_000},
        cases=("pauli-ratio-montecarlo", "pauli-ratio-quadrature",
               "hermitization-ratio-n128"),
        why="200 zgeev calls at n=128 and a vectorized 1e6-pair Monte Carlo; "
            "dispatch is negligible. Known defect: report bytes differ "
            "between OPENBLAS_NUM_THREADS=1 and 2."),
)}

#: Registry tags per suite, in registry order; one trials_per_s metric each.
SUITE_TAGS = {
    "inequalities": (
        "Eq.AB", "Eq.1", "Eq.1a", "Eq.1b", "Eq.LT", "Lemma.1", "Lemma.2",
        "Lemma.3", "Eq.2.6", "Eq.H", "Eq.W2", "Eq.ALT", "Lemma.5", "Eq.4",
        "Eq.4.2", "Eq.4.1", "Eq.4.1w", "Eq.5", "Eq.5a", "Eq.Sn", "Eq.Sn1",
        "Eq.4.1a", "Eq.4.1b", "Eq.4.1c", "EqualityOrder"),
    "concentration": (
        "Eq.S", "Eq.S3", "Eq.SP", "Eq.C", "Eq.rf", "Eq.rf1", "Eq.J",
        "Eq.GTE", "Eq.4.29", "Eq.RU", "Eq.OB", "Eq.DDN", "Eq.DD1",
        "Eq.RUvsOB"),
    "studies": ("Eq.R", "Eq.R.quadrature", "Limit.sqrt2"),
}

#: A tiny config per subcommand, run once untimed before measuring so that
#: bytecode caches and the page cache are warm.
WARMUP_SIZES = {"trials": 1, "dims": [2]}
