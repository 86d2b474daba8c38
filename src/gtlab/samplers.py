"""Seeded, reproducible random-matrix ensembles.

Streams are value objects keyed into the counter-based Philox generator:
the 128-bit key is ``(master_seed, stream_index)``, so distinct stream
indices give statistically independent streams and the same pair always
reproduces the same draws bit for bit.  Experiments derive sub-streams by
index offsets and draw their trials in a documented fixed order, which
keeps results independent of how work is scheduled.

Ensemble conventions:

* ``ginibre-complex``: independent entries with unit complex variance
  (real and imaginary parts each N(0, 1/2)).
* ``ginibre-real``: independent standard real normals.
* ``gue`` / ``goe``: ``(X + X†)/2`` of the corresponding Ginibre draw;
  exactly Hermitian by construction.
* ``haar-unitary``: QR of a complex Ginibre draw with the R-diagonal
  rephased to positive real (without that phase fix the output is not
  Haar), or the polar form ``(X†X)^(-1/2) X``.
* Rademacher variables are uniform on {-1, +1}.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from . import pauli
from .linalg import adjoint

logger = logging.getLogger(__name__)

SEED_ENV_VAR = "GTLAB_SEED"
DEFAULT_MASTER_SEED = 20650901

_UINT64 = 1 << 64

ENSEMBLE_KINDS = frozenset({
    "ginibre-complex", "ginibre-real", "gue", "goe",
    "haar-unitary", "pauli-gaussian",
})
HAAR_METHODS = frozenset({"qr", "polar"})

#: Attempts before giving up on a numerically singular Gaussian draw.
_HAAR_MAX_RETRIES = 4
#: Sub-stream offset reserved for retry draws.
_RETRY_OFFSET = 1 << 48


def default_master_seed() -> int:
    """Master seed, overridable through the GTLAB_SEED environment variable."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_MASTER_SEED
    try:
        seed = int(raw, 0)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    return seed % _UINT64


@dataclass(frozen=True)
class RngStream:
    """Counter-derived random stream: ``(master_seed, stream_index)``."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= value < _UINT64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """A fresh generator; repeated calls replay the identical sequence."""
        key = (int(self.master_seed) << 64) | int(self.stream_index)
        return np.random.Generator(np.random.Philox(key=key))

    def offset(self, index: int) -> "RngStream":
        """The stream ``stream_index + index`` (mod 2^64) under the same seed."""
        return RngStream(self.master_seed, (self.stream_index + int(index)) % _UINT64)

    def blocks(self, total: int, size: int):
        """Split ``total`` draws into blocks of at most ``size``: yields
        ``(start, count, generator)``, block ``b`` drawing from ``offset(b)``."""
        for b, start in enumerate(range(0, total, size)):
            yield start, min(size, total - start), self.offset(b).generator()


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw: kind, dimension, optional leading block."""

    kind: str
    dim: int
    block: int | None = None
    method: str = "qr"

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "pauli-gaussian" and self.dim != 2:
            raise ValueError("pauli-gaussian draws are 2x2")
        if self.block is not None:
            if self.kind not in ("ginibre-complex", "ginibre-real", "haar-unitary"):
                raise ValueError("block is only meaningful for ginibre/haar kinds")
            if not 1 <= self.block <= self.dim:
                raise ValueError("block must satisfy 1 <= k <= N")
        if self.kind == "haar-unitary" and self.method not in HAAR_METHODS:
            raise ValueError(f"unknown haar method {self.method!r}")


def standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians: unit complex variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def ginibre(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """Complex Ginibre draws: one ``(n, n)`` matrix, or a ``(count, n, n)``
    stack when ``count`` is given."""
    return standard_complex(rng, (n, n) if count is None else (count, n, n))


def gue(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """GUE draws ``(X + X†)/2`` of complex Ginibre ``X``, shaped as in
    :func:`ginibre`; exactly Hermitian."""
    X = ginibre(rng, n, count)
    return (X + adjoint(X)) / 2.0


def sample_matrix(spec: EnsembleSpec, stream: RngStream) -> np.ndarray:
    """One draw from the ensemble; a pure function of (spec, stream)."""
    rng = stream.generator()
    n = spec.dim
    if spec.kind == "ginibre-complex":
        X = ginibre(rng, n)
    elif spec.kind == "ginibre-real":
        X = rng.standard_normal((n, n)).astype(np.complex128)
    elif spec.kind == "gue":
        return gue(rng, n)
    elif spec.kind == "goe":
        X = rng.standard_normal((n, n))
        return ((X + X.T) / 2.0).astype(np.complex128)
    elif spec.kind == "haar-unitary":
        U = haar_unitary(n, spec.method, stream)
        # for unitaries the block of interest is the top-left corner
        return U if spec.block is None else U[:spec.block, :spec.block]
    elif spec.kind == "pauli-gaussian":
        return pauli.to_matrix(sample_pauli_gaussian(stream))
    else:  # pragma: no cover - guarded by EnsembleSpec
        raise ValueError(spec.kind)
    if spec.block is not None:
        return X[:, :spec.block]
    return X


def _phase_fixed_qr(X: np.ndarray) -> np.ndarray | None:
    """QR orthonormalization with the R diagonal rephased to positive real;
    returns None when the draw is numerically rank deficient."""
    Q, R = np.linalg.qr(X)
    d = np.diagonal(R)
    if np.any(np.abs(d) <= 1e-12 * max(1.0, float(np.abs(d).max(initial=0.0)))):
        return None
    return Q * (d / np.abs(d))


def _polar_unitary(X: np.ndarray) -> np.ndarray | None:
    """Unitary polar factor ``X (X†X)^(-1/2)`` through the
    eigendecomposition of ``X†X`` (the inverse square root must multiply
    on the side matching its Gram matrix for the result to be unitary)."""
    w, V = np.linalg.eigh(X.conj().T @ X)
    if w[0] <= 1e-24 * max(1.0, float(w[-1])):
        return None
    inv_sqrt = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    return X @ inv_sqrt


def haar_unitary(n: int, method: str = "qr",
                 stream: RngStream | None = None) -> np.ndarray:
    """Haar-distributed unitary of size ``n`` by either construction.

    A numerically singular Gaussian draw (a measure-zero event) is retried
    on the next reserved sub-stream; retries are logged with their count.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if method not in HAAR_METHODS:
        raise ValueError(f"unknown haar method {method!r}")
    if stream is None:
        stream = RngStream(default_master_seed())
    for attempt in range(_HAAR_MAX_RETRIES + 1):
        source = stream if attempt == 0 else stream.offset(_RETRY_OFFSET + attempt)
        X = ginibre(source.generator(), n)
        U = _phase_fixed_qr(X) if method == "qr" else _polar_unitary(X)
        if U is not None:
            if attempt:
                logger.warning("haar_unitary retried %d time(s) on stream %s",
                               attempt, stream)
            return U
    raise RuntimeError(
        f"haar_unitary drew {_HAAR_MAX_RETRIES + 1} numerically singular "
        f"matrices in a row; stream {stream}")


def sample_pauli_gaussian(stream: RngStream) -> np.ndarray:
    """Three independent standard normals: a random traceless 2x2 vector."""
    return stream.generator().standard_normal(3)


def rademacher(stream: RngStream, size=None):
    """Fair random signs in {-1, +1}."""
    draws = 2 * stream.generator().integers(0, 2, size=size) - 1
    return int(draws) if size is None else draws.astype(np.float64)


def std_normal(stream: RngStream, size=None):
    """Standard normal draws (ziggurat transform of the Philox stream)."""
    draws = stream.generator().standard_normal(size=size)
    return float(draws) if size is None else draws


@dataclass(frozen=True)
class BlockMomentReport:
    """Per-entry moments of ``sqrt(N) * (top k x k block of a Haar unitary)``
    against the complex standard Gaussian targets (mean 0, variance 1,
    fourth absolute moment 2)."""

    dim: int
    block: int
    trials: int
    mean: np.ndarray
    mean_se: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    fourth_moment: np.ndarray
    fourth_moment_se: np.ndarray
    targets: tuple[float, float, float] = (0.0, 1.0, 2.0)


def block_gaussian_moments(n: int, k: int, trials: int,
                           stream: RngStream, method: str = "qr") -> BlockMomentReport:
    """Moment report for the scaled top block of Haar unitaries.

    Trials are drawn on consecutive stream offsets (trial i uses
    ``stream.offset(i)``), so the report is reproducible and independent
    of any parallel scheduling of the trials.
    """
    if not 1 <= k <= n:
        raise ValueError("block must satisfy 1 <= k <= N")
    if trials < 1:
        raise ValueError("trials must be positive")
    blocks = np.empty((trials, k, k), dtype=np.complex128)
    for i in range(trials):
        U = haar_unitary(n, method, stream.offset(i))
        blocks[i] = np.sqrt(n) * U[:k, :k]
    abs2 = np.abs(blocks) ** 2
    abs4 = abs2 ** 2
    mean = blocks.mean(axis=0)
    mean_se = np.sqrt(abs2.mean(axis=0) / trials)
    variance = abs2.mean(axis=0)
    variance_se = abs2.std(axis=0, ddof=1) / np.sqrt(trials)
    fourth = abs4.mean(axis=0)
    fourth_se = abs4.std(axis=0, ddof=1) / np.sqrt(trials)
    return BlockMomentReport(dim=n, block=k, trials=trials,
                             mean=mean, mean_se=mean_se,
                             variance=variance, variance_se=variance_se,
                             fourth_moment=fourth, fourth_moment_se=fourth_se)
