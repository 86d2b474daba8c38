"""Path-keyed seeded streams and the one random-matrix sampler.

A stream is the value ``(master_seed, path)``, where ``path`` is a tuple
of labels naming the stream's place in a tree of streams.  Its generator
is SFC64 seeded by ``SeedSequence(master_seed, spawn_key=path)``, numpy's
mechanism for hierarchical streams: distinct paths give statistically
independent streams, and the same path replays the same draws bit for
bit.  A caller that needs several streams names its own children with
:meth:`RngStream.child` (``child(i)`` for trial ``i``) and never
reserves index ranges, so two callers cannot hand out the same key.
Draws within one generator follow a documented fixed order, which keeps
results independent of how work is scheduled.

Blocks: many instances are drawn in blocks, one generator each, block
``b`` from ``child(b)`` (:meth:`RngStream.blocks`).  One rule sizes every
block (:func:`block_instances`): as many instances as fit in
``BLOCK_ENTRIES`` entries, at least one, an instance's entries being those
its draw actually takes (``n^2`` for one ``n x n`` matrix, ``N k`` for one
``N x k`` Gaussian block, ``m d^2`` for a series of ``m`` terms of
``d x d``; a complex entry counts once).  Every runner reduces block by
block, keeping counts, sums, moments or its worst instance so far rather
than every instance, so memory is bounded whatever the trial count (but
for the one float per draw that Eq.OB's Monte Carlo case keeps), and the
rule is part of the draw order.

Ensemble conventions: ``ginibre`` draws independent entries with unit
complex variance (real and imaginary parts each N(0, 1/2), drawn
interleaved: each entry's real part, then its imaginary part); ``gue`` is
``(X + X†)/2`` of a Ginibre draw, exactly Hermitian by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads its random module on first use; every subcommand draws, so
# it is loaded with the package rather than inside the first draw
import numpy.random  # noqa: F401

from .linalg import adjoint

DEFAULT_MASTER_SEED = 20650901

#: Entries one stream block draws at most (:func:`block_instances`).
BLOCK_ENTRIES = 65536

_UINT64 = 1 << 64
#: Labels are single 32-bit words: ``SeedSequence`` spreads a larger integer
#: over several words, so the paths ``(2**32,)`` and ``(0, 1)`` would share
#: one key.
_LABEL_LIMIT = 2 ** 32


def _checked_int(value, limit: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not 0 <= value < limit:
        raise ValueError(f"{what} must be an integer in [0, {limit:#x}), "
                         f"got {value!r}")
    return int(value)


def block_instances(entries: int) -> int:
    """Instances of ``entries`` entries each in one block: as many as fit
    in ``BLOCK_ENTRIES``, and at least one."""
    return max(1, BLOCK_ENTRIES // entries)


@dataclass(frozen=True)
class RngStream:
    """Random stream keyed by ``(master_seed, path)``."""

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.path, tuple):
            raise ValueError(f"path must be a tuple of labels, got {self.path!r}")
        object.__setattr__(self, "master_seed",
                           _checked_int(self.master_seed, _UINT64, "master_seed"))
        object.__setattr__(self, "path", tuple(
            _checked_int(label, _LABEL_LIMIT, "stream label") for label in self.path))

    def generator(self) -> np.random.Generator:
        """A fresh generator; repeated calls replay the identical sequence."""
        seed = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(seed))

    def child(self, *labels: int) -> "RngStream":
        """The stream at ``path + labels`` under the same seed."""
        return RngStream(self.master_seed, self.path + labels)

    def blocks(self, total: int, entries: int):
        """Split ``total`` instances of ``entries`` entries into blocks
        (:func:`block_instances`): yields ``(start, count, generator)``."""
        size = block_instances(entries)
        for b, start in enumerate(range(0, total, size)):
            yield start, min(size, total - start), self.child(b).generator()


def standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians: unit complex variance per entry.

    One ``(*shape, 2)`` block of standard normals, scaled in place by
    ``sqrt(1/2)`` and returned as its ``complex128`` view, so each entry's
    real and imaginary parts are consecutive draws."""
    parts = rng.standard_normal((*shape, 2))
    parts *= np.sqrt(0.5)
    return parts.view(np.complex128)[..., 0]


def ginibre(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """Complex Ginibre draws: one ``(n, n)`` matrix, or a ``(count, n, n)``
    stack when ``count`` is given."""
    return standard_complex(rng, (n, n) if count is None else (count, n, n))


def gue(rng: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """GUE draws ``(X + X†)/2`` of complex Ginibre ``X``, shaped as in
    :func:`ginibre`; exactly Hermitian."""
    X = ginibre(rng, n, count)
    H = X + adjoint(X)
    H /= 2.0
    return H
