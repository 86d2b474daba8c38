"""Traceless 2x2 Hermitian matrices as real 3-vectors.

A vector ``a = (a1, a2, a3)`` represents ``A = a1*s1 + a2*s2 + a3*s3`` in
the standard Pauli basis.  Because ``A^2 = |a|^2 I``, exponentials and
trace products have closed forms in the vector data; every function here
accepts batched input of shape ``(..., 3)`` and returns one value per
vector (0-d for a single vector), except :func:`product_terms`, which
returns the two terms of ``Tr(e^A e^B) / 2``, the one place that product
form is written.
"""

from __future__ import annotations

import numpy as np

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA = np.stack([SIGMA1, SIGMA2, SIGMA3])

#: Below this radius ``sinh(r)/r`` is evaluated by series to avoid
#: cancellation in the closed-form exponential.
_SINHC_SERIES_CUTOFF = 1e-4


def as_vector(a) -> np.ndarray:
    v = np.asarray(a, dtype=np.float64)
    if v.shape[-1] != 3:
        raise ValueError(f"expected trailing dimension 3, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def to_matrix(a) -> np.ndarray:
    """``(..., 3) -> (..., 2, 2)``: the represented Hermitian matrix."""
    v = as_vector(a)
    return np.einsum('...k,kij->...ij', v, SIGMA)


def sinhc(r):
    """``sinh(r)/r`` with the series limit 1 + r^2/6 + r^4/120 near zero."""
    r = np.asarray(r, dtype=np.float64)
    small = np.abs(r) < _SINHC_SERIES_CUTOFF
    safe = np.where(small, 1.0, r)
    out = np.asarray(np.sinh(safe) / safe)
    s = r[small]
    out[small] = 1.0 + s * s / 6.0 + s**4 / 120.0
    return out


def _norm(v):
    """Euclidean norms over the last axis of a real stack: the arithmetic of
    ``np.linalg.norm(v, axis=-1)``, without its copy of ``conj(v)``."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def trace_exp_sum(a, b):
    """``Tr exp(A+B) = 2 cosh |a+b|``, batched."""
    v = as_vector(a) + as_vector(b)
    return 2.0 * np.cosh(_norm(v))


def product_terms(a, b):
    """The two terms of ``Tr(e^A e^B) / 2``, batched:
    ``(cosh|a| cosh|b|, (a.b) sinhc|a| sinhc|b|)``.

    The dot-product term equals ``-cos(theta) sinh|a| sinh|b|`` in the
    angle convention ``cos(theta) = -(a.b)/(|a||b|)``, written divisionless
    so that zero vectors are handled exactly.
    """
    va, vb = as_vector(a), as_vector(b)
    ra = _norm(va)
    rb = _norm(vb)
    return (np.cosh(ra) * np.cosh(rb),
            np.sum(va * vb, axis=-1) * sinhc(ra) * sinhc(rb))


def trace_exp_triple(a, b, c):
    """``Tr(e^A e^B e^C)`` in closed form; complex in general, batched.

    The imaginary part is ``2 ((a x b).c) sinhc|a| sinhc|b| sinhc|c|``, the
    source of the triple-product counter-examples.
    """
    va, vb, vc = as_vector(a), as_vector(b), as_vector(c)
    ra = _norm(va)
    rb = _norm(vb)
    rc = _norm(vc)
    cha, chb, chc = np.cosh(ra), np.cosh(rb), np.cosh(rc)
    sha, shb, shc = sinhc(ra), sinhc(rb), sinhc(rc)
    re = cha * chb * chc \
        + cha * np.sum(vb * vc, axis=-1) * shb * shc \
        + chb * np.sum(va * vc, axis=-1) * sha * shc \
        + chc * np.sum(va * vb, axis=-1) * sha * shb
    im = np.sum(np.cross(va, vb) * vc, axis=-1) * sha * shb * shc
    return 2.0 * (re + 1j * im)


def squared_norm_identity_residual(a) -> np.ndarray:
    """``| |a|^2 - Tr(A^2)/2 |`` for the represented matrix; zero in exact
    arithmetic, used to validate the parametrization."""
    v = as_vector(a)
    A = to_matrix(v)
    tr = np.einsum('...ij,...ji->...', A, A).real / 2.0
    return np.abs(tr - np.sum(v * v, axis=-1))
