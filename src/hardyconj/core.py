"""Coefficient-space model of the truncated Hardy space.

A holomorphic function f(z) = sum_n a_n z^n is represented by its first N
Taylor coefficients as a 1-D complex vector; operators are dense N x N
complex matrices acting in the monomial basis z^0 .. z^{N-1}. Everything
here is pure: inputs are never mutated and results are fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AntilinearMap",
    "adjoint",
    "apply_antilinear",
    "as_operator",
    "frobenius_norm",
    "inner_product",
]


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite, nonempty square complex128 matrix."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator matrix contains non-finite entries")
    return m


def inner_product(f, g) -> complex:
    """l2 pairing sum_n f_n * conj(g_n), linear in the first argument."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise ValueError(f"dimension mismatch: {f.shape} vs {g.shape}")
    return complex(np.vdot(g, f))


@dataclass(frozen=True, eq=False)
class AntilinearMap:
    """Antilinear operator f -> a_matrix @ conj(f).

    Every antilinear map on the truncated space factors as a linear matrix
    following entrywise conjugation. The map satisfies the conjugation
    axioms (isometric and involutive) exactly when ``a_matrix`` is unitary
    and transpose-symmetric; see :func:`hardyconj.conjugations.verify_conjugation`.
    """

    a_matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(self.a_matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "a_matrix", m)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]

    def __call__(self, f) -> np.ndarray:
        return apply_antilinear(self, f)


def apply_antilinear(op: AntilinearMap, f) -> np.ndarray:
    """Image of the coefficient vector f under the antilinear map."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (op.dim,):
        raise ValueError(f"vector has shape {f.shape}, operator dimension is {op.dim}")
    return op.a_matrix @ np.conj(f)


def adjoint(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(matrix, dtype=np.complex128)).T


def frobenius_norm(matrix) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(matrix)))
