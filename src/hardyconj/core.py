"""Coefficient-space model of the truncated Hardy space.

A holomorphic function f(z) = sum_n a_n z^n is represented by its first N
Taylor coefficients as a 1-D complex vector; operators are N x N complex
matrices acting in the monomial basis z^0 .. z^{N-1}, and an antilinear
map may keep a diagonal linear factor as the vector of its diagonal.
Everything here is pure: inputs are never mutated and results are fresh
arrays.
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

#: Complex entries in one stacked (rows x dim) work array, 1 MiB. Code that
#: processes many vectors at once (certificate samples, explore trials)
#: stacks at most ``max(1, _STACK_ENTRIES // dim)`` rows at a time, so its
#: working memory does not grow with the number of vectors.
_STACK_ENTRIES = 2**16


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
    """Antilinear operator f -> A @ conj(f).

    Every antilinear map on the truncated space factors as a linear matrix A
    following entrywise conjugation. ``factor`` holds A either as a square
    matrix or, for a diagonal A, as the 1-D vector of its diagonal; the
    diagonal constructors use the vector form, and :attr:`diagonal` tells
    the two apart. The map satisfies the conjugation axioms (isometric and
    involutive) exactly when A is unitary and transpose-symmetric; see
    :func:`hardyconj.conjugations.verify_conjugation`.
    """

    factor: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factor, dtype=np.complex128)
        if f.ndim != 1:
            f = as_operator(f)
        elif f.size == 0 or not np.all(np.isfinite(f)):
            raise ValueError("diagonal factor must be nonempty and finite")
        f = f.copy()
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)

    @property
    def diagonal(self) -> np.ndarray | None:
        """The diagonal of A when the factor is stored as a vector, else None."""
        return self.factor if self.factor.ndim == 1 else None

    @property
    def a_matrix(self) -> np.ndarray:
        """Dense read-only N x N linear factor A, built on demand for the diagonal form."""
        if self.factor.ndim == 2:
            return self.factor
        a = np.diag(self.factor)
        a.setflags(write=False)
        return a

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def __call__(self, f) -> np.ndarray:
        return apply_antilinear(self, f)


def apply_antilinear(op: AntilinearMap, f) -> np.ndarray:
    """Image of the coefficient vector f under the antilinear map.

    ``f`` is one vector of length ``op.dim`` or a (k, dim) stack of row
    vectors, each mapped on its own. A diagonal factor gives every row
    exactly the bits of the one-vector call; a dense factor maps the stack
    with one matrix product, equal to the row-by-row result to roundoff.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim not in (1, 2) or f.shape[-1] != op.dim:
        raise ValueError(f"vector has shape {f.shape}, operator dimension is {op.dim}")
    d = op.diagonal
    if d is not None:
        return d * np.conj(f)
    return op.factor @ np.conj(f) if f.ndim == 1 else np.conj(f) @ op.factor.T


def adjoint(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(matrix, dtype=np.complex128)).T


def frobenius_norm(matrix) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(matrix)))
