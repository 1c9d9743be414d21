"""Constructors and certification for conjugations on coefficient space.

A conjugation is an antilinear map C that is isometric (<Cf, Cg> = <g, f>)
and involutive (C^2 = I). In the factored form C(f) = A @ conj(f) these two
axioms are equivalent to the linear factor A being unitary and
transpose-symmetric, which is what :func:`verify_conjugation` certifies.

The constructors cover the diagonal families (plain coefficient
conjugation, a rotation twist by a unimodular scalar, an explicit phase
per coefficient, and squared powers of a unimodular sequence), which keep
A as its vector of diagonal entries, plus the general form U* . conj . U
for any unitary U, which keeps A dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _STACK_ENTRIES, DEFAULT_TOL, AntilinearMap, apply_antilinear, frobenius_norm

__all__ = [
    "ConjugationCert",
    "NotUnitaryError",
    "canonical_conjugation",
    "conjugation_from_unitary",
    "factor_diagonal",
    "phase_conjugation",
    "random_unitary",
    "rotation_conjugation",
    "sequence_conjugation",
    "sequence_unitary",
    "squared_powers",
    "unimodular",
    "verify_conjugation",
]

#: Construction-time tolerance on |value| == 1; inputs inside it are
#: renormalized to exact modulus one so downstream residuals reflect the
#: algebra, not input noise.
UNIMODULAR_TOL = 1e-12

#: Largest ||U*U - I||_F that :func:`conjugation_from_unitary` accepts.
_UNITARY_TOL = 1e-8

#: Largest off-diagonal Frobenius norm, and largest deviation of |d_n| from
#: one, that :func:`factor_diagonal` accepts.
_FACTOR_TOL = 1e-10

#: Exponents below this limit are the range in which numpy's complex power
#: multiplies repeatedly; from it on numpy calls libm ``cpow``.
_REPEATED_POWER_LIMIT = 100

#: Grid of the high part of a split angle. |theta| <= pi < 4, so a multiple
#: of 2**-24 has at most 26 significant bits and e * theta_hi is exact in
#: double for every integer e < 2**27.
_ANGLE_GRID = 2.0**-24


def unimodular(values, start_index: int = 0) -> np.ndarray:
    """Check every entry has modulus 1 within ``UNIMODULAR_TOL``, then renormalize.

    ``start_index`` sets the index reported in the error message; the
    squared-sequence family is conventionally indexed from 1.
    """
    return _unimodular_rows(_sequence(values), start_index)


def _sequence(values) -> np.ndarray:
    """``values`` as a 1-D complex array, a scalar as one entry."""
    v = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {v.shape}")
    return v


def _unimodular_rows(v: np.ndarray, start_index: int) -> np.ndarray:
    """:func:`unimodular` on every row of a complex stack, indices along the last axis."""
    mod = np.abs(v)
    # a NaN modulus compares false, so the negation catches it with inf
    bad = ~(np.abs(mod - 1.0) <= UNIMODULAR_TOL)
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        raise ValueError(
            f"entry at index {k[-1] + start_index} has modulus {mod[k]:.12g}, "
            f"expected 1 within {UNIMODULAR_TOL:g}"
        )
    return v / mod


def canonical_conjugation(dim: int) -> AntilinearMap:
    """Entrywise coefficient conjugation, i.e. f(z) -> conj(f(conj(z)))."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return AntilinearMap(np.ones(dim))


def rotation_conjugation(lam: complex, dim: int) -> AntilinearMap:
    """Conjugation twisted by a disk rotation: f(z) -> conj(f(lam * conj(z))).

    Coefficient n picks up the factor conj(lam**n); ``lam`` must be
    unimodular.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    lam = unimodular([lam])
    return AntilinearMap(np.conj(_unit_powers(lam, np.arange(dim))))


def phase_conjugation(phases) -> AntilinearMap:
    """Conjugation followed by a fixed unimodular phase per coefficient.

    ``phases`` lists the multipliers for coefficients 0 .. N-1; the result
    acts on dimension N = len(phases).
    """
    return AntilinearMap(unimodular(phases))


def squared_powers(zeta) -> np.ndarray:
    """Multipliers zeta_n ** (2n) for n = 0 .. len(zeta), entry 0 fixed to 1.

    ``zeta`` is indexed from 1, so ``zeta[j]`` is the entry for n = j + 1.
    A (k, n) stack gives one row of multipliers per sequence, each equal to
    the result for that row alone. Every entry is checked and renormalized
    as by :func:`unimodular`, indices counted from 1, so an entry off the
    unit circle is refused. From exponent 100 on a power comes from the
    phase alone, through an exactly split angle instead of libm ``cpow``,
    so neither its phase nor its modulus error grows as n * eps.
    """
    z = _unimodular_rows(np.atleast_1d(np.asarray(zeta, dtype=np.complex128)), 1)
    powers = np.empty(z.shape[:-1] + (z.shape[-1] + 1,), dtype=np.complex128)
    powers[..., 0] = 1.0
    powers[..., 1:] = _unit_powers(z, 2 * np.arange(1, z.shape[-1] + 1))
    return powers


def _unit_powers(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``z ** e`` along the last axis, for unimodular ``z`` and nondecreasing integers ``e >= 0``.

    ``z`` is a 1-D array or a (k, len(e)) stack, or has length one and is
    raised to every exponent. Below ``_REPEATED_POWER_LIMIT`` the result is
    ``z ** e`` bit for bit, so exact products such as 1j ** 2 == -1 stay
    exact. From the limit on it is exp(i e theta_hi) * exp(i e theta_lo),
    with arg z split by :func:`_split_angle`: e * theta_hi is exact and
    only the small e * theta_lo is rounded, whereas ``cpow`` rounds the
    whole phase e * theta to about e * eps and raises the rounding error of
    |z| to the power e. |z| is taken to be one there, so the powers of one
    z stay a geometric sequence on the unit circle to roundoff.
    """
    z = np.broadcast_to(z, z.shape[:-1] + e.shape)
    split = int(np.searchsorted(e, _REPEATED_POWER_LIMIT))
    powers = np.empty(z.shape, dtype=np.complex128)
    powers[..., :split] = z[..., :split] ** e[:split]
    if split < e.size:
        e = e[split:]
        hi, lo = _split_angle(z[..., split:])
        big, turn = powers[..., split:], np.empty(hi.shape, dtype=np.complex128)
        for angle, out in ((e * hi, big), (e * lo, turn)):
            np.cos(angle, out=out.real)
            np.sin(angle, out=out.imag)
        big *= turn
    return powers


def _split_angle(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """arg z as theta_hi + theta_lo exactly, theta_hi a multiple of ``_ANGLE_GRID``."""
    theta = np.angle(z)
    hi = np.round(theta / _ANGLE_GRID) * _ANGLE_GRID
    return hi, theta - hi


def sequence_conjugation(zeta) -> AntilinearMap:
    """Conjugation with multiplier conj(zeta_n ** (2n)) on coefficient n.

    ``zeta`` lists the unimodular entries for indices 1 .. N-1; the result
    acts on dimension N = len(zeta) + 1, with multiplier 1 at n = 0. It is
    passed as given to :func:`squared_powers`, which checks and
    renormalizes it once. A constant sequence with value w reduces to
    ``rotation_conjugation(w**2)``.
    """
    return AntilinearMap(np.conj(squared_powers(_sequence(zeta))))


def sequence_unitary(zeta) -> np.ndarray:
    """Diagonal unitary sending the monomial z^n to (zeta_n * z)^n.

    Its columns are the rescaled orthonormal basis {1, zeta_1 z,
    zeta_2^2 z^2, ...}; feeding it to :func:`conjugation_from_unitary`
    reproduces :func:`sequence_conjugation` on the same sequence. Its
    powers follow the rule of :func:`squared_powers`, from the phase alone
    from exponent 100 on, so the two stay within roundoff of each other,
    and on the unit circle, at any N.
    """
    z = unimodular(zeta, start_index=1)
    return np.diag(np.concatenate(([1.0 + 0.0j], _unit_powers(z, np.arange(1, z.size + 1)))))


class NotUnitaryError(ValueError):
    """Input matrix failed the unitarity check; carries the residual."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"matrix is not unitary: ||U*U - I||_F = {residual:.3e} exceeds {tol:g}"
        )


def conjugation_from_unitary(u) -> AntilinearMap:
    """Conjugation U* . conj . U for a unitary U; the linear factor is U^H conj(U).

    Every conjugation on the full space arises this way, and the factor
    U^H conj(U) is automatically unitary and transpose-symmetric. A ``u``
    with ||U*U - I||_F above ``_UNITARY_TOL`` (1e-8) raises
    :class:`NotUnitaryError`.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    residual = frobenius_norm(u.conj().T @ u - np.eye(u.shape[0]))
    if residual > _UNITARY_TOL:
        raise NotUnitaryError(residual, _UNITARY_TOL)
    return AntilinearMap(u.conj().T @ np.conj(u))


def factor_diagonal(op: AntilinearMap) -> np.ndarray:
    """Diagonal unitary U with conjugation_from_unitary(U) equal to ``op``.

    Requires the linear factor of ``op`` to be diagonal with unimodular
    entries, both within ``_FACTOR_TOL`` (1e-10). Each U entry is the
    principal square root of the conjugated diagonal entry; any other
    branch choice differs by a sign and produces the same conjugation. A
    stored diagonal is read as is.
    """
    d = op.diagonal
    if d is None:
        a = op.a_matrix
        d = np.diag(a)
        off = frobenius_norm(a - np.diag(d))
        if off > _FACTOR_TOL:
            raise ValueError(f"linear factor is not diagonal: off-diagonal norm {off:.3e}")
    if np.max(np.abs(np.abs(d) - 1.0)) > _FACTOR_TOL:
        raise ValueError("diagonal entries are not unimodular")
    return np.diag(np.sqrt(np.conj(d / np.abs(d))))


def orthonormalize(matrix) -> np.ndarray:
    """Unitary Q of the QR factorization whose R has a positive real diagonal.

    This is the matrix that Gram-Schmidt on the columns produces. The phases
    of diag(R) are moved into Q so the factorization is unique; without that
    step a Gaussian input would not give a Haar-distributed Q (Mezzadri, "How
    to generate random matrices from the classical compact groups", Notices
    AMS 54, 2007).
    """
    z = np.asarray(matrix, dtype=np.complex128)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    if np.any(d == 0):
        raise ValueError("columns are rank deficient")
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Seeded Haar-random unitary: orthonormalized standard complex Gaussian matrix.

    Deterministic in ``seed`` (anything accepted by
    ``numpy.random.default_rng``; a Generator is drawn from in place).
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    return orthonormalize(_complex_gaussian(dim, np.random.default_rng(seed)))


def _complex_gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The standard complex Gaussian matrix :func:`random_unitary` orthonormalizes.

    Its real part is drawn first, then its imaginary part, each as one
    dim x dim normal draw from ``rng``.
    """
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@dataclass(frozen=True)
class ConjugationCert:
    """Residuals of the two conjugation axioms and of the factor structure.

    ``isometry_residual`` and ``involution_residual`` come from seeded
    random sampling; ``a_unitarity_residual`` = ||A*A - I||_F and
    ``a_symmetry_residual`` = ||A - A^T||_F are deterministic matrix
    checks. A check that overflows to NaN reports inf. ``passed`` is True
    iff all four are at most ``tol``.
    """

    isometry_residual: float
    involution_residual: float
    a_unitarity_residual: float
    a_symmetry_residual: float
    tol: float
    passed: bool


def _residual(value) -> float:
    """``value`` as a float, with NaN read as inf.

    A check on a map with huge entries overflows, and inf - inf or 0 * inf
    makes NaN. Python's ``max`` drops a NaN that is not its first
    argument, so the map would read as a perfect isometry, and a dense
    factor would even pass.
    """
    value = float(value)
    return np.inf if np.isnan(value) else value


def verify_conjugation(
    op: AntilinearMap, trials: int = 100, tol: float = DEFAULT_TOL, seed=0
) -> ConjugationCert:
    """Certify the conjugation axioms for an antilinear map.

    Never raises on failure: invalid candidates are part of the intended
    input space, and the certificate reports how they fail. A diagonal
    factor is checked from its vector, without forming the N x N matrix.

    The sampled axioms use ``trials`` pairs (f, g) of random unit vectors.
    They are drawn, mapped and reduced as (k, N) stacks of at most
    ``max(1, _STACK_ENTRIES // N)`` pairs at a time, so a large ``trials``
    never allocates more than one block. The draws are the stream of one
    pair after another (real and imaginary part of f, then of g), whatever
    the block size, and each residual is the maximum over all pairs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = op.dim
    d = op.diagonal
    if d is None:
        a = op.factor
        a_unitarity = _residual(frobenius_norm(a.conj().T @ a - np.eye(n)))
        a_symmetry = frobenius_norm(a - a.T)
    else:
        # a diagonal A is symmetric, and A*A - I is diagonal with entries |d|^2 - 1
        a_unitarity = frobenius_norm(np.abs(d) ** 2 - 1.0)
        a_symmetry = 0.0

    rng = np.random.default_rng(seed)
    isometry = 0.0
    involution = 0.0
    step = max(1, _STACK_ENTRIES // n)
    for start in range(0, trials, step):
        x = rng.standard_normal((min(step, trials - start), 4, n))
        f = x[:, 0] + 1j * x[:, 1]
        g = x[:, 2] + 1j * x[:, 3]
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        cf = apply_antilinear(op, f)
        # <Cf, Cg> - <g, f>, one pair per row
        gap = np.sum(cf * np.conj(apply_antilinear(op, g)) - g * np.conj(f), axis=1)
        isometry = max(isometry, _residual(np.max(np.abs(gap))))
        back = np.linalg.norm(apply_antilinear(op, cf) - f, axis=1)
        involution = max(involution, _residual(np.max(back)))

    passed = max(isometry, involution, a_unitarity, a_symmetry) <= tol
    return ConjugationCert(
        isometry_residual=isometry,
        involution_residual=involution,
        a_unitarity_residual=a_unitarity,
        a_symmetry_residual=a_symmetry,
        tol=tol,
        passed=passed,
    )
