"""Band-limited symbols, Toeplitz finite sections, and symmetry criteria.

A Toeplitz operator with symbol phi acts by multiplication followed by
projection onto nonnegative frequencies; its N x N finite section has
entries c(j - k) where c(n) is the n-th Laurent coefficient of phi. An
operator T is symmetric with respect to a conjugation C when C T = T* C.

For a diagonal conjugation with multipliers w_n on the conjugated
coefficients this identity is equivalent, entry by entry and with no
truncation error, to

    c(j - k) * w_j == w_k * c(k - j)   for all 0 <= j, k < N,

which splits into one condition per offset p = j - k of the symbol's
band: c(p) * w[k + p] == c(-p) * w[k] for 0 <= k < N - p. A diagonal map
is therefore checked offset by offset, in O(N * M) time and O(N) memory
with no section built: :func:`diagonal_residual` and
:func:`entrywise_condition`. The dense section with :func:`symmetry_residual`
stays the oracle, and is what a dense conjugation gets.

The classical one-sided criterion reads c(n) * w_n == c(-n) for n >= 0.
It coincides with the entrywise one whenever w is multiplicative in the
index (in particular for the rotation family w_n = lam**n) but is weaker
in general; :func:`explore_symmetry` measures how often they disagree
against the operator-residual oracle.

All three diagonal checks (residual, one-sided, entrywise) are one private
kernel on stacks whose leading axis is the trial: coefficients (k, 2M + 1),
multipliers and diagonals (k, N). The public functions call it with a
stack of one; :func:`explore_symmetry` calls it once per block of at most
``max(1, _STACK_ENTRIES // N)`` trials (``core._STACK_ENTRIES`` = 2**16
complex entries, 1 MiB per stacked array). Each trial's stream is exactly
``default_rng((seed, trial))``'s, but a block seeds all its trials at once:
numpy's SeedSequence hash runs as uint32 array operations over the block,
and one generator is set to each trial's PCG64 state in turn. Only the
seeded draws are made per trial; the sequences, the damped and completed
symbols and the checks are array operations over the block. Rows never
mix, so a record from a block equals :func:`run_trial` on its trial, bit
for bit.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conjugations import (
    UNIMODULAR_TOL,
    _complex_gaussian,
    _unimodular_rows,
    conjugation_from_unitary,
    orthonormalize,
    rotation_conjugation,
    squared_powers,
    unimodular,
)
from .core import _STACK_ENTRIES, AntilinearMap, frobenius_norm

__all__ = [
    "ConditionReport",
    "ExplorationRecord",
    "EXPLORE_MODES",
    "LaurentSymbol",
    "SymmetryReport",
    "diagonal_multipliers",
    "diagonal_residual",
    "entrywise_condition",
    "evaluate_on_grid",
    "explore_symmetry",
    "fourier_coefficients",
    "generate_symmetric_symbol",
    "multiply_truncate",
    "onesided_condition",
    "random_symbol",
    "rotation_condition",
    "run_trial",
    "sequence_condition",
    "sequence_entrywise_condition",
    "sequence_multipliers",
    "summarize_exploration",
    "symmetry_report",
    "symmetry_residual",
    "toeplitz_section",
    "trial_draws",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LaurentSymbol:
    """Trigonometric polynomial sum_{|n| <= band} c(n) z^n.

    Coefficients are stored densely: ``coeffs[k]`` holds c(k - band).
    Instances are immutable; two symbols compare equal iff band and all
    coefficients match exactly.
    """

    band: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.band < 0:
            raise ValueError("band must be nonnegative")
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.band + 1,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({2 * self.band + 1},)"
            )
        if not np.isfinite(c).all():
            raise ValueError("symbol coefficients contain non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_pairs(cls, pairs, band: int | None = None) -> "LaurentSymbol":
        """Build from a mapping or iterable of (n, value); missing n are zero."""
        items = {_index(n): value for n, value in dict(pairs).items()}
        if band is None:
            band = max((abs(n) for n in items), default=0)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        for n, value in items.items():
            if abs(n) > band:
                raise ValueError(f"coefficient index {n} exceeds band {band}")
            c[n + band] = value
        return cls(band, c)

    def coeff(self, n: int) -> complex:
        """c(n), zero outside the band."""
        if abs(n) > self.band:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.band])

    def coeff_array(self) -> np.ndarray:
        """Dense copy of c(-band) .. c(band)."""
        return self.coeffs.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self.band == other.band and bool(np.array_equal(self.coeffs, other.coeffs))


def _index(n) -> int:
    """A coefficient index as an int; a non-integral key raises instead of truncating."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"coefficient index {n!r} is not an integer") from None


def random_symbol(band: int, rng: np.random.Generator, scale: float = 1.0) -> LaurentSymbol:
    """Random symbol with complex Gaussian coefficients damped by 1/(1+|n|).

    The decay mimics a smooth symbol and keeps residual magnitudes
    comparable across random trials.
    """
    raw = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    return LaurentSymbol(band, _damped(raw, scale))


def _damped(raw: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``scale * raw / (1 + |n|)`` along the last axis, which holds n = -band .. band."""
    band = raw.shape[-1] // 2
    return scale * raw / (1.0 + np.abs(np.arange(-band, band + 1)))


def evaluate_on_grid(symbol: LaurentSymbol, num_points: int) -> np.ndarray:
    """Values of the symbol at the num_points-th roots of unity.

    Direct power-sum evaluation, independent of any FFT path, so it can
    serve as a synthesis oracle for :func:`fourier_coefficients`.
    """
    if num_points < 1:
        raise ValueError("need at least one grid point")
    z = np.exp(2j * np.pi * np.arange(num_points) / num_points)
    out = np.zeros(num_points, dtype=np.complex128)
    for n in range(-symbol.band, symbol.band + 1):
        out += symbol.coeff(n) * z**n
    return out


def fourier_coefficients(samples, band: int) -> LaurentSymbol:
    """Laurent coefficients c(n), |n| <= band, from uniform circle samples.

    ``samples`` holds the symbol values at exp(2 pi i k / K) for
    k = 0 .. K-1. Exact (to roundoff) for trigonometric polynomials of
    degree <= band once K >= 2*band + 1; fewer samples alias and raise.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError(f"expected a 1-D sample array, got shape {samples.shape}")
    k = samples.size
    if k < 2 * band + 1:
        raise ValueError(
            f"{k} samples alias at band {band}; need at least {2 * band + 1}"
        )
    spectrum = np.fft.fft(samples) / k
    if band == 0:
        return LaurentSymbol(0, spectrum[:1])
    coeffs = np.concatenate((spectrum[-band:], spectrum[: band + 1]))
    return LaurentSymbol(band, coeffs)


def toeplitz_section(symbol: LaurentSymbol, dim: int) -> np.ndarray:
    """N x N finite section with entries c(j - k)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    # vals[dim - 1 + p] = c(p); row j of the section is vals[dim-1+j] down to vals[j]
    m = min(symbol.band, dim - 1)
    vals = np.zeros(2 * dim - 1, dtype=np.complex128)
    vals[dim - 1 - m : dim + m] = symbol.coeffs[symbol.band - m : symbol.band + m + 1]
    return sliding_window_view(vals[::-1], dim)[::-1].copy()


def multiply_truncate(symbol: LaurentSymbol, f) -> np.ndarray:
    """Coefficients 0 .. len(f)-1 of phi * f by direct convolution.

    This is the multiply-then-project oracle for :func:`toeplitz_section`.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 1 or f.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {f.shape}")
    full = np.convolve(symbol.coeff_array(), f)
    return full[symbol.band : symbol.band + f.size]


def matrix_bandwidth(matrix, tol: float = 1e-12) -> int:
    """Smallest B with all entries beyond the B-th diagonals below ``tol``."""
    m = np.abs(np.asarray(matrix))
    rows, cols = np.nonzero(m >= tol)
    if rows.size == 0:
        return 0
    return int(np.max(np.abs(rows - cols)))


def symmetry_residual(op: AntilinearMap, section, window: int | None = None) -> float:
    """Frobenius norm of the leading window of A conj(T) - T^H A.

    With C(f) = A conj(f), the identity C T = T* C holds on the section
    iff this matrix vanishes; the residual is exactly zero-truncation for
    diagonal A, while for banded A a reduced window isolates the algebra
    from edge effects.
    """
    a = op.a_matrix
    t = np.asarray(section, dtype=np.complex128)
    if t.shape != a.shape:
        raise ValueError(f"section shape {t.shape} does not match operator shape {a.shape}")
    n = t.shape[0]
    w = n if window is None else int(window)
    if not 0 < w <= n:
        raise ValueError(f"window must be in 1..{n}, got {w}")
    r = a @ np.conj(t) - np.conj(t).T @ a
    return frobenius_norm(r[:w, :w])


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays of one shape, spelled in real arithmetic.

    numpy's vectorized complex multiply may round differently from the
    scalar one; this form rounds like the scalar product. The one-sided
    completion and the one-sided check both use it, so a completed symbol
    meets the check with violation exactly zero.
    """
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _offset_criteria(coeffs, onesided=None, entrywise=None, diagonal=None):
    """The diagonal-map checks for a stack of k trials, one trial per row.

    ``coeffs`` is (k, 2M + 1), row i holding c_i(-M) .. c_i(M). Each
    keyword takes a (k, width) array and turns on one output:

    - ``onesided``: multipliers w_0 .. w_M; max_n |c(n) w_n - c(-n)|;
    - ``entrywise``: multipliers w_0 .. w_{N-1}; the largest
      |w[k+p] c(p) - w[k] c(-p)| over offsets p = 1 .. min(M, N - 1);
    - ``diagonal``: the factor's diagonal d_0 .. d_{N-1}; the Frobenius
      norm of D conj(T) - T^H D, sqrt(2 * sum |d[k+p] conj(c(p)) -
      conj(c(-p)) d[k]|^2) over the same offsets.

    Returns (onesided, entrywise, residual) as (k,) float arrays, None
    where the input is None. Each offset is one set of array operations
    over the whole stack, written into work arrays of O(k * N) entries
    that are allocated once per call. Rows never mix, so a row's results
    have the same bits whatever else is stacked with it.
    """
    k, width = coeffs.shape
    band = width // 2
    # column p of plus / minus is c(p) / c(-p) for p = 0 .. band, shaped (k, 1)
    plus = coeffs[:, band:, None]
    minus = coeffs[:, band::-1, None]
    one = ent = res = None
    if onesided is not None:
        gap = _times(plus[..., 0], onesided) - minus[..., 0]
        # hypot rounds like the scalar abs the completion rule was checked with
        one = np.hypot(gap.real, gap.imag).max(axis=1)
    if entrywise is None and diagonal is None:
        return one, ent, res
    dim = (diagonal if entrywise is None else entrywise).shape[1]
    m = min(band, dim - 1)
    # reused across offsets: at large N a fresh temporary per operation is
    # paged in anew each time
    x_work = np.empty((k, dim - 1), dtype=np.complex128)
    y_work = np.empty_like(x_work)
    real_work = np.empty((k, 2 * (dim - 1)))
    if entrywise is not None:
        w = entrywise
        peaks = np.zeros((k, m + 1))  # column p: each trial's largest gap at offset p
    if diagonal is not None:
        d = diagonal
        squares = np.zeros((k, m + 1))  # column p: each trial's sum of squares at offset p
        conj_plus, conj_minus = np.conj(plus), np.conj(minus)
    for p in range(1, m + 1):
        n = dim - p
        x, y = x_work[:, :n], y_work[:, :n]
        if entrywise is not None:
            np.multiply(w[:, p:], plus[:, p], x)
            np.multiply(w[:, :n], minus[:, p], y)
            np.subtract(x, y, x)
            # the vector abs, as in the dense section reference
            np.abs(x, real_work[:, :n]).max(axis=1, out=peaks[:, p])
        if diagonal is not None:
            np.multiply(d[:, p:], conj_plus[:, p], x)
            np.multiply(conj_minus[:, p], d[:, :n], y)
            np.subtract(x, y, x)
            # square, then sum along rows: unlike einsum, or a sum down a
            # column, this gives a row the same bits at any stack height
            np.square(x.view(np.float64), real_work[:, : 2 * n]).sum(axis=1, out=squares[:, p])
    if entrywise is not None:
        ent = peaks.max(axis=1)
    if diagonal is not None:
        res = np.sqrt(2.0 * squares.sum(axis=1))
    return one, ent, res


def _section_diagonal(op: AntilinearMap, dim: int) -> np.ndarray:
    """The diagonal vector of ``op``, which must act on a dim x dim section."""
    d = op.diagonal
    if d is None:
        raise ValueError("linear factor is dense; build the map from its diagonal vector")
    if d.size != dim:
        raise ValueError(f"operator dimension {d.size} does not match section size {dim}")
    return d


def diagonal_residual(op: AntilinearMap, symbol: LaurentSymbol, dim: int) -> float:
    """Frobenius norm of D conj(T) - T^H D for a diagonal map, from offsets.

    Entry (k + p, k) of that matrix is d[k+p] conj(c(p)) - conj(c(-p)) d[k],
    entry (k, k + p) is its negative and the main diagonal vanishes, so the
    norm is sqrt(2 * sum over p = 1 .. min(band, dim - 1) and k of the
    squared moduli). O(dim * band) time and O(dim) memory; no section or
    dense factor is built. Equal to :func:`symmetry_residual` on
    ``toeplitz_section(symbol, dim)`` up to roundoff. A dense factor
    raises, as in :func:`diagonal_multipliers`.
    """
    d = _section_diagonal(op, dim)
    return float(_offset_criteria(symbol.coeffs[None], diagonal=d[None])[2][0])


def sequence_multipliers(zeta, count: int) -> np.ndarray:
    """Multipliers zeta_n ** (2n) for n = 0 .. count-1 (1 at n = 0).

    ``zeta`` is indexed from 1 and must cover indices 1 .. count-1.
    """
    z = unimodular(zeta, start_index=1)
    if z.size < count - 1:
        raise ValueError(
            f"sequence covers indices 1..{z.size}, need 1..{count - 1}"
        )
    return squared_powers(z[: count - 1])


def diagonal_multipliers(op: AntilinearMap) -> np.ndarray:
    """Coefficient-condition multipliers conj(d_n) * d_0 of a diagonal conjugation.

    For the rotation family this gives lam**n, for an explicit phase
    family conj(phase_n) * phase_0, and for the squared-sequence family
    zeta_n ** (2n). The map must keep its factor as a diagonal vector
    (``op.diagonal``); a dense factor raises, even a diagonal one.
    """
    d = op.diagonal
    if d is None:
        raise ValueError("linear factor is dense; build the map from its diagonal vector")
    return _multipliers(d)


def _multipliers(d: np.ndarray) -> np.ndarray:
    """:func:`diagonal_multipliers` of every row of a stack of diagonals."""
    # validate but do not renormalize: constructed diagonals are exact already,
    # and renormalizing here would perturb multipliers that the one-sided
    # completion rule reproduces bit for bit
    if np.max(np.abs(np.abs(d) - 1.0)) > 1e-8:
        raise ValueError("diagonal entries are not unimodular")
    return np.conj(d) * d[..., :1]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a coefficient criterion: flag plus worst violation."""

    holds: bool
    max_violation: float
    tol: float


def onesided_condition(symbol: LaurentSymbol, multipliers, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Check c(n) * w_n == c(-n) for n = 0 .. band.

    Negative n give the equivalent constraints (the multipliers are
    unimodular), so scanning n >= 0 suffices.
    """
    m = symbol.band
    w = np.asarray(multipliers, dtype=np.complex128)
    if w.size < m + 1:
        raise ValueError(f"multipliers cover 0..{w.size - 1}, need 0..{m}")
    violation = float(_offset_criteria(symbol.coeffs[None], onesided=w[None, : m + 1])[0][0])
    return ConditionReport(holds=violation <= tol, max_violation=violation, tol=tol)


def entrywise_condition(
    symbol: LaurentSymbol, multipliers, dim: int, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Check c(j-k) * w_j == w_k * c(k-j) over the dim x dim section.

    The multipliers must cover 0 .. dim-1. Equivalent to a vanishing
    :func:`symmetry_residual` for the diagonal conjugation with these
    multipliers. Stated on coefficients it needs no section: the worst
    violation is the largest |w[k+p] c(p) - w[k] c(-p)| over the offsets
    p = 1 .. min(band, dim - 1), since offset -p repeats offset p negated
    and offset 0 vanishes. O(dim * band) time and O(dim) memory.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    w = np.asarray(multipliers, dtype=np.complex128)
    if w.size < dim:
        raise ValueError(f"multipliers cover 0..{w.size - 1}, need 0..{dim - 1}")
    violation = float(_offset_criteria(symbol.coeffs[None], entrywise=w[None, :dim])[1][0])
    return ConditionReport(holds=violation <= tol, max_violation=violation, tol=tol)


def rotation_condition(symbol: LaurentSymbol, lam: complex, tol: float = DEFAULT_TOL) -> ConditionReport:
    """One-sided criterion c(n) * lam**n == c(-n) for the rotation family."""
    w = diagonal_multipliers(rotation_conjugation(lam, symbol.band + 1))
    return onesided_condition(symbol, w, tol)


def sequence_condition(symbol: LaurentSymbol, zeta, tol: float = DEFAULT_TOL) -> ConditionReport:
    """One-sided criterion c(n) * zeta_n**(2n) == c(-n)."""
    return onesided_condition(symbol, sequence_multipliers(zeta, symbol.band + 1), tol)


def sequence_entrywise_condition(
    symbol: LaurentSymbol, zeta, dim: int, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Two-index criterion for the squared-sequence family on a dim section."""
    return entrywise_condition(symbol, sequence_multipliers(zeta, dim), dim, tol)


def generate_symmetric_symbol(onesided, zero_coeff: complex = 0.0, zeta=()) -> LaurentSymbol:
    """Complete one-sided data into a symbol satisfying the one-sided criterion.

    ``onesided`` maps n >= 1 to c(n); the negative side is filled in as
    c(-n) = c(n) * zeta_n**(2n), which makes the one-sided criterion hold
    with violation exactly zero. ``zeta`` must cover indices 1 .. max n.
    """
    items = {_index(n): complex(v) for n, v in dict(onesided).items()}
    if any(n < 1 for n in items):
        raise ValueError("one-sided coefficients are indexed from 1")
    band = max(items, default=0)
    w = sequence_multipliers(zeta, band + 1)
    n = np.fromiter(items, dtype=np.intp, count=len(items))
    values = np.fromiter(items.values(), dtype=np.complex128, count=len(items))
    c = _completed(band, n, values, w)
    c[band] = zero_coeff
    return LaurentSymbol(band, c)


def _completed(band: int, n: np.ndarray, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients c(-band) .. c(band) along the last axis of a stack.

    c(n) = values and c(-n) = values * w_n, formed as in the one-sided
    check; every other entry, c(0) included, is zero.
    """
    c = np.zeros(values.shape[:-1] + (2 * band + 1,), dtype=np.complex128)
    c[..., band + n] = values
    c[..., band - n] = _times(values, w[..., n])
    return c


@dataclass(frozen=True)
class SymmetryReport:
    """Operator residual next to the coefficient-criterion verdicts.

    ``residual`` always covers the full section, so the report carries no
    window. For a diagonal map it is computed offset by offset
    (:func:`diagonal_residual`), for a dense one from the section
    (:func:`symmetry_residual`); the two agree to roundoff.
    ``coeff_condition_holds`` and ``max_coeff_violation`` refer to the
    one-sided criterion; ``agree`` records whether that verdict matches
    the residual oracle at the same tolerance. The entrywise fields hold
    the two-index criterion. All three condition fields are None for a
    dense factor (``op.diagonal is None``), even a diagonal one such as
    ``AntilinearMap(np.diag(d))``; build ``AntilinearMap(d)`` from the
    vector to get the criteria.
    """

    residual: float
    coeff_condition_holds: bool | None
    max_coeff_violation: float | None
    agree: bool | None
    tol: float
    entrywise_holds: bool | None = None
    entrywise_violation: float | None = None


def symmetry_report(
    op: AntilinearMap, symbol: LaurentSymbol, dim: int, tol: float = DEFAULT_TOL
) -> SymmetryReport:
    """Residual oracle plus, for a diagonal map, both coefficient criteria.

    A map that keeps its factor as a diagonal vector (``op.diagonal``) is
    checked from the symbol's offsets in O(dim * band), with no section, by
    one call of the offset kernel behind :func:`diagonal_residual`,
    :func:`onesided_condition` and :func:`entrywise_condition`, which gives
    all three values at once. Within it the residual and the entrywise
    check are separate computations, from d and conj(c) and from w and c,
    so their verdicts cross-check each other. A dense factor, even a
    diagonal one such as ``AntilinearMap(np.diag(d))``, gets the section
    and the dense :func:`symmetry_residual` over all of it, and no
    criteria. The report has no window; a caller that wants a trimmed one
    for a banded dense map calls :func:`symmetry_residual` with it.
    """
    if symbol.band > dim - 1:
        raise ValueError(f"band {symbol.band} exceeds dim - 1 = {dim - 1}")
    if op.diagonal is None:
        return SymmetryReport(
            residual=symmetry_residual(op, toeplitz_section(symbol, dim)),
            coeff_condition_holds=None,
            max_coeff_violation=None,
            agree=None,
            tol=tol,
        )
    d = _section_diagonal(op, dim)
    return _diagonal_reports(d[None], symbol.coeffs[None], tol)[0]


def _diagonal_reports(d: np.ndarray, coeffs: np.ndarray, tol: float) -> list[SymmetryReport]:
    """One report per row of a stack of diagonals (k, dim) and symbols (k, 2M + 1).

    The whole stack goes through :func:`_offset_criteria` once; needs M <= dim - 1.
    """
    w = _multipliers(d)
    band = coeffs.shape[1] // 2
    one, ent, res = _offset_criteria(coeffs, onesided=w[:, : band + 1], entrywise=w, diagonal=d)
    return [
        SymmetryReport(
            residual=r,
            coeff_condition_holds=o <= tol,
            max_coeff_violation=o,
            agree=(r <= tol) == (o <= tol),
            tol=tol,
            entrywise_holds=e <= tol,
            entrywise_violation=e,
        )
        for r, o, e in zip(res.tolist(), one.tolist(), ent.tolist())
    ]


EXPLORE_MODES = ("mixed", "generic", "symmetrized", "constant", "unitary")


@dataclass(frozen=True)
class ExplorationRecord:
    """One randomized probe, reproducible from (seed, trial) alone.

    It holds what its JSON line holds: the trial, the seed pair, the
    resolved mode and the report. :func:`run_trial` rebuilds the record and
    :func:`trial_draws` the sequence and symbol it was checked on.
    """

    trial: int
    seed: tuple
    mode: str
    report: SymmetryReport


def _check_explore(dim: int, band: int, mode: str) -> None:
    if not dim > band >= 1:
        raise ValueError("need dim > band >= 1")
    if mode not in EXPLORE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {EXPLORE_MODES}")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# seeding (numpy/random/src/pcg64), which default_rng((seed, trial)) runs
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(n) -> list[int]:
    """The 32-bit words of a nonnegative integer, low first, as SeedSequence splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hash_rounds(init: int, mult: int, count: int) -> tuple:
    """The xor and the multiply constants of ``count`` successive hash rounds.

    Round j xors in h_j and multiplies by h_{j+1}, where h_0 = ``init`` and
    h_{j+1} = h_j * ``mult`` mod 2**32.
    """
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return h[:-1], h[1:]


def _column(values) -> np.ndarray:
    """``values`` as a read-only uint32 column, one row per hash round."""
    column = np.array(values, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


@functools.cache
def _hash_schedule(length: int) -> tuple:
    """The constants of SeedSequence on ``length`` >= 4 words and of generate_state.

    Returns ``(first, passes, last)`` as (4, 1) or (8, 1) xor and multiply
    columns. ``first`` hashes the entropy into the 4 pool words. Each pass
    ``(src, xors, mults)`` hashes word ``src`` (a pool word for src < 4, an
    entropy word after) into every other pool word, one round per target
    in pool order; the row of the source itself is zero. ``last`` hashes
    the pool, cycled to 8 words, into the output.
    """
    xors, mults = _hash_rounds(_INIT_A, _MULT_A, _POOL_SIZE * length)
    first = (_column(xors[:_POOL_SIZE]), _column(mults[:_POOL_SIZE]))
    passes = []
    j = _POOL_SIZE
    for src in range(length):
        pass_xors, pass_mults = [0] * _POOL_SIZE, [0] * _POOL_SIZE
        for dst in range(_POOL_SIZE):
            if dst != src:
                pass_xors[dst], pass_mults[dst] = xors[j], mults[j]
                j += 1
        passes.append((src, _column(pass_xors), _column(pass_mults)))
    last = tuple(map(_column, _hash_rounds(_INIT_B, _MULT_B, 2 * _POOL_SIZE)))
    return first, tuple(passes), last


def _hashed(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Hash rounds on rows of uint32 words, row r with constants xors[r], mults[r]."""
    out = values ^ xors
    out *= mults
    out ^= out >> 16
    return out


def _seed_states(entropy: np.ndarray) -> list:
    """``SeedSequence(column).generate_state(4, np.uint64)`` of each column, as ints.

    ``entropy`` is an (L, k) uint32 array, column i holding the words of one
    entropy tuple, padded with zero words to L >= 4: SeedSequence hashes a
    pool word past the entropy as a zero word. Each pass of SeedSequence's
    loops is one set of array operations over the k columns: no pass reads
    a pool word that it writes.
    """
    first, passes, last = _hash_schedule(len(entropy))
    pool = _hashed(entropy[:_POOL_SIZE], *first)
    for src, xors, mults in passes:
        own = src < _POOL_SIZE
        y = _hashed(pool[src] if own else entropy[src], xors, mults)
        # mix(x, y): L * x - R * y, high half folded in
        y *= _MIX_MULT_R
        mixed = pool * _MIX_MULT_L
        mixed -= y
        mixed ^= mixed >> 16
        if own:
            mixed[src] = pool[src]
        pool = mixed
    # generate_state cycles the pool into 8 words and pairs them little-endian
    words = _hashed(np.concatenate((pool, pool)), *last)
    return words.T.astype("<u4", order="C").view("<u8").tolist()


def _trial_generators(seed: int, trials):
    """A generator in ``default_rng((seed, trial))``'s state for each trial, in order.

    The entropy words of all trials with one word count are hashed as one
    array (:func:`_seed_states`); PCG64's seeded state and increment then
    follow from a trial's four hashed words in two 128-bit LCG steps. Every
    trial gets the same Generator object, made once, set to the trial's
    state as the trial is reached, so a trial's draws are made before the
    next trial is asked for. A negative seed or trial raises numpy's error.
    """
    head = _words(seed)
    trials = [operator.index(t) for t in trials]
    if min(trials, default=0) < 0:
        raise ValueError("expected non-negative integer")
    counts = [max(1, (t.bit_length() + 31) // 32) for t in trials]
    states = [None] * len(trials)
    for count in set(counts):
        rows = [i for i, c in enumerate(counts) if c == count]
        # the seed's words, then the trial's, low first; zero words pad to the pool
        width = len(head) + count
        entropy = np.zeros((max(width, _POOL_SIZE), len(rows)), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        tails = (trials[i] >> shift & _MASK32 for shift in range(0, 32 * count, 32) for i in rows)
        entropy[len(head) : width] = np.fromiter(tails, np.uint32, count * len(rows)).reshape(count, -1)
        for i, state in zip(rows, _seed_states(entropy)):
            states[i] = state
    bit_generator = np.random.PCG64(0)  # a fixed seed: each trial's state replaces it
    rng = np.random.Generator(bit_generator)
    for high, low, seq_high, seq_low in states:
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _unitary_draws(dim: int, band: int, rng: np.random.Generator) -> tuple:
    """A ``unitary`` trial's draws in their order: its Gaussian matrix, then its symbol.

    The matrix is the one :func:`random_unitary` orthonormalizes on this
    generator. Only :func:`_run_block` orthonormalizes it, so
    :func:`trial_draws` makes no QR.
    """
    return _complex_gaussian(dim, rng), random_symbol(band, rng)


def _block_draws(trials, dim: int, band: int, seed: int, mode: str) -> tuple:
    """The draws of diagonal-mode ``trials`` as stacks, one row per trial.

    Returns the resolved modes, the sequences (k, dim - 1), their
    multipliers (k, dim) and the symbols' coefficients (k, 2 * band + 1).
    Each trial draws from its own stream, exactly
    ``default_rng((seed, trial))``'s, set per block from the hashed seeds
    by :func:`_trial_generators`. It draws in a fixed order: the sequence
    angles (one for a constant sequence), then the real and the imaginary
    normals of the symbol, or of its one-sided half. Only the draws are per
    trial. The exp, the damping and the completion run once over the
    stacks, with the operations a single trial would use, row by row, so a
    trial gets the same bits alone or in any block.
    """
    modes = [("generic", "symmetrized", "constant")[t % 3] if mode == "mixed" else mode for t in trials]
    generic = np.array([m == "generic" for m in modes], dtype=bool)
    angles = np.empty((len(modes), dim - 1))
    # real and imaginary normals of each symbol, or of its one-sided half
    full_draws = np.empty((np.count_nonzero(generic), 2, 2 * band + 1))
    half_draws = np.empty((len(modes) - len(full_draws), 2, band + 1))
    full_rows, half_rows = iter(full_draws), iter(half_draws)
    for i, (rng, resolved) in enumerate(zip(_trial_generators(seed, trials), modes)):
        if resolved == "constant":
            angles[i] = rng.random()
        else:
            rng.random(out=angles[i])
        # one (2, width) draw is the stream of two successive width draws
        rng.standard_normal(out=next(full_rows if generic[i] else half_rows))
    # numpy defines uniform(0, 2 pi) as 0 + 2 pi * random(), so these are its bits
    angles *= 2.0 * np.pi

    zetas = np.exp(1j * angles)
    # the multipliers of sequence_conjugation(zeta), unimodular check included
    w = squared_powers(_unimodular_rows(zetas, UNIMODULAR_TOL, 1))
    coeffs = np.empty((len(modes), 2 * band + 1), dtype=np.complex128)
    coeffs[generic] = _damped(full_draws[:, 0] + 1j * full_draws[:, 1])
    # c(0) and c(n) = raw_n / (1 + n) for n >= 1, completed to the negative side
    half = half_draws[:, 0] + 1j * half_draws[:, 1]
    half[:, 1:] /= 1.0 + np.arange(1, band + 1)
    completed = _completed(band, np.arange(1, band + 1), half[:, 1:], w[~generic])
    completed[:, band] = half[:, 0]
    coeffs[~generic] = completed
    return modes, zetas, w, coeffs


def _run_block(trials, dim: int, band: int, seed: int, mode: str, tol: float) -> list:
    """Records for ``trials``; in a diagonal mode they are checked as one stack.

    A diagonal block draws through :func:`_block_draws` and goes through
    the offset kernel once; a ``unitary`` trial is drawn and checked on its
    own. The records keep no draws, so the block's stacks are freed on
    return.
    """
    if mode == "unitary":
        records = []
        for trial, rng in zip(trials, _trial_generators(seed, trials)):
            z, symbol = _unitary_draws(dim, band, rng)
            report = symmetry_report(conjugation_from_unitary(orthonormalize(z)), symbol, dim, tol)
            records.append(ExplorationRecord(trial, (seed, trial), mode, report))
        return records
    modes, _, w, coeffs = _block_draws(trials, dim, band, seed, mode)
    reports = _diagonal_reports(np.conj(w), coeffs, tol)
    return [
        ExplorationRecord(trial, (seed, trial), resolved, report)
        for trial, resolved, report in zip(trials, modes, reports)
    ]


def trial_draws(
    trial: int, dim: int, band: int, seed: int, mode: str = "mixed"
) -> tuple[np.ndarray | None, LaurentSymbol]:
    """The sequence and symbol of one exploration trial, as (zeta, symbol).

    ``zeta`` lists the sequence for indices 1 .. dim-1; a ``unitary`` trial
    draws a dense map instead and gives None. The draws come from the same
    code as :func:`explore_symmetry`'s, so they have the bits that trial was
    checked with: ``symmetry_report(sequence_conjugation(zeta), symbol, dim,
    tol)`` rebuilds a diagonal trial's report.
    """
    _check_explore(dim, band, mode)
    if mode == "unitary":
        return None, _unitary_draws(dim, band, next(_trial_generators(seed, [trial])))[1]
    _, zetas, _, coeffs = _block_draws([trial], dim, band, seed, mode)
    return zetas[0], LaurentSymbol(band, coeffs[0])


def run_trial(
    trial: int, dim: int, band: int, seed: int, mode: str = "mixed", tol: float = DEFAULT_TOL
) -> ExplorationRecord:
    """Run a single exploration trial; (seed, trial) fixes every draw.

    This is :func:`explore_symmetry`'s block path with a block of one, so
    the record equals that trial's record in any exploration, bit for bit.
    :func:`trial_draws` gives the sequence and symbol it was checked on.
    """
    _check_explore(dim, band, mode)
    return _run_block([trial], dim, band, seed, mode, tol)[0]


def explore_symmetry(
    num_trials: int,
    dim: int,
    band: int,
    seed: int,
    mode: str = "mixed",
    tol: float = DEFAULT_TOL,
) -> list[ExplorationRecord]:
    """Randomized probes of the coefficient criteria against the residual oracle.

    Modes: ``generic`` draws an unconstrained symbol and sequence;
    ``symmetrized`` builds the symbol from the one-sided completion rule,
    so the one-sided criterion holds by construction while the operator
    may still fail to be symmetric; ``constant`` does the same with a
    constant sequence, where all criteria provably coincide; ``unitary``
    draws a dense random conjugation and records the raw residual only;
    ``mixed`` cycles generic, symmetrized, constant. Trials are
    independent and each reseeds from (seed, trial), so :func:`run_trial`
    regenerates any record alone and :func:`trial_draws` its sequence and
    symbol. A record holds only the pair, the resolved mode and the
    report, as its JSON line does.

    Trials run in blocks of ``max(1, _STACK_ENTRIES // dim)``. Each trial
    draws from exactly ``default_rng((seed, trial))``'s stream; the block
    hashes all its (seed, trial) pairs as one array and sets one generator
    to each trial's state in turn. In the diagonal modes (all but
    ``unitary``) only the seeded draws are per trial: each trial, in trial
    order, writes its sequence angles and its symbol's normals into the
    block's stacks. The
    sequences (``np.exp``), their multipliers, the damping and one-sided
    completion of the symbols and every offset of the criteria are then
    array operations over the block: multipliers form a (trials, dim)
    stack and coefficients a (trials, 2 * band + 1) stack. A ``unitary``
    trial is drawn and checked on its own through :func:`symmetry_report`.
    Rows never mix, so every record has the bits :func:`run_trial` gives
    it alone. Working memory stays at a few stacks of 1 MiB, and what the
    records retain does not depend on ``dim``.
    """
    if num_trials < 1:
        raise ValueError("need at least one trial")
    _check_explore(dim, band, mode)
    step = max(1, _STACK_ENTRIES // dim)
    records = []
    for start in range(0, num_trials, step):
        records += _run_block(range(start, min(start + step, num_trials)), dim, band, seed, mode, tol)
    return records


def summarize_exploration(records) -> dict:
    """Aggregate counts for an exploration run.

    Tracks how often the one-sided criterion agrees with the residual
    oracle, which trials disagree (reproducible via their seeds), whether
    the entrywise criterion ever mismatches the oracle (it should not),
    and the largest residual among trials where the one-sided criterion
    holds.
    """
    checked = [r for r in records if r.report.coeff_condition_holds is not None]
    disagreements = [r.trial for r in checked if not r.report.agree]
    entrywise_mismatches = [
        r.trial
        for r in checked
        if r.report.entrywise_holds != (r.report.residual <= r.report.tol)
    ]
    holding = [r.report.residual for r in checked if r.report.coeff_condition_holds]
    return {
        "trials": len(records),
        "onesided_checked": len(checked),
        "onesided_agreements": len(checked) - len(disagreements),
        "onesided_disagreements": len(disagreements),
        "disagreement_trials": disagreements,
        "entrywise_mismatch_trials": entrywise_mismatches,
        "max_residual_when_condition_holds": max(holding) if holding else None,
    }
