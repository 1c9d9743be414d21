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
with no section built: :func:`symmetry_report` and
:func:`entrywise_condition`. The differences of each offset are formed
once; the entrywise violation is their max norm and the residual sqrt(2)
times their Frobenius norm, so a residual within tol implies an entrywise
violation within tol. The dense section with :func:`symmetry_residual`
stays the independent oracle, and is what a dense conjugation gets.

The classical one-sided criterion reads c(n) * w_n == c(-n) for n >= 0.
It coincides with the entrywise one whenever w is multiplicative in the
index (in particular for the rotation family w_n = lam**n) but is weaker
in general; :func:`explore_symmetry` measures how often they disagree
against the operator-residual oracle.

The diagonal checks are two private functions on stacks whose leading
axis is the trial: coefficients (k, 2M + 1) and multipliers (k, N). The
public functions call them with a stack of one; :func:`explore_symmetry`
calls them once per block of at most
``max(1, _STACK_ENTRIES // N)`` trials (``core._STACK_ENTRIES`` = 2**16
complex entries, 1 MiB per stacked array). Trial t of seed s reads K
uniforms from word t * K of the counter-based ``np.random.Philox(s)``
stream, K = (N - 1) + 2 * (2M + 1) rounded up to a multiple of 4, so a
block is one ``advance`` and one ``random((k, K))`` call. The sequences,
the damped and completed symbols and the checks are array operations
over the block. Rows never mix, so a record from a block equals
:func:`run_trial` on its trial, bit for bit.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conjugations import (
    _complex_gaussian,
    _sequence,
    conjugation_from_unitary,
    orthonormalize,
    rotation_conjugation,
    squared_powers,
)
from .core import _STACK_ENTRIES, DEFAULT_TOL, AntilinearMap, frobenius_norm

__all__ = [
    "ConditionReport",
    "ExplorationRecord",
    "EXPLORE_MODES",
    "LaurentSymbol",
    "SymmetryReport",
    "diagonal_multipliers",
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


def random_symbol(band: int, rng: np.random.Generator) -> LaurentSymbol:
    """Random symbol with complex Gaussian coefficients damped by 1/(1+|n|).

    The decay mimics a smooth symbol and keeps residual magnitudes
    comparable across random trials.
    """
    raw = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    return LaurentSymbol(band, _damped(raw))


def _damped(raw: np.ndarray) -> np.ndarray:
    """``raw / (1 + |n|)`` along the last axis, which holds n = -band .. band."""
    band = raw.shape[-1] // 2
    return raw / (1.0 + np.abs(np.arange(-band, band + 1)))


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
    return LaurentSymbol(band, spectrum[np.arange(-band, band + 1)])


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


def _onesided_violation(coeffs, w):
    """The one-sided gap max_n |c(n) w_n - c(-n)|, n = 0 .. M, of each row of a stack.

    ``coeffs`` is (k, 2M + 1), row i holding c_i(-M) .. c_i(M); of the
    multipliers ``w``, (k, width > M), only w_0 .. w_M are read.
    """
    band = coeffs.shape[1] // 2
    gap = _times(coeffs[:, band:], w[:, : band + 1])
    gap -= coeffs[:, band::-1]
    # hypot rounds like the scalar abs the completion rule was checked with
    return np.hypot(gap.real, gap.imag).max(axis=1)


def _offset_criteria(coeffs, w):
    """The entrywise violation and the residual of a diagonal map, for a stack of k trials.

    ``coeffs`` is (k, 2M + 1), row i holding c_i(-M) .. c_i(M), and the
    multipliers ``w`` are (k, N). Each offset p = 1 .. min(M, N - 1) forms
    x = w[k+p] c(p) - w[k] c(-p) once. For the diagonal d = conj(w) d_0,
    entries (k + p, k) and (k, k + p) of D conj(T) - T^H D are d_0 conj(x)
    and -d_0 conj(x), and offset 0 vanishes. So (entrywise, residual), as
    (k,) float arrays, are two norms of one array, max |x| and
    sqrt(2 * sum |x|^2): residual >= sqrt(2) * entrywise up to the rounding
    of the sum, wherever |x|^2 does not underflow. Each offset is one set
    of array operations over the whole stack, in work arrays of O(k * N)
    entries allocated once per call. Rows never mix, so a row's results
    have the same bits whatever else is stacked with it.
    """
    k, dim = w.shape
    band = coeffs.shape[1] // 2
    m = min(band, dim - 1)
    # column p of plus / minus is c(p) / c(-p) for p = 0 .. band, shaped (k, 1)
    plus = coeffs[:, band:, None]
    minus = coeffs[:, band::-1, None]
    # reused across offsets: at large N a fresh temporary per operation is
    # paged in anew each time
    x_work = np.empty((k, dim - 1), dtype=np.complex128)
    y_work = np.empty_like(x_work)
    real_work = np.empty((k, 2 * (dim - 1)))
    x_parts = x_work.view(np.float64)  # real and imaginary parts, interleaved
    peaks = np.zeros((k, m + 1))  # column p: each trial's largest gap at offset p
    squares = np.zeros((k, m + 1))  # column p: each trial's sum of squares at offset p
    for p in range(1, m + 1):
        n = dim - p
        x, y = x_work[:, :n], y_work[:, :n]
        np.multiply(w[:, p:], plus[:, p], x)
        np.multiply(w[:, :n], minus[:, p], y)
        np.subtract(x, y, x)
        # the vector abs, as in the dense section reference
        np.abs(x, real_work[:, :n]).max(axis=1, out=peaks[:, p])
        # square, then sum along rows: unlike einsum, or a sum down a
        # column, this gives a row the same bits at any stack height
        np.square(x_parts[:, : 2 * n], real_work[:, : 2 * n]).sum(axis=1, out=squares[:, p])
    return peaks.max(axis=1), np.sqrt(2.0 * squares.sum(axis=1))


def sequence_multipliers(zeta, count: int) -> np.ndarray:
    """Multipliers zeta_n ** (2n) for n = 0 .. count-1 (1 at n = 0).

    ``zeta`` is indexed from 1 and must cover indices 1 .. count-1. It is
    passed as given to :func:`squared_powers`, which checks every entry.
    """
    w = squared_powers(_sequence(zeta))
    if w.size < count:
        raise ValueError(
            f"sequence covers indices 1..{w.size - 1}, need 1..{count - 1}"
        )
    return w[:count]


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
    if np.abs(np.abs(d) - 1.0).max() > 1e-8:
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
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D multiplier array, got shape {w.shape}")
    if w.size < m + 1:
        raise ValueError(f"multipliers cover 0..{w.size - 1}, need 0..{m}")
    violation = float(_onesided_violation(symbol.coeffs[None], w[None])[0])
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
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D multiplier array, got shape {w.shape}")
    if w.size < dim:
        raise ValueError(f"multipliers cover 0..{w.size - 1}, need 0..{dim - 1}")
    violation = float(_offset_criteria(symbol.coeffs[None], w[None, :dim])[0][0])
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
    window. For a diagonal map it is computed offset by offset, for a
    dense one from the section (:func:`symmetry_residual`); the two agree
    to roundoff.
    ``coeff_condition_holds`` and ``max_coeff_violation`` refer to the
    one-sided criterion; ``agree`` records whether that verdict matches
    the residual oracle at the same tolerance. The entrywise fields hold
    the two-index criterion, the max norm of the array whose Frobenius
    norm times sqrt(2) is the residual, so ``residual >=
    entrywise_violation``. All three condition fields are None for a
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

    The map must act on dim x dim sections and the band must not exceed
    dim - 1. A diagonal-vector map (``op.diagonal``) is checked from the
    symbol's offsets in O(dim * band), with no section: the one-sided gap
    as :func:`onesided_condition` takes it, and the entrywise violation and
    the residual from one call of the offset kernel behind
    :func:`entrywise_condition`: the max norm and sqrt(2) times the
    Frobenius norm of one array, so where the two verdicts differ the
    entrywise one passes what the residual rejects. A dense factor, even a
    diagonal one such as ``AntilinearMap(np.diag(d))``, gets the section
    and the dense :func:`symmetry_residual` over all of it, and no
    criteria. The report has no window; a caller that wants a trimmed one
    for a banded dense map calls :func:`symmetry_residual` with it. The
    report is the one row of a block of :func:`explore_symmetry`'s kind,
    so its verdicts follow explore's rule.
    """
    if symbol.band > dim - 1:
        raise ValueError(f"band {symbol.band} exceeds dim - 1 = {dim - 1}")
    if op.dim != dim:
        raise ValueError(f"operator dimension {op.dim} does not match section size {dim}")
    if op.diagonal is None:
        residual = np.array([symmetry_residual(op, toeplitz_section(symbol, dim))])
        return _reports(_columns(tol, residual))[0]
    w = _multipliers(op.diagonal[None])
    coeffs = symbol.coeffs[None]
    ent, res = _offset_criteria(coeffs, w)
    return _reports(_columns(tol, res, _onesided_violation(coeffs, w), ent))[0]


class _Block(NamedTuple):
    """Trials checked together, as columns: one list entry per trial.

    ``holds`` is the oracle's verdict ``residual <= tol``. A dense map has
    no criteria: its ``onesided`` and ``entrywise`` values and their
    verdicts, ``agree`` included, are None. A lone report is a block with
    no trials, modes or seed.
    """

    tol: float
    residual: list
    onesided: list
    entrywise: list
    holds: list
    onesided_holds: list
    entrywise_holds: list
    agree: list
    trials: Sequence = ()
    modes: Sequence = ()
    seed: int | None = None


def _columns(tol, residual, onesided=None, entrywise=None, **trials) -> _Block:
    """A block from its (k,) value arrays, with the verdicts of its rows.

    Every verdict of :func:`symmetry_report` and of explore's blocks is
    made here, one pass over the block's values, compared as Python
    floats. :func:`onesided_condition`, :func:`entrywise_condition`,
    :func:`summarize_exploration` and the ``check-symmetry`` command
    compare with ``tol`` on their own, in the same way. ``trials`` are
    the block's trials, modes and seed.
    """
    residual = residual.tolist()
    holds = [r <= tol for r in residual]
    if onesided is None:
        none = [None] * len(residual)
        return _Block(tol, residual, none, none, holds, none, none, none, **trials)
    onesided, entrywise = onesided.tolist(), entrywise.tolist()
    onesided_holds = [o <= tol for o in onesided]
    entrywise_holds = [e <= tol for e in entrywise]
    agree = list(map(operator.eq, onesided_holds, holds))
    return _Block(tol, residual, onesided, entrywise, holds, onesided_holds,
                  entrywise_holds, agree, **trials)


def _reports(b: _Block) -> list[SymmetryReport]:
    """The report of each row of a block."""
    return list(map(SymmetryReport, b.residual, b.onesided_holds, b.onesided, b.agree,
                    repeat(b.tol), b.entrywise_holds, b.entrywise))


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


def _check_explore(dim: int, band: int, mode: str, seed: int, trials: range) -> None:
    """Refuse bad geometry or mode, a seed that is no int, and trials outside 0 .. 2**128 - 1.

    A negative trial gets numpy's message for a negative seed.
    """
    operator.index(seed)  # Philox would take a sequence of ints as well
    if not dim > band >= 1:
        raise ValueError("need dim > band >= 1")
    if mode not in EXPLORE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {EXPLORE_MODES}")
    if trials.start < 0:
        raise ValueError("expected non-negative integer")
    if trials[-1] >> 128:
        raise ValueError(f"trial {trials[-1]} is not below 2**128")


def _unitary_draws(dim: int, band: int, seed: int, trial: int) -> tuple:
    """A ``unitary`` trial's draws in their order: its Gaussian matrix, then its symbol.

    It takes a data-dependent number of normals, so it has a stream of its
    own, ``Generator(Philox(seed, counter=trial << 128))``, and no slot in a
    block. The matrix is the one :func:`random_unitary` orthonormalizes on
    this generator. Only :func:`_run_block` orthonormalizes it, so
    :func:`trial_draws` makes no QR.
    """
    rng = np.random.Generator(np.random.Philox(seed, counter=trial << 128))
    return _complex_gaussian(dim, rng), random_symbol(band, rng)


def _block_draws(trials: range, dim: int, band: int, seed: int, mode: str) -> tuple:
    """The draws of diagonal-mode ``trials`` as stacks, one row per trial.

    Returns the resolved modes, the sequences (k, dim - 1), their
    multipliers (k, dim) and the symbols' coefficients (k, 2 * band + 1).
    Philox is counter based (Salmon et al., SC 2011), so trial t's K
    uniforms sit at word t * K of ``Philox(seed)``, K = (dim - 1) +
    2 * (2 * band + 1) rounded up to whole four-word counter steps, and the
    block is one ``random((k, K))`` call after one ``advance``. Slots
    0 .. dim - 2 give the sequence angles 2 pi u; a constant sequence reads
    slot 0. The rest are (u1, u2) pairs, one for each n = -band .. band,
    giving the complex normal sqrt(-2 log1p(-u1)) exp(2 pi i u2) (Box and
    Muller, 1958); a one-sided half reads n = 0 .. band, so c(n) has one
    slot in every mode. The exp, the damping and the completion run once
    over the stacks, row by row, so a trial gets the same bits alone or in
    any block.
    """
    width = -(-(dim - 1 + 2 * (2 * band + 1)) // 4) * 4
    bit_generator = np.random.Philox(seed)
    bit_generator.advance(trials.start * width // 4)
    u = np.random.Generator(bit_generator).random((len(trials), width))
    modes = [("generic", "symmetrized", "constant")[t % 3] if mode == "mixed" else mode for t in trials]
    resolved = np.array(modes)
    angles = 2.0 * np.pi * u[:, : dim - 1]
    angles[resolved == "constant"] = angles[resolved == "constant", :1]
    pairs = u[:, dim - 1 : dim - 1 + 2 * (2 * band + 1)]
    raw = np.sqrt(-2.0 * np.log1p(-pairs[:, ::2])) * np.exp(2j * np.pi * pairs[:, 1::2])

    zetas = np.exp(1j * angles)
    # the multipliers of sequence_conjugation(zeta), unimodular check included
    w = squared_powers(zetas)
    coeffs = _damped(raw)
    # a one-sided half keeps c(0) .. c(band) and is completed to the negative side
    half = resolved != "generic"
    completed = _completed(band, np.arange(1, band + 1), coeffs[half, band + 1 :], w[half])
    completed[:, band] = coeffs[half, band]
    coeffs[half] = completed
    return modes, zetas, w, coeffs


def _run_block(trials: range, dim: int, band: int, seed: int, mode: str, tol: float) -> _Block:
    """The columns of ``trials``, checked as one stack in a diagonal mode.

    A diagonal block draws through :func:`_block_draws` and goes through
    the offset kernel once, with the drawn multipliers w as they are (the
    diagonal is conj(w)); a ``unitary`` trial is drawn and checked on its
    own, and has no criteria. The block's stacks are freed on return:
    the columns hold Python values only, and every consumer (records,
    report lines, summary) reads its verdicts from them.
    """
    if mode == "unitary":
        residual = []
        for t in trials:
            z, symbol = _unitary_draws(dim, band, seed, t)
            op = conjugation_from_unitary(orthonormalize(z))
            residual.append(symmetry_residual(op, toeplitz_section(symbol, dim)))
        modes = [mode] * len(trials)
        return _columns(tol, np.array(residual), trials=trials, modes=modes, seed=seed)
    modes, _, w, coeffs = _block_draws(trials, dim, band, seed, mode)
    ent, res = _offset_criteria(coeffs, w)
    return _columns(tol, res, _onesided_violation(coeffs, w), ent,
                    trials=trials, modes=modes, seed=seed)


def _records(block: _Block) -> list[ExplorationRecord]:
    """The record of each trial of ``block``."""
    pairs = ((block.seed, t) for t in block.trials)
    return list(map(ExplorationRecord, block.trials, pairs, block.modes, _reports(block)))


def trial_draws(
    trial: int, dim: int, band: int, seed: int, mode: str = "mixed"
) -> tuple[np.ndarray | None, LaurentSymbol]:
    """The sequence and symbol of one exploration trial, as (zeta, symbol).

    ``zeta`` lists the sequence for indices 1 .. dim-1; a ``unitary`` trial
    draws a dense map instead and gives None. The draws come from the same
    code as :func:`explore_symmetry`'s, a block of one that reads the
    trial's K uniforms at word trial * K of ``Philox(seed)``, so they have
    the bits that trial was checked with:
    ``symmetry_report(sequence_conjugation(zeta), symbol, dim, tol)``
    rebuilds a diagonal trial's report.
    """
    trials = range(trial, trial + 1)
    _check_explore(dim, band, mode, seed, trials)
    if mode == "unitary":
        return None, _unitary_draws(dim, band, seed, trial)[1]
    _, zetas, _, coeffs = _block_draws(trials, dim, band, seed, mode)
    return zetas[0], LaurentSymbol(band, coeffs[0])


def run_trial(
    trial: int, dim: int, band: int, seed: int, mode: str = "mixed", tol: float = DEFAULT_TOL
) -> ExplorationRecord:
    """Run a single exploration trial; (seed, trial) fixes every draw.

    This is :func:`explore_symmetry`'s block path with a block of one, so
    the record equals that trial's record in any exploration, bit for bit.
    :func:`trial_draws` gives the sequence and symbol it was checked on.
    """
    trials = range(trial, trial + 1)
    _check_explore(dim, band, mode, seed, trials)
    return _records(_run_block(trials, dim, band, seed, mode, tol))[0]


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
    independent: a diagonal trial t reads its uniforms at a fixed word
    offset of ``np.random.Philox(seed)``, and a ``unitary`` trial draws from
    ``np.random.Generator(np.random.Philox(seed, counter=t << 128))``, so
    :func:`run_trial` regenerates any record alone and :func:`trial_draws`
    its sequence and symbol. A record holds only the pair, the resolved
    mode and the report, as its JSON line does.

    Trials run in blocks of ``max(1, _STACK_ENTRIES // dim)``, as the
    module docstring describes: a diagonal block is one generator call, and
    each block becomes columns of values and verdicts (``_run_block``),
    from which the records are made. The ``explore`` command writes the
    same columns straight to record lines, block by block, with these
    records' bytes. Rows never mix, so every record has the bits
    :func:`run_trial` gives it alone. Working memory stays at a few stacks
    of 1 MiB, and what the records retain does not depend on ``dim``.
    """
    blocks = _explore_blocks(num_trials, dim, band, seed, mode, tol)
    return [record for block in blocks for record in _records(block)]


def _explore_blocks(num_trials: int, dim: int, band: int, seed: int, mode: str, tol: float):
    """:func:`explore_symmetry`'s blocks, each run as it is reached; the geometry is checked now."""
    if num_trials < 1:
        raise ValueError("need at least one trial")
    _check_explore(dim, band, mode, seed, range(num_trials))
    step = max(1, _STACK_ENTRIES // dim)
    return (
        _run_block(range(start, min(start + step, num_trials)), dim, band, seed, mode, tol)
        for start in range(0, num_trials, step)
    )


def summarize_exploration(records) -> dict:
    """Aggregate counts for an exploration run.

    Tracks how often the one-sided criterion agrees with the residual
    oracle, which trials disagree (reproducible via their seeds), whether
    the entrywise criterion ever mismatches the oracle (it should not),
    and the largest residual among trials where the one-sided criterion
    holds. The ``explore`` command folds its blocks' columns through the
    same code, so this is the reference for its summary line.
    """
    reports = ((r.trial, r.report) for r in records)
    return _summary(
        (t, p.residual, p.residual <= p.tol, p.coeff_condition_holds, p.entrywise_holds, p.agree)
        for t, p in reports
    )


def _summarize_blocks(blocks) -> dict:
    """:func:`summarize_exploration` of the records of ``blocks``, taken one block at a time."""
    return _summary(
        row
        for b in blocks
        for row in zip(b.trials, b.residual, b.holds, b.onesided_holds, b.entrywise_holds, b.agree)
    )


def _summary(rows) -> dict:
    """The summary of rows (trial, residual, holds, onesided_holds, entrywise_holds, agree)."""
    trials = checked = 0
    disagreements, mismatches, peak = [], [], None
    for trial, residual, holds, onesided_holds, entrywise_holds, agree in rows:
        trials += 1
        if onesided_holds is None:
            continue
        checked += 1
        if not agree:
            disagreements.append(trial)
        if entrywise_holds != holds:
            mismatches.append(trial)
        # the first of equal maxima, as max() keeps it
        if onesided_holds and (peak is None or residual > peak):
            peak = residual
    return {
        "trials": trials,
        "onesided_checked": checked,
        "onesided_agreements": checked - len(disagreements),
        "onesided_disagreements": len(disagreements),
        "disagreement_trials": disagreements,
        "entrywise_mismatch_trials": mismatches,
        "max_residual_when_condition_holds": peak,
    }
