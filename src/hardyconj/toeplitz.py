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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conjugations import (
    conjugation_from_unitary,
    random_unitary,
    rotation_conjugation,
    sequence_conjugation,
    squared_powers,
    unimodular,
)
from .core import AntilinearMap, frobenius_norm

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
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if c.shape != (2 * self.band + 1,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({2 * self.band + 1},)"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("symbol coefficients contain non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_pairs(cls, pairs, band: int | None = None) -> "LaurentSymbol":
        """Build from a mapping or iterable of (n, value); missing n are zero."""
        items = dict(pairs)
        if band is None:
            band = max((abs(int(n)) for n in items), default=0)
        c = np.zeros(2 * band + 1, dtype=np.complex128)
        for n, value in items.items():
            n = int(n)
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


def random_symbol(band: int, rng: np.random.Generator, scale: float = 1.0) -> LaurentSymbol:
    """Random symbol with complex Gaussian coefficients damped by 1/(1+|n|).

    The decay mimics a smooth symbol and keeps residual magnitudes
    comparable across random trials.
    """
    n = np.arange(-band, band + 1)
    raw = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
    return LaurentSymbol(band, scale * raw / (1.0 + np.abs(n)))


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


def _two_sided(symbol: LaurentSymbol, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(c(p), c(-p)) for p = 0 .. m, as two arrays indexed by p."""
    b = symbol.band
    return symbol.coeffs[b : b + m + 1], symbol.coeffs[b - m : b + 1][::-1]


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
    d = op.diagonal
    if d is None:
        raise ValueError("linear factor is dense; build the map from its diagonal vector")
    if d.size != dim:
        raise ValueError(f"operator dimension {d.size} does not match section size {dim}")
    m = min(symbol.band, dim - 1)
    plus, minus = map(np.conj, _two_sided(symbol, m))
    total = 0.0
    # one offset at a time keeps memory O(dim) when the band is near dim
    for p in range(1, m + 1):
        r = d[p:] * plus[p] - minus[p] * d[:-p]
        total += np.vdot(r, r).real
    return float(np.sqrt(2.0 * total))


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
    # validate but do not renormalize: constructed diagonals are exact already,
    # and renormalizing here would perturb multipliers that the one-sided
    # completion rule reproduces bit for bit
    if np.max(np.abs(np.abs(d) - 1.0)) > 1e-8:
        raise ValueError("diagonal entries are not unimodular")
    return np.conj(d) * d[0]


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
    # scalar arithmetic on purpose: it matches the completion rule in
    # generate_symmetric_symbol bit for bit, so completed symbols report a
    # violation of exactly zero
    violation = max(
        abs(symbol.coeff(n) * w[n] - symbol.coeff(-n)) for n in range(m + 1)
    )
    violation = float(violation)
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
    w = w[:dim]
    m = min(symbol.band, dim - 1)
    plus, minus = _two_sided(symbol, m)
    peaks = [np.max(np.abs(w[p:] * plus[p] - w[:-p] * minus[p])) for p in range(1, m + 1)]
    violation = float(np.max(peaks, initial=0.0))
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
    items = {int(n): complex(v) for n, v in dict(onesided).items()}
    if any(n < 1 for n in items):
        raise ValueError("one-sided coefficients are indexed from 1")
    band = max(items, default=0)
    w = sequence_multipliers(zeta, band + 1)
    c = np.zeros(2 * band + 1, dtype=np.complex128)
    c[band] = zero_coeff
    for n, value in items.items():
        c[band + n] = value
        c[band - n] = value * w[n]
    return LaurentSymbol(band, c)


@dataclass(frozen=True)
class SymmetryReport:
    """Operator residual next to the coefficient-criterion verdicts.

    ``residual`` covers the full section, so ``window`` is the section
    size for every map. For a diagonal map it is computed offset by offset
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
    window: int
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
    checked from the symbol's offsets in O(dim * band), with no section:
    :func:`diagonal_residual`, the one-sided criterion and
    :func:`entrywise_condition`. The residual and the entrywise check are
    separate computations, from d and conj(c) and from w and c, so their
    verdicts cross-check each other. A dense factor, even a diagonal one
    such as ``AntilinearMap(np.diag(d))``, gets the section and the dense
    :func:`symmetry_residual` over all of it, and no criteria; a caller
    that wants a trimmed window for a banded dense map calls
    :func:`symmetry_residual` with that window.
    """
    if symbol.band > dim - 1:
        raise ValueError(f"band {symbol.band} exceeds dim - 1 = {dim - 1}")
    if op.diagonal is None:
        return SymmetryReport(
            residual=symmetry_residual(op, toeplitz_section(symbol, dim)),
            window=dim,
            coeff_condition_holds=None,
            max_coeff_violation=None,
            agree=None,
            tol=tol,
        )
    residual = diagonal_residual(op, symbol, dim)
    w = diagonal_multipliers(op)
    one = onesided_condition(symbol, w, tol)
    ent = entrywise_condition(symbol, w, dim, tol)
    return SymmetryReport(
        residual=residual,
        window=dim,
        coeff_condition_holds=one.holds,
        max_coeff_violation=one.max_violation,
        agree=(residual <= tol) == one.holds,
        tol=tol,
        entrywise_holds=ent.holds,
        entrywise_violation=ent.max_violation,
    )


EXPLORE_MODES = ("mixed", "generic", "symmetrized", "constant", "unitary")


@dataclass(frozen=True)
class ExplorationRecord:
    """One randomized probe, reproducible from (seed, trial) alone."""

    trial: int
    seed: tuple
    mode: str
    zeta: np.ndarray | None
    symbol: LaurentSymbol
    report: SymmetryReport


def run_trial(
    trial: int, dim: int, band: int, seed: int, mode: str = "mixed", tol: float = DEFAULT_TOL
) -> ExplorationRecord:
    """Run a single exploration trial; (seed, trial) fixes every draw."""
    if not dim > band >= 1:
        raise ValueError("need dim > band >= 1")
    if mode not in EXPLORE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {EXPLORE_MODES}")
    resolved = ("generic", "symmetrized", "constant")[trial % 3] if mode == "mixed" else mode
    rng = np.random.default_rng((seed, trial))

    if resolved == "unitary":
        zeta = None
        op = conjugation_from_unitary(random_unitary(dim, rng))
        symbol = random_symbol(band, rng)
    else:
        if resolved == "constant":
            zeta = np.full(dim - 1, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        else:
            zeta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim - 1))
        if resolved == "generic":
            symbol = random_symbol(band, rng)
        else:
            raw = rng.standard_normal(band + 1) + 1j * rng.standard_normal(band + 1)
            onesided = {n: raw[n] / (1.0 + n) for n in range(1, band + 1)}
            symbol = generate_symmetric_symbol(onesided, zero_coeff=raw[0], zeta=zeta)
        op = sequence_conjugation(zeta)

    report = symmetry_report(op, symbol, dim, tol)
    return ExplorationRecord(trial, (seed, trial), resolved, zeta, symbol, report)


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
    independent and each reseeds from (seed, trial), so any record can be
    regenerated alone by :func:`run_trial`.
    """
    if num_trials < 1:
        raise ValueError("need at least one trial")
    return [run_trial(t, dim, band, seed, mode, tol) for t in range(num_trials)]


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
