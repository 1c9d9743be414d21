"""Unit tests for symbols, sections, and the symmetry criteria."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyconj import (
    AntilinearMap,
    ExplorationRecord,
    LaurentSymbol,
    SymmetryReport,
    canonical_conjugation,
    conjugation_from_unitary,
    diagonal_multipliers,
    entrywise_condition,
    evaluate_on_grid,
    explore_symmetry,
    fourier_coefficients,
    generate_symmetric_symbol,
    multiply_truncate,
    onesided_condition,
    phase_conjugation,
    random_symbol,
    random_unitary,
    rotation_condition,
    rotation_conjugation,
    run_trial,
    sequence_condition,
    sequence_conjugation,
    sequence_entrywise_condition,
    sequence_multipliers,
    summarize_exploration,
    symmetry_report,
    symmetry_residual,
    toeplitz_section,
    trial_draws,
    turns_conjugation,
    unimodular,
    verify_conjugation,
)
import hardyconj.toeplitz
from hardyconj.conjugations import orthonormalize
from hardyconj.core import _STACK_ENTRIES
from hardyconj.jsonio import json_line, record_to_json
from hardyconj.toeplitz import EXPLORE_MODES, matrix_bandwidth


EPS = np.finfo(np.float64).eps
OFFSET_DIMS = (2, 5, 16, 64, 256)


def random_zeta(rng, count):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def symmetrized_symbol(rng, band, zeta):
    raw = rng.standard_normal(band + 1) + 1j * rng.standard_normal(band + 1)
    onesided = {n: raw[n] / (1.0 + n) for n in range(1, band + 1)}
    return generate_symmetric_symbol(onesided, zero_coeff=raw[0], zeta=zeta)


def section_entrywise_violation(section, multipliers):
    """Reference entrywise check on a dense section: max |s - s^T| for s = diag(w) T."""
    dim = section.shape[0]
    s = np.asarray(multipliers, dtype=np.complex128)[:dim, None] * section
    return float(np.max(np.abs(s - s.T)))


def offset_form_draws(dim):
    """Seeded (label, map, symbol) triples at section size dim.

    Each band drawn from 1 .. dim-1 (both ends always included) pairs a
    random symbol with every diagonal family, plus one trial of each
    explore mode that draws a diagonal map.
    """
    rng = np.random.default_rng((3, dim))
    bands = sorted({1, dim - 1, *rng.integers(1, dim, 6).tolist()})
    for band in bands:
        yield "j", canonical_conjugation(dim), random_symbol(band, rng)
        lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        yield "lambda", rotation_conjugation(lam, dim), random_symbol(band, rng)
        alpha = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))
        yield "alpha", phase_conjugation(alpha), random_symbol(band, rng)
        yield "zeta", sequence_conjugation(random_zeta(rng, dim - 1)), random_symbol(band, rng)
        for mode in ("generic", "symmetrized", "constant"):
            turns, symbol = trial_draws(band, dim, band, seed=dim, mode=mode)
            yield mode, turns_conjugation(turns), symbol


class TestLaurentSymbol:
    def test_from_pairs_and_coeff_lookup(self):
        sym = LaurentSymbol.from_pairs({2: 1j, -1: 3.0})
        assert sym.band == 2
        assert sym.coeff(2) == 1j
        assert sym.coeff(-1) == 3.0
        assert sym.coeff(0) == 0.0
        assert sym.coeff(5) == 0.0

    def test_equality_is_exact(self):
        a = LaurentSymbol.from_pairs({1: 1.0}, band=1)
        b = LaurentSymbol.from_pairs({1: 1.0}, band=1)
        c = LaurentSymbol.from_pairs({1: 1.0 + 1e-12}, band=1)
        assert a == b
        assert a != c

    def test_rejects_index_beyond_band(self):
        with pytest.raises(ValueError, match="exceeds band"):
            LaurentSymbol.from_pairs({3: 1.0}, band=2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LaurentSymbol(0, np.array([np.nan]))

    @pytest.mark.parametrize("pairs, band, key", [({1.5: 2.0}, 2, "1.5"), ({0.5: 1}, None, "0.5")])
    def test_rejects_non_integral_index(self, pairs, band, key):
        # int() would truncate the key and store the value at another index
        with pytest.raises(ValueError, match=f"index {key} is not an integer"):
            LaurentSymbol.from_pairs(pairs, band=band)

    def test_numpy_integer_keys_build_the_same_symbol(self):
        plain = {2: 1j, -1: 3.0}
        numpy_keys = {np.int64(2): 1j, np.int32(-1): 3.0}
        assert LaurentSymbol.from_pairs(numpy_keys) == LaurentSymbol.from_pairs(plain)
        assert generate_symmetric_symbol(
            {np.int64(1): 1.0, np.int16(2): 2j}, zeta=[1j, 1.0]
        ) == generate_symmetric_symbol({1: 1.0, 2: 2j}, zeta=[1j, 1.0])

    @pytest.mark.parametrize("band", [2.0, np.float64(2.0), "2"], ids=["float", "float64", "str"])
    def test_rejects_non_integral_band(self, band):
        # refused, not truncated: symbol_to_json's range(-band, band + 1) needs an int
        with pytest.raises(ValueError, match=re.escape(f"band {band!r} is not an integer")):
            LaurentSymbol(band, np.zeros(5))

    # each constructor that takes a band checks it before using it, so numpy's
    # TypeError or IndexError, or a negative array size, never shows
    BAD_BANDS = pytest.mark.parametrize(
        "band, message",
        [(band, f"band {band!r} is not an integer") for band in (2.0, np.float64(2.0), "2")]
        + [(band, "band must be nonnegative") for band in (-1, np.int64(-3))],
        ids=["float", "float64", "str", "negative", "negative-int64"],
    )

    @BAD_BANDS
    def test_from_pairs_checks_the_band(self, band, message):
        for pairs in ({1: 1.0}, {}, {5: 1.0, 1.5: 2.0}):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                LaurentSymbol.from_pairs(pairs, band=band)

    @BAD_BANDS
    def test_random_symbol_checks_the_band(self, band, message):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_symbol(band, rng)
        assert rng.bit_generator.state == state  # refused before any draw

    @BAD_BANDS
    def test_fourier_coefficients_checks_the_band(self, band, message):
        for samples in (np.ones(8), np.ones(2), np.ones((2, 2))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fourier_coefficients(samples, band)

    def test_coefficients_are_frozen(self):
        sym = LaurentSymbol.from_pairs({0: 1.0})
        with pytest.raises(ValueError):
            sym.coeffs[0] = 2.0


class TestFourierCoefficients:
    def test_constant_samples(self):
        sym = fourier_coefficients(np.full(8, 2.5 - 1j), 2)
        assert sym.coeff(0) == pytest.approx(2.5 - 1j)
        for n in (-2, -1, 1, 2):
            assert abs(sym.coeff(n)) <= 1e-14

    def test_single_harmonic(self):
        samples = np.exp(2j * np.pi * np.arange(8) / 8)
        sym = fourier_coefficients(samples, 1)
        assert sym.coeff(1) == pytest.approx(1.0)
        assert abs(sym.coeff(0)) <= 1e-14
        assert abs(sym.coeff(-1)) <= 1e-14

    @pytest.mark.parametrize("extra", [0, 7])
    def test_round_trip_through_grid_synthesis(self, extra):
        rng = np.random.default_rng(41)
        for _ in range(10):
            band = int(rng.integers(0, 6))
            sym = random_symbol(band, rng)
            samples = evaluate_on_grid(sym, 2 * band + 1 + extra)
            back = fourier_coefficients(samples, band)
            np.testing.assert_allclose(back.coeff_array(), sym.coeff_array(), atol=1e-12, rtol=0)

    def test_too_few_samples_alias(self):
        with pytest.raises(ValueError, match="alias"):
            fourier_coefficients(np.ones(4), 2)


class TestToeplitzSection:
    def test_constant_symbol_gives_identity(self):
        sym = LaurentSymbol.from_pairs({0: 1.0})
        np.testing.assert_allclose(toeplitz_section(sym, 4), np.eye(4))

    def test_z_gives_lower_shift(self):
        sym = LaurentSymbol.from_pairs({1: 1.0})
        expected = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        np.testing.assert_allclose(toeplitz_section(sym, 3), expected)

    def test_inverse_z_gives_upper_shift(self):
        sym = LaurentSymbol.from_pairs({-1: 1.0})
        expected = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        np.testing.assert_allclose(toeplitz_section(sym, 3), expected)

    def test_constant_diagonals_and_band_limit(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            band = int(rng.integers(0, 5))
            sym = random_symbol(band, rng)
            t = toeplitz_section(sym, 12)
            for j in range(12):
                for k in range(12):
                    assert t[j, k] == sym.coeff(j - k)
                    if abs(j - k) > band:
                        assert t[j, k] == 0.0

    @pytest.mark.parametrize(
        "band,dim", [(0, 1), (3, 1), (0, 5), (3, 4), (5, 3), (4, 24), (8, 8), (8, 512)]
    )
    def test_equals_scipy_toeplitz(self, band, dim):
        sym = random_symbol(band, np.random.default_rng(1000 * band + dim))
        col = np.array([sym.coeff(j) for j in range(dim)])
        row = np.array([sym.coeff(-k) for k in range(dim)])
        np.testing.assert_array_equal(toeplitz_section(sym, dim), scipy.linalg.toeplitz(col, row))

    def test_matches_convolution_oracle_on_interior(self):
        rng = np.random.default_rng(47)
        dim = 24
        for _ in range(50):
            band = int(rng.integers(0, 9))
            sym = random_symbol(band, rng)
            f = np.zeros(dim, dtype=np.complex128)
            keep = dim - band
            f[:keep] = rng.standard_normal(keep) + 1j * rng.standard_normal(keep)
            product = toeplitz_section(sym, dim) @ f
            oracle = multiply_truncate(sym, f)
            np.testing.assert_allclose(product[:keep], oracle[:keep], atol=1e-12, rtol=0)

    def test_matches_convolution_oracle_everywhere_for_truncated_input(self):
        # with input already truncated to the section, every output entry is exact
        rng = np.random.default_rng(53)
        sym = random_symbol(4, rng)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(
            toeplitz_section(sym, 16) @ f, multiply_truncate(sym, f), atol=1e-12, rtol=0
        )


class TestSymmetryResidual:
    def test_real_symmetric_symbol_with_canonical_conjugation(self):
        rng = np.random.default_rng(59)
        values = rng.standard_normal(4)
        sym = LaurentSymbol.from_pairs(
            {0: values[0], 1: values[1], -1: values[1], 2: values[2], -2: values[2]}
        )
        t = toeplitz_section(sym, 12)
        assert symmetry_residual(canonical_conjugation(12), t) <= 1e-12

    def test_matched_quarter_turn_coefficients_vanish(self):
        sym = LaurentSymbol.from_pairs({1: 1.0, -1: 1j})
        op = rotation_conjugation(1j, 16)
        t = toeplitz_section(sym, 16)
        for window in (4, 9, 16):
            assert symmetry_residual(op, t, window) <= 1e-12

    def test_mismatched_coefficients_give_large_residual(self):
        sym = LaurentSymbol.from_pairs({1: 1.0, -1: 1.0})
        op = rotation_conjugation(1j, 16)
        t = toeplitz_section(sym, 16)
        residual = symmetry_residual(op, t, 16)
        assert residual >= 0.5
        # each off-by-one entry contributes |i - 1| on both triangles
        assert residual == pytest.approx(np.sqrt(2.0) * np.sqrt(2 * 15))

    def test_agrees_with_entry_loop_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            dim = 10
            sym = random_symbol(3, rng)
            zeta = random_zeta(rng, dim - 1)
            op = sequence_conjugation(zeta)
            t = toeplitz_section(sym, dim)
            a = op.a_matrix
            loop = np.zeros((dim, dim), dtype=np.complex128)
            for j in range(dim):
                for k in range(dim):
                    left = sum(a[j, p] * np.conj(t[p, k]) for p in range(dim))
                    right = sum(np.conj(t[p, j]) * a[p, k] for p in range(dim))
                    loop[j, k] = left - right
            assert symmetry_residual(op, t) == pytest.approx(np.linalg.norm(loop), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            symmetry_residual(canonical_conjugation(4), np.eye(5))

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            symmetry_residual(canonical_conjugation(4), np.eye(4), 0)


class TestOnesidedConditions:
    def test_symmetric_coefficients_hold_at_unit_rotation(self):
        sym = LaurentSymbol.from_pairs({1: 2.0 - 1j, -1: 2.0 - 1j, 0: 0.5})
        report = rotation_condition(sym, 1.0)
        assert report.holds
        assert report.max_violation <= 1e-15

    def test_quarter_turn_matched_pair_holds(self):
        report = rotation_condition(LaurentSymbol.from_pairs({1: 1.0, -1: 1j}), 1j)
        assert report.holds
        assert report.max_violation == 0.0

    def test_quarter_turn_mismatch_violates_by_sqrt_two(self):
        report = rotation_condition(LaurentSymbol.from_pairs({1: 1.0, -1: 1.0}), 1j)
        assert not report.holds
        assert report.max_violation == pytest.approx(np.sqrt(2.0))

    def test_constant_symbol_holds_for_any_sequence(self):
        sym = LaurentSymbol.from_pairs({0: 3.0 - 2j})
        assert sequence_condition(sym, []).holds

    def test_eighth_turn_entry_forces_quarter_turn_coefficient(self):
        zeta = [np.exp(1j * np.pi / 4.0)]
        good = LaurentSymbol.from_pairs({1: 1.0, -1: 1j})
        bad = LaurentSymbol.from_pairs({1: 1.0, -1: 1.0})
        assert sequence_condition(good, zeta).holds
        assert not sequence_condition(bad, zeta).holds

    def test_sequence_must_cover_band(self):
        sym = LaurentSymbol.from_pairs({2: 1.0})
        with pytest.raises(ValueError, match="1..2"):
            sequence_condition(sym, [1j])


class TestEntrywiseCondition:
    def test_constant_sequence_reduces_to_onesided(self):
        rng = np.random.default_rng(67)
        dim = 16
        for trial in range(30):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            zeta = np.full(dim - 1, np.exp(1j * theta / 2.0))
            lam = np.exp(1j * theta)
            sym = (
                random_symbol(3, rng)
                if trial % 2
                else symmetrized_symbol(rng, 3, zeta)
            )
            one = sequence_condition(sym, zeta)
            ent = sequence_entrywise_condition(sym, zeta, dim)
            rot = rotation_condition(sym, lam)
            assert one.holds == ent.holds == rot.holds

    def test_constant_symbol_holds_for_any_sequence(self):
        rng = np.random.default_rng(71)
        sym = LaurentSymbol.from_pairs({0: 1.5 + 0.5j})
        zeta = random_zeta(rng, 11)
        assert sequence_entrywise_condition(sym, zeta, 12).holds

    def test_flag_matches_residual_oracle(self):
        rng = np.random.default_rng(73)
        for trial in range(100):
            dim = int(rng.integers(6, 33))
            band = int(rng.integers(1, min(6, dim)))
            if trial % 3 == 0:
                zeta = np.full(dim - 1, np.exp(1j * rng.uniform(0, 2 * np.pi)))
                sym = symmetrized_symbol(rng, band, zeta)
            elif trial % 3 == 1:
                zeta = random_zeta(rng, dim - 1)
                sym = symmetrized_symbol(rng, band, zeta)
            else:
                zeta = random_zeta(rng, dim - 1)
                sym = random_symbol(band, rng)
            flag = sequence_entrywise_condition(sym, zeta, dim).holds
            residual = symmetry_residual(
                sequence_conjugation(zeta), toeplitz_section(sym, dim)
            )
            assert flag == (residual <= 1e-10)

    def test_multipliers_must_cover_dim(self):
        sym = LaurentSymbol.from_pairs({1: 1.0})
        with pytest.raises(ValueError, match="1..7"):
            sequence_entrywise_condition(sym, [1j, 1j], 8)

    def test_rejects_empty_section(self):
        with pytest.raises(ValueError, match="positive"):
            entrywise_condition(LaurentSymbol.from_pairs({0: 1.0}), [1.0], 0)

    @pytest.mark.parametrize("band, dim", [(5, 3), (9, 2), (4, 1)])
    def test_band_beyond_section_equals_section_reference(self, band, dim):
        # offsets beyond dim - 1 fall outside the section and are not checked
        rng = np.random.default_rng((79, band, dim))
        for _ in range(5):
            sym = random_symbol(band, rng)
            w = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))
            reference = section_entrywise_violation(toeplitz_section(sym, dim), w)
            assert entrywise_condition(sym, w, dim).max_violation == reference


class TestGenerateSymmetricSymbol:
    def test_quarter_turn_entry_gives_negated_mirror(self):
        sym = generate_symmetric_symbol({1: 1.0}, zeta=[1j])
        assert sym.coeff(-1) == pytest.approx(-1.0)
        assert sequence_condition(sym, [1j]).max_violation == 0.0

    def test_empty_input_gives_constant_symbol(self):
        sym = generate_symmetric_symbol({}, zero_coeff=3.0)
        assert sym.band == 0
        assert sym.coeff(0) == 3.0

    def test_constant_sequence_output_satisfies_rotation_criterion(self):
        rng = np.random.default_rng(79)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        zeta = np.full(4, np.exp(1j * theta / 2.0))
        sym = symmetrized_symbol(rng, 4, zeta)
        assert rotation_condition(sym, np.exp(1j * theta), tol=1e-12).holds

    def test_entrywise_holding_outputs_have_tiny_residual(self):
        # one-sided completion with a constant sequence is entrywise symmetric,
        # and then the full-window residual vanishes to roundoff
        rng = np.random.default_rng(83)
        dim = 20
        for _ in range(20):
            zeta = np.full(dim - 1, np.exp(1j * rng.uniform(0, 2 * np.pi)))
            sym = symmetrized_symbol(rng, 3, zeta)
            assert sequence_entrywise_condition(sym, zeta, dim).holds
            residual = symmetry_residual(
                sequence_conjugation(zeta), toeplitz_section(sym, dim)
            )
            assert residual <= 1e-12

    def test_absent_indices_stay_positive_zero(self):
        # c(n) * w_n of an absent c(n) = 0 is -0.0 in a part for w_n in the
        # second or third quadrant; only the given indices are completed
        rng = np.random.default_rng(127)
        for _ in range(20):
            c = generate_symmetric_symbol({8: 1.0, 3: 2.0}, zeta=random_zeta(rng, 8)).coeffs
            absent = [8 - n for n in (1, 2, 4, 5, 6, 7)] + [8 + n for n in (1, 2, 4, 5, 6, 7)]
            assert not np.signbit(c[absent].real).any() and not np.signbit(c[absent].imag).any()

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError, match="indexed from 1"):
            generate_symmetric_symbol({0: 1.0})

    def test_rejects_non_integral_index(self):
        # truncated, 1.2 would overwrite c(1) and c(-1) with 5
        with pytest.raises(ValueError, match="index 1.2 is not an integer"):
            generate_symmetric_symbol({1: 1.0, 1.2: 5.0}, zeta=[1.0])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        band=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        constant=st.booleans(),
        scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e3, 1e9]),
    )
    def test_completion_meets_the_onesided_check_exactly(self, band, seed, constant, scale):
        # the completion and the check must form c(n) * w_n with the same
        # rounding; numpy's vector complex multiply rounds differently from
        # the scalar one in a large share of products, so a mismatch shows
        rng = np.random.default_rng(seed)
        zeta = (
            np.full(band, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            if constant
            else random_zeta(rng, band)
        )
        present = rng.random(band) < 0.8
        present[-1] = True
        values = scale * (rng.standard_normal(band) + 1j * rng.standard_normal(band))
        onesided = {n: values[n - 1] for n in range(1, band + 1) if present[n - 1]}
        sym = generate_symmetric_symbol(onesided, zero_coeff=values[0], zeta=zeta)
        report = onesided_condition(sym, sequence_multipliers(zeta, band + 1))
        assert report.max_violation == 0.0


class TestMatrixBandwidth:
    def test_diagonal_is_zero(self):
        assert matrix_bandwidth(np.diag([1.0, 2.0, 3.0])) == 0

    def test_zero_matrix_is_zero(self):
        assert matrix_bandwidth(np.zeros((4, 4))) == 0

    def test_tridiagonal_is_one(self):
        m = np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)
        assert matrix_bandwidth(m) == 1

    def test_dense_is_full(self):
        assert matrix_bandwidth(np.ones((6, 6))) == 5


class TestSymmetryReport:
    def test_diagonal_conjugation_reports_both_criteria(self):
        rng = np.random.default_rng(89)
        zeta = random_zeta(rng, 15)
        sym = symmetrized_symbol(rng, 3, zeta)
        report = symmetry_report(sequence_conjugation(zeta), sym, 16)
        assert report.coeff_condition_holds is True
        assert report.entrywise_holds is not None
        assert report.agree == ((report.residual <= report.tol) is True)

    def test_holds_is_the_oracle_verdict(self):
        # a lone report, diagonal, dense and dense-diagonal, with tol below, at and above its residual
        rng = np.random.default_rng(113)
        sym = random_symbol(3, rng)
        diagonal = sequence_conjugation(random_zeta(rng, 11))
        maps = (diagonal, AntilinearMap(diagonal.a_matrix), conjugation_from_unitary(random_unitary(12, 5)))
        for op in maps:
            residual = symmetry_report(op, sym, 12).residual
            for tol in (residual / 2, residual, 2 * residual):
                report = symmetry_report(op, sym, 12, tol=tol)
                assert report.holds is (report.residual <= tol), (op.diagonal is None, tol)
        zeta = np.full(11, np.exp(0.7j))
        assert symmetry_report(sequence_conjugation(zeta), symmetrized_symbol(rng, 3, zeta), 12).holds

    def test_band_beyond_section_rejected(self):
        sym = LaurentSymbol.from_pairs({5: 1.0})
        with pytest.raises(ValueError, match="band"):
            symmetry_report(canonical_conjugation(4), sym, 4)

    def test_non_unimodular_diagonal_rejected(self):
        sym = LaurentSymbol.from_pairs({-1: 1.0, 1: 1.0})
        with pytest.raises(ValueError, match="diagonal entries are not unimodular"):
            symmetry_report(AntilinearMap(2.0 * np.ones(8)), sym, 8)

    def test_dense_conjugation_reports_residual_only(self):
        rng = np.random.default_rng(97)
        sym = random_symbol(2, rng)
        op = conjugation_from_unitary(
            np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))[0]
        )
        report = symmetry_report(op, sym, 12)
        assert report.coeff_condition_holds is None
        assert report.agree is None
        assert report.residual == symmetry_residual(op, toeplitz_section(sym, 12))

    def test_builds_one_section_per_report(self, monkeypatch):
        built = []
        original = hardyconj.toeplitz.toeplitz_section

        def counting(symbol, dim):
            built.append(dim)
            return original(symbol, dim)

        monkeypatch.setattr(hardyconj.toeplitz, "toeplitz_section", counting)
        rng = np.random.default_rng(109)
        sym = random_symbol(3, rng)
        dense = conjugation_from_unitary(np.linalg.qr(
            rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        )[0])
        # a diagonal map is checked from the symbol's offsets, a dense one
        # from exactly one section
        for op, sections in ((sequence_conjugation(random_zeta(rng, 9)), []), (dense, [10])):
            built.clear()
            symmetry_report(op, sym, 10)
            assert built == sections

    def test_dense_form_of_a_diagonal_map_reports_residual_only(self, diagonal_families):
        rng = np.random.default_rng(103)
        for name, op in diagonal_families:
            sym = random_symbol(3, rng)
            structured = symmetry_report(op, sym, op.dim)
            dense = symmetry_report(AntilinearMap(op.a_matrix), sym, op.dim)
            assert structured.coeff_condition_holds is not None, name
            # offset form against the dense product: the same norm to roundoff
            bound = op.dim * EPS * np.linalg.norm(toeplitz_section(sym, op.dim))
            assert abs(dense.residual - structured.residual) <= bound, name
            for field in ("coeff_condition_holds", "max_coeff_violation", "agree",
                          "entrywise_holds", "entrywise_violation"):
                assert getattr(dense, field) is None, (name, field)


class TestOffsetForms:
    @pytest.mark.parametrize("dim", OFFSET_DIMS)
    def test_residual_matches_dense_oracle(self, dim):
        for label, op, sym in offset_form_draws(dim):
            t = toeplitz_section(sym, dim)
            oracle = symmetry_residual(op, t)
            report = symmetry_report(op, sym, dim)
            assert abs(report.residual - oracle) <= dim * EPS * np.linalg.norm(t), (
                label, sym.band
            )
            assert (report.residual <= report.tol) == (oracle <= report.tol), (label, sym.band)

    @pytest.mark.parametrize("dim", OFFSET_DIMS)
    def test_entrywise_equals_section_reference(self, dim):
        for label, op, sym in offset_form_draws(dim):
            w = diagonal_multipliers(op)
            reference = section_entrywise_violation(toeplitz_section(sym, dim), w)
            report = symmetry_report(op, sym, dim)
            assert report.entrywise_violation == reference, (label, sym.band)
            assert entrywise_condition(sym, w, dim).max_violation == reference, label

    @pytest.mark.parametrize("dim", [2, 3, 8, 24, 512])
    def test_residual_bounds_the_entrywise_violation(self, dim):
        # two norms of one array x: sqrt(2 * sum |x|^2) >= sqrt(2) * max |x|, so
        # residual >= entrywise and no tol passes the residual but not entrywise
        band = min(dim - 1, 8)
        reports = [
            r.report
            for mode in EXPLORE_MODES
            if mode != "unitary"
            for r in explore_symmetry(100, dim, band, seed=59, mode=mode)
        ]
        for t in range(6):
            turns, sym = trial_draws(t, dim, band, seed=61)
            for scale in (1e-12, 1.0, 1e6):
                scaled = LaurentSymbol(band, scale * sym.coeffs)
                reports.append(symmetry_report(turns_conjugation(turns), scaled, dim))
        for report in reports:
            assert report.residual >= np.sqrt(2.0) * (1.0 - dim * EPS) * report.entrywise_violation

    def test_residual_rejects_dense_map_and_wrong_size(self, diagonal_families):
        rng = np.random.default_rng(113)
        for name, op in diagonal_families:
            sym = random_symbol(2, rng)
            with pytest.raises(ValueError, match="match"):
                symmetry_report(op, sym, op.dim + 1)

    def test_dense_map_of_wrong_size_is_refused_before_its_section(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a section was built")

        monkeypatch.setattr(hardyconj.toeplitz, "toeplitz_section", refuse)
        sym = LaurentSymbol.from_pairs({-1: 1.0, 1: 1.0})
        dense = AntilinearMap(np.eye(6))
        for dim in (5, 7):
            with pytest.raises(
                ValueError, match=f"operator dimension 6 does not match section size {dim}"
            ):
                symmetry_report(dense, sym, dim)

    def test_onesided_gap_equals_the_report_bit_for_bit(self, diagonal_families):
        rng = np.random.default_rng(131)
        for name, op in diagonal_families:
            for band in (0, 1, 3, op.dim - 1):
                sym = random_symbol(band, rng)
                alone = onesided_condition(sym, diagonal_multipliers(op)).max_violation
                report = symmetry_report(op, sym, op.dim).max_coeff_violation
                assert alone == report, (name, band)

    def test_large_report_builds_no_matrix(self, monkeypatch):
        dim, band = 4096, 8
        rng = np.random.default_rng(127)
        generic = (sequence_conjugation(random_zeta(rng, dim - 1)), random_symbol(band, rng))
        zeta = np.full(dim - 1, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        constant = (sequence_conjugation(zeta), symmetrized_symbol(rng, band, zeta))

        def refuse(*args):
            raise AssertionError("an N x N matrix was built")

        monkeypatch.setattr(hardyconj.toeplitz, "toeplitz_section", refuse)
        monkeypatch.setattr(AntilinearMap, "a_matrix", property(refuse))
        for (op, sym), symmetric in ((generic, False), (constant, True)):
            tracemalloc.start()
            try:
                report = symmetry_report(op, sym, dim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000
            assert (report.residual <= report.tol) is symmetric
            assert report.entrywise_holds is symmetric
            assert report.agree is True


class TestDiagonalMultipliers:
    def test_equal_conjugated_diagonal_times_first_entry(self, diagonal_families):
        for name, op in diagonal_families:
            a = op.a_matrix
            expected = np.conj(np.diag(a)) * a[0, 0]
            np.testing.assert_array_equal(diagonal_multipliers(op), expected, err_msg=name)

    def test_rejects_dense_map(self, diagonal_families):
        for name, op in diagonal_families:
            with pytest.raises(ValueError, match="dense"):
                diagonal_multipliers(AntilinearMap(op.a_matrix))

    def test_rejects_non_unimodular_vector(self):
        for d in ([1.0, 2.0], [1.0, 1.0 + 1e-6]):
            with pytest.raises(ValueError, match="diagonal entries are not unimodular"):
                diagonal_multipliers(AntilinearMap(np.array(d)))

    def test_rotation_condition_equals_power_form(self):
        rng = np.random.default_rng(107)
        for trial in range(40):
            band = int(rng.integers(0, 9))
            lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            if trial % 2:
                sym = symmetrized_symbol(rng, band, np.full(max(band, 1), np.sqrt(lam)))
            else:
                sym = random_symbol(band, rng)
            powers = complex(unimodular([lam])[0]) ** np.arange(sym.band + 1)
            assert rotation_condition(sym, lam) == onesided_condition(sym, powers)


def nested_block_unitary(dim, seed):
    """Bandwidth-1 unitary whose leading sections nest exactly across sizes."""
    assert dim % 2 == 0
    blocks = []
    for b in range(dim // 2):
        rng = np.random.default_rng((seed, b))
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blocks.append(np.linalg.qr(z)[0])
    return scipy.linalg.block_diag(*blocks)


class TestBandedWindowStability:
    def test_windowed_residual_stable_under_doubling(self):
        # symmetric-by-construction candidates T0/2 + C T0* C/2 for a banded
        # conjugation: the residual on window dim - (band + bandwidth) is
        # unaffected by building at twice the size and truncating back
        seed, band = 5, 3
        rng = np.random.default_rng(101)
        sym = random_symbol(band, rng)

        def windowed_residual(dim, built_at):
            u = nested_block_unitary(built_at, seed)
            op_full = conjugation_from_unitary(u)
            a = op_full.a_matrix
            t0 = toeplitz_section(sym, built_at)
            candidate = 0.5 * (t0 + a @ t0.T @ np.conj(a))
            op = conjugation_from_unitary(nested_block_unitary(dim, seed))
            window = dim - (band + matrix_bandwidth(op.a_matrix))
            return symmetry_residual(op, candidate[:dim, :dim], window)

        base = windowed_residual(32, built_at=32)
        doubled = windowed_residual(32, built_at=64)
        redoubled = windowed_residual(32, built_at=128)
        assert base <= 1e-10
        assert abs(doubled - base) <= 1e-10
        assert abs(redoubled - doubled) <= 1e-10


class TestExploration:
    def test_records_reproducible_from_seed(self):
        records = explore_symmetry(12, 16, 3, seed=7, mode="mixed")
        again = explore_symmetry(12, 16, 3, seed=7, mode="mixed")

        for a, b in zip(records, again):
            assert record_to_json(a) == record_to_json(b)
        # any single record regenerates alone from (seed, trial), and so do its draws
        alone = run_trial(5, 16, 3, seed=7, mode="mixed")
        assert record_to_json(alone) == record_to_json(records[5])
        turns, symbol = trial_draws(5, 16, 3, seed=7, mode="mixed")
        again_turns, again_symbol = trial_draws(5, 16, 3, seed=7, mode="mixed")
        assert np.array_equal(turns, again_turns) and symbol == again_symbol
        # and every record's draws rebuild its report
        for r in records:
            turns, symbol = trial_draws(r.trial, 16, 3, seed=7, mode="mixed")
            assert symmetry_report(turns_conjugation(turns), symbol, 16) == r.report, r.trial

    def test_constant_mode_always_agrees(self):
        records = explore_symmetry(30, 16, 3, seed=11, mode="constant")
        summary = summarize_exploration(records)
        assert summary["onesided_disagreements"] == 0
        assert summary["entrywise_mismatch_trials"] == []

    @pytest.mark.parametrize("dim, seeds", [(4096, 40), (8192, 40), (16384, 10), (65536, 10)])
    def test_constant_mode_agrees_at_large_sections(self, dim, seeds):
        # seeds 15 and 27 at 4096 disagreed while the multipliers came from cpow
        for seed in range(seeds):
            report = run_trial(2, dim, 8, seed).report
            assert report.agree, seed
            assert report.entrywise_holds == (report.residual <= report.tol), seed

    def test_symmetrized_mode_onesided_holds_by_construction(self):
        records = explore_symmetry(30, 16, 3, seed=13, mode="symmetrized")
        for r in records:
            assert r.report.coeff_condition_holds is True
            assert r.report.entrywise_holds == (r.report.residual <= r.report.tol)

    @pytest.mark.parametrize("mode", EXPLORE_MODES)
    def test_holds_is_the_oracle_verdict(self, mode):
        # at the default tol and at the median residual, where both verdicts occur
        residuals = sorted(r.report.residual for r in explore_symmetry(40, 12, 2, seed=19, mode=mode))
        for tol in (1e-10, residuals[20]):
            records = explore_symmetry(40, 12, 2, seed=19, mode=mode, tol=tol)
            for r in records:
                assert r.report.holds is (r.report.residual <= tol), (tol, r.trial)
        assert {r.report.holds for r in records} == {True, False}

    def test_unitary_mode_reports_residual_only(self):
        records = explore_symmetry(5, 12, 2, seed=17, mode="unitary")
        for r in records:
            assert trial_draws(r.trial, 12, 2, seed=17, mode="unitary")[0] is None
            assert r.report.coeff_condition_holds is None
        summary = summarize_exploration(records)
        assert summary["onesided_checked"] == 0
        assert summary["onesided_disagreements"] == 0

    def test_summary_of_hand_made_records(self):
        # every summary field from reports whose verdicts are given, not computed:
        # a dense trial, a disagreement, an entrywise mismatch and two holding trials
        def record(trial, residual, holds, onesided=None, entrywise=None, agree=None):
            report = SymmetryReport(residual, holds, onesided, 0.0, agree, 1e-10, entrywise, 0.0)
            return ExplorationRecord(trial, (3, trial), "generic", report)

        records = [
            record(0, 0.5, False),
            record(1, 0.5, False, onesided=True, entrywise=False, agree=False),
            record(2, 1e-12, True, onesided=False, entrywise=False, agree=False),
            record(3, 2e-11, True, onesided=True, entrywise=True, agree=True),
            record(4, 1e-11, True, onesided=True, entrywise=True, agree=True),
        ]
        assert summarize_exploration(records) == {
            "trials": 5,
            "onesided_checked": 4,
            "onesided_agreements": 2,
            "onesided_disagreements": 2,
            "disagreement_trials": [1, 2],
            "entrywise_mismatch_trials": [2],
            "max_residual_when_condition_holds": 0.5,
        }

    def test_verdicts_hold_at_tol(self):
        # each verdict is value <= tol, so a tolerance equal to a value holds
        rng = np.random.default_rng(23)
        op = sequence_conjugation(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 15)))
        symbol = random_symbol(3, rng)
        report = symmetry_report(op, symbol, 16)
        at = symmetry_report(op, symbol, 16, tol=report.max_coeff_violation)
        assert at.coeff_condition_holds and at.agree == (report.residual <= at.tol)
        assert symmetry_report(op, symbol, 16, tol=report.entrywise_violation).entrywise_holds
        assert symmetry_report(op, symbol, 16, tol=report.residual).agree == (
            report.max_coeff_violation <= report.residual
        )

    def test_verdicts_are_python_bools_under_a_numpy_tol(self):
        # numpy arithmetic makes np.float64 tolerances; a numpy bool verdict is
        # not JSON and is never `is False`
        tol = np.float64(1e-10)
        records = explore_symmetry(120, 24, 4, seed=42, tol=tol)
        assert records == explore_symmetry(120, 24, 4, seed=42)
        culprits = [r.trial for r in records if r.report.agree is False]
        assert culprits and culprits == summarize_exploration(records)["disagreement_trials"]
        rng = np.random.default_rng(29)
        symbol = random_symbol(3, rng)
        zeta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 15))
        reports = [r.report for r in records] + [
            symmetry_report(sequence_conjugation(zeta), symbol, 16, tol=tol),
            symmetry_report(sequence_conjugation(zeta), LaurentSymbol(0, [1.0]), 16, tol=tol),
        ]
        verdicts = [v for p in reports for v in (p.coeff_condition_holds, p.agree, p.entrywise_holds)]
        w = sequence_multipliers(zeta, 16)
        conditions = [onesided_condition(symbol, w, tol), entrywise_condition(symbol, w, 16, tol)]
        verdicts += [c.holds for c in conditions]
        certs = [verify_conjugation(op, trials=3, tol=tol)
                 for op in (sequence_conjugation(zeta), conjugation_from_unitary(random_unitary(4, 1)))]
        verdicts += [c.passed for c in certs]
        assert {type(v) for v in verdicts} == {bool} and {True, False} <= set(verdicts)
        assert {type(x.tol) for x in reports + conditions + certs} == {float}

    def test_mixed_mode_cycles_styles(self):
        records = explore_symmetry(6, 12, 2, seed=19, mode="mixed")
        assert [r.mode for r in records] == [
            "generic", "symmetrized", "constant", "generic", "symmetrized", "constant",
        ]

    def test_validates_geometry(self):
        with pytest.raises(ValueError, match="band"):
            explore_symmetry(3, 4, 4, seed=0)

    def test_onesided_multiplier_shortage_detected(self):
        sym = LaurentSymbol.from_pairs({2: 1.0})
        with pytest.raises(ValueError, match="0..1"):
            onesided_condition(sym, np.ones(2))

    def test_entrywise_multiplier_shortage_detected(self):
        sym = LaurentSymbol.from_pairs({1: 1.0})
        with pytest.raises(ValueError, match="0..3"):
            entrywise_condition(sym, np.ones(4), 5)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
    def test_two_dimensional_multipliers_are_refused(self, shape):
        sym = LaurentSymbol.from_pairs({1: 1.0, -1: 1.0})
        for check in (
            lambda w: onesided_condition(sym, w),
            lambda w: entrywise_condition(sym, w, 5),
        ):
            with pytest.raises(ValueError, match="expected a 1-D multiplier array, got shape"):
                check(np.ones(shape).tolist())

    def test_sequence_multipliers_squared_powers(self):
        zeta = np.array([1j, np.exp(1j * np.pi / 4.0)])
        w = sequence_multipliers(zeta, 3)
        np.testing.assert_allclose(w, [1.0, -1.0, -1.0], atol=1e-14, rtol=0)


def same_record(block, alone):
    """A record from a block equals the record of its trial run alone, bit for bit.

    A record holds only what its JSON line holds; its draws are compared
    through :func:`trial_draws` with :func:`same_draws`.
    """
    assert json_line(record_to_json(block)) == json_line(record_to_json(alone))
    assert (block.trial, block.seed, block.mode) == (alone.trial, alone.seed, alone.mode)


def same_draws(got, expected):
    """Two (turns, symbol) pairs hold the same bits; a unitary trial's turns are None."""
    (turns, symbol), (turns_ref, symbol_ref) = got, expected
    if turns_ref is None:
        assert turns is None
    else:
        assert turns.dtype == turns_ref.dtype == np.uint64
        assert turns.tobytes() == turns_ref.tobytes()
    assert symbol.band == symbol_ref.band
    assert symbol.coeffs.tobytes() == symbol_ref.coeffs.tobytes()


def trial_stream(seed, trial):
    """A ``unitary`` trial's generator for ``seed``, from numpy's public Philox constructor."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=trial << 128))


def trial_uniforms(seed, trial, dim, band):
    """A diagonal trial's K uniforms, read alone with numpy's public Philox API.

    K is (dim - 1) + 2 (2 band + 1), rounded up to a multiple of 4, and the
    trial's row starts at word trial * K of ``Philox(seed)``.
    """
    width = dim - 1 + 2 * (2 * band + 1)
    width += -width % 4
    bit_generator = np.random.Philox(seed)
    bit_generator.advance(trial * width // 4)
    return np.random.Generator(bit_generator).random(width)


def box_muller(u, dim, band):
    """The complex normals of n = -band .. band from a row's (u1, u2) pairs."""
    u1 = u[..., dim - 1 :: 2][..., : 2 * band + 1]
    u2 = u[..., dim :: 2][..., : 2 * band + 1]
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)


def per_trial_records(trials, dim, band, seed, mode, tol=hardyconj.toeplitz.DEFAULT_TOL):
    """Diagonal-mode explore records, and their (turns, symbol) draws, built trial by trial.

    The reference for explore's block draws. Each trial reads its own row
    with :func:`trial_uniforms`: the first dim - 1 uniforms u give its
    turns, the integers u * 2**53 (the first alone for a constant
    sequence), and its map is ``turns_conjugation`` of them; the pairs
    after them give its normals by :func:`box_muller`. A generic symbol is
    ``1.0 * raw / (1 + |n|)``; a one-sided half keeps n >= 0, damped in
    place, and each half is completed entry by entry, c(-n) = c(n) * w_n
    in scalar real arithmetic, and each trial checked alone.
    """
    modes, turns, symbols = [], [], []
    for trial in trials:
        resolved = ("generic", "symmetrized", "constant")[trial % 3] if mode == "mixed" else mode
        u = trial_uniforms(seed, trial, dim, band)
        a = np.array([int(x * 2**53) for x in u[: dim - 1]], dtype=np.uint64)
        if resolved == "constant":
            a[:] = a[0]
        turns.append(a)
        raw = box_muller(u, dim, band)
        if resolved == "generic":
            n = np.arange(-band, band + 1)
            symbols.append(LaurentSymbol(band, 1.0 * raw / (1.0 + np.abs(n))))
        else:
            raw = raw[band:]
            raw[1:] /= 1.0 + np.arange(1, band + 1)
            symbols.append(raw)
        modes.append(resolved)

    ops = [turns_conjugation(a) for a in turns]
    w = np.stack([np.conj(op.diagonal) for op in ops])
    for i, half in enumerate(symbols):
        if not isinstance(half, LaurentSymbol):
            # (a + ib)(c + id) with the products and sums of the real form, one float at a time
            a, b = half.real.tolist(), half.imag.tolist()
            c, d = w[i].real.tolist(), w[i].imag.tolist()
            mirror = [complex(a[n] * c[n] - b[n] * d[n], a[n] * d[n] + b[n] * c[n])
                      for n in range(band, 0, -1)]
            symbols[i] = LaurentSymbol(band, np.concatenate([mirror, half]))
    records = [
        ExplorationRecord(trial, (seed, trial), resolved, symmetry_report(op, symbol, dim, tol))
        for trial, resolved, op, symbol in zip(trials, modes, ops, symbols)
    ]
    return records, list(zip(turns, symbols))


class TestExplorationBlocks:
    """explore_symmetry checks its diagonal trials as stacks; each record still replays alone."""

    @pytest.mark.parametrize("mode", EXPLORE_MODES)
    def test_every_record_equals_its_trial_alone(self, mode):
        records = explore_symmetry(200, 24, 4, seed=31, mode=mode)
        for t, record in enumerate(records):
            same_record(record, run_trial(t, 24, 4, seed=31, mode=mode))

    @pytest.mark.parametrize("mode", [m for m in EXPLORE_MODES if m != "unitary"])
    def test_records_equal_their_trials_across_blocks(self, mode):
        dim, trials = 4096, 40
        step = max(1, _STACK_ENTRIES // dim)
        assert trials > 2 * step  # three blocks or more
        records = explore_symmetry(trials, dim, 8, seed=37, mode=mode)
        for t, record in enumerate(records):
            same_record(record, run_trial(t, dim, 8, seed=37, mode=mode))
        # each of explore's blocks draws what its trials draw alone
        for start in range(0, trials, step):
            block = range(start, min(start + step, trials))
            _, turns, _, coeffs = hardyconj.toeplitz._block_draws(block, dim, 8, 37, mode)
            for t, a, c in zip(block, turns, coeffs):
                same_draws((a, LaurentSymbol(8, c)), trial_draws(t, dim, 8, seed=37, mode=mode))

    @pytest.mark.parametrize(
        "mode, dim, band, trials",
        [(mode, 24, 4, 200) for mode in EXPLORE_MODES if mode != "unitary"]
        + [("mixed", 2, 1, 30), ("mixed", 300, 299, 20), ("mixed", 512, 8, 3), ("mixed", 4096, 8, 40)],
    )
    def test_block_draws_equal_the_per_trial_construction(self, mode, dim, band, trials):
        records = explore_symmetry(trials, dim, band, seed=53, mode=mode)
        reference, draws = per_trial_records(range(trials), dim, band, 53, mode)
        modes, turns, _, coeffs = hardyconj.toeplitz._block_draws(range(trials), dim, band, 53, mode)
        assert len(records) == len(reference) == len(turns) == trials
        assert modes == [r.mode for r in reference]
        for t, (block, alone, expected) in enumerate(zip(records, reference, draws)):
            same_record(block, alone)
            same_record(run_trial(t, dim, band, seed=53, mode=mode), alone)
            same_draws(trial_draws(t, dim, band, seed=53, mode=mode), expected)
            same_draws((turns[t], LaurentSymbol(band, coeffs[t])), expected)

    @pytest.mark.parametrize("dim, band, trials", [(24, 4, 200), (512, 8, 3), (4096, 8, 40)])
    def test_every_record_rebuilds_from_its_turns(self, dim, band, trials):
        # the public replay path: the integer turns of trial_draws, through
        # turns_conjugation, give the record's report bit for bit
        for r in explore_symmetry(trials, dim, band, seed=67, mode="mixed"):
            turns, symbol = trial_draws(r.trial, dim, band, seed=67)
            report = symmetry_report(turns_conjugation(turns), symbol, dim)
            same_record(r, ExplorationRecord(r.trial, r.seed, r.mode, report))

    def test_unitary_draws_follow_the_haar_unitary(self):
        # random_unitary draws two dim x dim normal matrices, and the symbol follows
        dim, band = 24, 4
        records = explore_symmetry(20, dim, band, seed=31, mode="unitary")
        n = np.arange(-band, band + 1)
        for t, record in enumerate(records):
            rng = trial_stream(31, t)
            z = rng.standard_normal((2, dim, dim))
            raw = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
            symbol = LaurentSymbol(band, 1.0 * raw / (1.0 + np.abs(n)))
            same_draws(trial_draws(t, dim, band, seed=31, mode="unitary"), (None, symbol))
            op = conjugation_from_unitary(orthonormalize(z[0] + 1j * z[1]))
            alone = ExplorationRecord(t, (31, t), "unitary", symmetry_report(op, symbol, dim))
            same_record(record, alone)

    def test_records_hold_only_their_json_fields(self, monkeypatch):
        fields = [f.name for f in dataclasses.fields(ExplorationRecord)]
        assert fields == ["trial", "seed", "mode", "report"]
        built = []
        post_init = LaurentSymbol.__post_init__

        def counting_post_init(symbol):
            built.append(symbol.band)
            post_init(symbol)

        monkeypatch.setattr(LaurentSymbol, "__post_init__", counting_post_init)
        records = explore_symmetry(200, 24, 4, seed=43, mode="mixed")
        assert len(records) == 200
        assert built == []
        # the counter sees a symbol that is built
        trial_draws(0, 24, 4, seed=43)
        assert built == [4]

    @pytest.mark.parametrize("dim, band, height", [(2, 1, 5), (24, 4, 64), (4500, 9, 7), (9000, 3, 3)])
    def test_kernel_rows_do_not_depend_on_the_stack(self, dim, band, height):
        # stacks long enough that a buffered reduction would split rows
        rng = np.random.default_rng((47, dim))
        d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (height, dim)))
        coeffs = rng.standard_normal((height, 2 * band + 1)) + 1j * rng.standard_normal(
            (height, 2 * band + 1)
        )
        w = hardyconj.toeplitz._multipliers(d)

        def kernel(i):
            rows = slice(None) if i is None else slice(i, i + 1)
            return (
                hardyconj.toeplitz._onesided_violation(coeffs[rows], w[rows]),
                *hardyconj.toeplitz._offset_criteria(coeffs[rows], w[rows]),
            )

        stacked = kernel(None)
        for i in range(height):
            for whole, alone in zip(stacked, kernel(i)):
                assert whole[i].tobytes() == alone[0].tobytes(), i

    def test_memory_is_bounded_by_the_block(self):
        # a record keeps its report and no draws, so what a run retains does
        # not grow with N; the peak is one block's work, a few stacks of
        # 1 MiB. At N = 2**16 a block holds one trial, where a single stack
        # of all 8 trials would peak near 60 MB.
        for trials, dim in ((8, 2**16), (400, 4096)):
            tracemalloc.start()
            try:
                records = explore_symmetry(trials, dim, 8, seed=41)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(records) == trials
            assert retained < 2_000_000, (trials, dim)
            assert peak < 12_000_000, (trials, dim)

    def test_mixed_run_checks_each_block_once(self, monkeypatch):
        reports, kernels = [], []
        report, kernel = hardyconj.toeplitz.symmetry_report, hardyconj.toeplitz._offset_criteria

        def counting_report(*args, **kwargs):
            reports.append(args)
            return report(*args, **kwargs)

        def counting_kernel(coeffs, w):
            kernels.append(coeffs.shape[0])
            return kernel(coeffs, w)

        monkeypatch.setattr(hardyconj.toeplitz, "symmetry_report", counting_report)
        monkeypatch.setattr(hardyconj.toeplitz, "_offset_criteria", counting_kernel)
        explore_symmetry(200, 24, 4, seed=43, mode="mixed")
        assert reports == []
        assert kernels == [200]
        kernels.clear()
        explore_symmetry(40, 4096, 8, seed=43, mode="mixed")
        assert reports == []
        step = _STACK_ENTRIES // 4096
        assert kernels == [step] * (40 // step) + [40 % step] * (40 % step > 0)



class TestTrialSeeding:
    """A diagonal trial t reads K uniforms at word t * K of Philox(seed); a unitary one has its own counter."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 3, 10**40])
    @pytest.mark.parametrize(
        "trials",
        [[0], [1], [2**64 + 1], [2**128 - 1], range(40), [5, 2**32, 0, 2**128 - 1, 2**64 + 1, 1]],
    )
    def test_generators_are_numpys(self, seed, trials):
        # every trial's draws come from its own row of numpy's Philox words,
        # whatever trials come before it
        _, draws = per_trial_records(trials, 24, 4, seed, "mixed")
        for t, expected in zip(trials, draws):
            same_draws(trial_draws(t, 24, 4, seed=seed), expected)
        if isinstance(trials, range):
            _, turns, _, coeffs = hardyconj.toeplitz._block_draws(trials, 24, 4, seed, "mixed")
            for a, c, expected in zip(turns, coeffs, draws):
                same_draws((a, LaurentSymbol(4, c)), expected)

    @pytest.mark.parametrize(
        "seed, trial, words",
        [(1, 0, {"dim": 24, "band": 4, "width": 44,
                 "raw": [0x1119EFBD6BC0CE3A, 0x143A31DF2C79CF7E],
                 "uniforms": [0.0668020093396563, 0.07901298235490295],
                 "turns": [601699008739353, 711685675781945]}),
         (10**40, 2**64 + 1, {"dim": 5, "band": 2, "width": 16,
                              "raw": [0xA783118AAE1A0D62, 0xCBD1B8519C550DDA],
                              "uniforms": [0.6543436969351221, 0.7961688231701666],
                              "turns": [5893804059378497, 7171251230706337]})],
    )
    def test_stream_is_pinned(self, seed, trial, words):
        # numpy keeps Philox's stream fixed, so only a change of key or row
        # layout moves these words, and with them every seeded record
        dim, band = words["dim"], words["band"]
        bit_generator = np.random.Philox(seed)
        bit_generator.advance(trial * words["width"] // 4)
        assert bit_generator.random_raw(2).tolist() == words["raw"]
        uniforms = trial_uniforms(seed, trial, dim, band)
        assert uniforms[:2].tolist() == words["uniforms"]
        # the first two slots are the sequence's first two turns, a_n = u_n * 2**53
        turns, _ = trial_draws(trial, dim, band, seed=seed, mode="generic")
        assert turns[:2].tolist() == words["turns"]
        assert [u * 2**53 for u in words["uniforms"]] == words["turns"]
        assert [r >> 11 for r in words["raw"]] == words["turns"]

    def test_large_seeds_and_trials_replay(self):
        trials, seed = [2, 2**32 - 1, 2**32, 2**64 + 1, 2**128 - 1], 10**40
        reference, draws = per_trial_records(trials, 24, 4, seed, "mixed")
        tol = reference[0].report.tol
        for t, expected, expected_draws in zip(trials, reference, draws):
            # a block that ends at t, as explore's last block before it would
            block = range(t - 2, t + 1)
            same_record(hardyconj.toeplitz._records(
                hardyconj.toeplitz._run_block(block, 24, 4, seed, "mixed", tol))[-1], expected)
            same_record(run_trial(t, 24, 4, seed=seed), expected)
            same_draws(trial_draws(t, 24, 4, seed=seed), expected_draws)
            _, turns, _, coeffs = hardyconj.toeplitz._block_draws(block, 24, 4, seed, "mixed")
            same_draws((turns[-1], LaurentSymbol(4, coeffs[-1])), expected_draws)

    @pytest.mark.parametrize("mode", EXPLORE_MODES)
    def test_negative_seed_or_trial_is_numpys_error(self, mode):
        message = "expected non-negative integer"
        with pytest.raises(ValueError, match=message):
            np.random.default_rng((-1, 0))
        for call in (
            lambda: run_trial(-1, 8, 2, seed=3, mode=mode),
            lambda: run_trial(0, 8, 2, seed=-1, mode=mode),
            lambda: trial_draws(-1, 8, 2, seed=3, mode=mode),
            lambda: trial_draws(0, 8, 2, seed=-1, mode=mode),
            lambda: explore_symmetry(3, 8, 2, seed=-1, mode=mode),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("seed", [3.0, [1, 2]])
    def test_seed_must_be_an_int(self, seed):
        # numpy's Philox would take a sequence of ints, and a record's seed pair would hold it
        for mode in EXPLORE_MODES:
            for call in (
                lambda: run_trial(0, 8, 2, seed=seed, mode=mode),
                lambda: trial_draws(0, 8, 2, seed=seed, mode=mode),
                lambda: explore_symmetry(3, 8, 2, seed=seed, mode=mode),
            ):
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    call()

    @pytest.mark.parametrize("mode", EXPLORE_MODES)
    def test_trial_beyond_the_counter_is_refused(self, mode):
        for call in (
            lambda: run_trial(2**128, 8, 2, seed=3, mode=mode),
            lambda: trial_draws(2**128, 8, 2, seed=3, mode=mode),
            # an exploration is checked whole before its first trial is drawn
            lambda: hardyconj.toeplitz._explore_blocks(2**128 + 1, 8, 2, 3, mode, 1e-10),
        ):
            with pytest.raises(ValueError, match="2\\*\\*128"):
                call()

    def test_unitary_trial_draws_make_no_qr(self, monkeypatch):
        dim, band = 64, 8
        expected = [trial_draws(t, dim, band, seed=19, mode="unitary") for t in range(3)]

        def no_qr(*args, **kwargs):
            raise AssertionError("QR factorization")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        for t in range(3):
            same_draws(trial_draws(t, dim, band, seed=19, mode="unitary"), expected[t])
        # the record still orthonormalizes its draw
        with pytest.raises(AssertionError, match="QR"):
            run_trial(0, dim, band, seed=19, mode="unitary")


def block_normals(monkeypatch, trials, dim, band, seed, mode):
    """``_block_draws`` of a block, and the complex normals it drew, before damping."""
    seen, damped = [], hardyconj.toeplitz._damped
    monkeypatch.setattr(hardyconj.toeplitz, "_damped", lambda raw: seen.append(raw.copy()) or damped(raw))
    draws = hardyconj.toeplitz._block_draws(trials, dim, band, seed, mode)
    monkeypatch.undo()
    (raw,) = seen
    return draws, raw


class TestDrawDistribution:
    """A block's normals are the Box-Muller transform of its uniforms, standard in law."""

    @pytest.mark.parametrize("dim, band", [(24, 4), (2, 1), (300, 7)])
    def test_normals_are_box_muller_of_the_uniforms(self, monkeypatch, dim, band):
        trials = range(5, 45)
        _, raw = block_normals(monkeypatch, trials, dim, band, 7, "generic")
        expected = np.stack([box_muller(trial_uniforms(7, t, dim, band), dim, band) for t in trials])
        assert raw.shape == (len(trials), 2 * band + 1)
        assert raw.tobytes() == expected.tobytes()

    def test_normals_and_angles_have_their_moments(self, monkeypatch):
        (_, turns, _, _), raw = block_normals(monkeypatch, range(1112), 24, 4, 11, "generic")
        x, y = raw.real.ravel(), raw.imag.ravel()
        n = x.size
        assert n >= 10_000
        for part in (x, y):
            assert abs(part.mean()) < 5.0 / np.sqrt(n)
            # the sample variance of n standard normals has standard error sqrt(2 / n)
            assert abs(part.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
        # x y has mean 0 and variance 1 when the parts are independent standard normals
        assert abs(np.mean(x * y)) < 5.0 / np.sqrt(n)
        turns = turns.ravel() / 2**53
        # uniform turns on [0, 1) have standard deviation 1 / sqrt(12)
        assert abs(turns.mean() - 0.5) < 5.0 / np.sqrt(12.0 * turns.size)

    @pytest.mark.parametrize("mode", ["symmetrized", "constant"])
    def test_onesided_half_is_the_generic_draw(self, monkeypatch, mode):
        dim, band, trials = 24, 4, range(3, 9)
        (_, generic_turns, _, generic), generic_raw = block_normals(
            monkeypatch, trials, dim, band, 23, "generic")
        (_, turns, _, coeffs), raw = block_normals(monkeypatch, trials, dim, band, 23, mode)
        # c(n) has one slot in every mode, so the half is the generic row's n >= 0
        assert raw[:, band + 1 :].tobytes() == generic_raw[:, band + 1 :].tobytes()
        assert coeffs[:, band:].tobytes() == generic[:, band:].tobytes()
        if mode == "constant":
            assert (turns == generic_turns[:, :1]).all()
        else:
            assert turns.tobytes() == generic_turns.tobytes()
