"""Unit tests for the conjugation constructors and their certification."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hardyconj import (
    AntilinearMap,
    NotUnitaryError,
    canonical_conjugation,
    conjugation_from_unitary,
    factor_diagonal,
    phase_conjugation,
    random_unitary,
    rotation_conjugation,
    sequence_conjugation,
    sequence_unitary,
    squared_powers,
    unimodular,
    verify_conjugation,
)
from hardyconj.conjugations import (
    _REPEATED_POWER_LIMIT,
    _split_angle,
    _unit_powers,
    orthonormalize,
)
from hardyconj.core import _STACK_ENTRIES


def random_angles(rng, n):
    return rng.uniform(0.0, 2.0 * np.pi, n)


def gram_schmidt(matrix):
    """Reference orthonormalization: modified Gram-Schmidt with a second pass.

    The re-orthogonalization pass keeps ||Q*Q - I||_F near machine epsilon
    even at a few hundred dimensions.
    """
    q = np.array(matrix, dtype=np.complex128)
    n = q.shape[1]
    for _ in range(2):
        for j in range(n):
            q[:, j] /= np.linalg.norm(q[:, j])
            if j + 1 < n:
                q[:, j + 1 :] -= np.outer(q[:, j], np.conj(q[:, j]) @ q[:, j + 1 :])
    return q


def per_pair_samples(op, trials, seed):
    """Reference sampled residuals: (isometry, involution) drawn and reduced one pair at a time."""
    rng = np.random.default_rng(seed)

    def unit_vector():
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        return v / np.linalg.norm(v)

    isometry = involution = 0.0
    for _ in range(trials):
        f = unit_vector()
        g = unit_vector()
        isometry = max(isometry, abs(np.vdot(op(g), op(f)) - np.vdot(f, g)))
        involution = max(involution, float(np.linalg.norm(op(op(f)) - f)))
    return isometry, involution


class TestUnimodular:
    def test_renormalizes(self):
        v = unimodular([1.0 + 1e-14])
        assert abs(v[0]) == 1.0

    def test_error_names_offending_index(self):
        # a non-finite modulus is refused as off the circle, under the same message
        cases = ((0.5, "0.5"), (np.nan, "nan"), (np.inf, "inf"), (complex(np.nan, 1), "nan"))
        for bad, modulus in cases:
            with pytest.raises(ValueError, match=f"index 2 has modulus {modulus},"):
                unimodular([1.0, 1j, bad])

    def test_start_index_shifts_error_message(self):
        with pytest.raises(ValueError, match="index 3"):
            unimodular([1.0, 1j, 0.5], start_index=1)


class TestCanonicalConjugation:
    def test_entrywise_conjugation(self):
        j = canonical_conjugation(2)
        np.testing.assert_allclose(j([1 + 1j, 2.0]), [1 - 1j, 2.0])

    def test_involution_on_random_vectors(self):
        j = canonical_conjugation(8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            np.testing.assert_allclose(j(j(f)), f, atol=1e-15, rtol=0)

    def test_fixes_real_basis_vectors(self):
        j = canonical_conjugation(4)
        for n in range(4):
            e = np.zeros(4)
            e[n] = 1.0
            np.testing.assert_allclose(j(e), e)


class TestRotationConjugation:
    def test_unit_rotation_is_canonical(self):
        np.testing.assert_allclose(
            rotation_conjugation(1.0, 5).a_matrix, canonical_conjugation(5).a_matrix
        )

    def test_half_turn(self):
        op = rotation_conjugation(-1.0, 3)
        np.testing.assert_allclose(op([1.0, 1.0, 1.0]), [1.0, -1.0, 1.0])

    def test_quarter_turn(self):
        op = rotation_conjugation(1j, 3)
        np.testing.assert_allclose(op([0.0, 1.0, 0.0]), [0.0, -1j, 0.0])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="modulus"):
            rotation_conjugation(2.0, 4)


class TestPhaseConjugation:
    def test_conjugate_powers_reproduce_rotation(self):
        rng = np.random.default_rng(3)
        for theta in random_angles(rng, 10):
            lam = np.exp(1j * theta)
            alpha = np.conj(lam ** np.arange(16))
            np.testing.assert_allclose(
                phase_conjugation(alpha).a_matrix,
                rotation_conjugation(lam, 16).a_matrix,
                atol=1e-12,
                rtol=0,
            )

    def test_all_ones_is_canonical(self):
        np.testing.assert_allclose(
            phase_conjugation(np.ones(6)).a_matrix, canonical_conjugation(6).a_matrix
        )

    def test_two_entry_example(self):
        op = phase_conjugation([1.0, -1.0])
        np.testing.assert_allclose(op([1j, 1j]), [-1j, 1j])

    def test_rejects_non_unimodular_entry(self):
        with pytest.raises(ValueError, match="index 1"):
            phase_conjugation([1.0, 0.9, 1j])


class TestSequenceConjugation:
    def test_constant_half_angle_matches_rotation(self):
        # constant entries exp(i theta/2) give multiplier conj(exp(i theta))**n
        rng = np.random.default_rng(7)
        for theta in random_angles(rng, 10):
            zeta = np.full(31, np.exp(1j * theta / 2.0))
            lam = np.exp(1j * theta)
            np.testing.assert_allclose(
                sequence_conjugation(zeta).a_matrix,
                rotation_conjugation(lam, 32).a_matrix,
                atol=1e-12,
                rtol=0,
            )

    def test_half_turn_multipliers_alternate(self):
        zeta = np.full(7, np.exp(1j * np.pi / 2.0))
        diag = np.diag(sequence_conjugation(zeta).a_matrix)
        np.testing.assert_allclose(diag, (-1.0) ** np.arange(8), atol=1e-12, rtol=0)

    def test_conjugated_root_entries_give_explicit_phases(self):
        # zeta_n = conj(exp(i theta_n / (2n))) makes coefficient n pick up exp(i theta_n)
        rng = np.random.default_rng(9)
        thetas = random_angles(rng, 15)
        n = np.arange(1, 16)
        zeta = np.conj(np.exp(1j * thetas / (2.0 * n)))
        alpha = np.concatenate(([1.0], np.exp(1j * thetas)))
        np.testing.assert_allclose(
            sequence_conjugation(zeta).a_matrix,
            phase_conjugation(alpha).a_matrix,
            atol=1e-12,
            rtol=0,
        )

    def test_all_ones_is_canonical(self):
        np.testing.assert_allclose(
            sequence_conjugation(np.ones(5)).a_matrix, canonical_conjugation(6).a_matrix
        )

    def test_rejects_non_unimodular_entry(self):
        with pytest.raises(ValueError, match="index 2"):
            sequence_conjugation([1j, 1.5])


def exact_phase_powers(z, e):
    """exp(i e arg z) entrywise at 200 bits, rounded to complex128 at the end.

    The power of a unimodular value is its phase power: a renormalized z
    has modulus one up to an ulp, which z ** e would raise to the power e.
    A sequence with one repeated value takes a running product of
    exp(2i arg z) instead of one exponential per entry, which is the same
    number far sooner.
    """
    with mpmath.workprec(200):
        if np.all(z == z[0]) and np.array_equal(e, 2 * np.arange(1, z.size + 1)):
            step = mpmath.expj(2 * mpmath.arg(mpmath.mpc(complex(z[0]))))
            w = mpmath.mpc(1)
            out = []
            for _ in e:
                w *= step
                out.append(complex(w))
            return np.array(out)
        phases = (mpmath.arg(mpmath.mpc(complex(a))) for a in z)
        return np.array([complex(mpmath.expj(int(k) * t)) for t, k in zip(phases, e)])


class TestUnitPowers:
    """Powers of unit-circle values: numpy's own below exponent 100, a split angle from there on."""

    def test_equals_numpy_power_below_the_limit(self):
        rng = np.random.default_rng(3)
        e = np.arange(_REPEATED_POWER_LIMIT)
        z = np.concatenate(
            [
                np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (6, e.size))),
                rng.standard_normal((2, e.size)) + 1j * rng.standard_normal((2, e.size)),
                np.full((1, e.size), 1j),
            ]
        )
        for got, want in ((_unit_powers(z, e), z**e), (_unit_powers(np.array([1j]), e), 1j**e)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert squared_powers([1j])[1] == -1.0

    @pytest.mark.parametrize("constant", [False, True], ids=["generic", "constant"])
    @pytest.mark.parametrize("dim", [512, 4096, 16384])
    def test_no_less_accurate_than_cpow(self, dim, constant):
        rng = np.random.default_rng(dim)
        theta = rng.uniform(0.0, 2.0 * np.pi, 1 if constant else dim - 1)
        z = unimodular(np.broadcast_to(np.exp(1j * theta), dim - 1))
        e = 2 * np.arange(1, dim)
        exact = exact_phase_powers(z, e)
        error = np.max(np.abs(squared_powers(z)[1:] - exact))
        cpow_error = np.max(np.abs(z**e - exact))  # numpy's power, libm cpow from e = 100
        assert error <= cpow_error

    def test_high_part_of_the_angle_scales_exactly(self):
        rng = np.random.default_rng(7)
        z = np.concatenate(
            [np.exp(1j * rng.uniform(-np.pi, np.pi, 200)), [-1.0, 1j, np.exp(3.1415926j)]]
        )
        hi, lo = _split_angle(z)
        for e in (2 * (16384 - 1), 2**27 - 1):  # the largest exponent tested; the documented bound
            for h, l, theta in zip(hi, lo, np.angle(z)):
                assert Fraction(h) + Fraction(l) == Fraction(theta)
                assert Fraction(e * h) == e * Fraction(h)

    def test_off_the_circle_keeps_its_meaning(self):
        for modulus in (0.99, 1.01):
            z = np.exp(1j * np.linspace(0.0, 6.0, 300))
            z[150] *= modulus
            message = f"has modulus {modulus}, expected 1 within 1e-12"
            with pytest.raises(ValueError, match=f"entry at index 151 {message}"):
                squared_powers(z)
            with pytest.raises(ValueError, match=f"entry at index 1 {message}"):
                squared_powers(np.broadcast_to(modulus * z[:1], (2, 300)))


class TestSequenceUnitary:
    def test_rescaled_basis_is_orthonormal(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            zeta = np.exp(1j * random_angles(rng, 31))
            u = sequence_unitary(zeta)
            assert np.linalg.norm(u.conj().T @ u - np.eye(32)) <= 1e-12


class TestConjugationFromUnitary:
    def test_diagonal_powers_reproduce_sequence_family(self):
        # at N = 512 both take powers from exponent 100 on from a split
        # angle; with libm cpow in one of them the gap was about 6e-13
        rng = np.random.default_rng(15)
        for dim, atol in ((24, 1e-12), (512, 1e-13)):
            zeta = np.exp(1j * random_angles(rng, dim - 1))
            via_unitary = conjugation_from_unitary(sequence_unitary(zeta))
            direct = sequence_conjugation(zeta)
            np.testing.assert_allclose(
                via_unitary.a_matrix, direct.a_matrix, rtol=0, atol=atol, err_msg=str(dim)
            )

    def test_identity_gives_canonical(self):
        np.testing.assert_allclose(
            conjugation_from_unitary(np.eye(6)).a_matrix, canonical_conjugation(6).a_matrix
        )

    def test_random_unitary_passes_axioms(self):
        for seed in range(5):
            op = conjugation_from_unitary(random_unitary(24, seed))
            cert = verify_conjugation(op, trials=60, tol=1e-10, seed=seed)
            assert cert.passed

    def test_factor_is_unitary_and_transpose_symmetric(self):
        for seed in range(10):
            a = conjugation_from_unitary(random_unitary(32, seed)).a_matrix
            assert np.linalg.norm(a.conj().T @ a - np.eye(32)) <= 1e-10
            assert np.linalg.norm(a - a.T) <= 1e-10

    def test_rejects_non_unitary_and_carries_residual(self):
        with pytest.raises(NotUnitaryError) as err:
            conjugation_from_unitary(2.0 * np.eye(3))
        assert err.value.residual == pytest.approx(3.0 * np.sqrt(3.0))


class TestCoefficientMatrix:
    """Column n of the linear factor holds the expansion coefficients of C(z^n)."""

    def test_rotation_expansion_is_diagonal_in_conjugate_powers(self):
        theta = 0.8
        lam = np.exp(1j * theta)
        b = rotation_conjugation(lam, 12).a_matrix
        np.testing.assert_allclose(b, np.diag(np.conj(lam ** np.arange(12))), atol=1e-14, rtol=0)

    def test_conjugated_root_sequence_expansion_is_phase_diagonal(self):
        rng = np.random.default_rng(21)
        thetas = random_angles(rng, 11)
        n = np.arange(1, 12)
        zeta = np.conj(np.exp(1j * thetas / (2.0 * n)))
        b = sequence_conjugation(zeta).a_matrix
        expected = np.diag(np.concatenate(([1.0], np.exp(1j * thetas))))
        np.testing.assert_allclose(b, expected, atol=1e-12, rtol=0)

    def test_canonical_gives_identity(self):
        np.testing.assert_allclose(canonical_conjugation(4).a_matrix, np.eye(4))

    def test_columns_orthonormal_for_valid_conjugations(self):
        b = conjugation_from_unitary(random_unitary(16, 4)).a_matrix
        np.testing.assert_allclose(b.conj().T @ b, np.eye(16), atol=1e-12, rtol=0)


class TestVerifyConjugation:
    def test_valid_sequence_conjugation_passes(self):
        rng = np.random.default_rng(23)
        zeta = np.exp(1j * random_angles(rng, 63))
        cert = verify_conjugation(sequence_conjugation(zeta), trials=100, seed=0)
        assert cert.passed
        assert cert.isometry_residual <= 1e-10
        assert cert.involution_residual <= 1e-10

    @pytest.mark.parametrize("dim", [16384, 65536])
    def test_large_rotation_passes_on_the_unit_circle(self, dim):
        # |w_n| off 1 by about n * eps would give a unitarity residual near
        # N**1.5 * eps, above the 1e-10 tolerance at these sizes
        for theta in (0.7, 1.0, 3.0):
            op = rotation_conjugation(np.exp(1j * theta), dim)
            cert = verify_conjugation(op, trials=1)
            assert cert.passed and cert.a_unitarity_residual <= 1e-12, theta
            assert np.max(np.abs(np.abs(op.diagonal) - 1.0)) <= 1e-13, theta

    @pytest.mark.parametrize("constant", [False, True], ids=["generic", "constant"])
    @pytest.mark.parametrize("dim", [8192, 16384])
    def test_large_sequence_passes_on_the_unit_circle(self, dim, constant):
        theta = np.random.default_rng(dim).uniform(0.0, 2.0 * np.pi, 1 if constant else dim - 1)
        op = sequence_conjugation(np.broadcast_to(np.exp(1j * theta), dim - 1))
        cert = verify_conjugation(op, trials=1)
        assert cert.passed and cert.a_unitarity_residual <= 1e-12
        assert np.max(np.abs(np.abs(op.diagonal) - 1.0)) <= 1e-13

    def test_scaling_fails_isometry_and_unitarity(self):
        cert = verify_conjugation(AntilinearMap(2.0 * np.eye(4)), trials=20, seed=1)
        assert not cert.passed
        assert cert.isometry_residual > 1e-10
        assert cert.a_unitarity_residual > 1e-10

    def test_antisymmetric_unitary_fails_involution_and_symmetry_only(self):
        op = AntilinearMap(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        cert = verify_conjugation(op, trials=50, seed=2)
        assert not cert.passed
        assert cert.isometry_residual <= 1e-10
        assert cert.a_unitarity_residual <= 1e-10
        assert cert.involution_residual > 1e-10
        assert cert.a_symmetry_residual > 1e-10

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            verify_conjugation(canonical_conjugation(2), trials=0)

    @pytest.mark.parametrize("factor", [1e200 * np.ones(8), 1e200 * np.eye(8)], ids=["vector", "dense"])
    def test_overflowing_samples_report_inf(self, factor):
        # the sampled gaps overflow to NaN, which max() and <= would pass as zero
        with np.errstate(over="ignore", invalid="ignore"):
            cert = verify_conjugation(AntilinearMap(factor), trials=10, seed=3)
        assert cert.isometry_residual == np.inf
        assert cert.involution_residual == np.inf
        assert not cert.passed

    def test_structured_certificate_matches_dense(self, diagonal_families):
        dim = diagonal_families[0][1].dim
        # a scaled vector fails the axioms, so both verdicts are compared
        cases = diagonal_families + [("scaled", AntilinearMap(2.0 * np.ones(dim)))]
        for name, op in cases:
            cert = verify_conjugation(op, trials=20, seed=4)
            dense = verify_conjugation(AntilinearMap(op.a_matrix), trials=20, seed=4)
            assert dense.passed == cert.passed == (name != "scaled")
            for field in (
                "isometry_residual",
                "involution_residual",
                "a_unitarity_residual",
                "a_symmetry_residual",
            ):
                assert abs(getattr(cert, field) - getattr(dense, field)) <= 1e-14, (name, field)

    def test_block_samples_match_the_per_pair_reference(self, diagonal_families):
        dim = diagonal_families[0][1].dim
        rng = np.random.default_rng((5, dim))
        gaussian = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        # failing maps too: their residuals are O(1) and depend on every draw
        cases = diagonal_families + [
            ("dense zeta", AntilinearMap(diagonal_families[3][1].a_matrix)),
            ("unitary", conjugation_from_unitary(random_unitary(dim, dim))),
            ("scaled", AntilinearMap(2.0 * np.ones(dim))),
            ("antisymmetric", AntilinearMap(random_unitary(dim, 7) - random_unitary(dim, 7).T)),
            ("gaussian", AntilinearMap(gaussian / dim)),
        ]
        for name, op in cases:
            self.assert_matches_reference(name, op, trials=30, seed=dim)

    def test_block_samples_match_the_reference_across_blocks(self):
        # more pairs than one block holds, for a diagonal and a dense map
        rng = np.random.default_rng(53)
        for dim, trials in ((4096, 40), (256, 600)):
            assert trials > 2 * max(1, _STACK_ENTRIES // dim)
            zeta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim - 1))
            self.assert_matches_reference("zeta", sequence_conjugation(zeta), trials, seed=dim)
            self.assert_matches_reference("scaled", AntilinearMap(1.5 * np.ones(dim)), trials, 3)
        dense = conjugation_from_unitary(random_unitary(256, 59))
        self.assert_matches_reference("unitary", dense, trials=600, seed=61)

    @staticmethod
    def assert_matches_reference(name, op, trials, seed):
        cert = verify_conjugation(op, trials=trials, seed=seed)
        isometry, involution = per_pair_samples(op, trials, seed)
        assert abs(cert.isometry_residual - isometry) <= 1e-15, name
        assert abs(cert.involution_residual - involution) <= 1e-15, name
        reference_passed = max(
            isometry, involution, cert.a_unitarity_residual, cert.a_symmetry_residual
        ) <= cert.tol
        assert cert.passed == reference_passed, name

    def test_diagonal_certificate_never_builds_dense_factor(self, diagonal_families, monkeypatch):
        def refuse(self):
            raise AssertionError("dense factor built for a diagonal map")

        monkeypatch.setattr(AntilinearMap, "a_matrix", property(refuse))
        for name, op in diagonal_families:
            cert = verify_conjugation(op, trials=5, seed=1)
            assert cert.passed, name
            assert cert.a_symmetry_residual == 0.0, name


class TestFactorDiagonal:
    def test_rotation_factor_has_half_angle_entries(self):
        # small angle keeps every principal square root on the expected branch
        theta = 0.3
        u = factor_diagonal(rotation_conjugation(np.exp(1j * theta), 8))
        np.testing.assert_allclose(
            np.diag(u), np.exp(1j * theta / 2.0 * np.arange(8)), atol=1e-12, rtol=0
        )

    def test_canonical_factors_to_identity(self):
        np.testing.assert_allclose(factor_diagonal(canonical_conjugation(5)), np.eye(5))

    def test_round_trip_on_random_diagonal_conjugations(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = np.exp(1j * random_angles(rng, 16))
            op = AntilinearMap(np.diag(d))
            rebuilt = conjugation_from_unitary(factor_diagonal(op))
            assert np.linalg.norm(rebuilt.a_matrix - op.a_matrix) <= 1e-10

    def test_rejects_non_diagonal(self):
        op = conjugation_from_unitary(random_unitary(6, 0))
        with pytest.raises(ValueError, match="not diagonal"):
            factor_diagonal(op)

    def test_rejects_non_unimodular_diagonal(self):
        with pytest.raises(ValueError, match="unimodular"):
            factor_diagonal(AntilinearMap(np.diag([1.0, 0.5])))

    def test_stored_diagonal_is_read_without_the_dense_factor(
        self, diagonal_families, monkeypatch
    ):
        dense = [factor_diagonal(AntilinearMap(op.a_matrix)) for _, op in diagonal_families]

        def refuse(self):
            raise AssertionError("dense factor built for a diagonal map")

        monkeypatch.setattr(AntilinearMap, "a_matrix", property(refuse))
        for (name, op), expected in zip(diagonal_families, dense):
            assert factor_diagonal(op).tobytes() == expected.tobytes(), name
        with pytest.raises(ValueError, match="unimodular"):
            factor_diagonal(AntilinearMap(np.array([1.0, 0.5])))


class TestRandomUnitary:
    def test_dimension_one_is_unimodular(self):
        u = random_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(random_unitary(8, 42), random_unitary(8, 42))

    def test_unitarity_across_seeds(self):
        for seed in range(20):
            u = random_unitary(64, seed)
            assert np.linalg.norm(u.conj().T @ u - np.eye(64)) <= 1e-10

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_matches_gram_schmidt_on_the_same_draw(self, dim):
        seed = 100 + dim
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert np.max(np.abs(random_unitary(dim, seed) - gram_schmidt(z))) <= 1e-13

    def test_orthonormalize_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="rank"):
            orthonormalize(np.zeros((3, 3)))


class TestAxiomSuite:
    """Every constructor family satisfies both axioms at small and medium size."""

    @pytest.mark.parametrize("dim", [8, 64])
    def test_all_families(self, dim):
        rng = np.random.default_rng(31)
        ops = [canonical_conjugation(dim)]
        for _ in range(3):
            ops.append(rotation_conjugation(np.exp(1j * rng.uniform(0, 2 * np.pi)), dim))
            ops.append(phase_conjugation(np.exp(1j * random_angles(rng, dim))))
            ops.append(sequence_conjugation(np.exp(1j * random_angles(rng, dim - 1))))
            ops.append(conjugation_from_unitary(random_unitary(dim, rng.integers(1 << 31))))
        for op in ops:
            cert = verify_conjugation(op, trials=40, tol=1e-10, seed=0)
            assert cert.passed, cert
