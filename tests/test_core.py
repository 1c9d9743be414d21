"""Unit tests for the coefficient-space primitives."""

import re
from pathlib import Path

import numpy as np
import pytest

import hardyconj
import hardyconj.conjugations
import hardyconj.core
import hardyconj.toeplitz
from hardyconj import (
    AntilinearMap,
    apply_antilinear,
    frobenius_norm,
)


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestApplyAntilinear:
    def test_identity_factor_is_plain_conjugation(self):
        op = AntilinearMap(np.eye(2))
        np.testing.assert_allclose(op([1j, 1 + 1j]), [-1j, 1 - 1j])

    def test_diagonal_factor(self):
        op = AntilinearMap(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(op([1.0, 1j]), [1.0, 1j])

    def test_zero_factor_annihilates(self):
        op = AntilinearMap(np.zeros((2, 2)))
        np.testing.assert_allclose(op([3.0, -2j]), [0.0, 0.0])

    def test_dimension_mismatch(self):
        op = AntilinearMap(np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            apply_antilinear(op, [1, 2])

    def test_stack_rows_equal_single_vectors(self, diagonal_families):
        dim = diagonal_families[0][1].dim
        rng = np.random.default_rng(dim)
        stack = rng.standard_normal((7, dim)) + 1j * rng.standard_normal((7, dim))
        for name, op in diagonal_families:
            images = apply_antilinear(op, stack)
            dense = apply_antilinear(AntilinearMap(op.a_matrix), stack)
            assert images.shape == dense.shape == stack.shape
            for i, f in enumerate(stack):
                # a diagonal factor maps each row with the bits of a single call;
                # a dense one uses one matrix product, equal to roundoff
                assert images[i].tobytes() == apply_antilinear(op, f).tobytes(), name
                single = apply_antilinear(AntilinearMap(op.a_matrix), f)
                bound = 4 * dim * np.finfo(np.float64).eps * np.linalg.norm(f)
                assert np.max(np.abs(dense[i] - single)) <= bound, name

    def test_rejects_stack_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_antilinear(AntilinearMap(np.eye(3)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="dimension"):
            apply_antilinear(AntilinearMap(np.ones(3)), np.ones((2, 2, 3)))

    def test_antilinearity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            op = AntilinearMap(random_matrix(rng, 8))
            f = random_vector(rng, 8)
            g = random_vector(rng, 8)
            a, b = random_vector(rng, 2)
            lhs = op(a * f + b * g)
            rhs = np.conj(a) * op(f) + np.conj(b) * op(g)
            bound = 1e-10 * (np.linalg.norm(f) + np.linalg.norm(g))
            assert np.linalg.norm(lhs - rhs) <= bound


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_identity_dim_four(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0], [0.0, 0.0]]) == pytest.approx(5.0)


class TestValidation:
    def test_operator_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            AntilinearMap(np.zeros((2, 3)))

    def test_operator_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            AntilinearMap([[1.0, np.inf], [0.0, 1.0]])

    def test_antilinear_map_is_frozen(self):
        op = AntilinearMap(np.eye(2))
        with pytest.raises(ValueError):
            op.a_matrix[0, 0] = 5.0


class TestDiagonalForm:
    def test_apply_matches_dense_factor(self, diagonal_families):
        rng = np.random.default_rng(23)
        for name, op in diagonal_families:
            assert op.diagonal is not None, name
            for _ in range(5):
                f = random_vector(rng, op.dim)
                np.testing.assert_allclose(
                    apply_antilinear(op, f), op.a_matrix @ np.conj(f), rtol=0, atol=1e-14,
                    err_msg=name,
                )

    def test_apply_never_builds_dense_factor(self, diagonal_families, monkeypatch):
        def refuse(self):
            raise AssertionError("dense factor built for a diagonal map")

        monkeypatch.setattr(AntilinearMap, "a_matrix", property(refuse))
        f = np.ones(diagonal_families[0][1].dim)
        for name, op in diagonal_families:
            assert apply_antilinear(op, f).shape == f.shape, name

    def test_dense_view_is_diag_of_vector_and_read_only(self):
        d = np.exp(1j * np.array([0.1, 0.2, 0.3]))
        op = AntilinearMap(d)
        np.testing.assert_array_equal(op.diagonal, d)
        np.testing.assert_array_equal(op.a_matrix, np.diag(d))
        assert op.dim == 3
        with pytest.raises(ValueError):
            op.a_matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            op.diagonal[0] = 5.0

    def test_dense_factor_has_no_diagonal(self):
        assert AntilinearMap(np.diag([1.0, -1.0])).diagonal is None

    @pytest.mark.parametrize("factor", [[], [1.0, np.nan], [np.inf, 1.0]])
    def test_rejects_empty_or_non_finite_vector(self, factor):
        with pytest.raises(ValueError, match="nonempty and finite"):
            AntilinearMap(np.asarray(factor, dtype=np.complex128))


class TestPublicApi:
    def test_package_exports_exactly_the_module_names(self):
        modules = (hardyconj.core, hardyconj.conjugations, hardyconj.toeplitz)
        names = set().union(*(module.__all__ for module in modules))
        assert set(hardyconj.__all__) == names
        assert len(hardyconj.__all__) == len(names)
        for module in modules:
            for name in module.__all__:
                assert getattr(hardyconj, name) is getattr(module, name), name

    def test_version_matches_pyproject(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert match is not None
        assert hardyconj.__version__ == match.group(1)
