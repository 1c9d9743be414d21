"""Fixtures shared by the unit tests."""

import numpy as np
import pytest

from hardyconj import (
    canonical_conjugation,
    phase_conjugation,
    rotation_conjugation,
    sequence_conjugation,
)


@pytest.fixture(params=[8, 64, 256])
def diagonal_families(request):
    """(name, map) for a seeded draw of every diagonal family at N = 8, 64, 256."""
    dim = request.param
    rng = np.random.default_rng((2, dim))
    return [
        ("j", canonical_conjugation(dim)),
        ("lambda", rotation_conjugation(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), dim)),
        ("alpha", phase_conjugation(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim)))),
        ("zeta", sequence_conjugation(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim - 1)))),
    ]
