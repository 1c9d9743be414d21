"""Tour of the conjugation families and their certification.

Each construction is an antilinear map f -> A conj(f) on truncated
coefficient space; the certificate checks the two defining axioms
(isometry and involution) by seeded sampling and the structure of the
linear factor (unitary, transpose-symmetric) deterministically.

Run:  python demos/conjugation_tour.py
"""

import numpy as np

from hardyconj import (
    canonical_conjugation,
    conjugation_from_unitary,
    factor_diagonal,
    phase_conjugation,
    random_unitary,
    rotation_conjugation,
    sequence_conjugation,
    sequence_unitary,
    verify_conjugation,
)

N = 48
rng = np.random.default_rng(2024)

print(f"truncation dimension N = {N}\n")

# ---------------------------------------------------------------------------
# The four diagonal families plus a dense one built from a random unitary.
# ---------------------------------------------------------------------------
theta = rng.uniform(0.0, 2.0 * np.pi)
alphas = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
zetas = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N - 1))

families = {
    "canonical (plain coefficient conjugation)": canonical_conjugation(N),
    f"rotation twist, angle {theta:.3f}": rotation_conjugation(np.exp(1j * theta), N),
    "explicit phases, one per coefficient": phase_conjugation(alphas),
    "squared powers of a unimodular sequence": sequence_conjugation(zetas),
    "dense: U* . conj . U for random unitary U": conjugation_from_unitary(random_unitary(N, 7)),
}

for name, op in families.items():
    cert = verify_conjugation(op, trials=200, tol=1e-10, seed=1)
    print(f"{name}")
    print(f"  isometry   {cert.isometry_residual:.2e}   involution {cert.involution_residual:.2e}")
    print(f"  ||A*A-I||  {cert.a_unitarity_residual:.2e}   ||A-A^T||  {cert.a_symmetry_residual:.2e}")
    print(f"  certified: {cert.passed}\n")

# ---------------------------------------------------------------------------
# The sequence family comes from a rescaled monomial basis: the diagonal
# unitary sending z^n to (zeta_n z)^n conjugated around the canonical map
# reproduces the family exactly.
# ---------------------------------------------------------------------------
u = sequence_unitary(zetas)
rebuilt = conjugation_from_unitary(u)
direct = sequence_conjugation(zetas)
gap = np.max(np.abs(rebuilt.a_matrix - direct.a_matrix))
print(f"sequence family vs unitary route, entrywise gap: {gap:.2e}")

# ---------------------------------------------------------------------------
# Every diagonal conjugation factors back into that form: take a principal
# square root of the conjugated diagonal and rebuild.
# ---------------------------------------------------------------------------
op = sequence_conjugation(zetas)
u_factor = factor_diagonal(op)
round_trip = conjugation_from_unitary(u_factor)
print(f"factorization round trip gap: {np.max(np.abs(round_trip.a_matrix - op.a_matrix)):.2e}")

# ---------------------------------------------------------------------------
# The expansion coefficients of the images of the monomials are exactly the
# columns of the linear factor; for diagonal families that is one phase per
# monomial.
# ---------------------------------------------------------------------------
b = rotation_conjugation(np.exp(1j * theta), 6).a_matrix
print("\nexpansion coefficients of the rotation twist at N = 6 (diagonal):")
print(np.round(np.diag(b), 6))
