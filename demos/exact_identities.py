"""The exact minor identities, verified numerically on one small instance.

All of these are algebraic identities in finite dimensions -- the residuals
should sit at floating-point roundoff, not at any statistical scale.  Each
identity function checks every index i at once from one decomposition of the
matrix and one of its minor; the worst residual over i is printed, leaving
out indices whose collision gap is at most 1e-8.

Usage: python3 demos/exact_identities.py [n] [seed]
"""

import math
import sys

import numpy as np

from rmtlab.covariance import (
    covariance_schur_residual,
    singular_entry_identity,
    singular_interlacing_identity,
)
from rmtlab.delocalization import entry_identity, interlacing_identity
from rmtlab.ensembles import DistSpec, sample_rect, sample_wigner
from rmtlab.locallaw import schur_identity_residual


def worst(lhs, rhs, gap):
    """Largest |lhs - rhs| over the indices whose collision gap exceeds 1e-8."""
    return float(np.max(np.abs(lhs - rhs)[gap > 1e-8], initial=0.0))


n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

w = sample_wigner(DistSpec("gaussian"), n, seed)
m_unnorm = math.sqrt(n) * w

print(f"Wigner instance n = {n}, seed = {seed}\n")
print(f"eigenvector entry identity, all i:      max |lhs - rhs| = {worst(*entry_identity(w)):.2e}")
print(f"interlacing identity, all i:            max |lhs - rhs| = {worst(*interlacing_identity(w)):.2e}")

z = 0.3 + 0.7j
print(f"Schur diagonal expansion at z = {z}: residual = {schur_identity_residual(m_unnorm, z):.2e}")

p, q = 6, 11
m = sample_rect(DistSpec("gaussian"), p, q, seed)
print(f"\ncovariance instance p x n = {p} x {q}\n")

for side in ("right", "left"):
    err = worst(*singular_entry_identity(m, side))
    print(f"singular entry identity ({side:>5}, all i): max |lhs - rhs| = {err:.2e}")
    err = worst(*singular_interlacing_identity(m, side))
    print(f"singular interlacing ({side:>5}, all i):    max |lhs - rhs| = {err:.2e}")
print(f"covariance Schur expansion at z = {z}: residual = {covariance_schur_residual(m, z):.2e}")
