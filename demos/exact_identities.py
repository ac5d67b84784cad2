"""The exact minor identities, verified numerically on one small instance.

All of these are algebraic identities in finite dimensions -- the residuals
should sit at floating-point roundoff, not at any statistical scale.  The
Wigner and singular identities go through one kernel and check every index i
at once with the last coordinate deleted: the Wigner matrix is decomposed
once and its minor once, and the factor's SVD serves both singular sides and
the covariance Schur expansion.  The worst residual over i is printed,
leaving out indices whose collision gap is at most ``harness.COLLISION_GAP``,
as the identities experiment does.

Usage: python3 demos/exact_identities.py [n] [seed]
"""

import math
import sys

import numpy as np

from rmtlab.covariance import covariance_schur_residual, singular_identities, singular_triplets
from rmtlab.delocalization import wigner_identities
from rmtlab.ensembles import DistSpec, sample_rect, sample_wigner
from rmtlab.harness import COLLISION_GAP
from rmtlab.locallaw import schur_identity_residual
from rmtlab.spectral import eig_decompose


def worst(lhs, rhs, gap):
    """Largest |lhs - rhs| over the indices whose collision gap exceeds COLLISION_GAP."""
    return float(np.max(np.abs(lhs - rhs)[gap > COLLISION_GAP], initial=0.0))


n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

w = sample_wigner(DistSpec("gaussian"), n, seed)
decomp = eig_decompose(w)
entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = wigner_identities(w, decomp)

print(f"Wigner instance n = {n}, seed = {seed}\n")
print(f"eigenvector entry identity, all i:      max |lhs - rhs| = {worst(entry_lhs, entry_rhs, gap):.2e}")
print(f"interlacing identity, all i:            max |lhs - rhs| = {worst(inter_lhs, inter_rhs, gap):.2e}")

z = 0.3 + 0.7j
residual = schur_identity_residual(math.sqrt(n) * w, z, decomp.eigenvalues)
print(f"Schur diagonal expansion at z = {z}: residual = {residual:.2e}")

p, q = 6, 11
m = sample_rect(DistSpec("gaussian"), p, q, seed)
print(f"\ncovariance instance p x n = {p} x {q}\n")

trip = singular_triplets(m)
for side in ("right", "left"):
    entry_lhs, entry_rhs, inter_lhs, inter_rhs, gap = singular_identities(m, trip, side)
    err = worst(entry_lhs, entry_rhs, gap)
    print(f"singular entry identity ({side:>5}, all i): max |lhs - rhs| = {err:.2e}")
    err = worst(inter_lhs, inter_rhs, gap)
    print(f"singular interlacing ({side:>5}, all i):    max |lhs - rhs| = {err:.2e}")
residual = covariance_schur_residual(m, z, trip.sigma**2 / q)
print(f"covariance Schur expansion at z = {z}: residual = {residual:.2e}")
