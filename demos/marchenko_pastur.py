"""Sample covariance spectra: Marchenko-Pastur law and singular vectors.

Forms W = M*M/n for a seeded p x n Rademacher factor, compares the
empirical spectrum with the MP density, checks the self-consistent
equation of the MP Stieltjes transform on the empirical spectrum, and
summarizes singular-vector delocalization on both sides.

Usage: python3 demos/marchenko_pastur.py [p] [n]
"""

import math
import sys

import numpy as np

from rmtlab.covariance import gram_triplets, mp_self_consistency_residual, singular_vec_inf_norms
from rmtlab.ensembles import DistSpec, sample_rect
from rmtlab.spectral import ks_distance, mp_edges, mp_interval_mass, rho_mp

p = int(sys.argv[1]) if len(sys.argv) > 1 else 300
n = int(sys.argv[2]) if len(sys.argv) > 2 else 600

y = p / n
a, b = mp_edges(y)
m = sample_rect(DistSpec("rademacher"), p, n, 0)
trip = gram_triplets(m)  # one eigh of MM*: sigma^2/n are the eigenvalues of MM*/n
eigs = trip.sigma**2 / n

print(f"factor {p} x {n}, aspect ratio y = {y:.2f}, MP support [{a:.3f}, {b:.3f}]")
print(f"empirical spectrum range [{eigs[0]:.3f}, {eigs[-1]:.3f}]\n")

bins = np.linspace(max(0.0, a - 0.2), b + 0.2, 19)
counts, _ = np.histogram(eigs, bins)
width = bins[1] - bins[0]
for lo, c in zip(bins[:-1], counts):
    mid = lo + width / 2
    empirical = c / (p * width)
    bar = "#" * int(round(40 * empirical))
    dot = int(round(40 * rho_mp(mid, y)))
    line = list(bar.ljust(42))
    if 0 <= dot < len(line):
        line[dot] = "|"
    print(f"{mid:6.2f}  {''.join(line)}")
print("\n('#' empirical, '|' Marchenko-Pastur density)")

d = ks_distance(eigs, lambda x: mp_interval_mass(a, x, y) if x > a else 0.0)
print(f"\nKS distance to the MP CDF: {d:.4f}")

eta = 10 * math.log(n) / n
res = max(
    mp_self_consistency_residual(eigs, x + 1j * eta, y)
    for x in np.linspace(a + 0.2, b - 0.2, 15)
)
print(f"max MP self-consistency residual at eta = 10 log n/n: {res:.4f}")

recs = singular_vec_inf_norms(trip, eps=0.1)
for side in ("left", "right"):
    bulk = recs["scaled_bulk"][(recs["side"] == side) & (recs["region"] == "bulk")]
    print(f"max bulk scaled inf-norm, {side:>5} singular vectors: {max(bulk):.3f}")
