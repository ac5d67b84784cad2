"""Wigner eigenvalues against the semicircle law.

Draws one seeded Rademacher Wigner matrix, prints a text histogram of the
spectrum next to the semicircle density, and reports the KS distance
between the empirical spectral distribution and the limiting CDF.

Usage: python3 demos/semicircle_law.py [n] [seed]
"""

import functools
import sys

import numpy as np
from scipy import stats

from rmtlab.ensembles import DistSpec, sample_wigner
from rmtlab.spectral import rho_sc, sc_interval_mass

n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

w = sample_wigner(DistSpec("rademacher"), n, seed)
eigs = np.linalg.eigvalsh(w)

print(f"Rademacher Wigner matrix, n = {n}, seed = {seed}")
print(f"spectrum range: [{eigs[0]:.4f}, {eigs[-1]:.4f}]  (edges -> +-2)\n")

bins = np.linspace(-2.2, 2.2, 23)
counts, _ = np.histogram(eigs, bins)
width = bins[1] - bins[0]
for lo, c in zip(bins[:-1], counts):
    mid = lo + width / 2
    empirical = c / (n * width)
    bar = "#" * int(round(60 * empirical))
    dot_pos = int(round(60 * rho_sc(mid)))
    line = list(bar.ljust(62))
    if 0 <= dot_pos < len(line):
        line[dot_pos] = "|"
    print(f"{mid:+6.2f}  {''.join(line)}  {empirical:.3f}")
print("\n('#' empirical density, '|' semicircle density)")

d = stats.kstest(eigs, functools.partial(sc_interval_mass, -np.inf)).statistic  # the mass from -inf is the CDF
print(f"\nKS distance to the semicircle CDF: {d:.4f}  (expect O(n^-1/2))")
