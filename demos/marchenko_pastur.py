"""Sample covariance spectra: Marchenko-Pastur law and singular vectors.

Runs one trial of the ``covariance`` experiment (a seeded p x n Rademacher
factor M, W = MM*/n) and prints its spectrum against the MP density, the KS
distance to the MP CDF, the run's worst MP self-consistency residual, and
the worst bulk singular-vector infinity norm of each side.

Usage: python3 demos/marchenko_pastur.py [p] [n]
"""

import functools
import sys

import numpy as np
from scipy import stats

from rmtlab.harness import config_from_dict, run_experiment
from rmtlab.spectral import mp_edges, mp_interval_mass, rho_mp

p = int(sys.argv[1]) if len(sys.argv) > 1 else 300
n = int(sys.argv[2]) if len(sys.argv) > 2 else 600

report = run_experiment(config_from_dict({"experiment": "covariance", "n": n, "p": p, "trials": 1}), write=False)
recs, y = report.records, report.summary["y"]
eigs = recs["lambda"][recs["side"] == "left"]  # sigma^2/n: the eigenvalues of MM*/n, ascending
a, b = mp_edges(y)

print(f"factor {p} x {n}, aspect ratio y = {y:.2f}, MP support [{a:.3f}, {b:.3f}]")
print(f"empirical spectrum range [{eigs[0]:.3f}, {eigs[-1]:.3f}]\n")

bins = np.linspace(max(0.0, a - 0.2), b + 0.2, 19)
counts, _ = np.histogram(eigs, bins)
width = bins[1] - bins[0]
for lo, c in zip(bins[:-1], counts):
    mid = lo + width / 2
    line = list(("#" * int(round(40 * c / (p * width)))).ljust(42))
    dot = int(round(40 * rho_mp(mid, y)))
    if 0 <= dot < len(line):
        line[dot] = "|"
    print(f"{mid:6.2f}  {''.join(line)}")
print("\n('#' empirical, '|' Marchenko-Pastur density)")

d = stats.kstest(eigs, functools.partial(mp_interval_mass, -np.inf, y=y)).statistic  # the mass from -inf is the CDF
print(f"\nKS distance to the MP CDF: {d:.4f}")
print(f"max MP self-consistency residual at eta = 10 log n/n: {report.summary['max_self_consistency_residual']:.4f}")

for side in ("left", "right"):
    bulk = recs["scaled_bulk"][(recs["side"] == side) & (recs["region"] == "bulk")]
    print(f"max bulk scaled inf-norm, {side:>5} singular vectors: {bulk.max():.3f}")
