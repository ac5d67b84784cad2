"""Eigenvector delocalization across matrix sizes.

Collects infinity norms of all eigenvectors over an n-grid and several
seeds, then fits the growth of the bulk extreme sqrt(n)*||u||_inf against
log n.  A slope near 1/2 on the log-log-log axis is the sqrt(log n)
delocalization rate; localized vectors would show sqrt(n)-scale norms.

Usage: python3 demos/delocalization_scaling.py [seeds]
"""

import sys

from rmtlab.delocalization import deloc_scaling_fit, eigvec_inf_norms
from rmtlab.ensembles import DistSpec, sample_wigner
from rmtlab.seeds import concat_columns, derive_seed
from rmtlab.spectral import eig_decompose

seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 3
n_grid = (256, 512, 1024)

parts = []
idx = 0
for n in n_grid:
    for _ in range(seeds):
        seed = derive_seed(0, idx)
        w = sample_wigner(DistSpec("rademacher"), n, seed)
        parts.append(eigvec_inf_norms(eig_decompose(w), seed))
        idx += 1
    print(f"n = {n:5d}: {seeds} seeds decomposed")

fit = deloc_scaling_fit(concat_columns(parts))

print(f"\n{'n':>6}  {'max bulk sqrt(n)|u|/sqrt(log n)':>32}  {'max edge sqrt(n)|u|/log n':>26}")
for n in n_grid:
    edge = fit.edge_table.get(n)
    edge_s = f"{edge:26.3f}" if edge is not None else f"{'(no edge records)':>26}"
    print(f"{n:6d}  {fit.bulk_table[n]:32.3f}  {edge_s}")

print(f"\nfitted slope of log(max sqrt(n)||u||_inf) vs log log n: {fit.slope:.3f}")
print("(~0.5 for sqrt(log n) growth; O(1) scaled extremes mean full delocalization)")
