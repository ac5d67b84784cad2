"""Eigenvector delocalization across matrix sizes.

Runs the ``deloc`` experiment, which collects infinity norms of all
eigenvectors over an n-grid and several seeds, then fits the growth of the
bulk extreme sqrt(n)*||u||_inf against log n.  A slope near 1/2 on the
log-log-log axis is the sqrt(log n) delocalization rate; localized vectors
would show sqrt(n)-scale norms.

Usage: python3 demos/delocalization_scaling.py [seeds]
"""

import sys

from rmtlab.delocalization import deloc_scaling_fit
from rmtlab.harness import config_from_dict, run_experiment

seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 3
n_grid = [256, 512, 1024]

report = run_experiment(config_from_dict({"experiment": "deloc", "n_grid": n_grid, "trials": seeds}), write=False)
fit = deloc_scaling_fit(report.records)

print(f"{seeds} seeds per size\n")
print(f"{'n':>6}  {'max bulk sqrt(n)|u|/sqrt(log n)':>32}  {'max edge sqrt(n)|u|/log n':>26}")
for n in n_grid:
    edge = fit.edge_table.get(n)
    edge_s = f"{edge:26.3f}" if edge is not None else f"{'(no edge records)':>26}"
    print(f"{n:6d}  {fit.bulk_table[n]:32.3f}  {edge_s}")

print(f"\nfitted slope of log(max sqrt(n)||u||_inf) vs log log n: {fit.slope:.3f}")
print("(~0.5 for sqrt(log n) growth; O(1) scaled extremes mean full delocalization)")
