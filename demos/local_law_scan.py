"""Threshold scale of the local semicircle law.

Runs the ``localscan`` experiment: for several window lengths (in multiples
of log n / n) it slides windows across the bulk and records the worst
relative deviation of the eigenvalue count from the semicircle prediction,
maximized over seeds.  The smallest scale meeting the target deviation is
the empirical threshold.  The demo prints the run's summary curve.

Usage: python3 demos/local_law_scan.py [n] [trials]
"""

import math
import sys

from rmtlab.harness import config_from_dict, run_experiment

n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
trials = int(sys.argv[2]) if len(sys.argv) > 2 else 3

summary = run_experiment(config_from_dict({"experiment": "localscan", "n": n, "trials": trials}), write=False).summary
unit = math.log(n) / n
delta, threshold = summary["delta"], summary["threshold_scale"]

print(f"Rademacher Wigner, n = {n}, {trials} seeds, target deviation {delta}")
print(f"base scale log n / n = {unit:.5f}\n")

print(f"{'scale':>12}  {'multiple':>8}  {'max rel dev':>11}")
for mult, dev in zip(summary["scale_multiples"], summary["max_rel_dev"]):
    s = mult * unit  # the scale the run scanned
    mark = " <- threshold" if threshold == s else ""
    print(f"{s:12.5f}  {mult:8.0f}  {dev:11.3f}{mark}")

if threshold is None:
    print("\nno scanned scale meets the target; scan larger multiples")
else:
    print(f"\ncount law holds at {threshold / unit:.0f} x log n/n and above (deviation <= {delta})")
