"""Threshold scale of the local semicircle law.

For several window lengths (in multiples of log n / n), slides windows
across the bulk and records the worst relative deviation of the eigenvalue
count from the semicircle prediction, maximized over seeds.  The smallest
scale meeting the target deviation is the empirical threshold.

Usage: python3 demos/local_law_scan.py [n] [trials]
"""

import math
import sys

import numpy as np

from rmtlab.ensembles import DistSpec, sample_wigner
from rmtlab.harness import LOCALSCAN_BULK
from rmtlab.locallaw import threshold_scan
from rmtlab.seeds import derive_seed
from rmtlab.spectral import sc_interval_mass

n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
trials = int(sys.argv[2]) if len(sys.argv) > 2 else 3

unit = math.log(n) / n
mults = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
delta = 0.2

print(f"Rademacher Wigner, n = {n}, {trials} seeds, target deviation {delta}")
print(f"base scale log n / n = {unit:.5f}\n")

# trial t is drawn with seed derive_seed(0, t), as in the localscan experiment
spectra = [
    np.linalg.eigvalsh(sample_wigner(DistSpec("rademacher"), n, derive_seed(0, t), normalize=True))
    for t in range(trials)
]
est = threshold_scan(spectra, sc_interval_mass, [m * unit for m in mults], delta, LOCALSCAN_BULK)

print(f"{'scale':>12}  {'multiple':>8}  {'max rel dev':>11}")
for mult, s, dev in zip(mults, est.scales, est.max_rel_dev):
    mark = " <- threshold" if est.threshold_scale == s else ""
    print(f"{s:12.5f}  {mult:8.0f}  {dev:11.3f}{mark}")

if est.threshold_scale is None:
    print("\nno scanned scale meets the target; scan larger multiples")
else:
    print(
        f"\ncount law holds at {est.threshold_scale / unit:.0f} x log n/n "
        f"and above (deviation <= {delta})"
    )
