"""Quadratic-form concentration against closed-form tail envelopes.

Monte Carlo survival function of |X*AX - tr A| for a fixed symmetric A and
Rademacher entries, printed next to the Hanson-Wright-style envelopes.
All constants are set to their default C = C' = 1, so the envelopes are
shape references rather than proven dominating curves.

Usage: python3 demos/quadratic_tails.py [trials]
"""

import sys

import numpy as np

from rmtlab.concentration import TailEnvelope, empirical_tail
from rmtlab.ensembles import DistSpec

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
n = 64

rng = np.random.Generator(np.random.PCG64(7))
a = rng.standard_normal((n, n))
a = (a + a.T) / 2.0
frob = float(np.linalg.norm(a))
spec = float(np.linalg.norm(a, 2))

print(f"symmetric A: n = {n}, ||A||_F = {frob:.2f}, ||A||_2 = {spec:.2f}")
print(f"{trials} Rademacher trials\n")

t_grid = np.linspace(0.0, 6.0 * frob, 13)
tail = empirical_tail(a, DistSpec("rademacher"), t_grid, trials, 0)

envs = {
    "hkz": TailEnvelope(kind="hkz", frobenius=frob, spectral=spec),
    "hw": TailEnvelope(kind="hw", frobenius=frob, spectral_abs=float(np.linalg.norm(np.abs(a), 2))),
    "esy1": TailEnvelope(kind="esy1", frobenius=frob),
}

header = f"{'t':>8}  {'survival':>9}  " + "  ".join(f"{k:>9}" for k in envs)
print(header)
for i, t in enumerate(t_grid):
    vals = "  ".join(f"{min(1.0, env(float(t))):9.2e}" for env in envs.values())
    print(f"{t:8.2f}  {tail.survival[i]:9.2e}  {vals}")

print("\nThe hkz curve uses min(t^2/||A||_F^2, t/||A||_2) in the exponent;")
print("hw replaces ||A||_2 by the entrywise-absolute spectral norm;")
print("esy1 is the weaker purely sub-exponential t/||A||_F rate.")
