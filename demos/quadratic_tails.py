"""Quadratic-form concentration against closed-form tail envelopes.

Runs the ``tail`` experiment: the Monte Carlo survival function of
|X*AX - tr A| for the run's seeded symmetric A and Rademacher entries,
printed next to the Hanson-Wright-style envelopes, clipped at 1.  All
constants are set to their default C = C' = 1, so the envelopes are shape
references rather than proven dominating curves.

Usage: python3 demos/quadratic_tails.py [trials]
"""

import sys

from rmtlab.harness import config_from_dict, run_experiment

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
kinds = ["hkz", "hw", "esy1"]

cfg = {"experiment": "tail", "n": 64, "trials": trials, "envelopes": kinds}
recs = run_experiment(config_from_dict(cfg), write=False).records

print(f"symmetric A: n = {cfg['n']}, {trials} Rademacher trials\n")
print(f"{'t':>8}  {'survival':>9}  " + "  ".join(f"{k:>9}" for k in kinds))
for i, t in enumerate(recs["t"]):
    envs = "  ".join(f"{min(1.0, recs[f'envelope_{k}'][i]):9.2e}" for k in kinds)
    print(f"{t:8.2f}  {recs['survival'][i]:9.2e}  {envs}")

print("\nThe hkz curve uses min(t^2/||A||_F^2, t/||A||_2) in the exponent;")
print("hw replaces ||A||_2 by the entrywise-absolute spectral norm;")
print("esy1 is the weaker purely sub-exponential t/||A||_F rate.")
