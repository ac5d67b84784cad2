"""The exact minor identities, verified numerically over many small instances.

Runs the ``identities`` experiment with Gaussian entries.  All of these are
algebraic identities in finite dimensions -- the relative errors should sit
at floating-point roundoff, not at any statistical scale.  For each check
family the demo prints how many checks ran and the worst relative error,
then the run's totals; the run skips checks whose collision gap is too small
for the identity to be well conditioned.

Usage: python3 demos/exact_identities.py [instances] [seed]
"""

import sys

from rmtlab.harness import config_from_dict, run_experiment

instances = int(sys.argv[1]) if len(sys.argv) > 1 else 200
seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

cfg = {"experiment": "identities", "dist": {"kind": "gaussian"}, "trials": instances, "base_seed": seed}
report = run_experiment(config_from_dict(cfg), write=False)
checks, rel_err = report.records["check"], report.records["rel_err"]

print(f"{instances} Gaussian instances (Wigner n and factor p x n cycle over small sizes), seed = {seed}\n")
print(f"{'check':>28}  {'count':>6}  {'max rel err':>11}")
for name in dict.fromkeys(checks):
    errs = rel_err[checks == name]
    print(f"{name:>28}  {errs.size:6d}  {errs.max():11.2e}")

s = report.summary
print(f"\n{s['checks']} checks, {s['failures']} failures, {s['skipped']} skipped at a collision gap")
