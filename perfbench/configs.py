"""The benchmark's workloads as rmtlab experiment configs built from a seed.

A workload is a list of configs that one pass runs one after another through
``rmtlab.harness.run_experiment``.  This module imports nothing heavy, so the
pass process's set-up time is rmtlab's own.
"""

N = 2000
LOCALSCAN_TRIALS = 4
COVARIANCE_P = 1000
COVARIANCE_TRIALS = 2
IDENTITY_INSTANCES = 200
# The identity half always runs base seed 1.  Its inputs therefore do not
# depend on --seed, and it holds four checks that fail on every pass: minors
# whose eigenvalue or singular-value gap is near 1e-6 pass the 1e-8 collision
# guard, but rounding then exceeds the 1e-8 gate.  The failed share is the
# same in every run and stays counted until the guard is fixed.
IDENTITY_SEED = 1
IDENTITY_GATE = 1e-8
GUARDED_CHECKS = {
    "entry",
    "interlacing",
    "singular_entry_left",
    "singular_entry_right",
    "singular_interlacing_left",
    "singular_interlacing_right",
}
TAIL_N = 400
TAIL_DRAWS = 20000


def localscan(seed: int) -> list[dict]:
    return [dict(experiment="localscan", n=N, trials=LOCALSCAN_TRIALS, workers=1, base_seed=seed)]


def covariance(seed: int) -> list[dict]:
    # the runner takes its window multiple from scales[-2]: 1 * log n / n
    return [
        dict(
            experiment="covariance",
            n=N,
            p=COVARIANCE_P,
            trials=COVARIANCE_TRIALS,
            scales=[1.0, 2.0],
            eps=0.1,
            eta_multiple=10.0,
            base_seed=seed,
        )
    ]


def many_small(seed: int) -> list[dict]:
    return [
        dict(experiment="identities", trials=IDENTITY_INSTANCES, base_seed=IDENTITY_SEED),
        dict(experiment="tail", n=TAIL_N, trials=TAIL_DRAWS, statistic="quadratic", workers=2, base_seed=seed),
    ]


CONFIGS = {
    "localscan-serial": localscan,
    "mp-covariance": covariance,
    "many-small": many_small,
}
