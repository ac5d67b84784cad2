"""Reference computations for the benchmark's output checks.

Nothing here imports rmtlab: the limiting-law masses, the seed derivation
and the seeded matrices are written out again from their definitions, so a
check compares the program against an independent computation rather than
against itself or a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np
from scipy import integrate

MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    z = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, index: int) -> int:
    """Per-trial seed: splitmix64 of the base folded with splitmix64(index)."""
    return splitmix64((base & MASK64) ^ splitmix64(index & MASK64))


def _pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & MASK64))


def rademacher_wigner(n: int, seed: int) -> np.ndarray:
    """The normalized symmetric +-1 matrix that trial seed ``seed`` draws.

    Upper-triangle entries (diagonal included) are drawn in row-major order
    as 2*Bernoulli(1/2) - 1, mirrored, and divided by sqrt(n).
    """
    upper = _pcg(seed).integers(0, 2, size=n * (n + 1) // 2).astype(np.float64) * 2.0 - 1.0
    m = np.zeros((n, n))
    m[np.triu_indices(n)] = upper
    m = m + np.triu(m, 1).T
    return m / math.sqrt(n)


def gaussian_symmetric(n: int, seed: int) -> np.ndarray:
    """(G + G^T)/sqrt(2) for an n x n standard normal G drawn from ``seed``."""
    g = _pcg(seed).standard_normal((n, n))
    return (g + g.T) / math.sqrt(2.0)


# --- limiting laws -----------------------------------------------------------


def sc_cdf(x):
    """Semicircle distribution function on [-2, 2] from its antiderivative."""
    x = np.clip(np.asarray(x, dtype=np.float64), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


def mp_edges(y: float) -> tuple[float, float]:
    return (1.0 - math.sqrt(y)) ** 2, (1.0 + math.sqrt(y)) ** 2


def _mp_antiderivative(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """sqrt(R) + (a+b)/2 asin((2x-a-b)/(b-a)) - sqrt(ab) asin(((a+b)x-2ab)/((b-a)x)),
    an antiderivative of sqrt(R)/x with R = (b - x)(x - a), for a <= x <= b."""
    root = np.sqrt(np.clip((b - x) * (x - a), 0.0, None))
    s1 = np.arcsin(np.clip((2.0 * x - a - b) / (b - a), -1.0, 1.0))
    s2 = np.arcsin(np.clip(((a + b) * x - 2.0 * a * b) / ((b - a) * x), -1.0, 1.0))
    return root + 0.5 * (a + b) * s1 - math.sqrt(a * b) * s2


def mp_cdf(x, y: float):
    """Marchenko-Pastur distribution function for 0 < y < 1, in closed form."""
    a, b = mp_edges(y)
    x = np.clip(np.asarray(x, dtype=np.float64), a, b)
    g = _mp_antiderivative(x, a, b) - _mp_antiderivative(np.float64(a), a, b)
    return g / (2.0 * math.pi * y)


def self_test() -> list[str]:
    """Check both closed forms against adaptive quadrature of the densities."""
    problems = []

    def sc_density(x):
        return math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)

    for lo, hi in ((-2.0, 2.0), (-1.8, -1.7962), (0.3, 0.31), (1.7, 1.8)):
        ref, _ = integrate.quad(sc_density, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        got = float(sc_cdf(hi) - sc_cdf(lo))
        if abs(got - ref) > 1e-10:
            problems.append(f"semicircle closed form off by {got - ref:.3g} on [{lo}, {hi}]")
    y = 0.5
    a, b = mp_edges(y)

    def mp_density(x):
        return math.sqrt(max((b - x) * (x - a), 0.0)) / (2.0 * math.pi * x * y)

    for lo, hi in ((a, b), (a, a + 0.2), (0.9, 0.904), (b - 0.05, b)):
        ref, _ = integrate.quad(mp_density, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        got = float(mp_cdf(hi, y) - mp_cdf(lo, y))
        if abs(got - ref) > 1e-10:
            problems.append(f"MP closed form off by {got - ref:.3g} on [{lo}, {hi}]")
    return problems


# --- sliding windows ----------------------------------------------------------


def window_starts(lo: float, hi: float, scale: float, stride_frac: float = 0.25) -> np.ndarray:
    """Window starts lo, lo + stride, ... until a window reaches hi - 1e-12."""
    stride = stride_frac * scale
    starts = [lo]
    while starts[-1] + scale < hi - 1e-12:
        starts.append(starts[-1] + stride)
    return np.array(starts)


def max_window_rel_dev(eigs, lo, hi, scale, interval_mass) -> float:
    """max |N_I - n mass(I)| / (n mass(I)) over the sliding windows of ``scale``.

    The last window stops at ``hi``, so it may be shorter than ``scale``;
    windows of zero mass are skipped.  N_I counts eigenvalues in [start, end).
    """
    eigs = np.sort(np.asarray(eigs, dtype=np.float64))
    w_lo = window_starts(lo, hi, scale)
    w_hi = np.minimum(w_lo + scale, hi)
    count = np.searchsorted(eigs, w_hi) - np.searchsorted(eigs, w_lo)
    mass = eigs.size * interval_mass(w_lo, w_hi)
    keep = mass > 0
    return float(np.max(np.abs(count[keep] - mass[keep]) / mass[keep]))


# --- output files -------------------------------------------------------------


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def parse_float(text: str) -> float:
    """A float cell; accepts the ``np.float64(x)`` spelling numpy 2 reprs emit."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def column(rows, index: int) -> np.ndarray:
    return np.array([parse_float(r[index]) for r in rows])


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)
