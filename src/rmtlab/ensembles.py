"""Seeded generation of random vectors and matrices, plus truncation machinery.

All entry distributions have mean 0 and variance 1:

- ``rademacher``: uniform on {-1, +1}.
- ``gaussian``: standard normal.
- ``bounded_uniform``: uniform on [-sqrt(3), sqrt(3)].
- ``subexp``: symmetrized power of an exponential, ``sign * E**alpha``
  with E ~ Exp(1), divided by sqrt(Gamma(1 + 2*alpha)) so the variance is
  exactly 1.  Its tails decay like exp(-c t**(1/alpha)).

Sampling is a pure function of (spec, size, seed): identical arguments give
bit-identical output on every platform and under any parallel schedule.

``scipy.special`` is imported only inside the functions that use it: the
subexp scale and fourth moment (``gamma``), the Gaussian truncation moments
(``erf``/``erfc``) and the subexp truncation moments (``gammainc``).
``math.gamma`` and ``math.erf`` are not used in their place: they differ from
scipy in the last bit for most arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily; every run samples, so load it with the package

from .seeds import derive_seed

KINDS = ("rademacher", "gaussian", "bounded_uniform", "subexp")

#: half-width of the variance-1 uniform distribution
UNIFORM_BOUND = math.sqrt(3.0)


class ParameterError(ValueError):
    """Invalid distribution or truncation parameter."""


@dataclass(frozen=True)
class DistSpec:
    """Declarative description of a mean-0 variance-1 entry distribution.

    ``alpha`` is the sub-exponential exponent.  It fixes the tail exactly:
    P(|xi| >= t**alpha) = exp(-c**(1/alpha) t) with c = ``subexp_scale``.
    For subexp it must be a finite number > 0 (not a bool) whose scale c is
    finite, which holds up to alpha ~ 85; it is stored as a float.  Other
    kinds read no alpha, and ``from_dict`` rejects one given with them.
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if self.kind != "subexp":
            return
        a = self.alpha
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not math.isfinite(a) or a <= 0:
            raise ParameterError(f"subexp requires a finite alpha > 0, not {a!r}")
        # Gamma(1 + 2 alpha) overflows past alpha ~ 85, and a draw divided by inf is 0
        if not math.isfinite(self.subexp_scale):
            raise ParameterError(f"subexp alpha {a!r} is too large: its scale sqrt(Gamma(1 + 2 alpha)) overflows")
        object.__setattr__(self, "alpha", float(a))  # alpha 1 and 1.0 are one spec, with one config hash

    @property
    def bound(self) -> float:
        """Almost-sure bound K on |xi| (inf for unbounded kinds)."""
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "bounded_uniform":
            return UNIFORM_BOUND
        return math.inf

    @property
    def subexp_scale(self) -> float:
        """Standardization constant sqrt(Gamma(1 + 2*alpha)) for subexp."""
        from scipy import special

        return math.sqrt(special.gamma(1.0 + 2.0 * self.alpha))

    def fourth_moment(self) -> float:
        """E|xi|^4 of the standardized distribution."""
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "gaussian":
            return 3.0
        if self.kind == "bounded_uniform":
            return 9.0 / 5.0
        from scipy import special

        c2 = special.gamma(1.0 + 2.0 * self.alpha)
        return special.gamma(1.0 + 4.0 * self.alpha) / c2**2

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "subexp":
            d["alpha"] = self.alpha
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DistSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise ParameterError("distribution spec must be a dict with a 'kind'")
        allowed = {"kind", "alpha"}
        extra = set(d) - allowed
        if extra:
            raise ParameterError(f"unknown distribution fields {sorted(extra)}")
        spec = cls(**d)
        if "alpha" in d and spec.kind != "subexp":
            raise ParameterError(f"alpha applies to the subexp kind only, not {spec.kind!r}")
        return spec


#: the sign of a 0/1 draw, by table lookup: one float array per draw and no arithmetic temporaries
_SIGNS = np.array([-1.0, 1.0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & ((1 << 64) - 1)))


def _draw(dist: DistSpec, size, rng: np.random.Generator) -> np.ndarray:
    if dist.kind == "gaussian":
        return rng.standard_normal(size)
    if dist.kind == "bounded_uniform":
        return rng.uniform(-UNIFORM_BOUND, UNIFORM_BOUND, size=size)
    sign = _SIGNS.take(rng.integers(0, 2, size=size))
    if dist.kind == "rademacher":
        return sign
    # subexp: sign * E^alpha, standardized
    return sign * rng.standard_exponential(size) ** dist.alpha / dist.subexp_scale


def sample_vector(dist: DistSpec, n: int, seed: int) -> np.ndarray:
    """Length-n vector of i.i.d. draws from ``dist``; deterministic in seed."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return _draw(dist, n, _rng(seed))


def sample_wigner(dist: DistSpec, n: int, seed: int, normalize: bool = True) -> np.ndarray:
    """Symmetric n x n matrix with i.i.d. upper-triangle entries from ``dist``.

    The lower triangle mirrors the upper one (real entries, so conjugation is
    transposition).  With ``normalize`` the matrix is divided by sqrt(n),
    putting the spectrum on the semicircle scale [-2, 2].
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    upper = _draw(dist, n * (n + 1) // 2, _rng(seed))  # the (i, j), i <= j, pairs row by row
    if normalize:
        upper /= math.sqrt(n)
    m = np.empty((n, n))
    start = 0
    for i in range(n):
        row = upper[start : start + n - i]
        m[i, i:] = row
        m[i:, i] = row
        start += n - i
    return m


def sample_rect(dist: DistSpec, p: int, n: int, seed: int) -> np.ndarray:
    """p x n matrix of i.i.d. entries from ``dist``, p <= n."""
    if not 1 <= p <= n:
        raise ParameterError("need 1 <= p <= n")
    return _draw(dist, (p, n), _rng(seed))


def form_gram(m: np.ndarray) -> np.ndarray:
    """Compact Gram matrix M M* / n (p x p), of each factor in a stack too; same nonzero spectrum as W."""
    n = m.shape[-1]
    return m @ np.swapaxes(m.conj(), -1, -2) / n  # conj() of a real array is the array, so numpy takes SYRK


@dataclass(frozen=True)
class TruncationReport:
    """Truncation parameters for a distribution cut off at level K.

    eps1 = P(|xi| > K), mu and sigma2 are mean and variance of the truncated
    variable xi * 1_{|xi| <= K}, eps2 = |mu|, eps3 = |sigma2 - 1|.
    """

    K: float
    eps1: float
    mu: float
    sigma2: float
    eps2: float = field(init=False)
    eps3: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "eps2", abs(self.mu))
        object.__setattr__(self, "eps3", abs(self.sigma2 - 1.0))


def truncation_stats(dist: DistSpec, K: float) -> TruncationReport:
    """Moments of the truncated variable xi * 1_{|xi| <= K}, in closed form.

    Every kind is symmetric, so the truncated mean vanishes.
    """
    if K <= 1:
        raise ParameterError("truncation level K must exceed 1")
    if dist.kind == "rademacher":
        return TruncationReport(K=K, eps1=0.0, mu=0.0, sigma2=1.0)
    if dist.kind == "bounded_uniform":
        # kept = P(|xi| <= K); E[xi^2; |xi| <= K] = min(K, sqrt 3)^3 / (3 sqrt 3) = kept^3
        kept = min(K / UNIFORM_BOUND, 1.0)
        return TruncationReport(K=K, eps1=1.0 - kept, mu=0.0, sigma2=kept**3)
    from scipy import special

    if dist.kind == "gaussian":
        eps1 = special.erfc(K / math.sqrt(2.0))
        # int_{-K}^{K} x^2 phi(x) dx = erf(K/sqrt 2) - 2 K phi(K)
        phi_k = math.exp(-0.5 * K * K) / math.sqrt(2.0 * math.pi)
        sigma2 = special.erf(K / math.sqrt(2.0)) - 2.0 * K * phi_k
        return TruncationReport(K=K, eps1=eps1, mu=0.0, sigma2=sigma2)
    # subexp: |xi| <= K is E <= T with E ~ Exp(1), and E[E^(2 alpha); E <= T] / c^2 = P(1 + 2 alpha, T)
    T = (dist.subexp_scale * K) ** (1.0 / dist.alpha)
    sigma2 = float(special.gammainc(1.0 + 2.0 * dist.alpha, T))
    return TruncationReport(K=K, eps1=math.exp(-T), mu=0.0, sigma2=sigma2)


def standardize_truncated(x: np.ndarray, report: TruncationReport) -> np.ndarray:
    """Truncate at K, recenter by mu and rescale by sigma.

    Entries with |x_i| > K are replaced by 0 before standardizing, so each
    output entry is (x_i 1_{|x_i|<=K} - mu)/sigma, bounded by 2K whenever
    eps2, eps3 <= 1/2.
    """
    if report.sigma2 <= 0:
        raise ParameterError("truncated distribution is degenerate (sigma2 <= 0)")
    clipped = np.where(np.abs(x) <= report.K, x, 0.0)
    return (clipped - report.mu) / math.sqrt(report.sigma2)


__all__ = [
    "DistSpec",
    "KINDS",
    "ParameterError",
    "TruncationReport",
    "UNIFORM_BOUND",
    "derive_seed",
    "form_gram",
    "sample_rect",
    "sample_vector",
    "sample_wigner",
    "standardize_truncated",
    "truncation_stats",
]
