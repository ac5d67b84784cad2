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

Chunk rule: ``_fill`` is the one place a kind becomes generator calls.
Every sampler (``sample_vector``, ``sample_wigner``'s packed upper
triangle, ``sample_rect`` and the tail's blocks of draws) writes its draw
straight into its output in chunks of at most ``_CHUNK`` = 2**16 entries,
one generator call each, with the bits of one call.  So a draw holds no
temporary beyond one chunk, where a single call would stage a full-size one
beside it.  A chunk of at least ``_RAW_SIGNS`` = 2**12 ±1 signs reads the
bits of ``integers(0, 2)`` straight off PCG64's raw words (``_signs``), at
about half that call's cost; smaller ones, such as the ``identities``
draws, take the call itself.

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

#: the most entries one generator call of a streamed draw makes: the bound on its temporaries
_CHUNK = 1 << 16

#: the fewest signs a piece reads off raw words; below it, one ``integers`` call costs less than the bookkeeping
_RAW_SIGNS = 1 << 12


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & ((1 << 64) - 1)))


def _draw(dist: DistSpec, size, rng: np.random.Generator) -> np.ndarray:
    """A new array of shape ``size`` holding i.i.d. draws from ``dist``, streamed into it by ``_fill``."""
    out = np.empty(size)
    _fill(dist, out.reshape(-1), rng)
    return out


def _fill(dist: DistSpec, out: np.ndarray, rng: np.random.Generator) -> None:
    """Write i.i.d. draws from ``dist`` into ``out``, a contiguous 1-D float array, one chunk at a time.

    A chunk is at most ``_CHUNK`` entries, one generator call written
    straight into its slice of ``out``, so no temporary outgrows one chunk.
    A stream split over several calls gives the bits of one call: a normal,
    uniform or exponential draw takes whole 64-bit words, and PCG64 keeps
    the spare 32-bit half of a 0/1 draw between calls.  The ±1 sign is the
    0/1 draw looked up in ``_SIGNS`` (``_signs``: a piece of at least
    ``_RAW_SIGNS`` entries reads the same bits off PCG64's raw words).
    Subexp draws all its signs first, then the exponential factors
    E**alpha, multiplied in and standardized chunk by chunk: sign *
    E**alpha / scale, as products commute in IEEE arithmetic.
    """
    pieces = [out[start : start + _CHUNK] for start in range(0, out.size, _CHUNK)]
    for piece in pieces:
        if dist.kind == "gaussian":
            rng.standard_normal(out=piece)
        elif dist.kind == "bounded_uniform":
            piece[...] = rng.uniform(-UNIFORM_BOUND, UNIFORM_BOUND, size=piece.size)
        else:
            _signs(piece, rng)
    if dist.kind != "subexp":
        return
    alpha, scale = dist.alpha, dist.subexp_scale
    factor = np.empty(min(out.size, _CHUNK))
    for piece in pieces:
        e = rng.standard_exponential(out=factor[: piece.size])
        e **= alpha
        piece *= e
        piece /= scale


def _signs(out: np.ndarray, rng: np.random.Generator) -> None:
    """±1 signs in ``out``: the 0/1 draw of one ``integers(0, 2)`` call looked up in ``_SIGNS``, or its bits.

    ``integers(0, 2)`` takes bit 31 of each 32-bit half of a PCG64 word,
    low half first, and keeps a half it has not used for the next call.  So
    ``out`` of at least ``_RAW_SIGNS`` entries takes a spare half the
    generator holds first, through ``integers``, then two signs from each
    ``random_raw`` word (viewed as little-endian halves, so the low one
    comes first on any host): inverted, a half with bit 31 set is
    nonnegative, and copysign makes it +1.  Its last one or two signs go
    through ``integers`` again, which leaves the spare half, or the used
    one PCG64 keeps in its state, as the one call does: the bits and the
    final generator state are that call's.
    """
    if out.size < _RAW_SIGNS:  # mode "clip" cannot raise, so take writes into out without a staging copy
        _SIGNS.take(rng.integers(0, 2, size=out.size), out=out, mode="clip")
        return
    spare = rng.bit_generator.state["has_uint32"]
    words = (out.size - spare - 1) // 2  # leaves one sign, or two, for the end
    if spare:
        _signs(out[:1], rng)
    halves = rng.bit_generator.random_raw(words).astype("<u8", copy=False).view("<u4")
    np.invert(halves, out=halves)
    np.copysign(1.0, halves.view("<i4"), out=out[spare : spare + 2 * words])
    _signs(out[spare + 2 * words :], rng)


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
    """p x n matrix of i.i.d. entries from ``dist``, p <= n, streamed into place by ``_draw``."""
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
    "truncation_stats",
]
