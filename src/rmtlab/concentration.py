"""Weighted projections, quadratic-form deviations, and their tail envelopes.

The central statistics are

    f(X)   = sqrt(sum_j c_j |u_j* X|^2)          (weighted projection)
    Y - tr = X* A X - trace(A)                   (quadratic form deviation)

together with the closed-form tail bounds they satisfy for K-concentrated
input vectors, one table that gives each bound's inputs and rate, and a
seeded Monte Carlo estimator of the empirical survival function used to
check those bounds numerically; the per-draw formulas, which only tests
read, are in ``tests/reference.py``.  The estimator's trials are its blocks of
``TAIL_BLOCK`` draws: ``seeds.map_trials`` gives block b the seed
derive_seed(base_seed, b), and each block is drawn and multiplied whole with
one matrix product on one BLAS thread, so every value is the same for any
draw count, worker count and number of cores.  For a real draw X the
quadratic form X^T A X depends only on the symmetric part S = (A + A^T)/2,
and equals 2 X^T T X with T the upper triangle of S, its diagonal halved.
``empirical_tail`` builds T once per call (one for Re A and one for Im A
when A is complex), and each block takes X T with one triangular product,
OpenBLAS ``dtrmm`` bound by ``seeds._openblas_function``, at half the
multiply-adds of X A^T.  Without that symbol it warns once and takes
numpy's full product X @ T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import seeds
from .ensembles import DistSpec, ParameterError, _draw, _rng
from .seeds import map_trials, one_blas_thread
from .spectral import ContractError, _check_finite


def _vw_rate(e: TailEnvelope, t: float) -> float:
    return min(t * t / (e.frobenius * e.frobenius * math.log(e.n)), t / e.spectral) / (e.K * e.K)


def _subexp_rate(e: TailEnvelope, t: float) -> float:
    return min(
        (t / (e.frobenius * math.sqrt(math.log(e.n)))) ** (1.0 / (e.alpha + 0.5)),
        (t / e.spectral) ** (1.0 / (2.0 * e.alpha + 1.0)),
    )


#: kind -> (the TailEnvelope fields it reads besides C, Cprime and K, its
#: rate r(t)).  The quadratic-form kinds all read ||A||_F; the projection
#: kind reads no matrix.
_ENVELOPES = {
    "projection": ((), lambda e, t: t * t / (e.K * e.K)),
    "vw1": (("frobenius", "spectral", "n"), _vw_rate),
    "vw2": (("frobenius", "spectral", "n", "n_eps1"), _vw_rate),
    "subexp": (("frobenius", "spectral", "n", "alpha"), _subexp_rate),
    "hw": (("frobenius", "spectral_abs"), lambda e, t: min(t * t / (e.frobenius * e.frobenius), t / e.spectral_abs)),
    "hkz": (("frobenius", "spectral"), lambda e, t: min(t * t / (e.frobenius * e.frobenius), t / e.spectral)),
    "esy1": (("frobenius",), lambda e, t: t / e.frobenius),
    "esy2": (("frobenius", "alpha"), lambda e, t: (t / e.frobenius) ** (1.0 / (2.0 + 2.0 * e.alpha))),
}
ENVELOPE_INPUTS = {kind: inputs for kind, (inputs, _) in _ENVELOPES.items()}
_FLOORS = {"n": 1, "frobenius": 0, "spectral": 0, "spectral_abs": 0, "alpha": 0}  # an input read is finite, above it
ENVELOPE_KINDS = tuple(_ENVELOPES)
TAIL_BLOCK = 256  # draws per matrix product in empirical_tail
TAIL_MIN_TRIALS = 100  # fewest draws empirical_tail accepts


@dataclass(frozen=True)
class WeightedFrame:
    """Orthonormal columns u_1..u_d with weights c_j in [0, 1], every entry finite."""

    basis: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "weights", weights)
        if basis.ndim != 2 or weights.ndim != 1 or basis.shape[1] != weights.size:
            raise ContractError("basis must be n x d with d weights")
        _check_finite(basis, "basis")  # a NaN passes both the orthonormality and the weight test below
        _check_finite(weights, "weights")
        gram = np.conj(basis).T @ basis
        if np.max(np.abs(gram - np.eye(weights.size))) > 1e-8:
            raise ContractError("frame columns are not orthonormal")
        if np.any(weights < 0) or np.any(weights > 1):
            raise ContractError("weights must lie in [0, 1]")


def hermitize_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian pair (A + A*, i(A - A*)) carrying Re and Im of X*AX.

    The deviation of X*AX from its trace is half the sum of the deviations of
    the two returned Hermitian forms; both have norms at most twice those of A.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError("matrix must be square")
    return a + np.conj(a).T, 1j * (a - np.conj(a).T)


def psd_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write Hermitian A as A1 - A2 with both parts PSD via the spectral split.

    A1 keeps the positive spectrum, A2 the flipped negative spectrum, so
    ||A_i||_2 <= ||A||_2 and ||A_i||_F <= ||A||_F.
    """
    from .spectral import check_hermitian

    if np.ndim(a) != 2:
        raise ContractError("matrix must be square")  # check_hermitian would pass a stack of matrices
    check_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    pos = np.clip(vals, 0.0, None)
    neg = np.clip(-vals, 0.0, None)
    a1 = (vecs * pos) @ np.conj(vecs).T
    a2 = (vecs * neg) @ np.conj(vecs).T
    return a1, a2


def dyadic_weight_partition(c: np.ndarray, n: int) -> list[np.ndarray]:
    """Dyadic weight bands J_k = {j : 4^-(k+1) <= c_j <= 4^-k}, k <= 10 log n.

    Boundary weights (c_j exactly a power of 1/4) go to the smaller k; the
    final block collects everything below the last band, including zeros.
    Returns k0 + 2 index arrays whose disjoint union is all indices.
    """
    c = np.asarray(c, dtype=np.float64)
    if np.any(c < 0) or np.any(c > 1):
        raise ParameterError("weights must lie in [0, 1]")
    k0 = int(10 * math.log(n)) if n > 1 else 0
    blocks: list[np.ndarray] = []
    assigned = np.full(c.size, False)
    for k in range(k0 + 1):
        lo, hi = 4.0 ** -(k + 1), 4.0**-k
        members = np.flatnonzero(~assigned & (c >= lo) & (c <= hi))
        assigned[members] = True
        blocks.append(members)
    blocks.append(np.flatnonzero(~assigned))
    return blocks


@dataclass(frozen=True)
class TailEnvelope:
    """One of the closed-form tail bounds, with user-settable constants.

    The unspecified absolute constants default to C = Cprime = 1.  ``K`` is
    the boundedness/concentration parameter; ``frobenius``, ``spectral`` and
    ``spectral_abs`` are ||A||_F, ||A||_2 and ||B||_2 with B = (|a_ij|);
    ``n_eps1`` is eps1 = P(|xi| > K) of the truncated-variable bound, a
    probability, which ``vw2`` adds as n * eps1.  Every kind bounds the tail
    at t by pre * C * exp(-Cprime * r(t)), its rate r(t) read from one
    table, with pre = log n for ``vw1`` and ``vw2`` and 1 otherwise.
    ``ENVELOPE_INPUTS`` names the fields each kind reads; construction
    raises ParameterError when one of them is None, when a kind that reads
    n has n < 2 (log n would be 0 or undefined), when a norm or ``alpha`` it
    reads is not finite and positive, or when ``n_eps1`` lies outside
    [0, 1] (NaN too), whatever the kind.
    """

    kind: str
    C: float = 1.0
    Cprime: float = 1.0
    K: float = 1.0
    n: int | None = None
    frobenius: float | None = None
    spectral: float | None = None
    spectral_abs: float | None = None
    alpha: float | None = None
    n_eps1: float = 0.0

    def __post_init__(self):
        if self.kind not in ENVELOPE_KINDS:
            raise ParameterError(f"unknown envelope kind {self.kind!r}")
        if not (self.C > 0 and self.Cprime > 0 and self.K > 0):
            raise ParameterError("envelope constants must be positive")
        reads = ENVELOPE_INPUTS[self.kind]
        missing = [name for name in reads if getattr(self, name) is None]
        if missing:
            raise ParameterError(f"envelope kind {self.kind!r} requires {', '.join(missing)}")
        bounded = {name: getattr(self, name) for name in reads if name in _FLOORS}
        bad = [f"{name} = {value!r}" for name, value in bounded.items() if not _FLOORS[name] < value < math.inf]
        if not 0.0 <= self.n_eps1 <= 1.0:
            bad.append(f"n_eps1 = {self.n_eps1!r}")
        if bad:
            needs = "n >= 2, finite positive norms and 0 <= n_eps1 <= 1"
            raise ParameterError(f"envelope {self.kind!r} needs {needs}: {', '.join(bad)}")

    def __call__(self, t: float) -> float:
        """Value of the closed-form bound at t >= 0 (not clipped at 1)."""
        if t < 0:
            raise ParameterError("t must be nonnegative")
        pre = math.log(self.n) if self.kind in ("vw1", "vw2") else 1.0
        try:
            rate = _ENVELOPES[self.kind][1](self, t)
        except OverflowError:  # a float power past the largest float: the rate is +inf, its exp term 0
            rate = math.inf
        value = pre * self.C * math.exp(-self.Cprime * rate)
        return value + self.n * self.n_eps1 if self.kind == "vw2" else value


def optimal_K_subexp(t: float, frob: float, spec: float, alpha: float, n: int) -> float:
    """Truncation level balancing the gaussian and boundedness terms.

    K = min{(t/(||A||_F sqrt(log n)))^(2/(2+1/alpha)), (t/||A||_2)^(1/(2+1/alpha))};
    at the active branch K^-2 * min{t^2/(||A||_F^2 log n), t/||A||_2} = K^(1/alpha).
    """
    if t <= 0 or frob <= 0 or spec <= 0 or alpha <= 0 or n < 2:
        raise ParameterError("optimal_K_subexp needs positive arguments and n >= 2")
    logn = math.log(n)
    q = 2.0 + 1.0 / alpha
    return min((t / (frob * math.sqrt(logn))) ** (2.0 / q), (t / spec) ** (1.0 / q))


@dataclass(frozen=True)
class EmpiricalTail:
    """Monte Carlo survival estimates P(|stat| >= t) over a t-grid."""

    t_grid: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray
    trials: int


class _HalfTriangles(NamedTuple):
    """A square matrix A as the quadratic-form tail reads it: X^T A X - tr A = 2 X^T T X - tr A for a real X.

    ``triangles`` holds T, the upper triangle of (B + B^T)/2 with its
    diagonal halved, and ``traces`` holds tr B, for B = A, or for B = Re A
    and then B = Im A when A is complex.
    """

    triangles: tuple
    traces: tuple


def _half_triangles(a: np.ndarray) -> _HalfTriangles:
    """The ``_HalfTriangles`` of a square matrix, C-contiguous float64 triangles built once."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    triangles = []
    for part in parts:
        t = np.triu(np.asarray(part, dtype=np.float64) + part.T)
        t *= 0.5  # S = (B + B^T)/2, exactly B for a matrix equal to its transpose bit for bit
        t[np.diag_indices_from(t)] *= 0.5
        triangles.append(t)
    return _HalfTriangles(tuple(triangles), tuple(np.trace(part) for part in parts))


def _trmm():
    """numpy's OpenBLAS ``cblas_dtrmm`` (64-bit integers) with its ctypes signature, or None after one warning."""
    import ctypes

    # order, side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
    argtypes = (ctypes.c_int,) * 5 + (ctypes.c_int64,) * 2 + (ctypes.c_double,) + (ctypes.c_void_p, ctypes.c_int64) * 2
    return seeds._openblas_function(
        "scipy_cblas_dtrmm64_",
        argtypes,
        None,
        "numpy's OpenBLAS dtrmm was not found; quadratic-form tail blocks take numpy's full product X @ T",
    )


_ROW_MAJOR, _NO_TRANS, _UPPER, _NON_UNIT, _RIGHT = 101, 111, 121, 131, 142  # CBLAS enum values


def _doubled_forms(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 x_i^T T x_i for each row x_i of a C-contiguous float64 ``x``: 2 rowsum(X o XT), XT by one ``dtrmm``."""
    trmm = _trmm()
    if trmm is None:
        xt = x @ t
    else:
        xt = x.copy()
        m, n = xt.shape
        ld = max(n, 1)
        trmm(_ROW_MAJOR, _RIGHT, _UPPER, _NO_TRANS, _NON_UNIT, m, n, 1.0, t.ctypes.data, ld, xt.ctypes.data, ld)
    xt *= x
    return 2.0 * np.sum(xt, axis=1)


def _statistic_values(target, dist, n, seed) -> np.ndarray:
    """|deviation| for the TAIL_BLOCK draws of one block, drawn as one TAIL_BLOCK x n draw from ``seed``.

    A ``WeightedFrame`` target gives the projection deviation, a
    ``_HalfTriangles`` (a square matrix A, prepared by ``_half_triangles``)
    the quadratic-form deviation.  One product per block gives the values:
    X conj(U) for the projection, X T for the quadratic form, whose
    deviation is 2 rowsum(X o XT) - tr A (the real and imaginary parts of A
    each take their own T).  A row's result depends on its place in the
    block, the block's height and the BLAS thread count; every block is
    drawn and multiplied whole (even the last, which the caller cuts
    short), so the draw's index fixes the first two, and the caller holds
    ``one_blas_thread`` for the third.
    """
    x = _draw(dist, (TAIL_BLOCK, n), _rng(seed))
    if isinstance(target, WeightedFrame):
        coeffs = np.abs(x @ target.basis.conj()) ** 2
        dev = np.sqrt(np.sum(coeffs * target.weights, axis=1)) - math.sqrt(float(np.sum(target.weights)))
    else:
        parts = [_doubled_forms(x, t) - tr for t, tr in zip(target.triangles, target.traces)]
        dev = parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
    return np.abs(dev)


def empirical_tail(
    target: WeightedFrame | np.ndarray,
    dist: DistSpec,
    t_grid: np.ndarray,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> EmpiricalTail:
    """Survival function of the |deviation| of ``target`` over ``trials`` seeded draws.

    A ``WeightedFrame`` target gives the projection deviation
    f(X) - sqrt(sum c_j), a square matrix A the quadratic-form deviation
    X* A X - trace(A).  The trials of ``map_trials`` are the blocks of
    TAIL_BLOCK draws: block b, always drawn whole, uses seed
    derive_seed(base_seed, b).  Workers get whole blocks on one BLAS thread,
    reduced in block order, so draw i depends on neither ``trials`` nor the
    worker count.  A NaN or infinite entry of a matrix target fails with a
    ContractError that names it, before any block is drawn.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0 or np.any(np.isnan(t_grid)) or np.any(np.diff(t_grid) < 0):
        raise ParameterError("t_grid must be nonempty, ascending and without NaN")
    if trials < TAIL_MIN_TRIALS:
        raise ParameterError(f"need at least {TAIL_MIN_TRIALS} trials")
    if isinstance(target, WeightedFrame):
        n = target.basis.shape[0]
    else:
        target = np.asarray(target)
        if target.ndim != 2 or target.shape[0] != target.shape[1]:
            raise ContractError(f"the target must be a WeightedFrame or a square matrix, not of shape {target.shape}")
        _check_finite(target, "matrix")
        n = target.shape[0]
        target = _half_triangles(target)
        _trmm()  # looked up in the calling thread, so a missing symbol warns once, not once per worker

    def block(_, seed):
        return _statistic_values(target, dist, n, seed)

    with one_blas_thread():
        blocks = map_trials(block, -(-trials // TAIL_BLOCK), base_seed, workers)
    values = np.concatenate(blocks)[:trials]

    survival = (trials - np.searchsorted(np.sort(values), t_grid, side="left")) / trials  # a draw equal to t counts
    stderr = np.sqrt(survival * (1.0 - survival) / trials)
    return EmpiricalTail(t_grid=t_grid, survival=survival, stderr=stderr, trials=trials)


__all__ = [
    "ENVELOPE_INPUTS",
    "ENVELOPE_KINDS",
    "EmpiricalTail",
    "TailEnvelope",
    "WeightedFrame",
    "dyadic_weight_partition",
    "empirical_tail",
    "hermitize_split",
    "optimal_K_subexp",
    "psd_split",
]
