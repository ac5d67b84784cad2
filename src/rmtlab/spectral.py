"""Spectra, limiting densities, Stieltjes transforms, and principal values.

Branch handling: both closed-form Stieltjes transforms are evaluated as
products of principal square roots of the linear factors at the support
edges.  That realizes the branch cut exactly on the support and gives the
correct asymptotics at infinity, which pins down the Herglotz branch.

The semicircle and Marchenko-Pastur (MP) laws differ only in their edges
(``SC_EDGES``, ``mp_edges(y)``) and formulas.  One density rule: the formula
inside the open support, 0.0 on its edges, outside and at NaN (so the MP hard
edge x = 0 at y = 1 never divides 0 by 0).  One mass rule: lo < hi
everywhere, else ``ContractError`` (a reversed, empty or NaN interval), then
the antiderivative's difference over the interval clipped to the support,
over the law's normalizer (1, or 2 pi y for MP).  Both work elementwise on
arrays; a float or a 0-d array gives an ``np.float64`` through ``[()]``,
with the bits of the same point inside an array.

Only the principal-value quadrature uses scipy; it imports
``scipy.integrate`` when called and calls ``integrate.quad`` through the
module, so a wrapper patched onto ``scipy.integrate.quad`` sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import ParameterError

SC_EDGES = (-2.0, 2.0)  # the semicircle support


class DomainError(ValueError):
    """Argument outside an operation's domain (e.g. Im z <= 0)."""


class ContractError(ValueError):
    """Structural precondition violated (unsorted input, non-Hermitian, ...)."""


def check_hermitian(w: np.ndarray) -> None:
    """Raise ContractError unless w is square with |w - w*| <= 1e-10 max(1, max |w_ij|).

    Leading axes before the last two index a stack of matrices, each checked on its own scale.
    """
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ContractError("matrix must be square")
    dev = np.max(np.abs(w - np.conj(np.swapaxes(w, -1, -2))), axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=(-2, -1), initial=0.0))
    if np.any(dev > 1e-10 * scale):
        raise ContractError(f"matrix is not Hermitian (max asymmetry {np.max(dev):.3g})")


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of a stack of matrices (..., r, c) whose matrices each start on a 16-byte boundary.

    A fresh lone array starts on one, and a BLAS dot kernel (OpenBLAS's SSE2
    one) sums a vector that does not in another order, so a product over a
    stack has the bits of one product per matrix only on a stack so placed.
    Each matrix keeps its own layout, C or F order; a lone matrix is returned
    as it is.
    """
    if a.ndim < 3:
        return a
    *batch, r, c = a.shape
    size = r * c
    buf = np.empty((*batch, size + (-size * a.itemsize) % 16 // a.itemsize), a.dtype)[..., :size]
    first = a[(0,) * len(batch)]
    f_order = first.flags.f_contiguous and not first.flags.c_contiguous
    out = buf.reshape(*batch, c, r).swapaxes(-1, -2) if f_order else buf.reshape(*batch, r, c)
    out[...] = a
    return out


def eig_decompose(w: np.ndarray):
    """numpy's ``EighResult`` of a Hermitian matrix: ascending ``eigenvalues`` and matching ``eigenvectors`` columns.

    A stack of matrices gives stacked results, with the bits of one eigh per matrix.
    """
    check_hermitian(w)
    return np.linalg.eigh(w)


def _density(x, edges: tuple[float, float], formula):
    """``formula`` at the points of x strictly inside ``edges``, 0.0 elsewhere and at NaN; ``[()]`` of the result."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (edges[0] < x) & (x < edges[1])
    out[inside] = formula(x[inside])
    return out[()]


def _interval_mass(lo, hi, edges: tuple[float, float], antiderivative, normalizer: float):
    """The antiderivative's difference over [lo, hi] clipped to ``edges``, over ``normalizer``; needs lo < hi."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if not np.all(lo < hi):
        raise ContractError("interval needs lo < hi")
    return ((antiderivative(np.clip(hi, *edges)) - antiderivative(np.clip(lo, *edges))) / normalizer)[()]


def rho_sc(x):
    """Semicircle density sqrt(4 - x^2)/(2 pi) on [-2, 2], zero outside and at NaN."""
    return _density(x, SC_EDGES, lambda t: np.sqrt(4.0 - t**2) / (2.0 * math.pi))


def _sc_antiderivative(x):
    return x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi


def sc_interval_mass(lo, hi):
    """Exact semicircle mass of [lo, hi] from the antiderivative; raises ContractError unless lo < hi."""
    return _interval_mass(lo, hi, SC_EDGES, _sc_antiderivative, 1.0)


def _check_z(z: complex) -> complex:
    """z as a complex number; raise DomainError unless Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("Im z must be positive")
    return z


def stieltjes_empirical(eigs: np.ndarray, z: complex) -> complex:
    """s_n(z) = (1/n) sum 1/(lambda_i - z) for Im z > 0."""
    z = _check_z(z)
    eigs = np.asarray(eigs)
    return complex(np.mean(1.0 / (eigs - z)))


def stieltjes_sc(z: complex) -> complex:
    """Stieltjes transform (-z + sqrt(z^2 - 4))/2 of the semicircle law.

    sqrt(z^2-4) is computed as sqrt(z-2)*sqrt(z+2) with principal roots,
    which cuts exactly along [-2, 2] and behaves like z at infinity.
    """
    z = _check_z(z)
    return (-z + np.sqrt(z - 2.0) * np.sqrt(z + 2.0)) / 2.0


def mp_edges(y: float) -> tuple[float, float]:
    """Support edges a = (1-sqrt(y))^2, b = (1+sqrt(y))^2 of the MP law."""
    if not 0 < y <= 1:
        raise ParameterError("aspect ratio y must lie in (0, 1]")
    r = math.sqrt(y)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def rho_mp(x, y: float):
    """Marchenko-Pastur density sqrt((b-x)(x-a))/(2 pi x y) on [a, b], zero outside, at x = 0 and at NaN."""
    a, b = mp_edges(y)
    return _density(x, (a, b), lambda t: np.sqrt((b - t) * (t - a)) / (2.0 * math.pi * t * y))


def _mp_antiderivative(x, y: float):
    """2 pi y times the MP CDF plus a constant, for x in [a, b].

    Arcsines written as atan2: near +-1 an arcsine turns rounding of its
    argument into errors near 1e-8.  The sqrt(ab) term is 0 when a = 0.
    """
    a, b = mp_edges(y)
    c = (a + b) / 2.0
    r = math.sqrt(a * b)
    root = np.sqrt((b - x) * (x - a))
    return root + c * np.arctan2(x - c, root) - r * np.arctan2((a + b) * x - 2.0 * a * b, 2.0 * r * root)


def mp_interval_mass(lo, hi, y: float):
    """Exact MP mass of [lo, hi] from the antiderivative; raises ContractError unless lo < hi."""
    return _interval_mass(lo, hi, mp_edges(y), lambda x: _mp_antiderivative(x, y), 2.0 * math.pi * y)


def stieltjes_mp(z: complex, y: float) -> complex:
    """Closed-form MP Stieltjes transform with the cut on [a, b].

    (y+z-1)^2 - 4yz factors as (z-a)(z-b); principal roots of the factors
    give the branch that is asymptotic to y+z-1 at infinity.
    """
    z = _check_z(z)
    a, b = mp_edges(y)
    root = np.sqrt(z - a) * np.sqrt(z - b)
    return -(y + z - 1.0 - root) / (2.0 * y * z)


def pv_semicircle(lam: float) -> float:
    """Principal value of int rho_sc(x)/(x - lam) dx, in closed form.

    Equals -lam/2 inside [-2, 2]; outside, the extra sign(lam)*sqrt(lam^2-4)/2
    term is fixed by requiring decay as |lam| -> infinity.
    """
    if abs(lam) <= 2.0:
        return -lam / 2.0
    return -lam / 2.0 + math.copysign(math.sqrt(lam * lam - 4.0), lam) / 2.0


def _pv_quad(f, lam: float, support: tuple[float, float], excision: float, tol: float) -> float:
    """Principal value of int f over ``support``, pole at lam: quad at tolerance ``tol``.

    A pole inside the support is cut out symmetrically; the cut's error is
    linear in its half-width, so one Richardson step combines excision/2 and
    excision.  A pole outside the support needs no cut.
    """
    from scipy import integrate

    lo, hi = support

    def integral(eps: float) -> float:
        total = 0.0
        for a, b in ((lo, lam - eps), (lam + eps, hi)):
            a, b = max(a, lo), min(b, hi)
            if a < b:
                val, _ = integrate.quad(f, a, b, limit=400, epsabs=tol, epsrel=tol)
                total += val
        return total

    if not lo <= lam <= hi:
        return integral(0.0)
    return 2.0 * integral(excision / 2.0) - integral(excision)


def pv_semicircle_numeric(lam: float) -> float:
    """Symmetric-excision quadrature oracle for ``pv_semicircle``, excision 1e-6."""
    return _pv_quad(lambda x: rho_sc(x) / (x - lam), lam, SC_EDGES, 1e-6, 1e-12)


def ks_distance(eigs: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an ESD and a reference CDF."""
    eigs = np.sort(np.asarray(eigs))
    n = eigs.size
    ref = np.asarray([cdf(x) for x in eigs])
    upper = np.max(np.arange(1, n + 1) / n - ref)
    lower = np.max(ref - np.arange(0, n) / n)
    return float(max(upper, lower))


__all__ = [
    "ContractError",
    "DomainError",
    "SC_EDGES",
    "check_hermitian",
    "eig_decompose",
    "ks_distance",
    "mp_edges",
    "mp_interval_mass",
    "pv_semicircle",
    "pv_semicircle_numeric",
    "rho_mp",
    "rho_sc",
    "sc_interval_mass",
    "stieltjes_empirical",
    "stieltjes_mp",
    "stieltjes_sc",
]
