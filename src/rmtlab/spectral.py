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
with the bits of the same point inside an array.  An interval from -inf is
the law's CDF: ``sc_interval_mass(-np.inf, x)``, ``mp_interval_mass(-np.inf,
x, y)``.  The KS distance of a spectrum to a law is
``scipy.stats.kstest(eigs, cdf).statistic`` on that CDF.

On a stack of matrices, numpy's eigh runs LAPACK once per matrix on a
copy, so the stack's place in memory does not reach the bits; the
identities runner stacks its small matrices so.  A trial that builds its
own real symmetric matrix and never reads it again solves it with
``_eigh_owned`` instead: one ``dsyevd`` of numpy's bundled
OpenBLAS, bound by ``seeds._openblas_function``, in the matrix's own
memory.  Its workspace is numpy arrays, and its eigenvectors are the
overwritten matrix read as columns: no copy is made, and tracemalloc sees
every buffer it asks for.  LAPACK gets the bytes numpy's eigh would hand
it: numpy copies the matrix to column-major order and reads the lower
triangle, while the in-place call reads the row-major matrix as
column-major, which is its transpose, and reads the lower triangle of
that, the matrix's upper triangle.  The two
agree on a matrix equal to its own transpose bit for bit, as the trials'
Wigner draws and SYRK Gram products are, so the values and vectors are
numpy's bits.  ``check_hermitian`` passes a matrix only when every entry
is finite and every asymmetry is within its tolerance; a NaN or infinite
entry fails with a ``ContractError`` that names it.

Only the principal-value quadrature uses scipy; it imports
``scipy.integrate`` when called and calls ``integrate.quad`` through the
module, so a wrapper patched onto ``scipy.integrate.quad`` sees every call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import seeds
from .ensembles import ParameterError

SC_EDGES = (-2.0, 2.0)  # the semicircle support


class DomainError(ValueError):
    """Argument outside an operation's domain (e.g. Im z <= 0)."""


class ContractError(ValueError):
    """Structural precondition violated (unsorted input, non-Hermitian, ...)."""


def _check_finite(a: np.ndarray, what: str) -> None:
    """Raise ContractError naming up to three of the NaN or infinite entries of ``a``, if it has any."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        shown = ", ".join(f"{a[tuple(i)]} at {tuple(i.tolist())}" for i in bad[:3])
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise ContractError(f"{what} has non-finite entries: {shown}{more}")


def check_hermitian(w: np.ndarray) -> None:
    """Raise ContractError unless w is square, finite and has |w - w*| <= 1e-10 max(1, max |w_ij|).

    Leading axes before the last two index a stack of matrices, each checked
    on its own scale.  A NaN or infinite entry fails with a message that
    names it, before the asymmetry is taken, so no RuntimeWarning is raised.
    """
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ContractError("matrix must be square")
    largest = np.max(np.abs(w), axis=(-2, -1), initial=0.0)
    if not np.all(np.isfinite(largest)):  # before w - w*, where inf - inf would warn and give NaN
        _check_finite(w, "matrix")
    dev = np.max(np.abs(w - np.conj(np.swapaxes(w, -1, -2))), axis=(-2, -1), initial=0.0)
    if not np.all(dev <= 1e-10 * np.maximum(1.0, largest)):
        raise ContractError(f"matrix is not Hermitian (max asymmetry {np.max(dev):.3g})")


class _Eigenpairs(NamedTuple):
    """Ascending eigenvalues and matching eigenvector columns, the fields of numpy's ``EighResult``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh_owned(a: np.ndarray, vectors: bool = True):
    """Eigenvalues of a real symmetric matrix, with ``vectors`` also its eigenvectors, solved in ``a``'s own memory.

    For a matrix the caller built and never reads again.  A C-contiguous
    float64 ``a`` is overwritten by one LAPACK ``dsyevd``, which reads its
    upper triangle, so ``a`` must equal its own transpose bit for bit; then
    the results carry the bits of ``np.linalg.eigh(a)`` (``eigvalsh``
    without ``vectors``), which reads the lower one.  The workspace is two
    numpy arrays of the sizes LAPACK's query asks for, as numpy sizes it,
    and the eigenvectors are ``a.T``, the overwritten matrix read as
    columns, in ``_Eigenpairs``.  Other input, or a numpy without the
    symbol, takes numpy's call and is left as it was.
    """
    from ctypes import byref, c_char_p, c_int64, c_size_t, c_void_p

    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the lengths of jobz and uplo
    argtypes = (c_char_p,) * 2 + (c_void_p,) * 9 + (c_size_t,) * 2
    syevd = seeds._openblas_function(
        "scipy_dsyevd_64_",
        argtypes,
        None,
        "numpy's OpenBLAS dsyevd was not found; trial eigensolves take numpy's eigh on a copy of the matrix",
    )
    square = a.ndim == 2 and a.shape[0] == a.shape[1]
    if syevd is None or a.dtype != np.float64 or not (square and a.flags.c_contiguous and a.flags.writeable):
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    n, lda = c_int64(a.shape[0]), c_int64(max(a.shape[0], 1))
    lwork, liwork, info = c_int64(-1), c_int64(-1), c_int64(0)
    jobz = b"V" if vectors else b"N"
    w = np.empty(a.shape[0])

    def call(work, iwork):
        syevd(
            jobz, b"L", byref(n), a.ctypes.data, byref(lda), w.ctypes.data,
            work.ctypes.data, byref(lwork), iwork.ctypes.data, byref(liwork), byref(info), 1, 1,
        )
        if info.value:
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge (dsyevd info {info.value})")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork)  # lwork = liwork = -1: LAPACK writes the sizes it wants
    lwork.value, liwork.value = int(work[0]), int(iwork[0])
    call(np.empty(lwork.value), np.empty(liwork.value, dtype=np.int64))
    return _Eigenpairs(w, a.T) if vectors else w


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


def _pv_quad(f, lam: float, support: tuple[float, float]) -> float:
    """Principal value of int f(x)/(x - lam) dx over ``support``, by QUADPACK at tolerance 1e-12.

    A pole strictly inside the support takes QAWC, quad's Cauchy weight
    1/(x - lam) on f; a pole on an edge or outside leaves f(x)/(x - lam)
    integrable (f vanishes at the edges), and plain quad takes it.
    """
    from scipy import integrate

    lo, hi = support
    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=400)  # 1e-12 takes more than quad's default 50 subintervals
    if lo < lam < hi:
        return integrate.quad(f, lo, hi, weight="cauchy", wvar=lam, **opts)[0]
    return integrate.quad(lambda x: f(x) / (x - lam), lo, hi, **opts)[0]


def pv_semicircle_numeric(lam: float) -> float:
    """QUADPACK oracle for ``pv_semicircle``: the Cauchy-weight rule on rho_sc."""
    return _pv_quad(rho_sc, lam, SC_EDGES)


__all__ = [
    "ContractError",
    "DomainError",
    "SC_EDGES",
    "check_hermitian",
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
