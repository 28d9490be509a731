"""Deterministic numerical kernels.

Quadrature rules (Gauss-Legendre, uniform periodic), a dense symmetric
generalized eigensolver, the Fourier-Galerkin matrices of the
torus-of-revolution profile problem in closed form, and the real Fourier
codec of every periodic axis.

The codec owns the column layout of :func:`circle_basis` (column <->
(freq, parity) and each column's normalization), the conversion of a row
to e^{ins} coefficients and back, the product of rows
(:func:`circle_product`, and :func:`circle_unit_product` for unit rows,
one ``np.convolve`` per factor) and the sums of
every column against a vector on a uniform grid (:func:`circle_sums`, one
``np.fft.fft``).  No other module calls ``np.convolve`` or ``np.fft``.

:func:`real_part_powers` gives Re(z^k) for a run of degrees k, bit for
bit as numpy's ``z ** k`` forms it, from squarings of z that all degrees
share, on real and imaginary parts that broadcast (an open mesh, say).

:func:`wigner_3j` and :func:`gaunt_real` (the integral of three real
spherical harmonics) share one cached kernel.  It uses the three-term
recursion in the third angular momentum, run from both ends of the
admissible range and spliced in the classical region, with the overall
scale fixed by the two-sided normalization sum (2 l3 + 1) f(l3)^2 = 1 and
the sign anchored at l3 = l1 + l2.  Unlike factorial formulas this
survives degrees around 64 without overflow.

The eigensolver reduces a pencil (A, B) once: :func:`inverse_cholesky`
factors B = L L^T (LAPACK ``dpotrf``, ``dtrtri``) and
:func:`reduce_congruent` forms L^-1 A L^-T.  Pencils that share B, such
as the angular families K + m^2 M of the torus of revolution, share one
reduction, and :func:`family_eigs` solves all of them: one ``dsyevr``
workspace query, then one direct ``dsyevr`` call per family, optionally
for the eigenvalues below a bound only, and one back-transform
v = L^-T w of every family's vectors.  It returns the whole block at
once: every family's eigenvalues in one array, their vectors as the
columns of one (n, total) array, and each family's count, so a caller
cuts a family as a slice.  :func:`rev_galerkin_terms` likewise gives the
torus of revolution's matrices one s-parity block at a time.
:func:`inverse_cholesky` and :func:`family_eigs` take their LAPACK
routines from :func:`_lapack`, which loads scipy's f2py extension
``scipy.linalg._flapack`` on its own the first time a pencil is solved:
no scipy package ``__init__`` runs, and a process that solves no
eigenproblem never loads it.

Every function here but :func:`_lapack` is a pure function of its
arguments, and all are safe to call from many threads.  Results are
bit-reproducible for a fixed BLAS thread count.  Only the LAPACK calls'
bits may change with it, and only for large pencils: the Galerkin
matrices, the congruence L^-1 A L^-T and the back-substitution use no
BLAS at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BreakdownError,
    ConvergenceError,
    FactorizationError,
    GeometryError,
    ParameterError,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

MAX_GAUSS_NODES = 512
MAX_GALERKIN_TRUNCATION = 1024

__all__ = [
    "QuadratureGrid",
    "gauss_legendre",
    "uniform_periodic",
    "inverse_cholesky",
    "reduce_congruent",
    "family_eigs",
    "rev_galerkin_terms",
    "circle_basis",
    "circle_columns",
    "circle_frequencies",
    "circle_norms",
    "to_exponential",
    "from_exponential",
    "circle_product",
    "circle_unit_product",
    "circle_sums",
    "real_part_powers",
    "wigner_3j",
    "gaunt_real",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """A one-dimensional rule: nodes and strictly positive weights, both
    of shape (n,), integrating over a fixed interval or circle.

    ``exactness_degree`` is the polynomial (Gauss) or trigonometric
    (uniform) degree integrated exactly.  Metric volume factors, when a
    rule integrates against a curved volume form, are folded into the
    weights, so the weights always sum to the volume of the domain.  A
    surface's grid is one rule per chart axis, never a flattened copy.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    volume: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ParameterError("need one-dimensional nodes and exactly one weight per node")
        if not np.all(weights > 0.0):
            raise GeometryError("quadrature weights must be strictly positive")
        total = float(weights.sum())
        if not math.isclose(total, self.volume, rel_tol=1e-12, abs_tol=1e-300):
            raise GeometryError(
                f"weights sum to {total!r}, expected domain volume {self.volume!r}"
            )

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def gauss_legendre(n: int) -> QuadratureGrid:
    """n-point Gauss-Legendre rule on [-1, 1], exact through degree 2n-1.

    Nodes are the roots of the Legendre polynomial P_n, found by Newton
    iteration from the Chebyshev-like initial guesses, then symmetrized so
    the rule is exactly even.  Weights are 2 / ((1 - x^2) P_n'(x)^2).
    Each rule is computed once per process and shared by every caller, so
    its node and weight arrays are read-only.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ParameterError("node count must be an integer")
    if n < 1 or n > MAX_GAUSS_NODES:
        raise ParameterError(f"node count must be in [1, {MAX_GAUSS_NODES}], got {n}")
    return _gauss_legendre_rule(int(n))


@functools.cache
def _gauss_legendre_rule(n: int) -> QuadratureGrid:
    if n == 1:
        return _read_only(QuadratureGrid(np.zeros(1), np.full(1, 2.0), 1, 2.0))

    k = np.arange(1, n + 1, dtype=float)
    x = np.cos(math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(100):
        p0, p1 = _legendre_pair(n, x)
        dp = n * (x * p0 - p1) / (x * x - 1.0)
        dx = p0 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:  # pragma: no cover - Newton always converges in a few steps
        raise ConvergenceError("Gauss-Legendre Newton iteration stalled")

    x.sort()
    x = 0.5 * (x - x[::-1])  # enforce exact +- symmetry
    p0, p1 = _legendre_pair(n, x)
    dp = n * (x * p0 - p1) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / w.sum()  # pin the zeroth moment
    if np.any(np.diff(x) <= 0.0) or x[0] <= -1.0 or x[-1] >= 1.0:
        raise ConvergenceError("Gauss-Legendre nodes failed ordering check")
    return _read_only(QuadratureGrid(x, w, 2 * n - 1, 2.0))


def _read_only(grid: QuadratureGrid) -> QuadratureGrid:
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = np.zeros_like(x)
    for j in range(1, n + 1):
        p0, p1 = ((2.0 * j - 1.0) * x * p0 - (j - 1.0) * p1) / j, p0
    return p0, p1


def uniform_periodic(n: int, period: float) -> QuadratureGrid:
    """n equispaced nodes with equal weights on a circle of given period.

    Exact for trigonometric polynomials of degree <= n-1; degree n aliases
    onto the constant (the classical trapezoid-rule boundary).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ParameterError("node count must be an integer")
    if n < 1:
        raise ParameterError(f"node count must be >= 1, got {n}")
    if not (period > 0.0) or not math.isfinite(period):
        raise ParameterError(f"period must be positive and finite, got {period}")
    nodes = period * np.arange(n, dtype=float) / n
    weights = np.full(n, period / n)
    return QuadratureGrid(nodes, weights, n - 1, period)


def _lapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``.

    ``scipy.linalg.lapack`` re-exports these very routine objects, but
    importing it runs the whole ``scipy.linalg`` package import (about 320
    modules and 20 MB of memory); the extension alone is found under
    scipy's package directory and loaded without running any scipy
    ``__init__``.  The module is kept in ``sys.modules``, so it is loaded
    once per process and shared with a later ``import scipy.linalg``.
    Raises :class:`ImportError` when scipy or the extension is missing.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(entry, "linalg") for entry in scipy.submodule_search_locations or ()])
    if spec is None:
        raise ImportError(f"LAPACK needs scipy's extension module {name}, which is not installed",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(name, module)


def inverse_cholesky(b: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor B = L L^T of a symmetric positive
    definite B (lower triangular, zero above the diagonal).

    Raises :class:`ParameterError` when B is not symmetric to 1e-12 and
    :class:`FactorizationError` when it is not positive definite.
    """
    _check_symmetric(b, "mass")
    if not b.size:
        return np.zeros(b.shape)
    lapack = _lapack()
    lower, info = lapack.dpotrf(b, lower=1)
    if info == 0:
        inverse, info = lapack.dtrtri(lower, lower=1)
    if info != 0:
        raise FactorizationError("mass matrix is not positive definite")
    return inverse


def reduce_congruent(inv_lower: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The symmetric matrix L^-1 A L^-T.

    Raises :class:`ParameterError` when A is not symmetric to 1e-12.
    Two-operand ``np.einsum`` without ``optimize`` takes no BLAS path, so
    the bits do not depend on the BLAS thread count.
    """
    _check_symmetric(matrix, "stiffness")
    half = np.einsum("ij,jk->ik", inv_lower, matrix)
    out = np.einsum("ij,kj->ik", half, inv_lower)
    return 0.5 * (out + out.T)


def _check_symmetric(matrix: np.ndarray, name: str) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError(f"{name} matrix must be square")
    if matrix.size and np.max(np.abs(matrix - matrix.T)) > 1e-12:
        raise ParameterError(f"{name} matrix is not symmetric")


def family_eigs(k_red: np.ndarray, w_red: np.ndarray, inv_lower: np.ndarray,
                weights, upper: float | None = None) -> tuple:
    """Eigenpairs of the pencils (K + w M, B), one family per weight w,
    whose reductions are ``k_red`` = L^-1 K L^-T and ``w_red`` = L^-1 M L^-T.

    Returns ``(values, vectors, counts)``: family i has ``counts[i]``
    eigenpairs, and ``values`` holds every family's eigenvalues in weight
    order, ascending within a family; column j of the (n, total) array
    ``vectors`` is the eigenvector v = L^-T u of ``values[j]``, the columns
    B-orthonormal within a family.  With ``upper``, only the eigenvalues
    <= ``upper`` are kept.  The weights ascend and M is positive definite,
    so K + w M rises with w: the families after the first that keeps no
    eigenvalue keep none and are not solved.  Each column's sign is fixed
    so that its first entry above 1e-8 times the column's largest
    magnitude is positive.  Raises :class:`ParameterError` when an entry of
    some K + w M could be infinite or NaN and :class:`ConvergenceError`
    when LAPACK reports a failure.
    """
    weights = list(weights)
    n = k_red.shape[0]
    counts = np.zeros(len(weights), dtype=np.int64)
    if not n or not weights:
        return np.zeros(0), np.zeros((n, 0)), counts
    # |k + w m| <= |k| + |w| |m| entrywise, so one finite bound covers
    # every entry of every family, and any NaN makes it NaN
    bound = (float(np.max(np.abs(k_red)))
             + max(abs(w) for w in weights) * float(np.max(np.abs(w_red))))
    if not math.isfinite(bound):
        raise ParameterError("the reduced family matrices must be finite")
    lapack = _lapack()
    # the workspace sizes scipy.linalg.eigh would query for each call
    work, iwork, info = lapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise ConvergenceError(f"dsyevr workspace query failed (info={info})")
    options = {"range": "A"} if upper is None else {"range": "V", "vl": -math.inf, "vu": upper}
    values, columns = [], []
    for family, w in enumerate(weights):
        # the matrix is exactly symmetric, so its transpose hands LAPACK
        # the same entries in column-major order, with no copy
        vals, vecs, count, _support, info = lapack.dsyevr(
            (k_red + w * w_red).T, lower=1, overwrite_a=1,
            lwork=int(work), liwork=int(iwork), **options)
        if info != 0:
            raise ConvergenceError(f"dsyevr failed (info={info})")
        counts[family] = count
        values.append(vals[:count])
        # the first family that keeps nothing joins with its empty block:
        # the concatenation takes its memory layout from all the blocks
        columns.append(vecs[:, :count])
        if not count:
            break
    vectors = np.einsum("ji,jk->ik", inv_lower, np.concatenate(columns, axis=1))
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-8 * np.maximum(mags.max(axis=0), 1e-300), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] = -vectors[:, flip]
    return np.concatenate(values), vectors, counts


def circle_basis(s: np.ndarray, size: int) -> np.ndarray:
    """Real orthonormal Fourier basis on the 2*pi circle, evaluated at s.

    Column order: 1/sqrt(2 pi), cos(s)/sqrt(pi), sin(s)/sqrt(pi),
    cos(2s)/sqrt(pi), ...  ``size`` must be odd (2N+1).
    """
    if size < 1 or size % 2 == 0:
        raise ParameterError("circle basis size must be odd (2N+1)")
    s = np.asarray(s, dtype=float)
    n_max = (size - 1) // 2
    out = np.empty((s.shape[0], size))
    out[:, 0] = 1.0 / math.sqrt(TWO_PI)
    if n_max:
        ks = np.outer(s, np.arange(1, n_max + 1, dtype=float))
        out[:, 1::2] = np.cos(ks) / math.sqrt(math.pi)
        out[:, 2::2] = np.sin(ks) / math.sqrt(math.pi)
    return out


def circle_columns(freqs, parities) -> np.ndarray:
    """The :func:`circle_basis` column of each (freq, parity), parity 0 for
    a cosine and 1 for a sine: 0 at freq 0, else 2 freq - 1 + parity."""
    freqs = np.asarray(freqs, dtype=np.int64)
    return np.where(freqs == 0, 0, 2 * freqs - 1 + np.asarray(parities, dtype=np.int64))


def circle_frequencies(columns) -> np.ndarray:
    """The frequency of each :func:`circle_basis` column."""
    return (np.asarray(columns, dtype=np.int64) + 1) // 2


def circle_norms(columns) -> np.ndarray:
    """The L2 norm over one period of 1, cos(freq s) or sin(freq s):
    :func:`circle_basis` column c is that function over circle_norms(c)."""
    return np.where(np.asarray(columns) == 0, math.sqrt(TWO_PI), math.sqrt(math.pi))


def to_exponential(row) -> np.ndarray:
    """Coefficients of e^{ins}, n = -N .. N, of the real series whose
    coefficients against 1, cos s, sin s, cos 2s, ... are ``row`` (length
    2N+1, the column order of :func:`circle_basis` without its
    normalization).  Only halving, so :func:`from_exponential` inverts it
    exactly."""
    row = np.asarray(row, dtype=float)
    half = 0.5 * (row[1::2] - 1j * row[2::2])
    return np.concatenate((np.conj(half[::-1]), row[:1], half))


def from_exponential(coeffs) -> np.ndarray:
    """The real series of :func:`to_exponential` from the e^{ins}
    coefficients of a real function (length 2N+1, n = -N .. N)."""
    coeffs = np.asarray(coeffs)
    centre = (coeffs.shape[0] - 1) // 2
    half = coeffs[centre + 1:]
    row = np.empty(coeffs.shape[0])
    row[0] = coeffs[centre].real
    row[1::2] = 2.0 * half.real
    row[2::2] = -2.0 * half.imag
    return row


def circle_product(rows) -> np.ndarray:
    """The product of real series in the layout of :func:`to_exponential`
    (each of odd length): the convolution of their e^{ins} coefficients,
    of length sum(len(row) - 1) + 1."""
    series = np.ones(1, dtype=complex)
    for row in rows:
        series = np.convolve(series, to_exponential(row))
    return from_exponential(series)


def circle_unit_product(columns) -> np.ndarray:
    """:func:`circle_product` of one unit row per :func:`circle_basis`
    column of ``columns``: 1, cos(freq s) or sin(freq s)."""
    series = np.ones(1, dtype=complex)
    for column in columns:
        series = np.convolve(series, _unit_exponential(int(column)))
    return from_exponential(series)


@functools.cache
def _unit_exponential(column: int) -> np.ndarray:
    """:func:`to_exponential` of the unit row of ``column``, formed once
    per column and process, read-only."""
    row = np.zeros(column + 1 + column % 2)
    row[column] = 1.0
    coeffs = to_exponential(row)
    coeffs.setflags(write=False)
    return coeffs


def circle_sums(values, width: int) -> np.ndarray:
    """``circle_basis(nodes, width).T @ values`` on the uniform grid
    nodes 2 pi j / n, n = len(values), from one FFT: the sum against
    cos(k s) and sin(k s) is the real part and minus the imaginary part of
    bin k.  Exact for every column up to width 2n - 1."""
    values = np.asarray(values, dtype=float)
    if width < 1 or width % 2 == 0 or width > 2 * values.shape[0] - 1:
        raise ParameterError(
            f"circle sums need an odd width <= {2 * values.shape[0] - 1}, got {width}")
    bins = np.fft.fft(values)[:(width + 1) // 2]
    sums = np.empty(width)
    sums[0] = bins[0].real
    sums[1::2] = bins[1:].real
    sums[2::2] = -bins[1:].imag
    return sums / circle_norms(np.arange(width))


def rev_galerkin_terms(big: float, small: float, trunc: int) -> tuple:
    """The m-independent Galerkin matrices of the torus of revolution,
    in closed form, one s-parity block at a time.

    With f(s) = big + small cos s, 0 <= small < big, the matrices in the
    real Fourier basis of size 2*trunc+1 on the 2*pi circle (the column
    order of :func:`circle_basis`) are K[i,j] = int f e_i' e_j',
    M_inv[i,j] = int e_i e_j / f and B[i,j] = int f e_i e_j.  The stiffness
    of angular family m is K + m^2 M_inv.  f and 1/f are even, so every
    entry between an s-cosine and an s-sine column vanishes.  Returns the
    two blocks ``(idx, K, M_inv, B)``: the s-cosine block on the columns
    idx = 0, 1, 3, ..., 2*trunc-1 (frequencies 0 ... trunc), then the
    s-sine block on idx = 2, 4, ..., 2*trunc (frequencies 1 ... trunc),
    each matrix gathered on ``np.ix_(idx, idx)`` of the full one.

    An even weight w with cosine moments W_n = int w cos(ns) ds gives
    int w cos(ks) cos(ls) = (W_|k-l| + W_{k+l}) / 2 and
    int w sin(ks) sin(ls) = (W_|k-l| - W_{k+l}) / 2.
    f has the moments 2 pi big and pi small, so K and B are banded; 1/f
    has the Poisson-kernel moments (2 pi / d) rho^|n| with
    d = sqrt(big^2 - small^2) and rho = -small / (big + d), so M_inv is
    Toeplitz plus Hankel.  Every entry is a gathered moment times scalars:
    no reduction, so the bits do not depend on the BLAS thread count and
    the matrices are exactly symmetric.  Raises :class:`ParameterError`
    when 2 pi big or d overflows.
    """
    if not isinstance(trunc, (int, np.integer)) or isinstance(trunc, bool):
        raise ParameterError("truncation must be an integer")
    if trunc < 0 or trunc > MAX_GALERKIN_TRUNCATION:
        raise ParameterError(
            f"truncation must be in [0, {MAX_GALERKIN_TRUNCATION}], got {trunc}")
    big, small = float(big), float(small)
    if not (0.0 <= small < big) or not math.isfinite(big):
        raise ParameterError(
            f"profile {big!r} + {small!r} cos s must stay positive: need 0 <= small < big")
    f_moments = np.zeros(2 * trunc + 2)
    f_moments[:2] = TWO_PI * big, math.pi * small
    d = math.sqrt((big - small) * (big + small))
    if not (math.isfinite(f_moments[0]) and math.isfinite(d)):
        raise ParameterError(
            f"major radius {big!r} is too large: the moments of the profile overflow")
    inv_moments = (TWO_PI / d) * (-small / (big + d)) ** np.arange(2 * trunc + 2)
    blocks = []
    # the sign of W_{k+l} in B: +1 on the s-cosine block, -1 on the s-sine one
    for idx, sign in ((np.concatenate(([0], np.arange(1, 2 * trunc, 2))), 1.0),
                      (np.arange(2, 2 * trunc + 1, 2), -1.0)):
        freq = circle_frequencies(idx)
        norm = np.where(freq > 0, 1.0 / math.sqrt(math.pi), 1.0 / math.sqrt(TWO_PI))
        scale = 0.5 * (norm[:, None] * norm[None, :])
        diff = np.abs(freq[:, None] - freq[None, :])
        total = freq[:, None] + freq[None, :]

        def gather(moments, hankel_sign):
            return scale * (moments[diff] + hankel_sign * moments[total])

        stiff = (freq[:, None] * freq[None, :]) * gather(f_moments, -sign)
        blocks.append((idx, stiff, gather(inv_moments, sign), gather(f_moments, sign)))
    return tuple(blocks)


def real_part_powers(zr, zi, degrees):
    """Yield Re(z^k) of z = zr + i zi for each k of ``degrees`` in turn, bit
    for bit as numpy's ``np.real(z ** k)`` forms it, from squarings z, z^2,
    z^4, ... that every degree shares.  ``zr`` and ``zi`` are real arrays
    that broadcast together (an open mesh, say), and each power has their
    broadcast shape.

    numpy (its ``nc_pow``, as of numpy 2.4) forms ``z ** 2`` with
    ``np.square``, and ``z ** k`` for 3 <= k < 100 by complex multiplies
    (re = ar br - ai bi, im = ar bi + ai br, each product rounded on its
    own, no FMA): z^3 as (z z) z, and z^k for k >= 4 by binary
    exponentiation from 1, multiplying in the squarings of k's set bits,
    lowest first.  A numpy whose recipe differs, or whose compiler fuses
    those multiplies, gives powers that differ from these in the last
    bits.  Degrees 3 to 99 follow that recipe here, one real multiply, add
    or subtract per step, in work arrays that every degree reuses; for a
    zero z of either sign those steps give +0, as numpy's own zero check
    does.  A squaring that some degree multiplies in is kept until the
    generator is done; one that only leads to the next is squared in place.
    So degrees up to K hold at most 2 floor(log2 K) + 3 real arrays of the
    broadcast shape besides the parts and the one yielded, and a single
    degree 3 or power of two at most 3 in all.  ``np.square`` serves degree
    2 and ``**`` every other degree, on one complex array.  Each yielded
    array is fresh, and the caller may write to it.
    """
    zr, zi = np.asarray(zr, dtype=float), np.asarray(zi, dtype=float)
    degrees = [int(k) for k in degrees]
    ladder = _Ladder(zr, zi, {j for k in degrees if 4 <= k < 100
                              for j in range(k.bit_length()) if k >> j & 1})
    for k in degrees:
        if not 3 <= k < 100:
            out = _numpy_power_real(zr, zi, k, ladder.shape)
        elif k == 3:
            out = ladder.cube_real()
        else:
            out = ladder.binary_power_real(k)
        yield out
        del out  # freed before the next degree's array is formed


def _numpy_power_real(zr, zi, k: int, shape) -> np.ndarray:
    """``np.real(z ** k)`` of z = zr + i zi: numpy's ``**`` in place, which
    squares degree 2 with ``np.square``."""
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = zr, zi
    z **= k
    return z.real


class _Ladder:
    """The squarings of z = zr + i zi and the work arrays of one
    :func:`real_part_powers` run.

    ``squares[j]`` holds the parts of z^(2^j), or None once it has been
    squared in place; levels in ``shared`` (the squarings some degree
    multiplies in) are never overwritten, and level 0 is the caller's
    parts.  ``work`` holds spare arrays of the broadcast shape."""

    def __init__(self, zr, zi, shared: set):
        self.shape = np.broadcast_shapes(zr.shape, zi.shape)
        self.squares = [(zr, zi)]
        self.shared = shared
        self.work = []

    def _take(self) -> np.ndarray:
        return self.work.pop() if self.work else np.empty(self.shape)

    def _grow(self, level: int) -> None:
        """Square up to ``level``: p p = (pr pr - pi pi, pr pi + pi pr)."""
        while len(self.squares) <= level:
            j = len(self.squares) - 1
            pr, pi = self.squares[j]
            if j and j not in self.shared:
                self.squares[j] = None
                sr, si = pr, pi
            else:
                sr, si = self._take(), self._take()
            pi_squared = pi * pi  # read before pi may be overwritten
            np.multiply(pr, pi, out=si)
            si += si
            np.multiply(pr, pr, out=sr)
            sr -= pi_squared
            self.squares.append((sr, si))

    def cube_real(self) -> np.ndarray:
        """Re((z z) z) as a fresh array."""
        zr, zi = self.squares[0]
        sr, si = self._take(), self._take()
        np.multiply(zr, zr, out=sr)
        sr -= zi * zi
        np.multiply(zr, zi, out=si)
        si += si  # zr zi + zi zr
        np.multiply(zi, si, out=si)
        np.multiply(zr, sr, out=sr)
        sr -= si
        self.work.append(si)
        return sr

    def binary_power_real(self, k: int) -> np.ndarray:
        """Re(z^k) by binary exponentiation, 4 <= k < 100, as a fresh
        array."""
        self._grow(k.bit_length() - 1)
        (ar, ai), *rest = (self.squares[j] for j in range(k.bit_length()) if k >> j & 1)
        if not rest:
            out = self._take()
            np.multiply(0.0, ai, out=out)
            np.subtract(ar, out, out=out)  # Re(1 p)
            return out
        # 1 p = (pr - 0 pi, pi + 0 pr), which can flip the sign of a zero part
        re, im = self._take(), self._take()
        np.multiply(0.0, ai, out=re)
        np.subtract(ar, re, out=re)
        np.multiply(0.0, ar, out=im)
        im += ai
        for br, bi in rest[:-1]:
            tmp, spare = self._take(), self._take()
            np.multiply(im, bi, out=tmp)
            np.multiply(re, bi, out=spare)
            np.multiply(re, br, out=re)
            re -= tmp
            np.multiply(im, br, out=im)
            im += spare
            self.work += [tmp, spare]
        br, bi = rest[-1]  # the last multiply needs the real part only
        np.multiply(im, bi, out=im)
        np.multiply(re, br, out=re)
        re -= im
        self.work.append(im)
        return re


def _jacobi_a(j3: float, j1: int, j2: int, m3: int) -> float:
    return math.sqrt(
        (j3 * j3 - (j1 - j2) ** 2)
        * ((j1 + j2 + 1.0) ** 2 - j3 * j3)
        * (j3 * j3 - m3 * m3)
    )


def _jacobi_b(j3: float, j1: int, j2: int, m1: int, m2: int, m3: int) -> float:
    return -(2.0 * j3 + 1.0) * (
        m3 * (j1 * (j1 + 1.0) - j2 * (j2 + 1.0)) + (m1 - m2) * j3 * (j3 + 1.0)
    )


def _zero_m_value(j1: int, j2: int, j3: int) -> float:
    """Closed form of the all-zero-m symbol through log-gamma."""
    total = j1 + j2 + j3
    if total % 2:
        return 0.0
    g = total // 2
    lg = math.lgamma
    log_delta = (
        lg(total - 2 * j1 + 1) + lg(total - 2 * j2 + 1) + lg(total - 2 * j3 + 1)
        - lg(total + 2)
    )
    log_term = lg(g + 1) - lg(g - j1 + 1) - lg(g - j2 + 1) - lg(g - j3 + 1)
    return (-1.0) ** g * math.exp(0.5 * log_delta + log_term)


_RESCALE = 1e150


@functools.lru_cache(maxsize=1 << 18)
def _three_j_range(j1: int, j2: int, m1: int, m2: int):
    """All 3j(j1 j2 j3; m1 m2 -(m1+m2)) over the admissible j3 range.

    Returns (j3_min, tuple of values for j3 = j3_min .. j1+j2).
    """
    m3 = -(m1 + m2)
    j_lo = max(abs(j1 - j2), abs(m3))
    j_hi = j1 + j2
    count = j_hi - j_lo + 1
    if count == 1:
        sign = (-1.0) ** (j1 - j2 - m3)
        return j_lo, (sign / math.sqrt(2.0 * j_lo + 1.0),)
    if m1 == 0 and m2 == 0:
        return j_lo, tuple(_zero_m_value(j1, j2, j3) for j3 in range(j_lo, j_hi + 1))

    def a_at(j3):
        return _jacobi_a(float(j3), j1, j2, m3)

    def b_at(j3):
        return _jacobi_b(float(j3), j1, j2, m1, m2, m3)

    down = np.zeros(count)
    down[-1] = 1.0
    for idx in range(count - 1, 0, -1):
        j3 = j_lo + idx
        upper = down[idx + 1] if idx + 1 < count else 0.0
        down[idx - 1] = -(j3 * a_at(j3 + 1) * upper + b_at(j3) * down[idx]) / (
            (j3 + 1.0) * a_at(j3)
        )
        peak = abs(down[idx - 1])
        if peak > _RESCALE:
            down[idx - 1:] /= peak

    up = np.zeros(count)
    if j_lo == 0:
        # only reachable with j1 == j2 and m2 == -m1 != 0; seed the first two
        # values from their closed forms (the three-term relation is vacuous
        # at j3 = 0)
        up[0] = (-1.0) ** (j1 - m1) / math.sqrt(2.0 * j1 + 1.0)
        up[1] = (
            (-1.0) ** (j1 - m1)
            * 2.0
            * m1
            / math.sqrt(2.0 * j1 * (2.0 * j1 + 1.0) * (2.0 * j1 + 2.0))
        )
    else:
        up[0] = 1.0
        up[1] = -b_at(j_lo) * up[0] / (j_lo * a_at(j_lo + 1))
    for idx in range(1, count - 1):
        j3 = j_lo + idx
        up[idx + 1] = -(b_at(j3) * up[idx] + (j3 + 1.0) * a_at(j3) * up[idx - 1]) / (
            j3 * a_at(j3 + 1)
        )
        peak = abs(up[idx + 1])
        if peak > _RESCALE:
            up[: idx + 2] /= peak

    overlap = np.abs(up) * np.abs(down)
    pivot = int(np.argmax(overlap))
    if overlap[pivot] == 0.0:  # pragma: no cover - defensive
        raise BreakdownError("3j recursion lost all overlap between passes")
    values = np.empty(count)
    values[: pivot + 1] = up[: pivot + 1]
    values[pivot:] = down[pivot:] * (up[pivot] / down[pivot])
    j3s = np.arange(j_lo, j_hi + 1, dtype=float)
    norm = math.sqrt(float(np.sum((2.0 * j3s + 1.0) * values * values)))
    values /= norm
    anchor = (-1.0) ** (j1 - j2 - m3)
    if values[-1] * anchor < 0.0:
        values = -values
    return j_lo, tuple(float(v) for v in values)


def _validate_lm(l: int, m: int, label: str):
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 0:
        raise ParameterError(f"{label}: degree must be a nonnegative integer")
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or abs(m) > l:
        raise ParameterError(f"{label}: order must be an integer with |m| <= l")


def wigner_3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """The Wigner 3j symbol for integer angular momenta.

    Zero when m1+m2+m3 != 0 or the triangle inequality fails; otherwise
    evaluated from the recursion described in the module docstring.
    """
    for l, m, label in ((l1, m1, "first"), (l2, m2, "second"), (l3, m3, "third")):
        _validate_lm(l, m, f"{label} column")
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    j_lo, values = _three_j_range(int(l1), int(l2), int(m1), int(m2))
    return values[l3 - j_lo]


def _complex_weights(m: int):
    """Real harmonic as a combination of the phase-free complex ones."""
    if m == 0:
        return ((0, 1.0 + 0.0j),)
    am = abs(m)
    inv = 1.0 / math.sqrt(2.0)
    if m > 0:  # cosine type
        return ((am, inv + 0.0j), (-am, inv + 0.0j))
    return ((am, -1.0j * inv), (-am, 1.0j * inv))  # sine type


def gaunt_real(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Integral over the sphere of three real harmonics.

    Built from the cached 3j recursion via the real-to-complex change of
    basis, after one argument check; our real harmonics carry no
    Condon-Shortley phase, which contributes the (-1)^mu factors below.
    """
    for l, m, label in ((l1, m1, "first"), (l2, m2, "second"), (l3, m3, "third")):
        _validate_lm(l, m, f"{label} harmonic")
    l1, m1, l2, m2, l3, m3 = (int(v) for v in (l1, m1, l2, m2, l3, m3))
    total = l1 + l2 + l3
    if total % 2:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if (int(m1 < 0) + int(m2 < 0) + int(m3 < 0)) % 2:
        return 0.0
    j_lo, values = _three_j_range(l1, l2, 0, 0)
    base = values[l3 - j_lo]
    if base == 0.0:
        return 0.0
    prefactor = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / FOUR_PI)
    acc = 0.0 + 0.0j
    for mu1, c1 in _complex_weights(m1):
        for mu2, c2 in _complex_weights(m2):
            for mu3, c3 in _complex_weights(m3):
                if mu1 + mu2 + mu3 != 0:
                    continue
                phase = (-1.0) ** (max(mu1, 0) + max(mu2, 0) + max(mu3, 0))
                j_lo, values = _three_j_range(l1, l2, mu1, mu2)
                acc += c1 * c2 * c3 * phase * values[l3 - j_lo]
    return float(acc.real) * prefactor * base
