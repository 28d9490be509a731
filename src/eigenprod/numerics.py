"""Deterministic numerical kernels.

Quadrature rules (Gauss-Legendre, uniform periodic), a dense symmetric
generalized eigensolver (LAPACK ``dsygvd`` through scipy), and
Fourier-Galerkin assembly of periodic Sturm-Liouville pencils on the
circle.

Every function here is a pure function of its arguments and safe to call
from many threads.  Results are bit-reproducible for a fixed BLAS thread
count; the eigensolver's and the matrix products' bits may change with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import (
    ConvergenceError,
    FactorizationError,
    GeometryError,
    ParameterError,
)

TWO_PI = 2.0 * math.pi

MAX_GAUSS_NODES = 512
MAX_GALERKIN_TRUNCATION = 1024
MAX_PENCIL_DIM = 4096

__all__ = [
    "QuadratureGrid",
    "SymmetricPencil",
    "gauss_legendre",
    "uniform_periodic",
    "tensor_grid",
    "sym_generalized_eig",
    "assemble_periodic_galerkin",
    "periodic_galerkin_terms",
    "circle_basis",
    "circle_basis_derivative",
    "trig_bandwidth",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and strictly positive weights integrating over a fixed domain.

    ``nodes`` has shape (n,) for one-dimensional rules and (n, dim) for
    tensor rules.  ``exactness_degree`` is the polynomial (Gauss) or
    trigonometric (uniform) degree integrated exactly; for tensor rules it
    is the minimum over axes and the per-axis figures live in ``axes`` as
    (nodes, weights, exactness) triples.  Metric volume factors, when a
    grid integrates against a curved volume form, are folded into the
    weights, so the weights always sum to the volume of the domain.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    volume: float
    axes: tuple = ()

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1 or weights.shape[0] != nodes.shape[0]:
            raise ParameterError("need exactly one weight per node")
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

    def integrate(self, values) -> float:
        """Weighted sum of point values; the constant 1 returns the volume."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.weights.shape:
            raise ParameterError("values must match the node count")
        return float(self.weights @ values)


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


def tensor_grid(*axes: QuadratureGrid, volume: float | None = None) -> QuadratureGrid:
    """Tensor product of one-dimensional rules (first axis varies slowest)."""
    if not axes or any(ax.nodes.ndim != 1 for ax in axes):
        raise ParameterError("tensor_grid needs one or more 1-d grids")
    node_axes = [ax.nodes for ax in axes]
    mesh = np.meshgrid(*node_axes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    weights = axes[0].weights
    for ax in axes[1:]:
        weights = np.multiply.outer(weights, ax.weights)
    weights = weights.reshape(-1)
    vol = float(np.prod([ax.volume for ax in axes])) if volume is None else volume
    exact = min(ax.exactness_degree for ax in axes)
    meta = tuple((ax.nodes, ax.weights, ax.exactness_degree) for ax in axes)
    return QuadratureGrid(nodes, weights, exact, vol, axes=meta)


@dataclass(frozen=True)
class SymmetricPencil:
    """A dense symmetric pencil (A, B): A symmetric, B symmetric positive
    definite, both of the same dimension."""

    a: np.ndarray
    b: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterError("stiffness matrix must be square")
        if b.shape != a.shape:
            raise ParameterError("mass matrix must match the stiffness matrix")
        if a.size and np.max(np.abs(a - a.T)) > 1e-12:
            raise ParameterError("stiffness matrix is not symmetric")
        if b.size and np.max(np.abs(b - b.T)) > 1e-12:
            raise ParameterError("mass matrix is not symmetric")
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError("mass matrix is not positive definite") from exc
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dim", a.shape[0])


def sym_generalized_eig(pencil: SymmetricPencil):
    """Solve A v = mu B v for a symmetric pencil.

    Returns (eigenvalues ascending, eigenvectors as B-orthonormal columns),
    computed by LAPACK ``dsygvd`` through :func:`scipy.linalg.eigh`.  Each
    column's sign is fixed so that its first entry above 1e-8 times the
    column's largest magnitude is positive.
    """
    if pencil.dim > MAX_PENCIL_DIM:
        raise ParameterError(f"pencil dimension {pencil.dim} exceeds {MAX_PENCIL_DIM}")
    if pencil.dim == 0:
        return np.zeros(0), np.zeros((0, 0))
    values, vectors = eigh(pencil.a, pencil.b, driver="gvd")
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-8 * np.maximum(mags.max(axis=0), 1e-300), axis=0)
    flip = vectors[lead, np.arange(pencil.dim)] < 0.0
    vectors[:, flip] = -vectors[:, flip]
    return values, vectors


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


def circle_basis_derivative(s: np.ndarray, size: int) -> np.ndarray:
    """d/ds of :func:`circle_basis`, same column layout."""
    if size < 1 or size % 2 == 0:
        raise ParameterError("circle basis size must be odd (2N+1)")
    s = np.asarray(s, dtype=float)
    n_max = (size - 1) // 2
    out = np.zeros((s.shape[0], size))
    if n_max:
        freqs = np.arange(1, n_max + 1, dtype=float)
        ks = np.outer(s, freqs)
        out[:, 1::2] = -freqs * np.sin(ks) / math.sqrt(math.pi)
        out[:, 2::2] = freqs * np.cos(ks) / math.sqrt(math.pi)
    return out


def trig_bandwidth(fn, probe: int = 4096, rel_floor: float = 1e-15) -> int:
    """Highest Fourier mode of a smooth 2*pi-periodic function above floor.

    Probes on a dense uniform grid and reads the FFT tail; used to size
    quadrature grids so that "exact for the integrand's bandwidth" claims
    are justified for analytic, non-band-limited coefficients like 1/f.
    """
    s = TWO_PI * np.arange(probe) / probe
    spec = np.abs(np.fft.rfft(np.asarray(fn(s), dtype=float)))
    top = float(spec.max())
    if top == 0.0:
        return 0
    above = np.flatnonzero(spec > rel_floor * top)
    return int(above[-1]) if above.size else 0


def periodic_galerkin_terms(a, b, trunc: int, *, n_quad: int | None = None,
                           margin: int = 8):
    """The m-independent Galerkin matrices of -(1/b) d/ds (a u') + m^2 u / a.

    Returns (K, M_inv, B) in the real Fourier basis of size 2*trunc+1 on
    the 2*pi circle: K[i,j] = I(a e_i' e_j'), M_inv[i,j] = I(e_i e_j / a)
    and B[i,j] = I(b e_i e_j), where I is quadrature exact for the
    integrands' bandwidth (grid size at least 4*trunc + bandwidth of the
    coefficient functions, plus margin).  The stiffness of angular family
    m is K + m^2 M_inv.  ``a`` and ``b`` must be strictly positive.
    """
    if trunc < 0 or trunc > MAX_GALERKIN_TRUNCATION:
        raise ParameterError(
            f"truncation must be in [0, {MAX_GALERKIN_TRUNCATION}], got {trunc}")
    size = 2 * trunc + 1
    if n_quad is None:
        bw = max(trig_bandwidth(a), trig_bandwidth(b),
                 trig_bandwidth(lambda s: 1.0 / np.asarray(a(s), dtype=float)))
        n_quad = 4 * trunc + bw + margin
    n_quad = max(int(n_quad), size + 1, 8)
    grid = uniform_periodic(n_quad, TWO_PI)
    s = grid.nodes
    w = grid.weights
    av = np.asarray(a(s), dtype=float)
    bv = np.asarray(b(s), dtype=float)
    if np.min(av) <= 0.0 or np.min(bv) <= 0.0:
        raise GeometryError("coefficient functions must be strictly positive on the circle")
    basis = circle_basis(s, size)
    deriv = circle_basis_derivative(s, size)
    stiff = (deriv * (w * av)[:, None]).T @ deriv
    inv_weight = (basis * (w / av)[:, None]).T @ basis
    mass = (basis * (w * bv)[:, None]).T @ basis
    return (0.5 * (stiff + stiff.T), 0.5 * (inv_weight + inv_weight.T),
            0.5 * (mass + mass.T))


def assemble_periodic_galerkin(a, b, m: int, trunc: int, *,
                               n_quad: int | None = None,
                               margin: int = 8) -> SymmetricPencil:
    """Weak form of -(1/b) d/ds (a u') + m^2 u / a on the 2*pi circle.

    The pencil (K + m^2 M_inv, B) of :func:`periodic_galerkin_terms`.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise ParameterError("angular index m must be a nonnegative integer")
    stiff, inv_weight, mass = periodic_galerkin_terms(a, b, trunc, n_quad=n_quad,
                                                      margin=margin)
    return SymmetricPencil(stiff + (m * m) * inv_weight, mass)
