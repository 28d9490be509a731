"""Executable harmonic-extension machinery on the flat torus.

A product of flat-torus eigenfunctions f extends to a solution H of the
degenerate-elliptic problem on M x (-T, T):

    (Laplacian_x - d^2/dt^2) H = 0,   H(., 0) = f,   dH/dt(., 0) = 0,

given mode-wise by H(x, t) = sum c_i phi_i(x) cosh(lambda_i t).  The
domain height T and the stretch factor delta come from the quantitative
Cauchy-problem constants for a flat metric; the boundary-integral
identity at height T recovers each coefficient c_i with the factor
exp(-T lambda_i), and a Cauchy-estimate-style inequality bounds dH/dt by
the sup of H on a slightly larger slab.  The identity evaluates every
basis mode on the quadrature grid once per height, by one
``lattice_values`` call, and sums H and dH/dt there mode by mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSeries
from .errors import BreakdownError, ParameterError
from .manifolds import FlatTorus, _normalize_points, evaluate
from .numerics import TWO_PI, circle_frequencies, circle_norms

__all__ = [
    "ExtensionParams",
    "HarmonicExtension",
    "PointSample",
    "CauchyCheck",
    "compute_extension_params",
    "harmonic_extension_flat",
    "greens_coefficients",
    "cauchy_estimate_check",
]


@dataclass(frozen=True)
class ExtensionParams:
    """Chart radii and Cauchy-problem constants for a flat d-torus.

    delta0 = 2 (2^{d+1} e)^2 * sup sum |a_alpha| (2 R3)^{2-|alpha|}, where
    for the flat Laplacian the coefficient sum is just d; delta is its
    inverse square root and T = R3 delta / 2 is the extension height.
    C6/C7 are optional externally-supplied sup-norm constants carried for
    reports; C8 = 1/(2^{2d+1} e^2) + 1 is explicit.
    """

    dim: int
    R1: float
    R2: float
    R3: float
    delta0: float
    delta: float
    T: float
    coeff_sup: float
    C8: float
    C6: float | None = None
    C7: float | None = None


def compute_extension_params(model: FlatTorus, r2_override: float | None = None,
                             c6: float | None = None,
                             c7: float | None = None) -> ExtensionParams:
    """Evaluate the flat-metric constants.

    R1 is half the polydisk radius fitting inside a normal chart
    (injectivity radius over 2 sqrt(d); the Taylor radius of a flat metric
    is infinite).  R2 defaults to R1/2 and may be overridden; R3 = R2/4.
    """
    if not isinstance(model, FlatTorus):
        raise ParameterError(
            "the explicit cosh extension exists only on the flat torus")
    d = model.dim
    r_inj = min(model.periods) / 2.0
    r1 = r_inj / (2.0 * math.sqrt(d))
    if r2_override is not None:
        r2 = float(r2_override)
        if not 0.0 < r2 <= r1:
            raise ParameterError(f"R2 override must lie in (0, {r1}]")
    else:
        r2 = r1 / 2.0
    r3 = r2 / 4.0
    coeff_sup = float(d)  # d unit second-order coefficients, (2 R3)^0 each
    delta0 = 2.0 * (2.0 ** (d + 1) * math.e) ** 2 * coeff_sup
    delta = 1.0 / math.sqrt(delta0)
    height = r3 * delta / 2.0
    c8 = 1.0 / (2.0 ** (2 * d + 1) * math.e**2) + 1.0
    return ExtensionParams(d, r1, r2, r3, delta0, delta, height, coeff_sup,
                           c8, c6, c7)


class HarmonicExtension:
    """Per-mode cosh propagation of an exactly-expanded flat-torus product."""

    def __init__(self, series: CoefficientSeries, height: float):
        basis = series.product.basis
        if not isinstance(basis.model, FlatTorus):
            raise ParameterError("harmonic extension requires a flat torus basis")
        if series.method != "both":
            raise ParameterError(
                "harmonic extension requires the exact coefficient expansion")
        if not (height > 0.0) or not math.isfinite(height):
            raise ParameterError("extension height must be positive and finite")
        keep = series.coeffs != 0.0
        self.series = series
        self.basis = basis
        self.T = float(height)
        self.mode_ids = series.ids[keep]
        self.lams = series.lams[keep]
        self.coeffs = series.coeffs[keep]
        # Laplacian eigenvalues from the frequency vectors, independent of
        # the lams the cosh propagation uses, so the residual check can fail
        self.laplacian_eigs = sum(
            (TWO_PI * circle_frequencies(columns[self.mode_ids]) / period) ** 2
            for columns, period in zip(basis.axis_columns, basis.model.periods))

    def _mode_matrix(self, points: np.ndarray) -> np.ndarray:
        model = self.basis.model
        arr, _scalar = _normalize_points(points, model.chart_dim)
        return model.values(self.basis, self.mode_ids, arr)

    def at(self, points) -> PointSample:
        """The extension at fixed chart points, for evaluation at many
        heights: the mode matrix is built once, here."""
        return PointSample(self, self._mode_matrix(points))

    def on_lattice(self, coords) -> PointSample:
        """:meth:`at` on the tensor lattice of the per-axis chart
        coordinates ``coords`` (first axis slowest), with the mode matrix
        formed axis by axis: the same bits as :meth:`at` on the lattice's
        points."""
        return PointSample(self, self.basis.model.lattice_values(self.basis, self.mode_ids,
                                                                 coords))

    def sup_bound(self, height: float | None = None) -> float:
        """sum |c| ||phi||_sup cosh(lambda T) dominates |H| on the slab."""
        t = self.T if height is None else height
        # a mode's sup is the product over the axes of sqrt(2 pi / P) over
        # the norm of its circle_basis column
        sups = np.prod([math.sqrt(TWO_PI / period) / circle_norms(columns[self.mode_ids])
                        for columns, period in zip(self.basis.axis_columns,
                                                   self.basis.model.periods)], axis=0)
        return float((np.abs(self.coeffs) * sups) @ np.cosh(self.lams * t))


class PointSample:
    """A harmonic extension restricted to fixed chart points: the mode
    matrix (modes x points) is held, so each height costs one
    vector-matrix product.  H, dH/dt, Laplacian_x H (from the modes'
    frequency vectors) and d^2H/dt^2 (from the propagation rates lams).
    A 1-d array of heights gives one row per height from one
    matrix-matrix product, whose low bits may differ from the per-height
    products."""

    def __init__(self, ext: HarmonicExtension, phi: np.ndarray):
        self.ext = ext
        self.phi = phi

    def value(self, t) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * np.cosh(np.multiply.outer(t, ext.lams))) @ self.phi

    def dt_value(self, t) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * ext.lams * np.sinh(np.multiply.outer(t, ext.lams))) @ self.phi

    def laplacian_x(self, t) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * ext.laplacian_eigs * np.cosh(np.multiply.outer(t, ext.lams))) \
            @ self.phi

    def dtt_value(self, t) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * np.cosh(np.multiply.outer(t, ext.lams)) * ext.lams**2) @ self.phi


def harmonic_extension_flat(series: CoefficientSeries, height: float) -> HarmonicExtension:
    """Build the extension and verify it really solves the problem.

    Term-wise, Laplacian_x [phi cosh(lambda t)] equals
    d^2/dt^2 [phi cosh(lambda t)] exactly when lambda^2 is phi's Laplacian
    eigenvalue.  The residual is evaluated at 100 pseudo-random points of
    the slab (seed 0), with the Laplacian taken from the frequency vectors
    and the time derivative from the series' lambdas, so a wrong lambda
    fails the check.  The mode matrix of those points is built once, and each term
    takes one (heights x modes) @ (modes x points) product for all 100
    heights.  The Cauchy data are checked on a deterministic boundary
    lattice, whose mode matrix is likewise built once.
    """
    ext = HarmonicExtension(series, height)
    model: FlatTorus = ext.basis.model
    rng = np.random.default_rng(0)
    points = np.column_stack([
        rng.uniform(0.0, p, size=100) for p in model.periods
    ])
    if model.dim == 1:
        points = points[:, 0]
    heights = rng.uniform(-ext.T, ext.T, size=100)
    scale = max(ext.sup_bound(), 1e-300)
    sample = ext.at(points)
    residual = sample.laplacian_x(heights) - sample.dtt_value(heights)
    if float(np.max(np.abs(residual))) > 1e-9 * scale:
        raise BreakdownError("extension residual check failed")
    # boundary data: H(., 0) = f and dH/dt(., 0) = 0
    lattice = np.linspace(0.0, model.periods[0], 512, endpoint=False)
    if model.dim == 2:
        lattice = np.column_stack([
            lattice, np.linspace(0.0, model.periods[1], 512, endpoint=False)])
    f_direct = np.ones(512)
    for i in series.product.factors:
        f_direct = f_direct * np.atleast_1d(evaluate(ext.basis, i, lattice))
    boundary = ext.at(lattice)
    boundary_gap = float(np.max(np.abs(boundary.value(0.0) - f_direct)))
    f_sup = float(np.max(np.abs(f_direct)))
    if boundary_gap > 1e-12 * max(f_sup, 1e-300):
        raise BreakdownError("extension does not reproduce the product at t=0")
    step = 1e-4
    odd_gap = float(np.max(np.abs(
        (boundary.value(step) - boundary.value(-step)) / (2.0 * step))))
    if odd_gap > 1e-8 * max(scale, 1.0):
        raise BreakdownError("extension time-derivative does not vanish at t=0")
    return ext


def greens_coefficients(ext: HarmonicExtension, height: float) -> dict:
    """Recover c_i, by mode id, for every basis mode with lambda_i > 0
    from the boundary integral at a height t in the slab:

        c_i = exp(-t lambda_i) / lambda_i *
              int_M phi_i (dH/dt + lambda_i H)|_t.

    The identity holds for every positive height inside the slab, so the
    returned values must not depend on it.  Every basis mode is evaluated
    on the quadrature grid once, by one ``lattice_values`` call; the
    boundary values H and dH/dt at the height are summed from those rows
    mode by mode, once for all modes.
    """
    if not 0.0 < height <= ext.T * (1.0 + 1e-12):
        raise ParameterError("height must lie in (0, T] of the extension")
    basis = ext.basis
    phi = basis.model.lattice_values(basis, np.arange(basis.size),
                                     [ax.nodes for ax in basis.axes])
    values = np.zeros(phi.shape[1])
    slopes = np.zeros_like(values)
    for mode_id, lam, c in zip(ext.mode_ids, ext.lams, ext.coeffs):
        values += c * math.cosh(lam * height) * phi[mode_id]
        slopes += c * lam * math.sinh(lam * height) * phi[mode_id]
    weights = basis.grid_weights()
    ids = np.flatnonzero(basis.lams > 0.0)
    coefficients = {}
    for i, lam in zip(ids.tolist(), basis.lams[ids].tolist()):
        integral = float(weights @ (phi[i] * (slopes + lam * values)))
        coefficients[i] = math.exp(-height * lam) / lam * integral
    return coefficients


@dataclass(frozen=True)
class CauchyCheck:
    lhs: float
    rhs: float
    ok: bool


def cauchy_estimate_check(ext: HarmonicExtension, radius: float,
                          delta: float) -> CauchyCheck:
    """Real-slab shadow of the derivative estimate
    sup |dH/dt| on M x [-R delta/2, R delta/2]
    <= (2/(delta R)) sup |H| on M x [-R delta, R delta],
    with the sups sampled on 257 points per chart axis and 33 heights."""
    if not (radius > 0.0 and delta > 0.0):
        raise ParameterError("radius and delta must be positive")
    if radius * delta > 2.0 * ext.T * (1.0 + 1e-12):
        raise ParameterError(
            "slab [-R delta, R delta] exceeds the extension's domain")
    sample = ext.on_lattice([np.linspace(0.0, p, 257, endpoint=False)
                             for p in ext.basis.model.periods])
    half = np.linspace(-radius * delta / 2.0, radius * delta / 2.0, 33)
    full = np.linspace(-radius * delta, radius * delta, 33)
    lhs = max(float(np.max(np.abs(sample.dt_value(float(t))))) for t in half)
    rhs_sup = max(float(np.max(np.abs(sample.value(float(t))))) for t in full)
    rhs = 2.0 / (delta * radius) * rhs_sup
    return CauchyCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))
