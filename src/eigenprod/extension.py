"""Executable harmonic-extension machinery on the flat torus.

A product of flat-torus eigenfunctions f extends to a solution H of the
degenerate-elliptic problem on M x (-T, T):

    (Laplacian_x - d^2/dt^2) H = 0,   H(., 0) = f,   dH/dt(., 0) = 0,

given mode-wise by H(x, t) = sum c_i phi_i(x) cosh(lambda_i t).  The
domain height T and the stretch factor delta come from the quantitative
Cauchy-problem constants for a flat metric; the boundary-integral
identity at height T recovers each coefficient c_i with the factor
exp(-T lambda_i), and a Cauchy-estimate-style inequality bounds dH/dt by
the sup of H on a slightly larger slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSeries, _torus_axis_norm
from .errors import BreakdownError, ParameterError
from .manifolds import FlatTorus
from .numerics import TWO_PI

__all__ = [
    "ExtensionParams",
    "HarmonicExtension",
    "PointSample",
    "CauchyCheck",
    "compute_extension_params",
    "harmonic_extension_flat",
    "greens_coefficient",
    "cauchy_estimate_check",
]


def _torus_mode_sup(model: FlatTorus, mode) -> float:
    """Sup norm of a normalized flat-torus mode: product over axes of
    1/sqrt(P) for the constant and sqrt(2/P) for oscillating factors."""
    out = 1.0
    for period, k in zip(model.periods, mode.rep[0]):
        out *= _torus_axis_norm(period, k)
    return out


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
    """Mode-wise cosh propagation of an exactly-expanded flat-torus product."""

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
        self._modes = [basis.modes[i] for i in self.mode_ids]
        # Laplacian eigenvalues from the frequency vectors, independent of
        # the lams the cosh propagation uses, so the residual check can fail
        periods = basis.model.periods
        self.laplacian_eigs = np.array([
            sum((TWO_PI * k / p) ** 2 for k, p in zip(m.rep[0], periods))
            for m in self._modes
        ])

    @property
    def frequency_coefficients(self) -> dict:
        """Map from mode representation (frequency vector + parity) to c."""
        return {m.rep: float(c) for m, c in zip(self._modes, self.coeffs)}

    def _mode_matrix(self, points: np.ndarray) -> np.ndarray:
        from .manifolds import evaluate

        return np.stack([
            np.atleast_1d(evaluate(self.basis.model, m, points)) for m in self._modes
        ])

    def at(self, points) -> PointSample:
        """The extension at fixed chart points, for evaluation at many
        heights: the mode matrix is built once, here."""
        return PointSample(self, self._mode_matrix(points))

    def value(self, points, t: float) -> np.ndarray:
        """H(x, t) at chart points."""
        return self.at(points).value(t)

    def dt_value(self, points, t: float) -> np.ndarray:
        """dH/dt(x, t)."""
        return self.at(points).dt_value(t)

    def laplacian_x(self, points, t: float) -> np.ndarray:
        """Laplacian_x H(x, t), from the modes' frequency vectors."""
        return self.at(points).laplacian_x(t)

    def dtt_value(self, points, t: float) -> np.ndarray:
        """d^2H/dt^2(x, t), from the propagation rates lams."""
        return self.at(points).dtt_value(t)

    def sup_bound(self, height: float | None = None) -> float:
        """sum |c| ||phi||_sup cosh(lambda T) dominates |H| on the slab."""
        t = self.T if height is None else height
        sups = np.array([_torus_mode_sup(self.basis.model, m) for m in self._modes])
        return float((np.abs(self.coeffs) * sups) @ np.cosh(self.lams * t))

    def grid_boundary_values(self, t: float):
        """(H, dH/dt) on the basis quadrature grid at fixed height t."""
        values = np.zeros(self.basis.grid.size)
        slopes = np.zeros(self.basis.grid.size)
        for mode, lam, c in zip(self._modes, self.lams, self.coeffs):
            phi = self.basis.values_on_grid(mode)
            values += c * math.cosh(lam * t) * phi
            slopes += c * lam * math.sinh(lam * t) * phi
        return values, slopes


class PointSample:
    """A harmonic extension restricted to fixed chart points: the mode
    matrix (modes x points) is held, so each height costs one
    vector-matrix product."""

    def __init__(self, ext: HarmonicExtension, phi: np.ndarray):
        self.ext = ext
        self.phi = phi

    def value(self, t: float) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * np.cosh(ext.lams * t)) @ self.phi

    def dt_value(self, t: float) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * ext.lams * np.sinh(ext.lams * t)) @ self.phi

    def laplacian_x(self, t: float) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * ext.laplacian_eigs * np.cosh(ext.lams * t)) @ self.phi

    def dtt_value(self, t: float) -> np.ndarray:
        ext = self.ext
        return (ext.coeffs * np.cosh(ext.lams * t) * ext.lams**2) @ self.phi


def harmonic_extension_flat(series: CoefficientSeries, height: float,
                            seed: int = 0) -> HarmonicExtension:
    """Build the extension and verify it really solves the problem.

    Term-wise, Laplacian_x [phi cosh(lambda t)] equals
    d^2/dt^2 [phi cosh(lambda t)] exactly when lambda^2 is phi's Laplacian
    eigenvalue.  The residual is evaluated at 100 seeded random points of
    the slab, with the Laplacian taken from the frequency vectors and the
    time derivative from the series' lambdas, so a wrong lambda fails the
    check.  The mode matrix of those points is built once and reused for
    all 100 heights.  The Cauchy data are checked on a deterministic
    boundary lattice, whose mode matrix is likewise built once.
    """
    ext = HarmonicExtension(series, height)
    model: FlatTorus = ext.basis.model
    rng = np.random.default_rng(seed)
    points = np.column_stack([
        rng.uniform(0.0, p, size=100) for p in model.periods
    ])
    if model.dim == 1:
        points = points[:, 0]
    heights = rng.uniform(-ext.T, ext.T, size=100)
    scale = max(ext.sup_bound(), 1e-300)
    sample = ext.at(points)
    for t in heights:
        residual = sample.laplacian_x(float(t)) - sample.dtt_value(float(t))
        if float(np.max(np.abs(residual))) > 1e-9 * scale:
            raise BreakdownError("extension residual check failed")
    # boundary data: H(., 0) = f and dH/dt(., 0) = 0
    lattice = np.linspace(0.0, model.periods[0], 512, endpoint=False)
    if model.dim == 2:
        lattice = np.column_stack([
            lattice, np.linspace(0.0, model.periods[1], 512, endpoint=False)])
    f_direct = np.ones(512)
    from .manifolds import evaluate

    for i in series.product.factors:
        f_direct = f_direct * np.atleast_1d(
            evaluate(model, ext.basis.modes[i], lattice))
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


def greens_coefficient(ext: HarmonicExtension, mode_id: int, height: float) -> float:
    """Recover c_i from the boundary integral at the slab top:

        c_i = exp(-T lambda_i) / lambda_i *
              int_M phi_i (dH/dt + lambda_i H)|_{t=T}.

    The identity holds for every positive height inside the slab, so the
    returned value must not depend on it.
    """
    mode = ext.basis.mode(mode_id)
    if mode.lam <= 0.0:
        raise ParameterError(
            "the boundary identity divides by lambda and needs lambda > 0")
    if not 0.0 < height <= ext.T * (1.0 + 1e-12):
        raise ParameterError("height must lie in (0, T] of the extension")
    values, slopes = ext.grid_boundary_values(height)
    phi = ext.basis.values_on_grid(mode)
    integral = float(ext.basis.grid.weights @ (phi * (slopes + mode.lam * values)))
    return math.exp(-height * mode.lam) / mode.lam * integral


@dataclass(frozen=True)
class CauchyCheck:
    lhs: float
    rhs: float
    ok: bool


def cauchy_estimate_check(ext: HarmonicExtension, radius: float, delta: float,
                          points_per_axis: int = 257,
                          t_levels: int = 33) -> CauchyCheck:
    """Real-slab shadow of the derivative estimate
    sup |dH/dt| on M x [-R delta/2, R delta/2]
    <= (2/(delta R)) sup |H| on M x [-R delta, R delta]."""
    if not (radius > 0.0 and delta > 0.0):
        raise ParameterError("radius and delta must be positive")
    if radius * delta > 2.0 * ext.T * (1.0 + 1e-12):
        raise ParameterError(
            "slab [-R delta, R delta] exceeds the extension's domain")
    model: FlatTorus = ext.basis.model
    axis = [np.linspace(0.0, p, points_per_axis, endpoint=False)
            for p in model.periods]
    if model.dim == 1:
        points = axis[0]
    else:
        mesh = np.meshgrid(*axis, indexing="ij")
        points = np.column_stack([m.reshape(-1) for m in mesh])
    half = np.linspace(-radius * delta / 2.0, radius * delta / 2.0, t_levels)
    full = np.linspace(-radius * delta, radius * delta, t_levels)
    sample = ext.at(points)
    lhs = max(float(np.max(np.abs(sample.dt_value(float(t))))) for t in half)
    rhs_sup = max(float(np.max(np.abs(sample.value(float(t))))) for t in full)
    rhs = 2.0 / (delta * radius) * rhs_sup
    return CauchyCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))
