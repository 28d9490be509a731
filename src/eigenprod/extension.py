"""Executable harmonic-extension machinery on the flat torus.

A product of flat-torus eigenfunctions f extends to a solution H of the
degenerate-elliptic problem on M x (-T, T):

    (Laplacian_x - d^2/dt^2) H = 0,   H(., 0) = f,   dH/dt(., 0) = 0,

given mode-wise by H(x, t) = sum c_i phi_i(x) cosh(lambda_i t).  The
domain height T and the stretch factor delta come from the quantitative
Cauchy-problem constants for a flat metric; the boundary-integral
identity at height T recovers each coefficient c_i with the factor
exp(-T lambda_i), and a Cauchy-estimate-style inequality bounds dH/dt by
the sup of H on a slightly larger slab.  The identity runs on the
basis's own quadrature: by linearity, each kept mode's integrals against
every basis mode are the quadrature coefficients of that one-mode
product, so no array of modes on the grid is formed.  The PDE residual
is bounded term by term over the whole slab, and H(., 0) = f is checked
on the tensor lattice of the basis's quadrature nodes.  The flat
specifics come from the model's ``extension_chart`` and
``extension_spectrum``, which only the flat torus implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSeries, ProductSpec, quadrature_coefficients
from .errors import BreakdownError, ParameterError

__all__ = [
    "ExtensionParams",
    "HarmonicExtension",
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
    C8 = 1/(2^{2d+1} e^2) + 1 is explicit.
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


def compute_extension_params(model, r2_override: float | None = None) -> ExtensionParams:
    """Evaluate the flat-metric constants from ``model.extension_chart()``.

    R1 is half the polydisk radius fitting inside a normal chart
    (injectivity radius over 2 sqrt(d); the Taylor radius of a flat metric
    is infinite).  R2 defaults to R1/2 and may be overridden; R3 = R2/4.
    """
    r_inj, coeff_sup = model.extension_chart()
    d = model.chart_dim
    r1 = r_inj / (2.0 * math.sqrt(d))
    if r2_override is not None:
        r2 = float(r2_override)
        if not 0.0 < r2 <= r1:
            raise ParameterError(f"R2 override must lie in (0, {r1}]")
    else:
        r2 = r1 / 2.0
    r3 = r2 / 4.0
    delta0 = 2.0 * (2.0 ** (d + 1) * math.e) ** 2 * coeff_sup
    delta = 1.0 / math.sqrt(delta0)
    height = r3 * delta / 2.0
    c8 = 1.0 / (2.0 ** (2 * d + 1) * math.e**2) + 1.0
    return ExtensionParams(d, r1, r2, r3, delta0, delta, height, coeff_sup, c8)


class HarmonicExtension:
    """Per-mode cosh propagation of an exactly-expanded flat-torus product."""

    def __init__(self, series: CoefficientSeries, height: float):
        basis = series.product.basis
        self.mode_ids = np.flatnonzero(series.coeffs)
        # the model's Laplacian eigenvalues from the representation,
        # independent of the lams the cosh propagation uses, so the
        # residual check can fail; a model without them refuses here
        self.laplacian_eigs, self.sups = basis.model.extension_spectrum(basis, self.mode_ids)
        if not (height > 0.0) or not math.isfinite(height):
            raise ParameterError("extension height must be positive and finite")
        self.basis = basis
        self.T = float(height)
        self.lams = series.lams[self.mode_ids]
        self.coeffs = series.coeffs[self.mode_ids]
        try:
            # cosh is increasing on [0, inf): the largest kept lambda decides
            math.cosh(float(np.max(self.lams, initial=0.0)) * self.T)
        except OverflowError:
            raise ParameterError(
                f"extension height {height!r} overflows cosh(lambda T) of a kept mode") from None

    def on_lattice(self, coords) -> np.ndarray:
        """The kept modes on the tensor lattice of the per-axis chart
        coordinates ``coords`` (first axis slowest), (modes x points),
        formed axis by axis by one ``lattice_values`` call: the ``phi`` of
        :meth:`value` and :meth:`dt_value`."""
        return self.basis.model.lattice_values(self.basis, self.mode_ids, coords)

    def value(self, t, phi: np.ndarray) -> np.ndarray:
        """H at height t on the points of the mode matrix ``phi``: one
        vector-matrix product.  A 1-d array of heights gives one row per
        height from one matrix-matrix product, whose low bits may differ
        from the per-height products (as for :meth:`dt_value`)."""
        return (self.coeffs * np.cosh(np.multiply.outer(t, self.lams))) @ phi

    def dt_value(self, t, phi: np.ndarray) -> np.ndarray:
        """dH/dt at height t on the points of the mode matrix ``phi``."""
        return (self.coeffs * self.lams * np.sinh(np.multiply.outer(t, self.lams))) @ phi

    def sup_bound(self) -> float:
        """sum |c| ||phi||_sup cosh(lambda T) dominates |H| on the slab."""
        return float((np.abs(self.coeffs) * self.sups) @ np.cosh(self.lams * self.T))


def harmonic_extension_flat(series: CoefficientSeries, height: float) -> HarmonicExtension:
    """Build the extension and verify it really solves the problem.

    Term-wise, (Laplacian_x - d^2/dt^2) [phi cosh(lambda t)] equals
    (kappa - lambda^2) phi cosh(lambda t), with kappa phi's Laplacian
    eigenvalue from its frequency vector and lambda the series' rate.  So
    sum |c| |kappa - lambda^2| ||phi||_sup cosh(lambda T) bounds the
    residual on the whole slab, and it must stay within 1e-9 of
    :meth:`HarmonicExtension.sup_bound`: a wrong lambda fails the check.
    dH/dt(., 0) = 0 holds term by term, cosh being even.  H(., 0) = f is
    checked on the tensor lattice of the basis's quadrature nodes, against
    the product of the factors' lattice values: every basis mode is
    sampled there without aliasing, so an error in any coefficient shows.
    """
    ext = HarmonicExtension(series, height)
    model = ext.basis.model
    scale = max(ext.sup_bound(), 1e-300)
    residual = float((np.abs(ext.coeffs * (ext.laplacian_eigs - ext.lams**2)) * ext.sups)
                     @ np.cosh(ext.lams * ext.T))
    if residual > 1e-9 * scale:
        raise BreakdownError("extension residual check failed")
    lattice = [ax.nodes for ax in ext.basis.axes]
    f_direct = np.prod(model.lattice_values(ext.basis, list(series.product.factors), lattice),
                       axis=0)
    boundary_gap = float(np.max(np.abs(ext.value(0.0, ext.on_lattice(lattice)) - f_direct)))
    if boundary_gap > 1e-12 * max(float(np.max(np.abs(f_direct))), 1e-300):
        raise BreakdownError("extension does not reproduce the product at t=0")
    return ext


def greens_coefficients(ext: HarmonicExtension, height: float) -> tuple:
    """Recover c_i for every basis mode i with lambda_i > 0, as the arrays
    (ids, values), from the boundary integral at a height t in the slab:

        c_i = exp(-t lambda_i) / lambda_i *
              int_M phi_i (dH/dt + lambda_i H)|_t.

    The identity holds for every positive height inside the slab, so the
    returned values must not depend on it.  The integrals run on the
    basis's quadrature by linearity: H and dH/dt at the height are sums
    over the kept modes j, and the integrals of phi_j against every basis
    mode are :func:`eigenprod.coefficients.quadrature_coefficients` of
    the one-factor product j, which the model's ``axis_projections``
    forms.  No array of modes on the grid is formed.  A basis without a
    mode of lambda > 0 leaves nothing to recover and is refused.
    """
    if not 0.0 < height <= ext.T * (1.0 + 1e-12):
        raise ParameterError("height must lie in (0, T] of the extension")
    basis = ext.basis
    ids = np.flatnonzero(basis.lams > 0.0)
    if not ids.size:
        raise ParameterError("the basis has no mode with lambda > 0 left to recover")
    values = np.zeros(basis.size)
    slopes = np.zeros_like(values)
    for mode_id, lam, c in zip(ext.mode_ids.tolist(), ext.lams.tolist(), ext.coeffs.tolist()):
        projections, _norm = quadrature_coefficients(ProductSpec(basis, (mode_id,)))
        values += c * math.cosh(lam * height) * projections
        slopes += c * lam * math.sinh(lam * height) * projections
    lams = basis.lams[ids]
    return ids, np.exp(-height * lams) / lams * (slopes[ids] + lams * values[ids])


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
    phi = ext.on_lattice([np.linspace(0.0, p, 257, endpoint=False)
                          for p in ext.basis.model.periods])
    half = np.linspace(-radius * delta / 2.0, radius * delta / 2.0, 33)
    full = np.linspace(-radius * delta, radius * delta, 33)
    lhs = max(float(np.max(np.abs(ext.dt_value(float(t), phi)))) for t in half)
    rhs_sup = max(float(np.max(np.abs(ext.value(float(t), phi)))) for t in full)
    rhs = 2.0 / (delta * radius) * rhs_sup
    return CauchyCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))
