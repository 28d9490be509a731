"""Expansion of eigenfunction products into the eigenbasis.

Every model's ``exact_coefficients`` is an exact oracle for products of
any order: a Gaunt fold on the sphere, and on every periodic axis (both
flat axes, the rev-torus theta and s) the product of real Fourier series
by :func:`eigenprod.numerics.circle_product`.  Each is checked against
quadrature, which is rank one per axis because a product of separable
modes is separable: so is the product's squared norm
(:func:`product_norm_sq`), the Parseval denominator and the lower-bound
sample alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BreakdownError, ParameterError, UnderResolvedError
from .manifolds import SpectralBasis

EXACT_ZERO_SNAP = 1e-15
ORACLE_AGREEMENT_TOL = 1e-10

__all__ = [
    "ProductSpec",
    "CoefficientSeries",
    "expand_product",
    "quadrature_coefficients",
    "product_norm_sq",
    "parseval_report",
    "series_to_csv",
]


# ---------------------------------------------------------------------------
# product specifications and series


@dataclass(frozen=True)
class ProductSpec:
    """A finite product of basis eigenfunctions, identified by integer
    mode ids (repetition allowed)."""

    basis: SpectralBasis
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ParameterError("a product needs at least one factor")
        object.__setattr__(self, "factors", tuple(map(self.basis.checked_id, self.factors)))

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def sum_lambda(self) -> float:
        return float(sum(self.basis.lams[sorted(self.factors)].tolist()))


@dataclass(frozen=True)
class CoefficientSeries:
    """Coefficients <f, phi_i> of a product on a prefix of its basis:
    ``coeffs[i]`` is mode i's, and ``lams`` are the basis's lambdas of the
    same modes, with Parseval bookkeeping.  :func:`expand_product` stores
    the exact oracle's values after they agreed with quadrature to 1e-10,
    and ``oracle_gap``, the largest |exact - quadrature| over the
    expansion's modes."""

    product: ProductSpec
    coeffs: np.ndarray
    f_norm_sq: float
    oracle_gap: float
    mass_captured: float = field(init=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        mass = float(coeffs @ coeffs)
        if mass > self.f_norm_sq * (1.0 + 1e-8):
            raise BreakdownError(
                f"captured mass {mass!r} exceeds the product norm {self.f_norm_sq!r}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "mass_captured", mass)

    @property
    def lams(self) -> np.ndarray:
        return self.product.basis.lams[:self.coeffs.size]

    @property
    def sum_lambda(self) -> float:
        return self.product.sum_lambda

    def truncated(self, lambda_max: float) -> "CoefficientSeries":
        """The prefix of modes with lambda <= lambda_max (same product,
        same quadrature norm, same oracle gap)."""
        count = int(np.count_nonzero(self.lams <= lambda_max * (1.0 + 1e-12)))
        return CoefficientSeries(self.product, self.coeffs[:count], self.f_norm_sq,
                                 self.oracle_gap)


def expand_product(spec: ProductSpec) -> CoefficientSeries:
    """Expand f = prod of factor modes into the basis.

    Runs the model's exact oracle (``exact_coefficients``, on the factors
    in ascending id order; every model has one, for any number of factors)
    and the rank-one quadrature of :func:`_quadrature_expansion`;
    the two must agree to 1e-10 or the expansion aborts, and the series
    keeps the gap.  The stored coefficients are the oracle's, with
    magnitudes below 1e-15 snapped to 0.
    """
    basis = spec.basis
    _check_grid_resolution(spec)
    quad_coeffs, f_norm_sq = _quadrature_expansion(spec)
    exact = basis.model.exact_coefficients(basis, sorted(spec.factors))
    gap = float(np.max(np.abs(exact - quad_coeffs))) if exact.size else 0.0
    if gap > ORACLE_AGREEMENT_TOL:
        raise BreakdownError(
            f"exact and quadrature coefficients disagree by {gap:.3e}")
    coeffs = np.where(np.abs(exact) < EXACT_ZERO_SNAP, 0.0, exact)
    return CoefficientSeries(spec, coeffs, f_norm_sq, gap)


def quadrature_coefficients(spec: ProductSpec):
    """Raw quadrature coefficients and the product norm, bypassing the
    exact oracle: for one factor, the grid integrals of that mode against
    every basis mode, with which ``greens_coefficients`` integrates."""
    _check_grid_resolution(spec)
    return _quadrature_expansion(spec)


def parseval_report(series: CoefficientSeries):
    """(ratio, defect): captured mass over the quadrature norm of f."""
    if series.f_norm_sq <= 0.0:
        raise BreakdownError(
            "product has zero quadrature norm; eigenfunction products "
            "cannot vanish identically, so the grid or basis broke down")
    ratio = series.mass_captured / series.f_norm_sq
    return ratio, 1.0 - ratio


# ---------------------------------------------------------------------------
# quadrature route


def _check_grid_resolution(spec: ProductSpec, targets: bool = True):
    """Every integrand must be within the grid's exactness on each axis:
    the product squared for its norm and, with ``targets``, phi_i times
    the product for the expansion."""
    basis = spec.basis
    factor_bw = basis.bandwidths[list(spec.factors)].sum(axis=0)
    needed = 2 * factor_bw
    if targets:
        needed = np.maximum(factor_bw + basis.target_bandwidth, needed)
    exact = basis.axis_exactness()
    if np.any(needed > exact):
        raise UnderResolvedError(
            f"integrand bandwidth {tuple(needed.tolist())} exceeds grid "
            f"exactness {exact}")


def _factor_rows(spec: ProductSpec) -> tuple:
    """Per grid axis, the factors' rows on that axis's nodes, in id order:
    only the factor modes are evaluated."""
    basis = spec.basis
    return basis.model.axis_factor_rows(basis, sorted(spec.factors),
                                        tuple(ax.nodes for ax in basis.axes))


def _row_product(rows: np.ndarray) -> np.ndarray:
    values = rows[0].copy()
    for row in rows[1:]:
        values *= row
    return values


def product_norm_sq(spec: ProductSpec, axis_values: list | None = None) -> float:
    """||f||^2 of the product, rank one per axis like its coefficients:
    the product over the chart axes of w_a . (F_a * F_a), where F_a is the
    factors' rows on axis a multiplied together and w_a the axis weights.
    Without ``axis_values`` (the F_a, as :func:`_quadrature_expansion`
    forms them) the grid is checked to resolve f^2 and the F_a are formed
    here."""
    if axis_values is None:
        _check_grid_resolution(spec, targets=False)
        axis_values = [_row_product(r) for r in _factor_rows(spec)]
    return math.prod(float(ax.weights @ (v * v))
                     for ax, v in zip(spec.basis.axes, axis_values))


def _quadrature_expansion(spec: ProductSpec):
    """All coefficients and the norm, rank one per axis.  A product of
    separable modes is separable, so mode i's coefficient is the product
    over the axes of u_i . a, where u_i is its factor row on that axis and
    a the axis weights times the factors' rows there; the model's
    ``axis_projections`` forms the sums.  The norm is
    :func:`product_norm_sq` of the same per-axis products."""
    basis = spec.basis
    axis_values = [_row_product(r) for r in _factor_rows(spec)]
    coeffs = np.prod(basis.model.axis_projections(
        basis, [ax.weights * v for ax, v in zip(basis.axes, axis_values)]), axis=0)
    return coeffs, product_norm_sq(spec, axis_values)


# ---------------------------------------------------------------------------
# CSV view


def series_to_csv(series: CoefficientSeries) -> str:
    """CSV dump: one row per mode, 17-significant-digit floats."""
    lines = ["index,lambda,coeff,abs_coeff,cumulative_mass_ratio"]
    running = 0.0
    denom = series.f_norm_sq if series.f_norm_sq > 0.0 else 1.0
    for mode_id, (lam, coeff) in enumerate(zip(series.lams.tolist(), series.coeffs.tolist())):
        running += coeff * coeff
        lines.append(
            f"{mode_id},{lam:.17g},{coeff:.17g},{abs(coeff):.17g},{running / denom:.17g}"
        )
    return "\n".join(lines) + "\n"
