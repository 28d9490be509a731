"""Expansion of eigenfunction products into the eigenbasis.

Exact oracles cover products of any order on every model: a Gaunt fold
on the sphere, and on every periodic axis (both flat axes, the rev-torus
theta and s) the product of real Fourier series by
:func:`eigenprod.numerics.circle_product`.  Each is checked against
quadrature, which is rank one per axis because a product of separable
modes is separable: so is the product's squared norm
(:func:`product_norm_sq`), the Parseval denominator and the lower-bound
sample alike.

The 3j kernel uses the three-term recursion in the third angular momentum,
run from both ends of the admissible range and spliced in the classical
region, with the overall scale fixed by the two-sided normalization
sum (2 l3 + 1) f(l3)^2 = 1 and the sign anchored at l3 = l1 + l2.  Unlike
factorial formulas this survives degrees around 64 without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BreakdownError, ParameterError, UnderResolvedError
from .manifolds import FlatTorus, RevTorus, SpectralBasis, Sphere2
from .numerics import TWO_PI, circle_norms, circle_product, circle_unit_product

FOUR_PI = 4.0 * math.pi

EXACT_ZERO_SNAP = 1e-15
ORACLE_AGREEMENT_TOL = 1e-10

__all__ = [
    "ProductSpec",
    "CoefficientSeries",
    "expand_product",
    "quadrature_coefficients",
    "product_norm_sq",
    "parseval_report",
    "wigner_3j",
    "gaunt_real",
    "series_to_csv",
]


# ---------------------------------------------------------------------------
# Wigner 3j


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


@lru_cache(maxsize=1 << 18)
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


# ---------------------------------------------------------------------------
# real Gaunt coefficients


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
    """Coefficients <f, phi_i> for every basis mode, with Parseval
    bookkeeping.  ``method`` records which route produced the stored
    values: :func:`expand_product` stores "both", the exact oracle after it
    agreed with quadrature to 1e-10, and ``oracle_gap``, the largest
    |exact - quadrature| over the expansion's modes; a series built by
    hand names its own method and may carry no gap."""

    product: ProductSpec
    ids: np.ndarray
    lams: np.ndarray
    coeffs: np.ndarray
    f_norm_sq: float
    method: str
    mass_captured: float = field(init=False)
    oracle_gap: float | None = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int)
        lams = np.asarray(self.lams, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if not (ids.shape == lams.shape == coeffs.shape):
            raise ParameterError("series columns must have equal length")
        if np.any(np.diff(lams) < 0.0):
            raise ParameterError("series entries must be sorted by ascending lambda")
        mass = float(coeffs @ coeffs)
        if mass > self.f_norm_sq * (1.0 + 1e-8):
            raise BreakdownError(
                f"captured mass {mass!r} exceeds the product norm {self.f_norm_sq!r}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "mass_captured", mass)

    @property
    def sum_lambda(self) -> float:
        return self.product.sum_lambda

    def entries(self):
        return list(zip(self.ids.tolist(), self.lams.tolist(), self.coeffs.tolist()))

    def truncated(self, lambda_max: float) -> "CoefficientSeries":
        """Sub-series of entries with lambda <= lambda_max (same product,
        same quadrature norm, same oracle gap)."""
        keep = self.lams <= lambda_max * (1.0 + 1e-12)
        return CoefficientSeries(self.product, self.ids[keep], self.lams[keep],
                                 self.coeffs[keep], self.f_norm_sq, self.method,
                                 self.oracle_gap)


def expand_product(spec: ProductSpec) -> CoefficientSeries:
    """Expand f = prod of factor modes into the basis.

    Runs the model's exact oracle (every model has one, for any number of
    factors) and the rank-one quadrature of :func:`_quadrature_expansion`;
    the two must agree to 1e-10 or the expansion aborts, and the series
    keeps the gap.  The stored coefficients are the oracle's, with
    magnitudes below 1e-15 snapped to 0.
    """
    basis = spec.basis
    _check_grid_resolution(spec)
    quad_coeffs, f_norm_sq = _quadrature_expansion(spec)
    exact = _EXACT_ORACLES[type(basis.model)](spec)
    gap = float(np.max(np.abs(exact - quad_coeffs))) if exact.size else 0.0
    if gap > ORACLE_AGREEMENT_TOL:
        raise BreakdownError(
            f"exact and quadrature coefficients disagree by {gap:.3e}")
    coeffs = np.where(np.abs(exact) < EXACT_ZERO_SNAP, 0.0, exact)
    ids = np.arange(basis.size)
    return CoefficientSeries(spec, ids, basis.lams, coeffs, f_norm_sq, "both", gap)


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
# exact routes


def _axis_product(columns, scale: float) -> np.ndarray:
    """Per column t of the product's band, the integral over one period of
    the product of the axis factors ``scale`` col_c(2 pi x / period), c in
    ``columns``, against ``scale`` col_t, where col is a
    :func:`eigenprod.numerics.circle_basis` column and scale^2 = 2 pi /
    period.  With amplitudes a = scale / circle_norms, the factors are a_c
    times 1, cos or sin, and the integral is prod(a_c) T_t / a_t for the
    product T of those unit series."""
    product = circle_unit_product(columns)
    return np.prod(scale / circle_norms(columns)) * product / (
        scale / circle_norms(np.arange(product.shape[0])))


def _gather(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """row[columns], 0 past the end of ``row``."""
    return np.where(columns < row.shape[0], row[np.minimum(columns, row.shape[0] - 1)], 0.0)


def _torus_axis_products(spec: ProductSpec) -> list:
    """Per axis, :func:`_axis_product` of the flat-torus product's factors;
    a factor on an axis of period P is sqrt(2 pi / P) times a column."""
    basis = spec.basis
    factors = sorted(spec.factors)
    return [_axis_product(columns[factors], math.sqrt(TWO_PI / period))
            for columns, period in zip(basis.axis_columns, basis.model.periods)]


def _torus_exact(spec: ProductSpec) -> np.ndarray:
    basis = spec.basis
    coeffs = np.ones(basis.size)
    for columns, product in zip(basis.axis_columns, _torus_axis_products(spec)):
        coeffs *= _gather(product, columns)
    return coeffs


def _harmonic_multiply(poly: dict, l: int, m: int, top: int) -> dict:
    """poly * Y_lm for poly = {(l, m): coefficient}, exact through Gaunt, up
    to degree ``top``.  Each term visits, in ascending (L, M), only the
    targets the real-Gaunt rules allow: |l_a - l| <= L <= l_a + l with
    l_a + l + L even, and |M| in {|m_a| + |m|, ||m_a| - |m||}, negative
    exactly when one of m_a, m is."""
    out: dict = {}
    for (la, ma), weight in poly.items():
        sign = -1 if (ma < 0) != (m < 0) else 1
        orders = sorted({sign * o for o in (abs(ma) + abs(m), abs(abs(ma) - abs(m)))
                         if o or sign > 0})
        for big_l in range(abs(la - l), min(la + l, top) + 1, 2):
            for big_m in (o for o in orders if abs(o) <= big_l):
                g = gaunt_real(la, ma, l, m, big_l, big_m)
                out[big_l, big_m] = out.get((big_l, big_m), 0.0) + weight * g
    return {k: v for k, v in out.items() if v != 0.0}


def _sphere_exact(spec: ProductSpec) -> np.ndarray:
    """Gaunt fold over the factors in id order, dropping degrees the rest
    cannot bring back into the basis; then one table lookup of every
    basis mode, keyed l (l + 1) + m, which is unique per harmonic."""
    basis = spec.basis
    degrees, orders = basis.reps["l"], basis.reps["m"]
    first, *rest = ((int(degrees[i]), int(orders[i])) for i in sorted(spec.factors))
    top = int(degrees.max()) + sum(l for l, _m in rest)
    poly = {first: 1.0}
    for l, m in rest:
        top -= l
        poly = _harmonic_multiply(poly, l, m, top)
    table = np.zeros((top + 1) ** 2)
    table[[l * (l + 1) + m for l, m in poly]] = list(poly.values())
    return table[degrees * (degrees + 1) + orders]


def _rev_exact(spec: ProductSpec) -> np.ndarray:
    """The product of the factors' theta columns, the product of their s
    profiles with f = R + r cos s, then one dot per target row of the
    theta support.

    Theta factors are circle_basis columns, so the theta integral of the
    product against a family (m, parity) is the product's coefficient in
    that column, and only families in the product's support are nonzero.
    The s integral carries the weight f; it is the target's coefficient
    row dotted with the circle_basis coefficients of f times the factors'
    s profiles.
    """
    basis = spec.basis
    model: RevTorus = basis.model
    factors = sorted(spec.factors)
    columns = basis.axis_columns[1]
    theta = _gather(_axis_product(columns[factors], 1.0), columns)
    norms = circle_norms(np.arange(basis.coefficients.shape[1]))
    # the profiles as series in 1, cos, sin: the constant divided by its
    # norm, the other columns times the reciprocal norm, which keeps the
    # bits this oracle has always had; f is the series R + r cos s
    profiles = basis.coefficients[factors] * (1.0 / norms)
    profiles[:, 0] = basis.coefficients[factors, 0] / norms[0]
    weighted = circle_product([*profiles, [model.major_radius, model.minor_radius, 0.0]])
    weighted = weighted[:norms.shape[0]] * norms
    rows = np.flatnonzero(theta)
    coeffs = np.zeros(basis.size)
    # einsum without ``optimize`` takes no BLAS path, so the bits do not
    # depend on the BLAS thread count
    coeffs[rows] = np.einsum("ij,j->i", basis.coefficients[rows], weighted) * theta[rows]
    return coeffs


_EXACT_ORACLES = {FlatTorus: _torus_exact, Sphere2: _sphere_exact, RevTorus: _rev_exact}


# ---------------------------------------------------------------------------
# CSV view


def series_to_csv(series: CoefficientSeries) -> str:
    """CSV dump: one row per entry, 17-significant-digit floats."""
    lines = ["index,lambda,coeff,abs_coeff,cumulative_mass_ratio"]
    running = 0.0
    denom = series.f_norm_sq if series.f_norm_sq > 0.0 else 1.0
    for mode_id, lam, coeff in series.entries():
        running += coeff * coeff
        lines.append(
            f"{mode_id},{lam:.17g},{coeff:.17g},{abs(coeff):.17g},{running / denom:.17g}"
        )
    return "\n".join(lines) + "\n"
