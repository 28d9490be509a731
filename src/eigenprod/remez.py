"""Doubling indices, sublevel-set measures, and good-set constructions.

Everything samples deterministic lattices: sups are taken over
endpoint-inclusive grids (so homogeneous scaling is exact in floating
point), measures count cell centers (so measures are exactly
nonincreasing as the threshold tightens).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ProductSpec
from .errors import BreakdownError, GridExhaustedError, ParameterError
from .manifolds import as_chart_function, evaluate

DEFAULT_A_GRID_STEP = 0.25
DEFAULT_A_GRID_STOP = 12.0
QUANTIZATION_CELLS = 4  # measures under this many cells are fit-excluded

__all__ = [
    "DoublingReport",
    "RemezReport",
    "GoodSetResult",
    "default_a_grid",
    "doubling_index",
    "sublevel_measure",
    "remez_fit",
    "good_set_experiment",
    "harmonic_lift",
    "coordinate_function",
    "harmonic_power_function",
]


def default_a_grid() -> np.ndarray:
    """Thresholds exp(-a) from 0.78 down to ~6e-6, the lattice-resolvable
    range."""
    return np.arange(DEFAULT_A_GRID_STEP, DEFAULT_A_GRID_STOP + 1e-12,
                     DEFAULT_A_GRID_STEP)


def _as_center(center) -> tuple:
    arr = np.atleast_1d(np.asarray(center, dtype=float))
    if arr.ndim != 1 or arr.size not in (1, 2):
        raise ParameterError("center must be a scalar or a pair")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("center must be finite")
    return tuple(float(c) for c in arr)


def _sup_lattice(center: tuple, half_side: float, per_axis: int) -> np.ndarray:
    axes = [np.linspace(c - half_side, c + half_side, per_axis) for c in center]
    if len(axes) == 1:
        return axes[0].reshape(-1, 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def _cell_lattice(center: tuple, side: float, per_axis: int) -> np.ndarray:
    axes = [
        c - side / 2.0 + (np.arange(per_axis) + 0.5) * side / per_axis
        for c in center
    ]
    if len(axes) == 1:
        return axes[0].reshape(-1, 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def _eval(fn, points: np.ndarray) -> np.ndarray:
    values = np.asarray(fn(points if points.shape[1] > 1 else points[:, 0]))
    return np.abs(values.reshape(-1))


def _default_measure_axis(dim: int) -> int:
    return 16384 if dim == 1 else 512


@dataclass(frozen=True)
class DoublingReport:
    """N = log of the ratio of sups over concentric cubes of half-sides
    2r and r."""

    center: tuple
    r: float
    sup_r: float
    sup_2r: float
    index: float


def doubling_index(fn, center, r: float, samples_per_axis: int = 129) -> DoublingReport:
    """Sampled-sup doubling index on endpoint-inclusive lattices.

    Both cubes use the same relative lattice, so for homogeneous functions
    the ratio (and hence the index k log 2 for degree k) is exact.
    """
    center = _as_center(center)
    if not (r > 0.0) or samples_per_axis < 64:
        raise ParameterError("need r > 0 and at least 64 samples per axis")
    sup_r = float(np.max(_eval(fn, _sup_lattice(center, r, samples_per_axis))))
    sup_2r = float(np.max(_eval(fn, _sup_lattice(center, 2.0 * r, samples_per_axis))))
    if sup_r < 1e-300:
        raise BreakdownError("sampled sup vanished; the index is undefined")
    return DoublingReport(center, float(r), sup_r, sup_2r,
                          math.log(sup_2r / sup_r))


def _measure_lattice(center: tuple, side: float, per_axis: int | None):
    """Cell-center lattice of the half-cube of (center, side) and the
    volume of one cell."""
    per_axis = per_axis or _default_measure_axis(len(center))
    if per_axis < 256:
        raise ParameterError("need at least 256 cells per axis")
    points = _cell_lattice(center, side / 2.0, per_axis)
    cell = (side / 2.0 / per_axis) ** len(center)
    return points, cell


def _counts_below(values: np.ndarray, a_values) -> list:
    """Number of values strictly below exp(-a), for each a.

    One sort serves every threshold; ``side="left"`` counts exactly the
    entries with value < exp(-a), as the direct comparison in
    ``sublevel_measure`` does.  For a single threshold that comparison is
    cheaper than the sort.
    """
    ordered = np.sort(values)
    thresholds = [math.exp(-float(a)) for a in a_values]
    return np.searchsorted(ordered, thresholds, side="left").tolist()


def sublevel_measure(fn, center, side: float, a: float,
                     samples_per_axis: int | None = None) -> float:
    """Lattice measure of {x in half-cube : |u(x)| < exp(-a)}.

    The half-cube has half the side length of (center, side), same center;
    cells are counted at their centers and scaled by cell volume.
    """
    center = _as_center(center)
    if not (side > 0.0):
        raise ParameterError("cube side must be positive")
    points, cell = _measure_lattice(center, side, samples_per_axis)
    count = int(np.count_nonzero(_eval(fn, points) < math.exp(-a)))
    return count * cell


@dataclass(frozen=True)
class RemezReport:
    """Sublevel measures over a threshold grid with the fitted bound
    measure <= cr_hat * exp(-beta_hat * a / doubling) * side^d.

    ``defined`` is False when every measure vanished (or too few clean
    samples remain); beta_hat/cr_hat are then absent.
    """

    center: tuple
    side: float
    a_grid: tuple
    measures: tuple
    doubling: float
    beta_hat: float | None
    cr_hat: float | None
    defined: bool


def remez_fit(fn, center, side: float, a_grid=None,
              samples_per_axis: int | None = None) -> RemezReport:
    """Fit log measure against the threshold exponent.

    The function is normalized internally so sup over the cube is 1.  It
    is evaluated three times in all: on the two sup lattices and once on
    the half-cube's cell lattice, whose sorted values give the count of
    every threshold; each measure equals ``sublevel_measure`` of the
    normalized function at that threshold, bit for bit.  The
    least-squares fit skips saturated samples (the sublevel set filled the
    whole half-cube) and quantization-floor samples (fewer than
    QUANTIZATION_CELLS lattice cells); the reported measures keep every
    grid point, and the fitted bound is lifted to dominate all of them.
    """
    center = _as_center(center)
    dim = len(center)
    if not (side > 0.0):
        raise ParameterError("cube side must be positive")
    grid = default_a_grid() if a_grid is None else np.asarray(a_grid, dtype=float)
    if grid.size < 5 or np.any(np.diff(grid) <= 0.0):
        raise ParameterError("threshold grid must be ascending with >= 5 points")
    sup_axis = 4097 if dim == 1 else 257
    sup_q = float(np.max(_eval(fn, _sup_lattice(center, side / 2.0, sup_axis))))
    if sup_q < 1e-300:
        raise BreakdownError("function vanishes on the cube")
    sup_2q = float(np.max(_eval(fn, _sup_lattice(center, side, sup_axis))))
    doubling = math.log(sup_2q / sup_q)

    points, cell = _measure_lattice(center, side, samples_per_axis)
    values = _eval(fn, points) / sup_q
    half_measure = (side / 2.0) ** dim
    measures = np.array([count * cell for count in _counts_below(values, grid)])
    clean = (measures >= QUANTIZATION_CELLS * cell) & \
            (measures <= half_measure * (1.0 - 1e-9))
    if not np.any(measures > 0.0) or int(np.count_nonzero(clean)) < 2 \
            or doubling <= 0.0:
        return RemezReport(center, float(side), tuple(grid.tolist()),
                           tuple(measures.tolist()), doubling, None, None, False)
    xs = grid[clean]
    ys = np.log(measures[clean])
    x_mean, y_mean = float(np.mean(xs)), float(np.mean(ys))
    sxx = float(np.sum((xs - x_mean) ** 2))
    slope = float(np.sum((xs - x_mean) * (ys - y_mean))) / sxx
    beta_hat = -slope * doubling
    # lift so the bound dominates every sample, zeros included trivially
    positive = measures > 0.0
    log_cr = float(np.max(
        np.log(measures[positive]) + beta_hat * grid[positive] / doubling
        - dim * math.log(side)))
    return RemezReport(center, float(side), tuple(grid.tolist()),
                       tuple(measures.tolist()), doubling, beta_hat,
                       math.exp(log_cr), True)


def remez_bound_values(report: RemezReport) -> np.ndarray:
    """The fitted bound evaluated on the report's threshold grid."""
    if not report.defined:
        raise ParameterError("report has no fitted bound")
    grid = np.asarray(report.a_grid)
    return report.cr_hat * np.exp(-report.beta_hat * grid / report.doubling) \
        * report.side ** len(report.center)


@dataclass(frozen=True)
class GoodSetResult:
    """Per-factor thresholds a_j and the set E where every factor stays
    at or above exp(-a_j); its lattice measure is certified to be at least
    half the half-cube."""

    thresholds: tuple
    measure_e: float
    measure_half_cube: float
    min_product_bound: float


def good_set_experiment(basis, spec: ProductSpec, center, side: float,
                        a_grid=None, samples_per_axis: int | None = None) -> GoodSetResult:
    """For each factor, find the smallest grid threshold a_j whose sublevel
    set {|phi| < exp(-a_j)} fills at most 1/(2n) of the half-cube; the
    intersection of the complements then covers at least half of it.

    Counting runs on one shared lattice, so the 1/2 guarantee is exact
    cell arithmetic, not an approximation.
    """
    center = _as_center(center)
    if len(center) != basis.model.chart_dim:
        raise ParameterError("cube dimension must match the model chart")
    if spec.basis is not basis:
        raise ParameterError("product spec must reference the given basis")
    grid = default_a_grid() if a_grid is None else np.asarray(a_grid, dtype=float)
    per_axis = samples_per_axis or _default_measure_axis(len(center))
    points = _cell_lattice(center, side / 2.0, per_axis)
    cell = (side / 2.0 / per_axis) ** len(center)
    total = points.shape[0]
    n = spec.n_factors
    budget = total / (2.0 * n)
    thresholds = []
    keep = np.ones(total, dtype=bool)
    factor_values = []
    for i in spec.factors:
        values = np.abs(np.atleast_1d(evaluate(basis.model, basis.modes[i], points)))
        factor_values.append(values)
        chosen = None
        for a in grid:
            if int(np.count_nonzero(values < math.exp(-float(a)))) <= budget:
                chosen = float(a)
                break
        if chosen is None:
            raise GridExhaustedError(
                f"no grid threshold tames the sublevel set of mode {i}")
        thresholds.append(chosen)
        keep &= values >= math.exp(-chosen)
    measure_e = float(np.count_nonzero(keep)) * cell
    half_measure = total * cell
    if measure_e < 0.5 * half_measure - 1e-12:
        raise BreakdownError("good-set measure fell below half the half-cube")
    product_floor = math.exp(-float(np.sum(thresholds)))
    if np.any(keep):
        product_on_e = np.ones(int(np.count_nonzero(keep)))
        for values in factor_values:
            product_on_e = product_on_e * values[keep]
        min_product = float(np.min(product_on_e))
    else:  # pragma: no cover - keep is at least half the lattice
        min_product = product_floor
    if min_product < product_floor * (1.0 - 1e-12):
        raise BreakdownError("pointwise product bound violated on the good set")
    return GoodSetResult(tuple(thresholds), measure_e, half_measure, min_product)


# ---------------------------------------------------------------------------
# function factories


def harmonic_lift(model, mode):
    """phi(x) exp(lambda y): the degenerate-elliptic lift of a 1-d chart
    mode, usable directly in doubling and sublevel probes."""
    if model.chart_dim != 1:
        raise ParameterError("the lift factory expects a 1-d chart model")
    base = as_chart_function(model, mode)

    def lifted(points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError("lift expects (n, 2) points")
        return np.atleast_1d(base(pts[:, 0])) * np.exp(mode.lam * pts[:, 1])

    return lifted


def coordinate_function():
    """u(x) = x on the line."""

    def fn(points):
        return np.asarray(points, dtype=float)

    return fn


def harmonic_power_function(k: int):
    """Re((x + iy)^k): harmonic and homogeneous of degree k on the plane."""
    if k < 0:
        raise ParameterError("exponent must be nonnegative")

    def fn(points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError("expected (n, 2) points")
        return np.real((pts[:, 0] + 1j * pts[:, 1]) ** k)

    return fn
