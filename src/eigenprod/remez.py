"""Doubling indices, sublevel-set measures, and good-set constructions.

Everything samples deterministic lattices: sups are taken over
endpoint-inclusive grids (so homogeneous scaling is exact in floating
point), measures count cell centers (so measures are exactly
nonincreasing as the threshold tightens).

A function receives a lattice's per-axis coordinates in open-mesh form
(``np.meshgrid(..., indexing="ij", sparse=True)``): ``fn(x)``, x (n,), on
a line and ``fn(x, y)``, x (n, 1) and y (1, m), on a plane, as the
factories below do.  It is called on row blocks of the lattice, about
BLOCK_CELLS cells each (consecutive rows of the first axis with every
point of the others), so it must be pointwise: each value may depend on
its own lattice point only.  The absolute values of each block are
written into one block-sized buffer per lattice, which the next block
overwrites.  Sups take the maximum of the block maxima and measures add
the block counts, so neither depends on the blocking.
Values that do not broadcast to the block's shape raise
``ParameterError``, and so does a NaN or infinite sup, where it is
taken: before any measure lattice is evaluated.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _least_squares_line
from .coefficients import ProductSpec
from .errors import BreakdownError, GridExhaustedError, ParameterError
from .numerics import real_part_powers

DEFAULT_A_GRID_STEP = 0.25
DEFAULT_A_GRID_STOP = 12.0
QUANTIZATION_CELLS = 4  # measures under this many cells are fit-excluded
# cells per row block (64 rows of the 512^2 cell lattice): a block's
# complex temporaries stay near 512 KB, in cache
BLOCK_CELLS = 32768

__all__ = [
    "DoublingReport",
    "RemezReport",
    "GoodSetResult",
    "default_a_grid",
    "doubling_index",
    "sublevel_measure",
    "remez_fit",
    "good_set_experiment",
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


def _checked_grid(a_grid, min_points: int) -> np.ndarray:
    """The threshold grid (the default one for None): finite, strictly
    ascending, with at least ``min_points`` points."""
    grid = default_a_grid() if a_grid is None else np.asarray(a_grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_points or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) <= 0.0):
        raise ParameterError(
            f"threshold grid must be finite and ascending with >= {min_points} points")
    return grid


def _eval(fn, axes, out: np.ndarray) -> np.ndarray:
    """|fn| on the tensor lattice of the 1-d arrays ``axes``, one array axis
    each, written into ``out`` (of the lattice's shape) and returned; the
    function's own arrays are freed on return."""
    values = np.asarray(fn(*np.meshgrid(*axes, indexing="ij", sparse=True)))
    try:
        values = np.broadcast_to(values, out.shape)
    except ValueError:
        raise ParameterError(f"values {values.shape} do not broadcast to {out.shape}") from None
    return np.abs(values, out=out)


def _row_blocks(shape) -> list:
    """Near-equal blocks of the first axis of a lattice of ``shape``, about
    BLOCK_CELLS cells each, as slices in order; the first ones take the
    extra row, as ``np.array_split`` does."""
    rows = shape[0]
    n_blocks = min(rows, -(-math.prod(shape) // BLOCK_CELLS))
    size, extra = divmod(rows, n_blocks)
    edges = [k * size + min(k, extra) for k in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _blocks(fn, axes):
    """:func:`_eval` on the :func:`_row_blocks` of the lattice, in order,
    each written into the leading rows of one buffer of the first (tallest)
    block's shape: a block is overwritten by the next one."""
    shape = tuple(axis.size for axis in axes)
    blocks = _row_blocks(shape)
    buffer = np.empty((blocks[0].stop, *shape[1:]))
    for block in blocks:
        yield _eval(fn, [axes[0][block], *axes[1:]], buffer[:block.stop - block.start])


def _sup(fn, center: tuple, half_side: float, per_axis: int) -> float:
    """Sampled sup of |fn| on the endpoint-inclusive lattice of the cube;
    ParameterError if it is NaN (some sample is) or infinite."""
    axes = [np.linspace(c - half_side, c + half_side, per_axis) for c in center]
    sup = float(np.max([np.max(block) for block in _blocks(fn, axes)]))
    if not math.isfinite(sup):
        raise ParameterError(
            f"the function's sampled sup on the cube of half-side {half_side:g} "
            f"about {center} is {sup}: it must be finite there")
    return sup


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
    the ratio (and hence the index k log 2 for degree k) is exact.  The
    two lattices do not nest, but both lie in the 2r cube, so its sup is
    taken over both: the index is never negative.
    """
    center = _as_center(center)
    if not (r > 0.0) or samples_per_axis < 64:
        raise ParameterError("need r > 0 and at least 64 samples per axis")
    sup_r = _sup(fn, center, r, samples_per_axis)
    sup_2r = max(_sup(fn, center, 2.0 * r, samples_per_axis), sup_r)
    if sup_r < 1e-300:
        raise BreakdownError("sampled sup vanished; the index is undefined")
    return DoublingReport(center, float(r), sup_r, sup_2r,
                          math.log(sup_2r / sup_r))


def _measure_axes(center: tuple, side: float, per_axis: int | None):
    """Per-axis cell centers of the half-cube of (center, side), whose
    tensor lattice the measures count, and the volume of one cell."""
    per_axis = per_axis or (16384 if len(center) == 1 else 512)
    if per_axis < 256:
        raise ParameterError("need at least 256 cells per axis")
    half = side / 2.0
    cell = (half / per_axis) ** len(center)
    return [c - half / 2.0 + (np.arange(per_axis) + 0.5) * half / per_axis for c in center], cell


def _counts_below(values: np.ndarray, a_values) -> list:
    """Number of values strictly below exp(-a), for each a; a contiguous
    ``values`` is sorted in place.

    One sort serves every threshold; ``side="left"`` counts exactly the
    entries with value < exp(-a), as the direct comparison in
    ``sublevel_measure`` does.  For a single threshold that comparison is
    cheaper than the sort.
    """
    ordered = values.reshape(-1)
    ordered.sort()
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
    axes, cell = _measure_axes(center, side, samples_per_axis)
    threshold = math.exp(-a)
    count = sum(int(np.count_nonzero(block < threshold)) for block in _blocks(fn, axes))
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
    is evaluated once on each of three lattices, block by block: the two
    sup lattices and the half-cube's cell lattice, where each block is
    divided by the sup and sorted in place, and its sorted values give the
    count of every threshold; each measure equals ``sublevel_measure`` of the
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
    grid = _checked_grid(a_grid, 5)
    sup_axis = 4097 if dim == 1 else 257
    sup_q = _sup(fn, center, side / 2.0, sup_axis)
    if sup_q < 1e-300:
        raise BreakdownError("function vanishes on the cube")
    sup_2q = _sup(fn, center, side, sup_axis)
    doubling = math.log(sup_2q / sup_q)

    axes, cell = _measure_axes(center, side, samples_per_axis)
    counts = np.zeros(grid.size, dtype=np.int64)
    for block in _blocks(fn, axes):
        block /= sup_q
        counts += _counts_below(block, grid)
    half_measure = (side / 2.0) ** dim
    measures = counts * cell
    clean = (measures >= QUANTIZATION_CELLS * cell) & \
            (measures <= half_measure * (1.0 - 1e-9))
    if not np.any(measures > 0.0) or int(np.count_nonzero(clean)) < 2 \
            or doubling <= 0.0:
        return RemezReport(center, float(side), tuple(grid.tolist()),
                           tuple(measures.tolist()), doubling, None, None, False)
    slope, _intercept, _r_squared = _least_squares_line(grid[clean], np.log(measures[clean]))
    beta_hat = -slope * doubling
    # lift so the bound dominates every sample, zeros included trivially
    positive = measures > 0.0
    log_cr = float(np.max(
        np.log(measures[positive]) + beta_hat * grid[positive] / doubling
        - dim * math.log(side)))
    return RemezReport(center, float(side), tuple(grid.tolist()),
                       tuple(measures.tolist()), doubling, beta_hat,
                       math.exp(log_cr), True)


@dataclass(frozen=True)
class GoodSetResult:
    """Per-factor thresholds a_j and the set E where every factor stays
    at or above exp(-a_j); its lattice measure is certified to be at least
    half the half-cube."""

    thresholds: tuple
    measure_e: float
    measure_half_cube: float
    min_product_bound: float


def _factor_block(rows, j: int, block: slice, out: np.ndarray) -> None:
    """Factor j of the absolute axis ``rows`` on the first-axis rows
    ``block`` of the lattice, written into ``out``: on a line its one row;
    on a plane the outer product of its two rows.  Rounding is symmetric,
    so |x| |y| is |x y|, the absolute value of the product
    ``lattice_values`` forms.  einsum (no BLAS path) rounds each product
    once, as a broadcast ``np.multiply`` does, in under half its time on
    a 64 x 512 block."""
    if len(rows) == 1:
        np.copyto(out, rows[0][j, block])
    else:
        np.einsum("i,j->ij", rows[0][j, block], rows[1][j], out=out)


def _count_below(xs: np.ndarray, ys: np.ndarray, t: float) -> int:
    """The number of lattice values x y below ``t``, for x of ``xs`` and y
    of the ascending ``ys``, all >= 0, each product rounded once.

    For x >= 0 the rounded x y never falls as y rises, so each x's values
    below t are a prefix of ``ys``.  ``searchsorted`` at t / x finds its
    length up to rounding; the product check at the boundary then steps
    it down or up over whole runs of equal ys until it is exact."""
    if not t > 0.0:
        return 0  # no |value| is below 0
    with np.errstate(divide="ignore", over="ignore"):
        counts = np.searchsorted(ys, t / xs)
    rows = np.flatnonzero(counts)
    rows = rows[xs[rows] * ys[counts[rows] - 1] >= t]
    while rows.size:  # the last y counted reaches t: back to its run's start
        counts[rows] = np.searchsorted(ys, ys[counts[rows] - 1])
        rows = rows[counts[rows] > 0]
        rows = rows[xs[rows] * ys[counts[rows] - 1] >= t]
    rows = np.flatnonzero(counts < ys.size)
    rows = rows[xs[rows] * ys[counts[rows]] < t]
    while rows.size:  # the first y not counted is below t: past its run's end
        counts[rows] = np.searchsorted(ys, ys[counts[rows]], side="right")
        rows = rows[counts[rows] < ys.size]
        rows = rows[xs[rows] * ys[counts[rows]] < t]
    return int(counts.sum())


def _good_set_thresholds(rows, grid, factors) -> list:
    """Each factor's smallest grid a whose sublevel set {|phi| < exp(-a)}
    holds at most floor(cells / (2 n)) of the lattice's cells, from the
    factor's absolute axis ``rows`` alone.

    count(values < t) <= rank exactly when t <= the rank-th smallest value
    (from 0), and the first grid a whose exp(-a) passes is the first whose
    running minimum of exp(-a) along the grid passes, which a bisection
    finds.  On a line the lattice is the factor's one row, and a partition
    selects that value; on a plane each value is the product of two row
    values, and :func:`_count_below` counts from one sorted row."""
    rank = math.floor(math.prod(axis_rows.shape[1] for axis_rows in rows) / (2.0 * len(factors)))
    floors = list(itertools.accumulate((math.exp(-float(a)) for a in grid), min))
    thresholds = []
    for j, i in enumerate(factors):
        if len(rows) == 1:
            bound = float(np.partition(rows[0][j], rank)[rank])
            tame = lambda t: t <= bound
        else:
            xs, ys = rows[0][j], np.sort(rows[1][j])
            tame = lambda t: _count_below(xs, ys, t) <= rank
        chosen = bisect.bisect_left(floors, True, key=tame)
        if chosen == len(floors):
            raise GridExhaustedError(
                f"no grid threshold tames the sublevel set of mode {i}")
        thresholds.append(float(grid[chosen]))
    return thresholds


def _good_set_measure(rows, shape, blocks, thresholds) -> tuple:
    """The number of cells where every factor j is at least
    exp(-thresholds[j]), and the least product of the factors there (the
    factors multiplied in order), block by block."""
    floors = [math.exp(-a) for a in thresholds]
    block_shape = (blocks[0].stop - blocks[0].start, *shape[1:])
    factor, product = np.empty(block_shape), np.empty(block_shape)
    keep, above = np.empty(block_shape, dtype=bool), np.empty(block_shape, dtype=bool)
    count, least = 0, math.inf
    for block in blocks:
        height = block.stop - block.start
        values, running = factor[:height], product[:height]
        kept, passed = keep[:height], above[:height]
        _factor_block(rows, 0, block, running)
        np.greater_equal(running, floors[0], out=kept)
        for j in range(1, len(floors)):
            _factor_block(rows, j, block, values)
            np.greater_equal(values, floors[j], out=passed)
            kept &= passed
            running *= values
        count += int(np.count_nonzero(kept))
        least = min(least, float(np.min(running, where=kept, initial=np.inf)))
    return count, least


def good_set_experiment(spec: ProductSpec, center, side: float,
                        a_grid=None, samples_per_axis: int | None = None) -> GoodSetResult:
    """For each factor, find the smallest grid threshold a_j whose sublevel
    set {|phi| < exp(-a_j)} fills at most 1/(2n) of the half-cube; the
    intersection of the complements then covers at least half of it.

    Counting runs on one shared lattice, so the 1/2 guarantee is exact
    cell arithmetic, not an approximation.  One ``lattice_rows`` call forms
    every factor's rows on each axis's own coordinates, and each |value|
    is the product of its two absolute row values: the |values| of
    :func:`eigenprod.manifolds.evaluate` at the lattice points, bit for
    bit.  The thresholds come from those rows alone
    (:func:`_good_set_thresholds`: a partition of the one row on a line,
    counts from one sorted row on a plane), so no lattice-sized array is
    formed.  The measure pass runs over the row blocks of the lattice
    (about BLOCK_CELLS cells each): it forms every factor's values on one
    block at a time and updates the block's keep mask and running product
    in place; it adds up the kept cells and takes the least product over
    them.  Counts and minima do not depend on the blocking.
    """
    basis = spec.basis
    center = _as_center(center)
    if len(center) != basis.model.chart_dim:
        raise ParameterError("cube dimension must match the model chart")
    if not (side > 0.0):
        raise ParameterError("cube side must be positive")
    grid = _checked_grid(a_grid, 1)
    axes, cell = _measure_axes(center, side, samples_per_axis)
    shape = tuple(axis.size for axis in axes)
    blocks = _row_blocks(shape)
    rows = [np.abs(axis_rows) for axis_rows in
            basis.model.lattice_rows(basis, list(spec.factors), axes)]
    thresholds = _good_set_thresholds(rows, grid, spec.factors)
    count, min_product = _good_set_measure(rows, shape, blocks, thresholds)
    measure_e = float(count) * cell
    half_measure = math.prod(shape) * cell
    if measure_e < 0.5 * half_measure - 1e-12:
        raise BreakdownError("good-set measure fell below half the half-cube")
    # E holds at least half the lattice here, so the minimum is finite
    if min_product < math.exp(-float(np.sum(thresholds))) * (1.0 - 1e-12):
        raise BreakdownError("pointwise product bound violated on the good set")
    return GoodSetResult(tuple(thresholds), measure_e, half_measure, min_product)


# ---------------------------------------------------------------------------
# function factories


def coordinate_function():
    """u(x) = x on the line."""
    return lambda x: np.asarray(x, dtype=float)


def harmonic_power_function(k: int):
    """Re((x + iy)^k): harmonic and homogeneous of degree k on the plane,
    by :func:`eigenprod.numerics.real_part_powers` on x and y as they come
    (no complex add), so its values are numpy's ``np.real(z ** k)``."""
    if k < 0:
        raise ParameterError("exponent must be nonnegative")

    def fn(x, y):
        (values,) = real_part_powers(x, y, (k,))
        return values

    return fn
