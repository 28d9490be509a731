"""Doubling indices, sublevel measures, Remez-type fits, good sets."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenprod import remez
from eigenprod.cli import cli_main
from eigenprod.coefficients import ProductSpec
from eigenprod.errors import BreakdownError, GridExhaustedError, ParameterError
from eigenprod.manifolds import (
    COS,
    SIN,
    FlatTorus,
    RevTorus,
    Sphere2,
    as_chart_function,
    build_basis,
    evaluate,
)
from eigenprod.remez import (
    GoodSetResult,
    RemezReport,
    coordinate_function,
    default_a_grid,
    doubling_index,
    good_set_experiment,
    harmonic_power_function,
    remez_fit,
    sublevel_measure,
)
from reference import exact_powers_expected, find_mode, good_set_thresholds_reference

TWO_PI = 2.0 * math.pi


def remez_bound_values(report: RemezReport) -> np.ndarray:
    """The fitted bound evaluated on the report's threshold grid."""
    if not report.defined:
        raise ParameterError("report has no fitted bound")
    grid = np.asarray(report.a_grid)
    return report.cr_hat * np.exp(-report.beta_hat * grid / report.doubling) \
        * report.side ** len(report.center)


@pytest.mark.parametrize("k", range(1, 9))
def test_doubling_of_homogeneous_powers(k):
    # |u| on the 2r cube is 2^k times |u| on the r cube for degree-k
    # homogeneous u, so the index is k log 2
    report = doubling_index(harmonic_power_function(k), (0.0, 0.0), 0.35)
    assert report.index == pytest.approx(k * math.log(2.0), abs=1e-6)


def test_doubling_of_constant_is_zero():
    report = doubling_index(lambda pts: np.ones(np.atleast_1d(pts).shape[0]),
                            0.0, 0.5)
    assert report.index == pytest.approx(0.0, abs=1e-12)


def test_doubling_against_dense_oracle():
    fn = lambda x: np.cos(3.0 * np.asarray(x))
    report = doubling_index(fn, 0.0, 0.1)
    dense = 100_001
    xs_r = np.linspace(-0.1, 0.1, dense)
    xs_2r = np.linspace(-0.2, 0.2, dense)
    oracle = math.log(np.max(np.abs(fn(xs_2r))) / np.max(np.abs(fn(xs_r))))
    assert report.index == pytest.approx(oracle, abs=1e-4)


def test_doubling_of_cos3_off_centre_is_not_negative():
    # the r and 2r lattices do not nest: about 0.2 at r = 0.25 the 2r
    # lattice alone samples cos 3x below sup_r, an index of -4.1e-5
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 3.0)
    fn = as_chart_function(basis, find_mode(basis, ((3,), (COS,))))
    report = doubling_index(fn, 0.2, 0.25)
    assert report.sup_2r == report.sup_r == remez._sup(fn, (0.2,), 0.25, 129)
    assert report.index == 0.0


@pytest.mark.parametrize("model", [FlatTorus(1, (TWO_PI,)), FlatTorus(2, (TWO_PI, TWO_PI)),
                                   Sphere2()], ids=["flat1", "flat2", "sphere"])
def test_doubling_of_modes_is_never_negative(model):
    # the sup over the 2r cube covers both lattices, so it dominates sup_r
    basis = build_basis(model, 5.0)
    rng = np.random.default_rng(11)
    for _ in range(12):
        mode_id = int(rng.integers(1, basis.size))
        center = tuple(rng.uniform(0.5, 2.5, size=model.chart_dim).tolist())
        r = float(rng.uniform(0.05, 0.4))
        report = doubling_index(as_chart_function(basis, mode_id), center, r)
        assert report.sup_2r >= report.sup_r and report.index >= 0.0, (mode_id, center, r)


def test_doubling_additivity_for_homogeneous_products():
    u = harmonic_power_function(2)
    v = harmonic_power_function(3)
    product = lambda x, y: u(x, y) * v(x, y)
    n_u = doubling_index(u, (0.0, 0.0), 0.3).index
    n_v = doubling_index(v, (0.0, 0.0), 0.3).index
    n_uv = doubling_index(product, (0.0, 0.0), 0.3).index
    assert n_uv == pytest.approx(n_u + n_v, abs=1e-6)


def test_doubling_degenerate_function():
    with pytest.raises(BreakdownError):
        doubling_index(lambda pts: np.zeros(np.atleast_1d(pts).shape[0]), 0.0, 0.1)


def test_sublevel_constant_is_empty():
    fn = lambda pts: np.ones(np.atleast_1d(pts).shape[0])
    assert sublevel_measure(fn, 0.0, 2.0, 1.0) == 0.0


def test_sublevel_linear_interval_length():
    # {|x| < e^-2} inside [-1/2, 1/2] has length 2 e^-2
    per_axis = 16384
    measure = sublevel_measure(coordinate_function(), 0.0, 2.0, 2.0, per_axis)
    cell = 1.0 / per_axis
    assert abs(measure - 2.0 * math.exp(-2.0)) <= cell + 1e-15


def test_sublevel_cosine_arcsin_oracle():
    # each zero of cos(2x) inside the half-cube contributes arcsin(e^-a)
    fn = lambda x: np.cos(2.0 * np.asarray(x))
    per_axis = 16384
    # half-cube [-1, 1] holds two zeros
    measure = sublevel_measure(fn, 0.0, 4.0, 3.0, per_axis)
    oracle = 2.0 * math.asin(math.exp(-3.0))
    assert abs(measure - oracle) <= 2.0 * (2.0 / per_axis)
    # half-cube [-1/2, 1/2] holds none: |cos 2x| >= cos 1 > e^-3 there
    assert sublevel_measure(fn, 0.0, 2.0, 3.0, per_axis) == 0.0


@pytest.mark.parametrize("fn_name", ["linear", "cos", "power4"])
def test_sublevel_monotone_in_threshold(fn_name):
    fns = {
        "linear": (coordinate_function(), 0.0),
        "cos": (lambda x: np.cos(2.0 * np.asarray(x)), 0.0),
        "power4": (harmonic_power_function(4), (0.0, 0.0)),
    }
    fn, center = fns[fn_name]
    per_axis = 2048 if fn_name == "power4" else 8192
    measures = [sublevel_measure(fn, center, 2.0, float(a), per_axis)
                for a in default_a_grid()]
    assert all(b <= a for a, b in zip(measures, measures[1:]))


def test_remez_fit_linear_function():
    # u(x) = x on [-1, 1]: doubling log 2 and measures 2 e^-a, so the
    # fitted rate must come out at log 2 within 2 percent
    report = remez_fit(coordinate_function(), 0.0, 2.0)
    assert report.defined
    assert report.doubling == pytest.approx(math.log(2.0), abs=1e-9)
    assert report.beta_hat == pytest.approx(math.log(2.0), rel=0.02)
    bound = remez_bound_values(report)
    assert np.all(np.asarray(report.measures) <= bound * (1.0 + 1e-9))


def test_remez_fit_constant_undefined():
    fn = lambda pts: np.ones(np.atleast_1d(pts).shape[0])
    report = remez_fit(fn, 0.0, 2.0)
    assert not report.defined
    assert report.beta_hat is None
    assert all(m == 0.0 for m in report.measures)


def test_remez_fit_power_on_unit_square():
    report = remez_fit(harmonic_power_function(4), (0.0, 0.0), 2.0)
    assert report.defined
    assert report.beta_hat > 0.0
    bound = remez_bound_values(report)
    assert np.all(np.asarray(report.measures) <= bound * (1.0 + 1e-9))


def test_remez_measures_nonincreasing_in_report():
    report = remez_fit(lambda x: np.sin(np.asarray(x)), 0.3, 2.0)
    measures = list(report.measures)
    assert all(b <= a for a, b in zip(measures, measures[1:]))


def _flat2_mode_function():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 3.0)
    mode = find_mode(basis, ((1, 2), (COS, SIN)))
    return as_chart_function(basis, mode)


REMEZ_CASES = {
    "power3": (lambda: harmonic_power_function(3), (0.0, 0.0), 2.0),
    "linear": (coordinate_function, 0.0, 2.0),
    "flat2-mode": (_flat2_mode_function, (0.5, 0.5), 1.0),
}


@pytest.mark.parametrize("name", sorted(REMEZ_CASES))
def test_remez_measures_equal_per_threshold_sublevel_measures(name):
    # one sweep over sorted lattice values must give, bit for bit, the
    # measures of one sublevel_measure call per threshold on the function
    # normalized by its sampled sup over the half-cube
    factory, center, side = REMEZ_CASES[name]
    fn = factory()
    report = remez_fit(fn, center, side)
    cube = remez._as_center(center)
    sup_axis = 4097 if len(cube) == 1 else 257
    sup_q = remez._sup(fn, cube, side / 2.0, sup_axis)
    normalized = lambda *axes: np.asarray(fn(*axes)) / sup_q
    expected = [sublevel_measure(normalized, center, side, float(a))
                for a in default_a_grid()]
    assert [m.hex() for m in report.measures] == [m.hex() for m in expected]
    assert any(0.0 < m < (side / 2.0) ** len(cube) for m in expected)


def test_counts_below_are_strict_comparisons():
    # values equal to a threshold, one ulp either side, zeros and NaN
    grid = default_a_grid()
    levels = np.array([math.exp(-float(grid[i])) for i in (0, 5, 20, 47)])
    values = np.concatenate([levels, np.nextafter(levels, 0.0),
                             np.nextafter(levels, 1.0), [0.0, 0.0, np.nan, 2.0]])
    expected = [int(np.count_nonzero(values < math.exp(-float(a)))) for a in grid]
    assert remez._counts_below(values, grid) == expected


def _cube_axes(center, half_side, per_axis):
    """The per-axis points of an endpoint-inclusive sup lattice."""
    return [np.linspace(c - half_side, c + half_side, per_axis) for c in center]


def _assert_row_blocks_tile(calls, lattices):
    """The recorded open meshes, in call order, are row blocks that tile
    each lattice (a list of per-axis arrays) exactly once: consecutive
    rows of the first axis with every point of the others, axis i varying
    along array axis i only, at most BLOCK_CELLS cells per block."""
    calls = iter(calls)
    for axes in lattices:
        rows = []
        row_cells = math.prod(axis.size for axis in axes[1:])
        while sum(block.size for block in rows) < axes[0].size:
            mesh = next(calls)
            assert len(mesh) == len(axes)
            for i, coords in enumerate(mesh):
                assert coords.ndim == len(axes)
                assert all(n == 1 for j, n in enumerate(coords.shape) if j != i)
            for coords, axis in zip(mesh[1:], axes[1:]):
                assert np.array_equal(coords.reshape(-1), axis)
            rows.append(mesh[0].reshape(-1))
            assert 0 < rows[-1].size * row_cells <= remez.BLOCK_CELLS
        assert np.array_equal(np.concatenate(rows), axes[0])
    assert next(calls, None) is None


def _recording(fn, calls):
    def recording(*mesh):
        calls.append([np.array(coords) for coords in mesh])
        return fn(*mesh)
    return recording


def test_remez_fit_evaluates_three_lattices():
    # two sup lattices and one measure lattice, whatever the grid length:
    # the row blocks the function sees tile each exactly once, and the
    # 512^2 measure lattice takes more than one block
    calls = []
    remez_fit(_recording(harmonic_power_function(4), calls), (0.0, 0.0), 2.0)
    measure_axes = remez._measure_axes((0.0, 0.0), 2.0, None)[0]
    _assert_row_blocks_tile(calls, [_cube_axes((0.0, 0.0), 1.0, 257),
                                    _cube_axes((0.0, 0.0), 2.0, 257), measure_axes])
    assert len(calls) > 3


@pytest.fixture(scope="module")
def circle_basis():
    return build_basis(FlatTorus(1, (TWO_PI,)), 4.0)


def test_good_set_constant_mode(circle_basis):
    # the constant mode has value 1/sqrt(2 pi) ~ 0.399: its sublevel set is
    # empty exactly from the first grid threshold below that value
    spec = ProductSpec(circle_basis, (0,))
    result = good_set_experiment(spec, 0.0, 2.0)
    const_value = 1.0 / math.sqrt(TWO_PI)
    expected = next(float(a) for a in default_a_grid()
                    if math.exp(-float(a)) <= const_value)
    assert result.thresholds == (expected,)
    assert result.measure_e == pytest.approx(result.measure_half_cube, rel=1e-12)


def test_good_set_two_cosines(circle_basis):
    cos1 = find_mode(circle_basis, ((1,), (COS,)))
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    spec = ProductSpec(circle_basis, (cos1, cos2))
    result = good_set_experiment(spec, 0.0, 2.0)
    assert result.measure_e >= 0.5 * result.measure_half_cube
    assert result.min_product_bound >= math.exp(-sum(result.thresholds))
    # thresholds agree with a dense brute-force scan to one grid step
    grid = default_a_grid()
    dense = np.linspace(-0.5 + 1e-9, 0.5 - 1e-9, 100_001)
    for mode, got in zip((cos1, cos2), result.thresholds):
        values = np.abs(as_chart_function(circle_basis, mode)(dense))
        budget = dense.size / 4.0  # 1/(2n) with n = 2
        brute = next(float(a) for a in grid
                     if np.count_nonzero(values < math.exp(-float(a))) <= budget)
        assert abs(got - brute) <= 0.25 + 1e-12


def test_good_set_lower_bound_chain(circle_basis):
    # ||prod phi||_{L2(E)} >= mu(E)^{1/2} prod exp(-a_j): the mechanism
    # behind the norm lower bound, verified by direct lattice sums
    cos1 = find_mode(circle_basis, ((1,), (COS,)))
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    spec = ProductSpec(circle_basis, (cos1, cos2))
    per_axis = 16384
    result = good_set_experiment(spec, 0.0, 2.0, samples_per_axis=per_axis)
    centers = -0.5 + (np.arange(per_axis) + 0.5) / per_axis
    product = np.ones(per_axis)
    for mode in (cos1, cos2):
        product *= as_chart_function(circle_basis, mode)(centers)
    keep = np.ones(per_axis, dtype=bool)
    for mode, a in zip((cos1, cos2), result.thresholds):
        values = np.abs(as_chart_function(circle_basis, mode)(centers))
        keep &= values >= math.exp(-a)
    cell = 1.0 / per_axis
    norm_on_e = math.sqrt(float(np.sum(product[keep] ** 2)) * cell)
    floor = math.sqrt(result.measure_e) * math.exp(-sum(result.thresholds))
    assert norm_on_e >= floor * (1.0 - 1e-12)


def test_good_set_grid_exhaustion(circle_basis):
    spec = ProductSpec(circle_basis, (1, 2))
    with pytest.raises(GridExhaustedError):
        # thresholds capped far too low for any sublevel set to shrink
        good_set_experiment(spec, 0.0, 2.0, a_grid=np.array([1e-6, 2e-6, 3e-6, 4e-6, 5e-6]))


def run_cli(tmp_path, *argv) -> int:
    return cli_main([*argv, "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])


def test_remez_fit_on_a_vanishing_cube_exits_3(tmp_path, capsys):
    # x on a cube of side 1e-300 about 0: its sup is below the 1e-300 floor
    with pytest.raises(BreakdownError, match="function vanishes on the cube"):
        remez_fit(coordinate_function(), 0.0, 1e-300)
    capsys.readouterr()
    assert run_cli(tmp_path, "remez", "--function", "linear", "--center", "0",
                   "--side", "1e-300") == 3
    assert capsys.readouterr().err == "numerical breakdown: function vanishes on the cube\n"


def too_small_pick(rows, grid, factors):
    # the grid's smallest threshold for every factor: its floor e^-0.25
    # lies above every value of a unit-norm cosine on the circle
    return [float(grid[0])] * len(factors)


def row_corrupting_pick(rows, grid, factors):
    # a pick that writes into the absolute rows the measure pass reads:
    # factor 0 vanishes at factor 1's largest cell, and factor 1 grows by
    # 1e30, so a floor of 0 and one of e^60 keep most cells while the
    # bound exp(-740) stays above the product 0 at that cell
    (row,) = rows
    row[0, int(np.argmax(row[1]))] = 0.0
    row[1] *= 1e30
    return [800.0, -60.0]


@pytest.mark.parametrize("pick, message", [
    (too_small_pick, "good-set measure fell below half the half-cube"),
    (row_corrupting_pick, "pointwise product bound violated on the good set"),
])
def test_good_set_post_checks_fire_on_a_wrong_pick(monkeypatch, tmp_path, capsys,
                                                    circle_basis, pick, message):
    monkeypatch.setattr(remez, "_good_set_thresholds", pick)
    with pytest.raises(BreakdownError, match=message):
        good_set_experiment(ProductSpec(circle_basis, (1, 2)), 0.0, 2.0)
    capsys.readouterr()
    assert run_cli(tmp_path, "good-set", "--model", "flat-torus", "--dim", "1",
                   "--factors", "cos2,cos3") == 3
    assert capsys.readouterr().err == f"numerical breakdown: {message}\n"
    assert not (tmp_path / "out" / "good-set.json").exists()


BAD_GRIDS = {
    "nan-first": [np.nan, 1.0, 2.0, 3.0, 4.0],
    "nan-inside": [0.25, 0.5, np.nan, 1.0, 1.25],
    "inf-last": [0.25, 0.5, 0.75, 1.0, np.inf],
    "minus-inf-first": [-np.inf, 0.5, 0.75, 1.0, 1.25],
    "descending": default_a_grid()[::-1],
    "repeated": [0.25, 0.5, 0.5, 0.75, 1.0],
    "two-dimensional": default_a_grid().reshape(8, 6),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_threshold_grids_must_be_finite_and_ascending(circle_basis, name):
    # a NaN would read as an empty step and a descending grid would pick
    # its first, largest, a: both functions refuse such grids (exit 2)
    grid = BAD_GRIDS[name]
    with pytest.raises(ParameterError, match="threshold grid"):
        remez_fit(coordinate_function(), 0.0, 2.0, a_grid=grid)
    with pytest.raises(ParameterError, match="threshold grid"):
        good_set_experiment(ProductSpec(circle_basis, (1, 2)), 0.0, 2.0, a_grid=grid)


def test_grid_minimum_lengths(circle_basis):
    # a fit needs five grid points; a good set needs one
    spec = ProductSpec(circle_basis, (1, 2))
    assert good_set_experiment(spec, 0.0, 2.0).thresholds == (0.75, 2.75)
    assert good_set_experiment(spec, 0.0, 2.0, a_grid=[12.0]).thresholds == \
        (12.0, 12.0)
    with pytest.raises(ParameterError, match="threshold grid"):
        good_set_experiment(spec, 0.0, 2.0, a_grid=[])
    with pytest.raises(ParameterError, match=">= 5 points"):
        remez_fit(coordinate_function(), 0.0, 2.0, a_grid=default_a_grid()[:4])


def _pointwise_good_set(basis, spec, center, side):
    """The good-set construction with each factor evaluated pointwise by
    ``evaluate`` on the (n, d) cell-lattice points of the half-cube."""
    axes, cell = remez._measure_axes(center, side, None)
    points = np.column_stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")])
    budget = points.shape[0] / (2.0 * spec.n_factors)
    thresholds, factor_values = [], []
    keep = np.ones(points.shape[0], dtype=bool)
    for i in spec.factors:
        values = np.abs(evaluate(basis, i, points))
        a = next(float(a) for a in default_a_grid()
                 if np.count_nonzero(values < math.exp(-float(a))) <= budget)
        thresholds.append(a)
        keep &= values >= math.exp(-a)
        factor_values.append(values)
    product = np.ones(int(np.count_nonzero(keep)))
    for values in factor_values:
        product = product * values[keep]
    return GoodSetResult(tuple(thresholds), float(np.count_nonzero(keep)) * cell,
                         points.shape[0] * cell, float(np.min(product)))


# (model, lambda_max, factor ids, center, side) on every chart
GOOD_SET_CASES = {
    "flat1": (FlatTorus(1, (TWO_PI,)), 16.0, (1, 3, 6), (0.2,), 1.0),
    "flat2": (FlatTorus(2, (TWO_PI, 3.0)), 4.0, (2, 5), (0.5, 0.5), 1.0),
    "sphere": (Sphere2(), 3.0, (6, 2, 3), (1.5, 2.0), 1.0),
    "rev-torus": (RevTorus(2.0, 1.0), 2.5, (1, 3), (2.0, 2.0), 1.0),
}


@pytest.fixture(scope="module", params=sorted(GOOD_SET_CASES))
def good_set_case(request):
    model, lambda_max, factors, center, side = GOOD_SET_CASES[request.param]
    basis = build_basis(model, lambda_max)
    return basis, ProductSpec(basis, factors), center, side


def test_good_set_equals_pointwise_evaluation(good_set_case):
    # each factor's lattice values are formed axis by axis and worked on in
    # place; thresholds, measures and the product floor equal the
    # pointwise construction's
    basis, spec, center, side = good_set_case
    assert len(set(basis.lams[list(spec.factors)].tolist())) > 1
    result = good_set_experiment(spec, center, side)
    assert result == _pointwise_good_set(basis, spec, center, side)


def test_good_set_evaluates_factors_on_axes_only(monkeypatch, good_set_case, circle_basis):
    # one axis_factor_rows call per good set carries every factor, in
    # order, on one axis's coordinates each (512 per axis in 2-d, 16384 in
    # 1-d), never the 262144 points of the lattice
    seen = []
    for basis, spec, center, side in (
            good_set_case, (circle_basis, ProductSpec(circle_basis, (1, 2, 1)), 0.0, 2.0)):
        per_axis = 512 if basis.model.chart_dim == 2 else 16384
        model_type = type(basis.model)
        original = model_type.axis_factor_rows

        def recording(self, basis, ids, axis_points, original=original):
            seen.append((list(ids), [len(points) for points in axis_points]))
            return original(self, basis, ids, axis_points)

        monkeypatch.setattr(model_type, "axis_factor_rows", recording)
        seen.clear()
        good_set_experiment(spec, center, side)
        assert seen == [(list(spec.factors), [per_axis] * basis.model.chart_dim)]
        monkeypatch.undo()


# (model, lambda_max, factor ids, center, side): budgets 16384 / 4 = 4096
# (an exact integer), 262144 / 6 and 262144 / 6
PARTITION_CASES = {
    "flat1": (FlatTorus(1, (TWO_PI,)), 4.0, (1, 2), (0.0,), 2.0),
    "flat2": (FlatTorus(2, (TWO_PI, 3.0)), 4.0, (2, 5, 1), (0.5, 0.5), 1.0),
    "sphere": (Sphere2(), 3.0, (6, 2, 3), (1.5, 2.0), 1.0),
}


@pytest.mark.parametrize("case", sorted(PARTITION_CASES))
def test_good_set_thresholds_equal_the_linear_scan(case):
    # the partition bound picks the grid a the count-per-step scan picks,
    # also on a grid whose exp(-a) straddle the values around the budget
    model, lambda_max, factors, center, side = PARTITION_CASES[case]
    basis = build_basis(model, lambda_max)
    spec = ProductSpec(basis, factors)
    axes, _cell = remez._measure_axes(center, side, None)
    total = math.prod(axis.size for axis in axes)
    budget = total / (2.0 * spec.n_factors)
    factor_values = [np.abs(model.lattice_values(basis, [i], axes)[0]) for i in factors]
    straddle = []
    for values in factor_values:
        near = np.sort(values)[int(budget) - 2:int(budget) + 3]
        a_near = -np.log(near)
        straddle.extend([*a_near, *np.nextafter(a_near, -np.inf), *np.nextafter(a_near, np.inf)])
    for grid in (default_a_grid(), np.unique(np.concatenate((default_a_grid(), straddle)))):
        scanned = tuple(next(float(a) for a in grid
                             if np.count_nonzero(values < math.exp(-float(a))) <= budget)
                        for values in factor_values)
        result = good_set_experiment(spec, center, side, a_grid=grid)
        assert result.thresholds == scanned


def _pick(choose, rows, grid, factors):
    """The thresholds ``choose`` picks, or the message it refuses with."""
    try:
        return choose(rows, grid, factors)
    except GridExhaustedError as exc:
        return str(exc)


def _straddle_grid(rows, n_factors):
    """Grid points at, and one ulp either side of, the a of the values
    around every factor's partition rank, where the pick turns."""
    cells = math.prod(axis_rows.shape[1] for axis_rows in rows)
    rank = math.floor(cells / (2.0 * n_factors))
    a_near = []
    for j in range(n_factors):
        values = np.sort(functools.reduce(np.multiply.outer, [axis_rows[j] for axis_rows in rows]),
                         axis=None)
        near = values[max(rank - 2, 0):rank + 3]
        a_near.extend(-np.log(near[near > 0.0]))
    a_near = np.array(a_near)
    return np.unique(np.concatenate((a_near, np.nextafter(a_near, -np.inf),
                                     np.nextafter(a_near, np.inf))))


def test_good_set_thresholds_equal_the_partition_pick_on_every_chart(good_set_case):
    # the sorted-row count picks what partitioning the whole lattice picks,
    # on every chart's own absolute lattice rows
    basis, spec, center, side = good_set_case
    axes, _cell = remez._measure_axes(center, side, None)
    rows = [np.abs(axis_rows) for axis_rows in
            basis.model.lattice_rows(basis, list(spec.factors), axes)]
    straddle = _straddle_grid(rows, spec.n_factors)
    for grid in (default_a_grid(), straddle, np.union1d(default_a_grid(), straddle)):
        assert remez._good_set_thresholds(rows, grid, spec.factors) == \
            good_set_thresholds_reference(rows, grid, spec.factors)


# values an absolute axis row may hold: zeros, subnormals and tiny values
# (whose quotient t / x overflows), and ordinary magnitudes
ROW_VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0]),
                       st.floats(0.0, 4.0))


@st.composite
def rank_one_lattices(draw):
    """(rows, grid) of a random good set: one to three factors on a line or
    a plane, each axis row random, drawn from a few values (runs of ties),
    constant or zero, and an ascending grid drawn from the points where the
    pick turns, below and above every value, and exp(-a) = 0."""
    dim = draw(st.sampled_from((1, 2)))
    n_factors = draw(st.integers(1, 3))
    rows = []
    for _axis in range(dim):
        size = draw(st.integers(1, 24))
        axis_rows = []
        for _factor in range(n_factors):
            kind = draw(st.sampled_from(("random", "ties", "constant", "zero")))
            if kind == "random":
                row = draw(st.lists(ROW_VALUES, min_size=size, max_size=size))
            elif kind == "ties":
                pool = draw(st.lists(ROW_VALUES, min_size=1, max_size=3))
                row = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
            else:
                row = [draw(ROW_VALUES) if kind == "constant" else 0.0] * size
            axis_rows.append(row)
        rows.append(np.array(axis_rows, dtype=float))
    points = [-2.0, 800.0, *_straddle_grid(rows, n_factors).tolist()]
    grid = draw(st.lists(st.sampled_from(points), min_size=1, max_size=10, unique=True))
    return rows, np.sort(grid)


@settings(max_examples=300, deadline=None)
@given(rank_one_lattices())
@example(([np.zeros((2, 3)), np.zeros((2, 4))], np.array([0.5, 1.0])))  # exhausted
@example(([np.zeros((1, 5))], np.array([1.0, 800.0])))  # only exp(-a) = 0 tames zeros
@example(([np.full((1, 6), 0.5)], np.array([0.75, 1.0, 2.0])))  # the first point
@example(([np.full((1, 3), 0.5), np.full((1, 4), 2.0)], np.array([-1.0, -0.5, 0.0])))  # the last
def test_good_set_thresholds_equal_the_partition_pick(lattice):
    # per-row boundaries on one sorted row, bisected over the grid, pick
    # the threshold (or refuse the grid) as partitioning the whole lattice
    # does: zero, tied and constant rows, on a line and on a plane
    rows, grid = lattice
    factors = tuple(range(rows[0].shape[0]))
    assert _pick(remez._good_set_thresholds, rows, grid, factors) == \
        _pick(good_set_thresholds_reference, rows, grid, factors)


def _lattices(center, side):
    """The sup lattice and the cell lattice remez_fit samples for (center, side)."""
    return [_cube_axes(center, side / 2.0, 257), remez._measure_axes(center, side, None)[0]]


def _open_mesh_and_points(axes):
    """The open mesh a chart function receives, the lattice shape, and the
    (n, d) lattice points in the same (ij) order."""
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    points = np.column_stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")])
    return mesh, tuple(axis.size for axis in axes), points


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.7)])
@pytest.mark.parametrize("side", [0.5, 1.0, 2.0])
def test_power_function_open_mesh_equals_pointwise(center, side):
    # Re((x + iy)^k) on the open mesh is numpy's np.real(z ** k) at the
    # (n, 2) lattice points, for every exponent the CLI uses and across
    # both ends of the real ladder (3 <= k < 100): on each lattice, on the
    # lattice with +0 and -0 put on both axes, and on one row (n, 1) and
    # one column (1, m) of it.  Bit for bit under a build of
    # EXACT_POWER_BUILDS and wherever numpy's own ** serves the degree;
    # to rounding, relative to |z|^k, on another build's real ladder.
    for axes in _lattices(center, side):
        signed = [np.concatenate(([0.0, -0.0], axis)) for axis in axes]
        for x, y in (axes, signed, (axes[0], axes[1][:1]), (axes[0][:1], axes[1])):
            mesh, shape, points = _open_mesh_and_points([x, y])
            z = np.empty(points.shape[0], dtype=complex)
            z.real, z.imag = points[:, 0], points[:, 1]
            for k in [*range(13), *range(97, 102)]:
                got = harmonic_power_function(k)(*mesh)
                assert got.shape == shape, k
                want = np.real(z ** k)
                if exact_powers_expected() or not 3 <= k < 100:
                    assert got.reshape(-1).tobytes() == want.tobytes(), k
                else:
                    assert np.all(np.abs(got.reshape(-1) - want) <= 1e-13 * np.abs(z) ** k), k


def test_line_factories_open_mesh_equal_pointwise(circle_basis):
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    base, lam = as_chart_function(circle_basis, cos2), float(circle_basis.lams[cos2])
    lift = lambda x, y: base(x) * np.exp(lam * y)
    for axes in _lattices((0.3,), 2.0):
        (x,), _shape, points = _open_mesh_and_points(axes)
        assert np.array_equal(coordinate_function()(x), points[:, 0])
    for axes in _lattices((0.3, -0.2), 1.0):
        mesh, shape, points = _open_mesh_and_points(axes)
        expected = evaluate(circle_basis, cos2, points[:, 0]) \
            * np.exp(float(circle_basis.lams[cos2]) * points[:, 1])
        assert np.array_equal(np.broadcast_to(lift(*mesh), shape).reshape(-1), expected)


# (model, lambda_max, center, side) on every chart
CHART_CASES = {
    "flat1": (FlatTorus(1, (TWO_PI,)), 4.0, (0.3,), 2.0),
    "flat2": (FlatTorus(2, (TWO_PI, 3.0)), 4.0, (0.5, 0.5), 1.0),
    "sphere": (Sphere2(), 3.0, (1.5, 2.0), 1.0),
    "rev-torus": (RevTorus(2.0, 1.0), 2.5, (2.0, 2.0), 1.0),
}


@pytest.mark.parametrize("case", sorted(CHART_CASES))
def test_mode_function_open_mesh_equals_evaluate(case):
    # a mode: function on the open mesh gives evaluate's values at the
    # lattice points, bit for bit; any other layout of the same coordinates
    # gives the same lattice
    model, lambda_max, center, side = CHART_CASES[case]
    basis = build_basis(model, lambda_max)
    for i in (0, basis.size // 2, basis.size - 1):
        fn = as_chart_function(basis, i)
        for axes in _lattices(center, side):
            mesh, shape, points = _open_mesh_and_points(axes)
            values = fn(*mesh)
            assert values.shape == shape
            expected = evaluate(basis, i, points if len(axes) > 1 else points[:, 0])
            assert np.array_equal(values.reshape(-1), expected), i
    if model.chart_dim == 2:
        x, y = np.meshgrid(*_lattices(center, side)[0], indexing="ij", sparse=True)
        for layout in ((x.T, y.T), (x.reshape(-1), y.reshape(-1)), (x, y.T)):
            assert np.array_equal(fn(*layout), fn(x, y))


# (function, center) on a line and on the plane
LATTICE_CALLS = {
    "line": (coordinate_function(), 0.3),
    "plane": (harmonic_power_function(3), (0.3, -0.2)),
}


@pytest.mark.parametrize("case", sorted(LATTICE_CALLS))
def test_functions_receive_per_axis_arrays_only(case):
    # every lattice reaches the function as row blocks that tile it once,
    # each one coordinate array per axis, axis i varying along array axis
    # i only: never as (n, d) points
    fn, center = LATTICE_CALLS[case]
    cube = remez._as_center(center)
    sup_axis = 4097 if len(cube) == 1 else 257
    measure_axes = remez._measure_axes(cube, 2.0, None)[0]
    calls = []
    recording = _recording(fn, calls)
    remez_fit(recording, center, 2.0)
    doubling_index(recording, center, 0.3)
    sublevel_measure(recording, center, 2.0, 1.0)
    _assert_row_blocks_tile(calls, [_cube_axes(cube, 1.0, sup_axis), _cube_axes(cube, 2.0, sup_axis),
                                    measure_axes, _cube_axes(cube, 0.3, 129),
                                    _cube_axes(cube, 0.6, 129), measure_axes])


def _circle_lift():
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 4.0)
    cos2 = find_mode(basis, ((2,), (COS,)))
    base, lam = as_chart_function(basis, cos2), float(basis.lams[cos2])
    return lambda x, y: base(x) * np.exp(lam * y)


def _chart_mode(case, which):
    def factory():
        model, lambda_max, _center, _side = CHART_CASES[case]
        basis = build_basis(model, lambda_max)
        return as_chart_function(basis, (1, basis.size - 1)[which])
    return factory


# (factory, center, side, cells per axis of the measure lattice, or None
# for the default): every kind of chart function the CLI offers, on every
# chart; a line takes several blocks only past BLOCK_CELLS points, so the
# 1-d cases use 65537 (blocks of 21846, 21846 and 21845 points)
BLOCKED_CASES = {
    **{f"power:{k}@{center}": (lambda k=k: harmonic_power_function(k), center, side, None)
       for k in range(9) for center, side in (((0.0, 0.0), 1.0), ((0.3, -0.7), 2.0))},
    "linear": (coordinate_function, (0.3,), 2.0, 65537),
    "harmonic-lift": (_circle_lift, (0.3, -0.2), 1.0, None),
    **{f"mode:{case}-{which}": (_chart_mode(case, which), CHART_CASES[case][2], CHART_CASES[case][3],
                                65537 if case == "flat1" else None)
       for case in sorted(CHART_CASES) for which in (0, 1)},
}


def _lattice_reports(fn, center, side, per_axis):
    """repr of every lattice result on (center, side): the Remez fit, two
    doubling indices (the 2-d one on 257-point axes, whose last row block
    is shorter than the others) and one sublevel measure."""
    doubling_axis = per_axis or 257
    return [repr(remez_fit(fn, center, side, samples_per_axis=per_axis)),
            repr(doubling_index(fn, center, side / 4.0)),
            repr(doubling_index(fn, center, side / 4.0, samples_per_axis=doubling_axis)),
            sublevel_measure(fn, center, side, 1.5, samples_per_axis=per_axis).hex()]


@pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
def test_row_blocks_change_no_bit(monkeypatch, case):
    # fits, doubling indices and measures over row blocks equal, bit for
    # bit, one evaluation of each whole lattice (BLOCK_CELLS at the
    # largest lattice's size)
    factory, center, side, per_axis = BLOCKED_CASES[case]
    fn = factory()
    calls = []
    blocked = _lattice_reports(_recording(fn, calls), center, side, per_axis)
    assert len(calls) > 8
    largest = (per_axis or 512) ** len(center)
    monkeypatch.setattr(remez, "BLOCK_CELLS", largest)
    calls.clear()
    whole = _lattice_reports(_recording(fn, calls), center, side, per_axis)
    assert len(calls) == 8  # one call per lattice
    assert blocked == whole


@pytest.mark.parametrize("row", [0, 85, 86, 171, 172, 256])
def test_sup_is_nan_when_one_block_holds_a_nan(monkeypatch, row):
    # a NaN at one point of one row block (the first and last rows of
    # each block of a 257-point axis) makes the sup NaN, as np.max over
    # the whole lattice does, whichever block it sits in; a NaN sup is
    # refused, naming it
    axes = _cube_axes((0.0, 0.0), 0.5, 257)
    nan_x, nan_y = axes[0][row], axes[1][3]
    fn = lambda x, y: np.where((x == nan_x) & (y == nan_y), np.nan, 1.0 + x * y)
    calls = []
    with pytest.raises(ParameterError, match="sup .* is nan"):
        remez._sup(_recording(fn, calls), (0.0, 0.0), 0.5, 257)
    assert len(calls) == 3
    monkeypatch.setattr(remez, "BLOCK_CELLS", 257 * 257)
    with pytest.raises(ParameterError, match="sup .* is nan"):
        remez._sup(fn, (0.0, 0.0), 0.5, 257)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0)])
def test_non_finite_sup_is_refused_before_any_measure(monkeypatch, bad, center):
    # a function that is NaN or infinite on the sup lattice is refused
    # where the sup is taken, naming the sup: remez_fit evaluates no
    # measure lattice and doubling_index returns no index
    def measure_axes(*args):
        raise AssertionError("a measure lattice was evaluated")

    monkeypatch.setattr(remez, "_measure_axes", measure_axes)
    fn = (lambda x: bad + 0.0 * x) if len(center) == 1 else (lambda x, y: bad + 0.0 * x * y)
    match = f"sampled sup .* is {bad}: it must be finite"
    with pytest.raises(ParameterError, match=match):
        remez_fit(fn, center, 1.0)
    with pytest.raises(ParameterError, match=match):
        doubling_index(fn, center, 0.25)


# remez --function power:3 --center 0,0 --side 1 from one evaluation of
# each whole lattice: the measures are cell counts times 2^-20
POWER3_DOUBLING = "0x1.0a2b23f3bab73p+1"
POWER3_MEASURES = (
    ["0x1.0000000000000p-2"] * 8
    + ["0x1.f8dc000000000p-3", "0x1.e4f4000000000p-3", "0x1.cbe8000000000p-3",
       "0x1.aa36000000000p-3", "0x1.8376000000000p-3", "0x1.5c32000000000p-3",
       "0x1.3648000000000p-3", "0x1.12a6000000000p-3", "0x1.e380000000000p-4",
       "0x1.a7d0000000000p-4", "0x1.71e8000000000p-4", "0x1.41f8000000000p-4",
       "0x1.1718000000000p-4", "0x1.e328000000000p-5", "0x1.a1a0000000000p-5",
       "0x1.67e8000000000p-5", "0x1.35b8000000000p-5", "0x1.0a08000000000p-5",
       "0x1.c900000000000p-6", "0x1.86c0000000000p-6", "0x1.4ed0000000000p-6",
       "0x1.1dd0000000000p-6", "0x1.ea20000000000p-7", "0x1.a2e0000000000p-7",
       "0x1.6440000000000p-7", "0x1.2e40000000000p-7", "0x1.00c0000000000p-7",
       "0x1.b400000000000p-8", "0x1.71c0000000000p-8", "0x1.3900000000000p-8",
       "0x1.0840000000000p-8", "0x1.c080000000000p-9", "0x1.7c80000000000p-9",
       "0x1.4480000000000p-9", "0x1.1200000000000p-9", "0x1.cf00000000000p-10",
       "0x1.8800000000000p-10", "0x1.4900000000000p-10", "0x1.1700000000000p-10",
       "0x1.d200000000000p-11"])


def test_remez_power3_report_is_pinned():
    report = remez_fit(harmonic_power_function(3), (0.0, 0.0), 1.0)
    assert report.doubling.hex() == POWER3_DOUBLING
    assert [m.hex() for m in report.measures] == POWER3_MEASURES
    assert (report.beta_hat.hex(), report.cr_hat.hex()) == \
        ("0x1.3f61ee045b330p+0", "0x1.9b881794e03c4p+0")


def test_remez_fit_peaks_below_one_lattice():
    # row blocks keep remez_fit's arrays below one 512^2 float64 lattice
    # (2 MB); one evaluation of the whole lattice peaked at 8 MB
    fn = harmonic_power_function(4)
    remez_fit(fn, (0.0, 0.0), 2.0)
    tracemalloc.start()
    try:
        remez_fit(fn, (0.0, 0.0), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 8


@pytest.mark.parametrize("k", [2, 3, 4])
def test_remez_fit_peaks_no_higher_than_complex_powers(k):
    # one block buffer per lattice, sorts in place and real arithmetic for
    # k >= 3 keep a fit at or below the 1.27 MiB that complex block powers
    # peaked at; a real ladder that kept every squaring and three spare
    # arrays reached 1.77 MiB at k = 4
    fn = harmonic_power_function(k)
    remez_fit(fn, (0.0, 0.0), 2.0)
    tracemalloc.start()
    try:
        remez_fit(fn, (0.0, 0.0), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.27 * 2 ** 20


@pytest.mark.parametrize("case", ["flat2", "sphere"])
def test_good_set_peaks_below_one_mib(case):
    # thresholds come from the axis rows alone, so only the measure pass's
    # four block buffers are lattice-sized: a 512^2 lattice buffer (2 MiB)
    # would pass the bound
    model, lambda_max, factors, center, side = GOOD_SET_CASES[case]
    basis = build_basis(model, lambda_max)
    spec = ProductSpec(basis, factors)
    good_set_experiment(spec, center, side)
    tracemalloc.start()
    try:
        good_set_experiment(spec, center, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("case", ["flat2", "sphere"])
def test_good_set_peaks_below_one_and_three_quarter_lattices(case):
    # the measure pass works on row blocks; a 512^2 float64 lattice per
    # factor would pass the bound at two factors
    model, lambda_max, factors, center, side = GOOD_SET_CASES[case]
    basis = build_basis(model, lambda_max)
    spec = ProductSpec(basis, factors)
    good_set_experiment(spec, center, side)
    tracemalloc.start()
    try:
        good_set_experiment(spec, center, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.n_factors == {"flat2": 2, "sphere": 3}[case]
    assert peak < 1.75 * 512 * 512 * 8


def test_function_values_must_broadcast_to_the_lattice():
    # a wrong-length output is refused, not counted; values that broadcast
    # (a function of one coordinate only) are taken as they are
    wrong = {1: (lambda x: np.ones(x.size + 1), 0.0),
             2: (lambda x, y: np.ones((x.size, y.size + 1)), (0.0, 0.0))}
    for fn, center in wrong.values():
        with pytest.raises(ParameterError, match="broadcast"):
            remez_fit(fn, center, 2.0)
        with pytest.raises(ParameterError, match="broadcast"):
            doubling_index(fn, center, 0.3)
        with pytest.raises(ParameterError, match="broadcast"):
            sublevel_measure(fn, center, 2.0, 1.0)
    report = doubling_index(lambda x, y: x, (0.0, 0.0), 0.3)
    assert report.index == pytest.approx(math.log(2.0), abs=1e-12)


def test_lattice_parameter_validation():
    with pytest.raises(ParameterError):
        doubling_index(coordinate_function(), 0.0, 0.1, samples_per_axis=16)
    with pytest.raises(ParameterError):
        sublevel_measure(coordinate_function(), 0.0, 2.0, 1.0, samples_per_axis=64)
    with pytest.raises(ParameterError):
        remez_fit(coordinate_function(), 0.0, 2.0, a_grid=np.array([1.0, 0.5]))
