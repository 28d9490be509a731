"""Doubling indices, sublevel measures, Remez-type fits, good sets."""

import math

import numpy as np
import pytest

from eigenprod import remez
from eigenprod.coefficients import ProductSpec
from eigenprod.errors import BreakdownError, GridExhaustedError, ParameterError
from eigenprod.manifolds import COS, SIN, FlatTorus, as_chart_function, build_basis
from eigenprod.remez import (
    coordinate_function,
    default_a_grid,
    doubling_index,
    good_set_experiment,
    harmonic_lift,
    harmonic_power_function,
    remez_bound_values,
    remez_fit,
    sublevel_measure,
)

TWO_PI = 2.0 * math.pi


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


def test_doubling_additivity_for_homogeneous_products():
    u = harmonic_power_function(2)
    v = harmonic_power_function(3)
    product = lambda pts: u(pts) * v(pts)
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
    mode = next(m for m in basis.modes if m.rep == ((1, 2), (COS, SIN)))
    return as_chart_function(basis.model, mode)


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
    sup_q = float(np.max(remez._eval(fn, remez._sup_lattice(cube, side / 2.0, sup_axis))))
    normalized = lambda pts: np.asarray(fn(pts)) / sup_q
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


def test_remez_fit_evaluates_three_lattices():
    # two sup lattices and one measure lattice, whatever the grid length
    fn = harmonic_power_function(4)
    sizes = []

    def counted(points):
        sizes.append(len(points))
        return fn(points)

    remez_fit(counted, (0.0, 0.0), 2.0)
    assert sizes == [257 * 257, 257 * 257, 512 * 512]


@pytest.fixture(scope="module")
def circle_basis():
    return build_basis(FlatTorus(1, (TWO_PI,)), 4.0)


def test_good_set_constant_mode(circle_basis):
    # the constant mode has value 1/sqrt(2 pi) ~ 0.399: its sublevel set is
    # empty exactly from the first grid threshold below that value
    spec = ProductSpec(circle_basis, (0,))
    result = good_set_experiment(circle_basis, spec, 0.0, 2.0)
    const_value = 1.0 / math.sqrt(TWO_PI)
    expected = next(float(a) for a in default_a_grid()
                    if math.exp(-float(a)) <= const_value)
    assert result.thresholds == (expected,)
    assert result.measure_e == pytest.approx(result.measure_half_cube, rel=1e-12)


def test_good_set_two_cosines(circle_basis):
    cos1 = next(m for m in circle_basis.modes if m.rep == ((1,), (COS,)))
    cos2 = next(m for m in circle_basis.modes if m.rep == ((2,), (COS,)))
    spec = ProductSpec(circle_basis, (cos1.id, cos2.id))
    result = good_set_experiment(circle_basis, spec, 0.0, 2.0)
    assert result.measure_e >= 0.5 * result.measure_half_cube
    assert result.min_product_bound >= math.exp(-sum(result.thresholds))
    # thresholds agree with a dense brute-force scan to one grid step
    grid = default_a_grid()
    dense = np.linspace(-0.5 + 1e-9, 0.5 - 1e-9, 100_001)
    for mode, got in zip((cos1, cos2), result.thresholds):
        values = np.abs(as_chart_function(circle_basis.model, mode)(dense))
        budget = dense.size / 4.0  # 1/(2n) with n = 2
        brute = next(float(a) for a in grid
                     if np.count_nonzero(values < math.exp(-float(a))) <= budget)
        assert abs(got - brute) <= 0.25 + 1e-12


def test_good_set_lower_bound_chain(circle_basis):
    # ||prod phi||_{L2(E)} >= mu(E)^{1/2} prod exp(-a_j): the mechanism
    # behind the norm lower bound, verified by direct lattice sums
    cos1 = next(m for m in circle_basis.modes if m.rep == ((1,), (COS,)))
    cos2 = next(m for m in circle_basis.modes if m.rep == ((2,), (COS,)))
    spec = ProductSpec(circle_basis, (cos1.id, cos2.id))
    per_axis = 16384
    result = good_set_experiment(circle_basis, spec, 0.0, 2.0,
                                 samples_per_axis=per_axis)
    centers = -0.5 + (np.arange(per_axis) + 0.5) / per_axis
    product = np.ones(per_axis)
    for mode in (cos1, cos2):
        product *= as_chart_function(circle_basis.model, mode)(centers)
    keep = np.ones(per_axis, dtype=bool)
    for mode, a in zip((cos1, cos2), result.thresholds):
        values = np.abs(as_chart_function(circle_basis.model, mode)(centers))
        keep &= values >= math.exp(-a)
    cell = 1.0 / per_axis
    norm_on_e = math.sqrt(float(np.sum(product[keep] ** 2)) * cell)
    floor = math.sqrt(result.measure_e) * math.exp(-sum(result.thresholds))
    assert norm_on_e >= floor * (1.0 - 1e-12)


def test_good_set_grid_exhaustion(circle_basis):
    spec = ProductSpec(circle_basis, (1, 2))
    with pytest.raises(GridExhaustedError):
        # thresholds capped far too low for any sublevel set to shrink
        good_set_experiment(circle_basis, spec, 0.0, 2.0,
                            a_grid=np.array([1e-6, 2e-6, 3e-6, 4e-6, 5e-6]))


def test_harmonic_lift_factory(circle_basis):
    cos2 = next(m for m in circle_basis.modes if m.rep == ((2,), (COS,)))
    lift = harmonic_lift(circle_basis.model, cos2)
    pts = np.array([[0.3, 0.1], [1.0, -0.2]])
    expected = (np.cos(2.0 * pts[:, 0]) / math.sqrt(math.pi)
                * np.exp(cos2.lam * pts[:, 1]))
    assert lift(pts) == pytest.approx(expected, rel=1e-14)
    report = doubling_index(lift, (0.0, 0.0), 0.2)
    assert report.index >= 0.0


def test_lattice_parameter_validation():
    with pytest.raises(ParameterError):
        doubling_index(coordinate_function(), 0.0, 0.1, samples_per_axis=16)
    with pytest.raises(ParameterError):
        sublevel_measure(coordinate_function(), 0.0, 2.0, 1.0, samples_per_axis=64)
    with pytest.raises(ParameterError):
        remez_fit(coordinate_function(), 0.0, 2.0, a_grid=np.array([1.0, 0.5]))
