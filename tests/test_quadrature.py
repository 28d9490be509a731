"""Quadrature kernels: hand-derived node/weight cases and exactness sweeps,
and the numerics codec's bit-for-bit shortcuts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenprod import numerics
from eigenprod.analysis import _sphere_cartesian
from eigenprod.cli import cli_main
from eigenprod.errors import ConvergenceError, GeometryError, ParameterError
from eigenprod.numerics import (
    QuadratureGrid,
    circle_basis,
    circle_columns,
    circle_product,
    circle_sums,
    circle_unit_product,
    from_exponential,
    gauss_legendre,
    real_part_powers,
    to_exponential,
    uniform_periodic,
)
from reference import exact_powers_expected

TWO_PI = 2.0 * math.pi


def test_gauss_legendre_one_point():
    grid = gauss_legendre(1)
    assert grid.nodes.tolist() == [0.0]
    assert grid.weights.tolist() == [2.0]
    assert grid.exactness_degree == 1


def test_gauss_legendre_two_point_hand_values():
    # Solving the first four moment equations by hand gives nodes at
    # +-1/sqrt(3) with unit weights.
    grid = gauss_legendre(2)
    root = 0.5773502691896257
    assert grid.nodes == pytest.approx([-root, root], abs=1e-15)
    assert grid.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_two_point_integrates_x_squared():
    grid = gauss_legendre(2)
    assert float(grid.weights @ grid.nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 257, 512])
def test_gauss_legendre_grid_invariants(n):
    grid = gauss_legendre(n)
    assert grid.weights.min() > 0.0
    assert abs(grid.weights.sum() - 2.0) <= 1e-12 * 2.0
    assert grid.nodes[0] > -1.0 and grid.nodes[-1] < 1.0
    assert np.all(np.diff(grid.nodes) > 0.0)
    # exact +- symmetry by construction
    assert np.array_equal(grid.nodes, -grid.nodes[::-1])


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_gauss_legendre_polynomial_exactness(n):
    # Independent oracle: monomial moments over [-1, 1].
    grid = gauss_legendre(n)
    for degree in range(2 * n):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        got = float(grid.weights @ grid.nodes**degree)
        assert got == pytest.approx(exact, abs=5e-14)


@given(st.integers(min_value=2, max_value=48), st.data())
@settings(max_examples=25, deadline=None)
def test_gauss_legendre_random_polynomials(n, data):
    grid = gauss_legendre(n)
    degree = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
    coeffs = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-4.0, max_value=4.0),
                min_size=degree + 1,
                max_size=degree + 1,
            )
        )
    )
    exact = sum(
        c * (2.0 / (k + 1)) for k, c in enumerate(coeffs) if k % 2 == 0
    )
    got = float(grid.weights @ np.polynomial.polynomial.polyval(grid.nodes, coeffs))
    assert got == pytest.approx(exact, abs=1e-11 * max(1.0, np.abs(coeffs).sum()))


@pytest.mark.parametrize("bad", [0, -3, 513, True])
def test_gauss_legendre_rejects_out_of_range(bad):
    gauss_legendre(1)  # a memoised rule for 1 must not serve True
    with pytest.raises(ParameterError):
        gauss_legendre(bad)


@pytest.fixture
def fresh_gauss_legendre_rules():
    """An empty rule cache before the test and after it, so that a rule
    is computed under the test's plants and none of them is kept."""
    numerics._gauss_legendre_rule.cache_clear()
    yield
    numerics._gauss_legendre_rule.cache_clear()


def drifting_pair(n, x):
    # P_n = 1 with P_n' = 1: every Newton step moves each node by -1
    return np.ones_like(x), x - (x * x - 1.0) / n


def collapsing_pair(n, x):
    # P_n = x^2 - 4 with P_n' = 2x: Newton sends every node to -2 or 2
    return x * x - 4.0, x * (x * x - 4.0) - 2.0 * x * (x * x - 1.0) / n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pair, message", [
    (drifting_pair, "Gauss-Legendre Newton iteration stalled"),
    (collapsing_pair, "Gauss-Legendre nodes failed ordering check"),
], ids=["stall", "ordering"])
def test_gauss_legendre_checks_fire_on_a_planted_legendre_pair(
        monkeypatch, tmp_path, capsys, fresh_gauss_legendre_rules, pair, message):
    monkeypatch.setattr(numerics, "_legendre_pair", pair)
    for n in (9, 10):
        with pytest.raises(ConvergenceError, match=message):
            gauss_legendre(n)
    # a sphere basis takes its Gauss-Legendre axis from the same rule
    capsys.readouterr()
    code = cli_main(["product", "--model", "sphere", "--factors", "Y1m1,Y2m0",
                     "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])
    assert code == 3
    assert capsys.readouterr().err == f"numerical breakdown: {message}\n"


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_gauss_legendre_is_memoised_and_read_only(n):
    grid = gauss_legendre(n)
    assert gauss_legendre(np.int64(n)) is grid
    fresh = numerics._gauss_legendre_rule.__wrapped__(n)
    assert fresh is not grid
    assert grid.nodes.tobytes() == fresh.nodes.tobytes()
    assert grid.weights.tobytes() == fresh.weights.tobytes()
    assert grid.exactness_degree == fresh.exactness_degree
    for arr in (grid.nodes, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_uniform_periodic_cos_squared():
    grid = uniform_periodic(4, TWO_PI)
    got = float(grid.weights @ np.cos(grid.nodes) ** 2)
    assert got == pytest.approx(math.pi, abs=1e-14)


def test_uniform_periodic_single_node():
    grid = uniform_periodic(1, 1.0)
    assert grid.nodes.tolist() == [0.0]
    assert grid.weights.tolist() == [1.0]


def test_uniform_periodic_aliasing_boundary():
    # cos(8x) on an 8-point grid aliases onto the constant: every sample is
    # cos(2 pi k) = 1, so the rule returns 2 pi, not 0.  Degree n is the
    # first degree the rule gets wrong.
    grid = uniform_periodic(8, TWO_PI)
    got = float(grid.weights @ np.cos(8.0 * grid.nodes))
    assert got == pytest.approx(TWO_PI, abs=1e-12)


@pytest.mark.parametrize("n", [3, 8, 31])
def test_uniform_periodic_trig_exactness(n):
    grid = uniform_periodic(n, TWO_PI)
    rng = np.random.default_rng(1234)
    a0 = rng.normal()
    values = np.full(grid.size, a0)
    for k in range(1, n):
        values += rng.normal() * np.cos(k * grid.nodes)
        values += rng.normal() * np.sin(k * grid.nodes)
    assert float(grid.weights @ values) == pytest.approx(TWO_PI * a0, abs=1e-12)


def test_uniform_periodic_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        uniform_periodic(0, TWO_PI)
    with pytest.raises(ParameterError):
        uniform_periodic(4, -1.0)


def test_circle_basis_gram_is_identity():
    # Products of two basis functions integrate to the Kronecker delta once
    # the grid covers their bandwidth.
    size = 9
    grid = uniform_periodic(4 * size, TWO_PI)
    basis = circle_basis(grid.nodes, size)
    gram = (basis * grid.weights[:, None]).T @ basis
    assert np.max(np.abs(gram - np.eye(size))) <= 1e-12


def test_exponential_round_trip_is_exact():
    rng = np.random.default_rng(5)
    for width in (1, 3, 9, 65):
        row = rng.standard_normal(width) * np.exp(rng.uniform(-30.0, 30.0, width))
        assert np.array_equal(from_exponential(to_exponential(row)), row)


def _unit(freq, parity):
    row = np.zeros(2 * freq + 1)
    row[circle_columns(freq, parity)] = 1.0
    return row


def test_convolved_unit_columns_are_the_product_to_sum_identities():
    # rows hold coefficients of 1, cos(ks), sin(ks): the product of two
    # unit columns is half the sum and difference columns, to the bit
    units = [(f, p) for f in range(4) for p in (0, 1) if f or p == 0]
    for fa, pa in units:
        for fb, pb in units:
            expected = np.zeros(2 * (fa + fb) + 1)
            # cos a cos b, sin a sin b, sin a cos b, cos a sin b as
            # (parity, sign of the difference term, sign of the sum term)
            parity, diff, total = {(0, 0): (0, 0.5, 0.5), (1, 1): (0, 0.5, -0.5),
                                   (1, 0): (1, 0.5, 0.5), (0, 1): (1, -0.5, 0.5)}[pa, pb]
            for freq, value in ((fa - fb, diff), (fa + fb, total)):
                if parity == 1 and freq < 0:
                    freq, value = -freq, -value
                if parity == 0 or freq:  # sin(0 s) vanishes
                    expected[circle_columns(abs(freq), parity)] += value
            product = from_exponential(np.convolve(to_exponential(_unit(fa, pa)),
                                                   to_exponential(_unit(fb, pb))))
            assert np.array_equal(product, expected), (fa, pa, fb, pb)


def test_unit_products_are_circle_products_bit_for_bit():
    # signed zeros included: a -0 coefficient would print as -0.0
    for columns in ([0], [7], [0, 0], [1, 2], [4, 4, 9], [16, 3, 0, 12], [30, 29]):
        rows = []
        for column in columns:
            row = np.zeros(column + 1 + column % 2)
            row[column] = 1.0
            rows.append(row)
        assert circle_unit_product(columns).tobytes() == circle_product(rows).tobytes(), columns


POWER_DEGREES = [*range(25), 100, 101]


def _power_inputs():
    """Complex arrays to raise: random ones, every base of both sphere
    experiments' grids (odd and even sizes), zeros, and values whose parts
    are signed zeros or units."""
    rng = np.random.default_rng(23)
    inputs = {"random": rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9)),
              "random-wide": (rng.standard_normal(64) * np.exp(rng.uniform(-3.0, 3.0, 64))
                              + 1j * rng.standard_normal(64)),
              "zeros": np.zeros((3, 4), dtype=complex)}
    for name, kmax in (("remark", 7), ("remark", 16), ("rotated", 12), ("rotated", 39)):
        sizes = (3 * kmax + 8, 6 * kmax + 8) if name == "remark" else (2 * kmax + 16, 4 * kmax + 16)
        xs, ys, zs, _weights = _sphere_cartesian(*sizes)
        inputs[f"{name}-{kmax}"] = np.stack((xs + 1j * ys, xs + 1j * zs, ys + 1j * zs))
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)
    inputs["signed-zeros"] = np.array([complex(a, b) for a in parts for b in parts])
    return inputs


@pytest.mark.parametrize("name", sorted(_power_inputs()))
def test_real_powers_are_numpys_powers_bit_for_bit(name):
    z = _power_inputs()[name]
    every = list(range(102)) if z.size < 100 else POWER_DEGREES
    for degrees in (every, every[::-1], [9, 4, 9, 3, 64, 100]):
        powers = real_part_powers(z.real.copy(), z.imag.copy(), degrees)
        for k, got in zip(degrees, powers, strict=True):
            want = np.real(z ** k)
            assert got.shape == want.shape, (name, k)
            if exact_powers_expected():
                assert got.tobytes() == want.tobytes(), (name, k)
            else:  # the same powers up to rounding, relative to |z|^k
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(z) ** k), (name, k)


@pytest.mark.parametrize("n", [1, 10, 16, 33])
def test_circle_sums_are_the_column_sums(n):
    grid = uniform_periodic(n, TWO_PI)
    values = np.random.default_rng(n).standard_normal(n)
    for width in range(1, 2 * n, 2):
        expected = circle_basis(grid.nodes, width).T @ values
        assert np.max(np.abs(circle_sums(values, width) - expected)) <= 1e-13
    for width in (0, 2, 2 * n + 1):
        with pytest.raises(ParameterError):
            circle_sums(values, width)


def test_quadrature_grid_is_one_dimensional():
    with pytest.raises(ParameterError):
        QuadratureGrid(np.zeros((2, 2)), np.ones(2), 1, 2.0)


def test_quadrature_grid_rejects_nonpositive_weights():
    with pytest.raises(GeometryError):
        QuadratureGrid(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1, 1.0)


def test_quadrature_grid_rejects_volume_mismatch():
    with pytest.raises(GeometryError):
        QuadratureGrid(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1, 3.0)
