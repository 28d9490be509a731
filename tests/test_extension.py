"""Flat-torus harmonic extension, Green recovery, Cauchy-style bound."""

import dataclasses
import math

import numpy as np
import pytest

from eigenprod.coefficients import CoefficientSeries, ProductSpec, expand_product
from eigenprod.errors import BreakdownError, ParameterError
from eigenprod.extension import (
    HarmonicExtension,
    cauchy_estimate_check,
    compute_extension_params,
    greens_coefficient,
    harmonic_extension_flat,
)
from eigenprod.manifolds import COS, FlatTorus, RevTorus, build_basis

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def circle_basis():
    return build_basis(FlatTorus(1, (TWO_PI,)), 8.0)


def find_mode(basis, rep):
    return next(m for m in basis.modes if m.rep == rep)


def test_extension_params_dim1():
    # direct evaluation with flat coefficients: delta0 = 2 (4e)^2 = 32 e^2
    params = compute_extension_params(FlatTorus(1, (TWO_PI,)))
    assert params.R1 == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert params.R2 == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert params.R3 == pytest.approx(math.pi / 16.0, rel=1e-15)
    assert params.delta0 == pytest.approx(32.0 * math.e**2, rel=1e-12)
    assert params.delta == pytest.approx(1.0 / math.sqrt(32.0 * math.e**2), rel=1e-12)
    assert params.T == pytest.approx(math.pi / 16.0 * params.delta / 2.0, rel=1e-12)
    # printed reference values
    assert params.delta == pytest.approx(0.0650324, abs=5e-7)
    assert params.T == pytest.approx(0.0063846, abs=5e-7)


def test_extension_params_dim2():
    params = compute_extension_params(FlatTorus(2, (TWO_PI, TWO_PI)))
    assert params.delta0 == pytest.approx(256.0 * math.e**2, rel=1e-12)
    assert params.delta == pytest.approx(0.0229926, abs=5e-7)
    assert params.coeff_sup == 2.0
    assert params.C8 == pytest.approx(1.0 / (32.0 * math.e**2) + 1.0, rel=1e-14)


def test_extension_params_r2_override():
    params = compute_extension_params(FlatTorus(1, (TWO_PI,)), r2_override=0.5)
    assert params.R3 == pytest.approx(0.125, rel=1e-15)
    assert params.delta0 == pytest.approx(32.0 * math.e**2, rel=1e-12)
    assert params.T == pytest.approx(0.125 * params.delta / 2.0, rel=1e-14)


def test_extension_params_identities():
    for model in (FlatTorus(1, (TWO_PI,)), FlatTorus(2, (1.0, 3.0))):
        params = compute_extension_params(model)
        assert params.delta**2 * params.delta0 == pytest.approx(1.0, rel=1e-15)
        assert params.T == params.R3 * params.delta / 2.0
        assert params.R3 == params.R2 / 4.0


def test_extension_params_rejects_curved_model():
    with pytest.raises(ParameterError):
        compute_extension_params(RevTorus(2.0, 1.0))


def test_constant_product_extends_constantly(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (0,)))
    ext = harmonic_extension_flat(series, 0.01)
    xs = np.linspace(0.0, TWO_PI, 7)
    for t in (0.0, 0.005, 0.01):
        assert ext.value(xs, t) == pytest.approx(
            [1.0 / math.sqrt(TWO_PI)] * 7, abs=1e-15)


def test_cos_mode_extension_residual(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1,)))  # cos x mode
    ext = harmonic_extension_flat(series, 0.05)
    xs = np.linspace(0.0, TWO_PI, 33)
    t = 0.03
    expected = np.cos(xs) / math.sqrt(math.pi) * math.cosh(t)
    assert ext.value(xs, t) == pytest.approx(expected, abs=1e-14)
    residual = ext.laplacian_x(xs, t) - ext.dtt_value(xs, t)
    assert np.max(np.abs(residual)) <= 1e-12


def test_extension_residual_check_catches_a_wrong_lambda(circle_basis):
    # the Laplacian comes from the frequency vectors, d^2/dt^2 from the
    # series' lambdas: a planted wrong lambda must fail the check
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2.id, cos3.id)))
    harmonic_extension_flat(series, 0.05)
    lams = series.lams.copy()
    cos5 = int(np.flatnonzero(series.ids == find_mode(circle_basis, ((5,), (COS,))).id)[0])
    lams[cos5] = 5.0 * (1.0 - 1e-3)  # stays sorted: below sin5, above sin4
    planted = dataclasses.replace(series, lams=lams)
    with pytest.raises(BreakdownError):
        harmonic_extension_flat(planted, 0.05)


@pytest.mark.parametrize("dim", [1, 2])
def test_extension_check_builds_each_mode_matrix_once(monkeypatch, dim):
    # one matrix for the 100 residual points, reused at all 100 heights,
    # and one for the boundary lattice, reused for its three values
    basis = build_basis(FlatTorus(dim, (TWO_PI,) * dim), 4.0)
    series = expand_product(ProductSpec(basis, (1, 2)))
    built = []
    original = HarmonicExtension._mode_matrix

    def counted(self, points):
        built.append(len(points))
        return original(self, points)

    monkeypatch.setattr(HarmonicExtension, "_mode_matrix", counted)
    harmonic_extension_flat(series, 0.05)
    assert built == [100, 512]


def test_product_extension_sup_bound(circle_basis):
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2.id, cos3.id)))
    params = compute_extension_params(circle_basis.model)
    ext = harmonic_extension_flat(series, params.T)
    # H = (cos x cosh t + cos 5x cosh 5t) / (2 pi): the sup over the slab
    height = params.T
    expected_sup = (math.cosh(height) + math.cosh(5.0 * height)) / TWO_PI
    assert ext.sup_bound() == pytest.approx(expected_sup, rel=1e-12)
    xs = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    sampled = max(float(np.max(np.abs(ext.value(xs, t))))
                  for t in (-height, 0.0, height))
    assert sampled <= ext.sup_bound() * (1.0 + 1e-12)
    assert sampled == pytest.approx(expected_sup, rel=1e-6)


def test_greens_recovers_cos5_coefficient(circle_basis):
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    cos5 = find_mode(circle_basis, ((5,), (COS,)))
    cos4 = find_mode(circle_basis, ((4,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2.id, cos3.id)))
    ext = harmonic_extension_flat(series, 0.0064)
    expected = 1.0 / (2.0 * math.sqrt(math.pi))
    got = greens_coefficient(ext, cos5.id, 0.006)
    assert got == pytest.approx(expected, abs=1e-10)
    assert greens_coefficient(ext, cos4.id, 0.006) == pytest.approx(0.0, abs=1e-12)
    # the identity is exact in the height, so two heights must agree
    low = greens_coefficient(ext, cos5.id, 0.003)
    assert low == pytest.approx(got, rel=1e-10)


def test_greens_reconstruction_exhaustive_pairs():
    # pairs with frequencies <= 8 need a basis reaching the frequency sum 16
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 16.0)
    params = compute_extension_params(basis.model)
    cos_sin = [m for m in basis.modes if 1 <= m.rep[0][0] <= 8]
    worst = 0.0
    for i in range(0, len(cos_sin), 3):
        for j in range(i, len(cos_sin), 3):
            spec = ProductSpec(basis, (cos_sin[i].id, cos_sin[j].id))
            series = expand_product(spec)
            ext = harmonic_extension_flat(series, params.T)
            for mode in basis.modes:
                if mode.lam <= 0.0:
                    continue
                err = abs(greens_coefficient(ext, mode.id, params.T)
                          - series.coeffs[mode.id])
                worst = max(worst, err / max(1.0, abs(series.coeffs[mode.id])))
    assert worst <= 1e-8


def test_greens_rejects_constant_mode(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1, 2)))
    ext = harmonic_extension_flat(series, 0.01)
    with pytest.raises(ParameterError):
        greens_coefficient(ext, 0, 0.005)
    with pytest.raises(ParameterError):
        greens_coefficient(ext, 1, 0.02)  # above the slab


def test_greens_reconstruction_2d():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 4.0)
    a = next(m for m in basis.modes if m.rep == ((1, 0), (COS, COS)))
    b = next(m for m in basis.modes if m.rep == ((0, 2), (COS, COS)))
    series = expand_product(ProductSpec(basis, (a.id, b.id)))
    params = compute_extension_params(basis.model)
    ext = harmonic_extension_flat(series, params.T)
    for mode in basis.modes:
        if mode.lam <= 0.0:
            continue
        expected = series.coeffs[mode.id]
        got = greens_coefficient(ext, mode.id, params.T)
        assert got == pytest.approx(expected, abs=1e-8 * max(1.0, abs(expected)))


def test_extension_requires_exact_series(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1, 2)))
    quad_only = CoefficientSeries(series.product, series.ids, series.lams,
                                  series.coeffs, series.f_norm_sq, "quadrature")
    with pytest.raises(ParameterError):
        harmonic_extension_flat(quad_only, 0.01)


def test_cauchy_check_constant(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (0, 0)))
    ext = harmonic_extension_flat(series, 0.01)
    report = cauchy_estimate_check(ext, 0.05, 0.2)
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert report.ok


def test_cauchy_check_cosine_closed_form(circle_basis):
    # H = cos(x) cosh(t) / sqrt(pi): both sides of the bound close-form to
    # sinh(R delta / 2) and (2/(delta R)) cosh(R delta), up to the common
    # mode normalization
    cos1 = find_mode(circle_basis, ((1,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos1.id,)))
    ext = harmonic_extension_flat(series, 0.01)
    radius, delta = math.pi / 16.0, 0.065
    report = cauchy_estimate_check(ext, radius, delta)
    scale = 1.0 / math.sqrt(math.pi)
    assert report.lhs == pytest.approx(
        scale * math.sinh(radius * delta / 2.0), rel=1e-12)
    assert report.rhs == pytest.approx(
        scale * 2.0 / (delta * radius) * math.cosh(radius * delta), rel=1e-12)
    assert report.ok


def test_cauchy_check_product_extension(circle_basis):
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2.id, cos3.id)))
    params = compute_extension_params(circle_basis.model)
    ext = harmonic_extension_flat(series, params.T)
    report = cauchy_estimate_check(ext, params.R3, params.delta)
    assert report.ok
    assert report.lhs < report.rhs


def test_cauchy_check_domain_guard(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1, 2)))
    ext = harmonic_extension_flat(series, 0.001)
    with pytest.raises(ParameterError):
        cauchy_estimate_check(ext, 1.0, 1.0)
