"""Flat-torus harmonic extension, Green recovery, Cauchy-style bound."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eigenprod.coefficients import (
    ProductSpec,
    expand_product,
    quadrature_coefficients,
)
from eigenprod.errors import BreakdownError, ParameterError
from eigenprod.extension import (
    cauchy_estimate_check,
    compute_extension_params,
    greens_coefficients,
    harmonic_extension_flat,
)
from eigenprod.manifolds import COS, SIN, FlatTorus, RevTorus, build_basis
from reference import find_mode

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def circle_basis():
    return build_basis(FlatTorus(1, (TWO_PI,)), 8.0)


def recovered_by_id(ext, height) -> dict:
    """:func:`greens_coefficients` as {mode id: recovered value}."""
    ids, values = greens_coefficients(ext, height)
    return dict(zip(ids.tolist(), values.tolist()))


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
        assert ext.value(t, ext.on_lattice([xs])) == pytest.approx(
            [1.0 / math.sqrt(TWO_PI)] * 7, abs=1e-15)


def test_cos_mode_extension_residual(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1,)))  # cos x mode
    ext = harmonic_extension_flat(series, 0.05)
    xs = np.linspace(0.0, TWO_PI, 33)
    t = 0.03
    expected = np.cos(xs) / math.sqrt(math.pi) * math.cosh(t)
    assert ext.value(t, ext.on_lattice([xs])) == pytest.approx(expected, abs=1e-14)
    # the term-by-term bound on the residual over the whole slab, with the
    # mode's sup 1 / sqrt(pi) in closed form
    assert ext.sups == pytest.approx([1.0 / math.sqrt(math.pi)], rel=1e-15)
    bound = float(np.sum(np.abs(ext.coeffs) * np.abs(ext.laplacian_eigs - ext.lams**2)
                         * ext.sups * np.cosh(ext.lams * ext.T)))
    assert bound <= 1e-12


def test_extension_residual_check_catches_a_wrong_lambda(circle_basis):
    # the Laplacian comes from the frequency vectors, d^2/dt^2 from the
    # series' lambdas: a planted wrong lambda must fail the check
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2, cos3)))
    harmonic_extension_flat(series, 0.05)
    lams = circle_basis.lams.copy()
    lams[find_mode(circle_basis, ((5,), (COS,)))] = 5.0 * (1.0 - 1e-3)  # below sin5, above sin4
    wrong = dataclasses.replace(circle_basis, lams=lams)
    planted = dataclasses.replace(series, product=ProductSpec(wrong, series.product.factors))
    with pytest.raises(BreakdownError):
        harmonic_extension_flat(planted, 0.05)


@pytest.mark.parametrize("dim", [1, 2])
def test_extension_check_builds_each_mode_matrix_once(monkeypatch, dim):
    # the residual bound evaluates no mode; the t = 0 check puts the kept
    # modes and the factors on the basis's quadrature nodes, one
    # lattice_values call each
    basis = build_basis(FlatTorus(dim, (TWO_PI,) * dim), 4.0)
    series = expand_product(ProductSpec(basis, (1, 2)))
    built = []
    original = FlatTorus.lattice_values

    def counted(self, basis, ids, coords):
        built.append((len(ids), tuple(len(c) for c in coords)))
        return original(self, basis, ids, coords)

    monkeypatch.setattr(FlatTorus, "lattice_values", counted)
    ext = harmonic_extension_flat(series, 0.05)
    lattice = tuple(basis.axis_sizes())
    assert built == [(2, lattice), (len(ext.mode_ids), lattice)]


# (dim, lambda_max, factors, planted mode): the last case, s9c0 * c7c0 on
# (2 pi, 2 pi), is a combination of sin 2x and sin 16x, and sin 16x
# vanishes on a 32 x 32 lattice but not on the basis's quadrature nodes
PLANTED_CASES = {
    "1": (1, 4.0, [((1,), (COS,)), ((2,), (COS,))], ((3,), (COS,))),
    "2": (2, 4.0, [((0, 1), (COS, COS)), ((1, 0), (COS, COS))], ((1, 1), (COS, COS))),
    "sin16": (2, 16.0, [((9, 0), (SIN, COS)), ((7, 0), (COS, COS))], ((16, 0), (SIN, COS))),
}


@pytest.mark.parametrize("case", list(PLANTED_CASES))
def test_boundary_check_catches_a_planted_coefficient(case):
    # H(., 0) = f on the boundary lattice holds for the exact series and
    # fails when its top coefficient is off by a relative 1e-6
    dim, lambda_max, factors, planted = PLANTED_CASES[case]
    basis = build_basis(FlatTorus(dim, (TWO_PI,) * dim), lambda_max)
    series = expand_product(ProductSpec(basis, tuple(find_mode(basis, r) for r in factors)))
    harmonic_extension_flat(series, 0.005)
    top = find_mode(basis, planted)
    assert np.flatnonzero(series.coeffs)[-1] == top
    coeffs = series.coeffs.copy()
    coeffs[top] *= 1.0 - 1e-6
    with pytest.raises(BreakdownError, match="does not reproduce the product at t=0"):
        harmonic_extension_flat(dataclasses.replace(series, coeffs=coeffs), 0.005)


def test_product_extension_sup_bound(circle_basis):
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2, cos3)))
    params = compute_extension_params(circle_basis.model)
    ext = harmonic_extension_flat(series, params.T)
    # H = (cos x cosh t + cos 5x cosh 5t) / (2 pi): the sup over the slab
    height = params.T
    expected_sup = (math.cosh(height) + math.cosh(5.0 * height)) / TWO_PI
    assert ext.sup_bound() == pytest.approx(expected_sup, rel=1e-12)
    xs = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    sampled = max(float(np.max(np.abs(ext.value(t, ext.on_lattice([xs])))))
                  for t in (-height, 0.0, height))
    assert sampled <= ext.sup_bound() * (1.0 + 1e-12)
    assert sampled == pytest.approx(expected_sup, rel=1e-6)


def test_greens_recovers_cos5_coefficient(circle_basis):
    cos2 = find_mode(circle_basis, ((2,), (COS,)))
    cos3 = find_mode(circle_basis, ((3,), (COS,)))
    cos5 = find_mode(circle_basis, ((5,), (COS,)))
    cos4 = find_mode(circle_basis, ((4,), (COS,)))
    series = expand_product(ProductSpec(circle_basis, (cos2, cos3)))
    ext = harmonic_extension_flat(series, 0.0064)
    expected = 1.0 / (2.0 * math.sqrt(math.pi))
    got = recovered_by_id(ext, 0.006)
    assert got[cos5] == pytest.approx(expected, abs=1e-10)
    assert got[cos4] == pytest.approx(0.0, abs=1e-12)
    # the identity is exact in the height, so two heights must agree
    low = recovered_by_id(ext, 0.003)
    assert low[cos5] == pytest.approx(got[cos5], rel=1e-10)


def test_greens_reconstruction_exhaustive_pairs():
    # pairs with frequencies <= 8 need a basis reaching the frequency sum 16
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 16.0)
    params = compute_extension_params(basis.model)
    freqs = basis.reps["freqs"][:, 0]
    cos_sin = np.flatnonzero((freqs >= 1) & (freqs <= 8)).tolist()
    worst = 0.0
    for i in range(0, len(cos_sin), 3):
        for j in range(i, len(cos_sin), 3):
            spec = ProductSpec(basis, (cos_sin[i], cos_sin[j]))
            series = expand_product(spec)
            ext = harmonic_extension_flat(series, params.T)
            recovered = recovered_by_id(ext, params.T)
            assert sorted(recovered) == np.flatnonzero(basis.lams > 0.0).tolist()
            for mode, c in recovered.items():
                err = abs(c - series.coeffs[mode])
                worst = max(worst, err / max(1.0, abs(series.coeffs[mode])))
    assert worst <= 1e-8


def test_greens_rejects_constant_mode(circle_basis):
    # the boundary identity divides by lambda: the constant mode is left
    # out, a basis of the constant alone is refused, and so is a height
    # outside (0, T]
    series = expand_product(ProductSpec(circle_basis, (1, 2)))
    ext = harmonic_extension_flat(series, 0.01)
    assert greens_coefficients(ext, 0.005)[0].tolist() == list(range(1, circle_basis.size))
    for height in (0.02, 0.0):  # above the slab, and t = 0
        with pytest.raises(ParameterError):
            greens_coefficients(ext, height)
    constant = build_basis(circle_basis.model, 0.0)
    ext = harmonic_extension_flat(expand_product(ProductSpec(constant, (0,))), 0.01)
    with pytest.raises(ParameterError, match="no mode with lambda > 0"):
        greens_coefficients(ext, 0.005)


def test_greens_reconstruction_2d():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 4.0)
    a = find_mode(basis, ((1, 0), (COS, COS)))
    b = find_mode(basis, ((0, 2), (COS, COS)))
    series = expand_product(ProductSpec(basis, (a, b)))
    params = compute_extension_params(basis.model)
    ext = harmonic_extension_flat(series, params.T)
    recovered = recovered_by_id(ext, params.T)
    assert sorted(recovered) == np.flatnonzero(basis.lams > 0.0).tolist()
    for mode, got in recovered.items():
        expected = series.coeffs[mode]
        assert got == pytest.approx(expected, abs=1e-8 * max(1.0, abs(expected)))


@pytest.mark.parametrize("dim", [1, 2])
def test_greens_coefficients_equal_the_single_mode_recovery(monkeypatch, dim):
    # every mode of positive lambda, bit for bit, against a recovery that
    # sums each mode's integrals of H and dH/dt itself, kept mode by kept
    # mode, from their quadrature_coefficients; greens puts no mode on a
    # lattice
    basis = build_basis(FlatTorus(dim, (TWO_PI,) * dim), 4.0)
    ext = harmonic_extension_flat(expand_product(ProductSpec(basis, (1, 3))), 0.005)
    positive = np.flatnonzero(basis.lams > 0.0)
    t = 0.004
    decay = np.exp(-t * basis.lams[positive])
    projections = {j: quadrature_coefficients(ProductSpec(basis, (j,)))[0]
                   for j in ext.mode_ids.tolist()}
    # apart from greens: each one-mode projection is the unit vector e_j,
    # the basis being orthonormal on its grid
    for j, row in projections.items():
        np.testing.assert_allclose(row, np.eye(basis.size)[j], rtol=0.0, atol=1e-14)

    def recovered(k):
        mode = int(positive[k])
        value = slope = 0.0
        for j, lam, c in zip(ext.mode_ids.tolist(), ext.lams.tolist(), ext.coeffs.tolist()):
            value += c * math.cosh(lam * t) * float(projections[j][mode])
            slope += c * lam * math.sinh(lam * t) * float(projections[j][mode])
        lam = float(basis.lams[mode])
        return float(decay[k] / lam * (slope + lam * value))

    single = {int(i): recovered(k) for k, i in enumerate(positive)}

    def refused(*_args):
        raise AssertionError("greens_coefficients put modes on a lattice")

    monkeypatch.setattr(FlatTorus, "lattice_values", refused)
    assert recovered_by_id(ext, t) == single
    with pytest.raises(ParameterError):
        greens_coefficients(ext, 0.006)  # above the slab


def test_greens_coefficients_form_no_grid_array():
    # on the flat 2-torus at lambda 12 (441 modes, a 96 x 96 grid) an
    # array of every mode on the grid would take 32 MB
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 12.0)
    params = compute_extension_params(basis.model)
    ext = harmonic_extension_flat(expand_product(ProductSpec(basis, (1, 3))), params.T)
    tracemalloc.start()
    try:
        greens_coefficients(ext, params.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
    series = expand_product(ProductSpec(circle_basis, (cos1,)))
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
    series = expand_product(ProductSpec(circle_basis, (cos2, cos3)))
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
