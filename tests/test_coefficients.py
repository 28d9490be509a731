"""Wigner/Gaunt oracles and product expansion."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenprod import coefficients, manifolds, numerics
from eigenprod.cli import cli_main
from eigenprod.coefficients import (
    CoefficientSeries,
    ProductSpec,
    expand_product,
    parseval_report,
    quadrature_coefficients,
    series_to_csv,
)
from eigenprod.errors import BreakdownError, ParameterError, UnderResolvedError
from eigenprod.manifolds import (
    COS,
    SIN,
    FlatTorus,
    RevTorus,
    Sphere2,
    build_basis,
)
from eigenprod.numerics import gaunt_real, wigner_3j
from reference import find_mode, grid_weights, torus_support_lambda

TWO_PI = 2.0 * math.pi


def racah_3j(j1, j2, j3, m1, m2, m3):
    """Independent exact-rational oracle (single-sum Racah formula)."""
    if m1 + m2 + m3 != 0 or j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    fact = math.factorial
    delta = Fraction(
        fact(j1 + j2 - j3) * fact(j1 - j2 + j3) * fact(-j1 + j2 + j3),
        fact(j1 + j2 + j3 + 1),
    )
    radicand = delta * Fraction(
        fact(j1 + m1) * fact(j1 - m1) * fact(j2 + m2)
        * fact(j2 - m2) * fact(j3 + m3) * fact(j3 - m3)
    )
    total = Fraction(0)
    for k in range(0, j1 + j2 + j3 + 1):
        denominator_terms = (
            k,
            j1 + j2 - j3 - k,
            j1 - m1 - k,
            j2 + m2 - k,
            j3 - j2 + m1 + k,
            j3 - j1 - m2 + k,
        )
        if any(t < 0 for t in denominator_terms):
            continue
        den = 1
        for t in denominator_terms:
            den *= fact(t)
        total += Fraction((-1) ** k, den)
    phase = (-1) ** (j1 - j2 - m3)
    return phase * math.sqrt(float(radicand)) * float(total)


def test_3j_hand_value():
    # Racah single-sum by hand: (1 1 0; 0 0 0) = -1/sqrt(3)
    assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(
        -0.5773502691896258, abs=1e-14)


def test_3j_selection_rules():
    assert wigner_3j(3, 2, 2, 1, 0, 0) == 0.0  # m-sum rule
    assert wigner_3j(5, 3, 1, 0, 0, 0) == 0.0  # triangle rule
    assert wigner_3j(5, 3, 3, 0, 0, 0) == 0.0  # parity rule (odd total)


def test_3j_validation():
    with pytest.raises(ParameterError):
        wigner_3j(1, 1, -1, 0, 0, 0)
    with pytest.raises(ParameterError):
        wigner_3j(1, 1, 2, 2, 0, -2)


def test_3j_against_rational_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 250:
        j1 = int(rng.integers(0, 11))
        j2 = int(rng.integers(0, 11))
        j3 = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
        m1 = int(rng.integers(-j1, j1 + 1))
        m2 = int(rng.integers(-j2, j2 + 1))
        m3 = -(m1 + m2)
        if abs(m3) > j3:
            continue
        expected = racah_3j(j1, j2, j3, m1, m2, m3)
        assert wigner_3j(j1, j2, j3, m1, m2, m3) == pytest.approx(
            expected, abs=1e-12), (j1, j2, j3, m1, m2, m3)
        checked += 1


def test_3j_orthogonality_sums():
    # sum over l3 of (2 l3 + 1) (3j)^2 = 1 for every l1, l2 <= 8
    for l1 in range(0, 9):
        for l2 in range(0, 9):
            for m1 in range(-l1, l1 + 1):
                for m2 in range(-l2, l2 + 1):
                    total = sum(
                        (2 * l3 + 1) * wigner_3j(l1, l2, l3, m1, m2, -(m1 + m2)) ** 2
                        for l3 in range(abs(l1 - l2), l1 + l2 + 1)
                        if abs(m1 + m2) <= l3
                    )
                    assert total == pytest.approx(1.0, abs=1e-10), (l1, l2, m1, m2)


def test_3j_survives_large_degrees():
    # no overflow at degrees around 64, and normalization still holds
    total = sum(
        (2 * l3 + 1) * wigner_3j(64, 60, l3, 12, -30, 18) ** 2
        for l3 in range(18, 125)
    )
    assert total == pytest.approx(1.0, rel=1e-9)



def test_3j_overlap_check_fires_on_a_planted_recursion(monkeypatch, tmp_path, capsys):
    # with B = 0 the upward pass lives on even offsets from j3_min and the
    # downward one on even offsets from j3_max: on an even range, such as
    # j3 = 1, 2 of (1 1 j3; 1 0 -1), the two passes never overlap.  The
    # memo is emptied before and after, so no planted value is served
    monkeypatch.setattr(numerics, "_jacobi_b", lambda *_args: 0.0)
    numerics._three_j_range.cache_clear()
    try:
        with pytest.raises(BreakdownError, match="3j recursion lost all overlap"):
            wigner_3j(1, 1, 2, 1, 0, -1)
        # the sphere oracle of Y1m1 Y1m0 folds exactly these symbols
        capsys.readouterr()
        code = cli_main(["product", "--model", "sphere", "--factors", "Y1m1,Y1m0",
                         "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])
        assert code == 3
        assert capsys.readouterr().err == \
            "numerical breakdown: 3j recursion lost all overlap between passes\n"
    finally:
        numerics._three_j_range.cache_clear()

def test_gaunt_constant_factor():
    for l in range(0, 7):
        for m in (-l, 0, l):
            assert gaunt_real(0, 0, l, m, l, m) == pytest.approx(
                1.0 / math.sqrt(4.0 * math.pi), abs=1e-13)


def test_gaunt_band_limit():
    for l1 in range(0, 7):
        for l2 in range(0, 7):
            for l3 in range(l1 + l2 + 1, l1 + l2 + 4):
                assert gaunt_real(l1, 0, l2, 0, l3, 0) == 0.0


def test_gaunt_hand_legendre_integral():
    # int_{-1}^{1} x * x * (3x^2 - 1)/2 dx = 4/15 with harmonic
    # normalizations gives 1/sqrt(5 pi)
    assert gaunt_real(1, 0, 1, 0, 2, 0) == pytest.approx(
        0.25231325220201604, abs=1e-13)
    # sine-type cross-check derived by the same route
    assert gaunt_real(1, -1, 1, -1, 2, 0) == pytest.approx(
        -0.12615662610100802, abs=1e-13)


@pytest.fixture(scope="module")
def sphere_basis():
    return build_basis(Sphere2(), math.sqrt(20.0 * 21.0) + 1e-9)  # l <= 20


def test_gaunt_matches_quadrature_to_l20(sphere_basis, grid_values):
    basis = sphere_basis
    w = grid_weights(basis)
    values = grid_values(basis)
    rng = np.random.default_rng(42)
    lms = np.column_stack((basis.reps["l"], basis.reps["m"])).tolist()
    for _ in range(60):
        a, b, c = (int(rng.integers(0, basis.size)) for _ in range(3))
        quad = float(w @ (values[a] * values[b] * values[c]))
        exact = gaunt_real(*lms[a], *lms[b], *lms[c])
        assert exact == pytest.approx(quad, abs=1e-10), (lms[a], lms[b], lms[c])


@pytest.fixture(scope="module")
def circle_basis():
    return build_basis(FlatTorus(1, (TWO_PI,)), 8.0)


def test_circle_product_cos2_cos3(circle_basis):
    basis = circle_basis
    cos2 = find_mode(basis, ((2,), (COS,)))
    cos3 = find_mode(basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(basis, (cos2, cos3)))
    assert series.oracle_gap <= 1e-10
    expected = 1.0 / (2.0 * math.sqrt(math.pi))  # 0.28209479...
    nonzero = {i: c for i, c in enumerate(series.coeffs.tolist()) if c != 0.0}
    cos1 = find_mode(basis, ((1,), (COS,)))
    cos5 = find_mode(basis, ((5,), (COS,)))
    assert set(nonzero) == {cos1, cos5}
    assert nonzero[cos1] == pytest.approx(expected, abs=1e-13)
    assert nonzero[cos5] == pytest.approx(expected, abs=1e-13)
    # every coefficient past the frequency sum is identically zero
    for lam, coeff in zip(series.lams, series.coeffs):
        if lam > 5.0:
            assert coeff == 0.0
    # hand values: ||f||^2 = 1/(2 pi) and the two coefficients carry it all
    assert series.f_norm_sq == pytest.approx(1.0 / TWO_PI, rel=1e-12)
    ratio, defect = parseval_report(series)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert abs(defect) <= 1e-12


def test_circle_three_factor_hand_values(circle_basis):
    # cos1 cos2 cos3 / pi^{3/2} = (1 + cos2x + cos4x + cos6x)/(4 pi^{3/2});
    # coefficients: sqrt(2)/(4 pi) on the constant, 1/(4 pi) on each cosine
    basis = circle_basis
    ids = tuple(find_mode(basis, ((k,), (COS,))) for k in (1, 2, 3))
    series = expand_product(ProductSpec(basis, ids))
    nonzero = {i: c for i, c in enumerate(series.coeffs.tolist()) if c != 0.0}
    const = find_mode(basis, ((0,), (COS,)))
    expected = {
        const: math.sqrt(2.0) / (4.0 * math.pi),
        find_mode(basis, ((2,), (COS,))): 1.0 / (4.0 * math.pi),
        find_mode(basis, ((4,), (COS,))): 1.0 / (4.0 * math.pi),
        find_mode(basis, ((6,), (COS,))): 1.0 / (4.0 * math.pi),
    }
    assert set(nonzero) == set(expected)
    for mode_id, value in expected.items():
        assert nonzero[mode_id] == pytest.approx(value, abs=1e-13)


def test_support_lambda_is_the_hypot_of_the_axis_frequency_sums():
    # the top frequency of each axis product is the sum of the factors'
    model = FlatTorus(2, (2.5, 4.0))
    basis = build_basis(model, 6.0)
    rng = np.random.default_rng(3)
    for _ in range(40):
        ids = tuple(int(i) for i in rng.integers(0, basis.size, size=rng.integers(1, 5)))
        sums = basis.reps["freqs"][list(ids)].sum(axis=0).tolist()
        expected = math.hypot(*(k * (TWO_PI / p) for k, p in zip(sums, model.periods)))
        assert torus_support_lambda(ProductSpec(basis, ids)) == pytest.approx(expected, rel=1e-15)


def test_expansion_permutation_invariance(circle_basis):
    basis = circle_basis
    ids = (3, 5, 1)
    base = expand_product(ProductSpec(basis, ids))
    for perm in ((1, 3, 5), (5, 1, 3), (5, 3, 1)):
        other = expand_product(ProductSpec(basis, perm))
        assert np.array_equal(base.coeffs, other.coeffs)
        assert base.f_norm_sq == other.f_norm_sq


_SELECTION_BASIS = build_basis(FlatTorus(1, (TWO_PI,)), 16.0)


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=3))
@settings(max_examples=20, deadline=None)
def test_circle_selection_rule_random_products(ids):
    spec = ProductSpec(_SELECTION_BASIS, tuple(ids))
    series = expand_product(spec)
    limit = spec.sum_lambda
    for lam, coeff in zip(series.lams, series.coeffs):
        if lam > limit * (1.0 + 1e-12):
            assert coeff == 0.0


def test_torus_2d_product_selection_rule():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 6.0)
    a = find_mode(basis, ((1, 2), (COS, SIN)))
    b = find_mode(basis, ((2, 1), (SIN, SIN)))
    series = expand_product(ProductSpec(basis, (a, b)))
    assert series.oracle_gap <= 1e-10
    limit = float(basis.lams[a]) + float(basis.lams[b])
    support = [lam for lam, c in zip(series.lams, series.coeffs) if c != 0.0]
    assert support and max(support) <= limit + 1e-12
    ratio, _ = parseval_report(series)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_sphere_product_y10_squared():
    basis = build_basis(Sphere2(), math.sqrt(6.0) + 1e-9)  # l <= 2
    y10 = find_mode(basis, (1, 0))
    series = expand_product(ProductSpec(basis, (y10, y10)))
    assert series.oracle_gap <= 1e-10
    y00 = find_mode(basis, (0, 0))
    y20 = find_mode(basis, (2, 0))
    coeffs = series.coeffs
    assert coeffs[y00] == pytest.approx(0.2820947917738781, abs=1e-12)
    assert coeffs[y20] == pytest.approx(0.25231325220201604, abs=1e-12)
    ratio, _ = parseval_report(series)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_sphere_three_factor_exact_route(sphere12_basis):
    basis = sphere12_basis
    y22 = find_mode(basis, (2, 2))
    y31 = find_mode(basis, (3, 1))
    y43 = find_mode(basis, (4, -3))
    series = expand_product(ProductSpec(basis, (y22, y31, y43)))
    assert series.oracle_gap <= 1e-10  # iterated Gaunt agreed with quadrature
    for lam, coeff in zip(series.lams, series.coeffs):
        if lam > math.sqrt(9.0 * 10.0) + 1e-9:  # l > 2+3+4 is out of support
            assert coeff == 0.0


@pytest.mark.parametrize("reps, digest", [
    (((2, 2), (3, 1), (4, -3)),
     "a74524bcdc9512c3731aa4d93b8e54a01d9d244c82d1c287bbb5f52c87f617c9"),
    (((1, -1), (5, 0), (6, 4)),
     "9daa6e28227e5cfd54603027d8a1464423893cf8e8b2fbd0eb7186215eea0d4d"),
])
def test_sphere_three_factor_bits_are_pinned(sphere12_basis, reps, digest):
    # the Gaunt fold keeps the bits of the pairwise-then-contract route it
    # replaced; the digests were recorded from that route
    ids = tuple(find_mode(sphere12_basis, rep) for rep in reps)
    series = expand_product(ProductSpec(sphere12_basis, ids))
    assert series.oracle_gap <= 1e-10
    assert hashlib.sha256(series.coeffs.tobytes()).hexdigest() == digest


def test_sphere_four_factor_exact_route():
    # the Gaunt fold covers any number of factors; quadrature must still
    # close the Parseval budget exactly for band-limited input
    basis = build_basis(Sphere2(), math.sqrt(8.0 * 9.0) + 1e-9)
    y11 = find_mode(basis, (1, 1))
    y20 = find_mode(basis, (2, 0))
    series = expand_product(ProductSpec(basis, (y11, y11, y20, y20)))
    assert series.oracle_gap <= 1e-10
    ratio, _ = parseval_report(series)  # degree 6 <= basis degree 8
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_sphere_five_factor_support_is_exact(sphere12_basis):
    reps = ((1, 1), (1, -1), (2, 0), (2, -2), (3, 2))  # degree sum 9
    spec = ProductSpec(sphere12_basis, tuple(find_mode(sphere12_basis, r) for r in reps))
    series = expand_product(spec)
    assert series.oracle_gap <= 1e-10
    quad, _ = quadrature_coefficients(spec)
    assert float(np.max(np.abs(series.coeffs - quad))) <= 1e-10
    degrees = sphere12_basis.reps["l"][:series.coeffs.size]
    assert np.all(series.coeffs[degrees > 9] == 0.0)
    assert np.any(series.coeffs[degrees == 9] != 0.0)
    ratio, _ = parseval_report(series)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_sphere_oracle_gate_can_fail(sphere12_basis, monkeypatch):
    # one Gaunt value off by 1e-8 must trip the agreement gate of a
    # four-factor product, not be reported as exact
    reps = ((1, 1), (1, 1), (2, 0), (2, 0))
    spec = ProductSpec(sphere12_basis, tuple(find_mode(sphere12_basis, r) for r in reps))
    assert expand_product(spec).oracle_gap <= 1e-10
    exact_gaunt = manifolds.gaunt_real
    shifted = (1, 1, 1, 1, 2, 2)

    def off_by_one_value(*args):
        return exact_gaunt(*args) + (1e-8 if args == shifted else 0.0)

    monkeypatch.setattr(manifolds, "gaunt_real", off_by_one_value)
    with pytest.raises(BreakdownError, match="disagree"):
        expand_product(spec)


def test_rev_torus_product_parseval_tail():
    basis = build_basis(RevTorus(2.0, 1.0), 4.0)
    spec = ProductSpec(basis, tuple(np.flatnonzero(basis.lams > 0.0)[:2].tolist()))
    sum_lambda = spec.sum_lambda
    assert 3.0 * sum_lambda <= 4.0  # the basis reaches 3x the frequency sum
    series = expand_product(spec)
    assert series.oracle_gap <= 1e-10
    ratio, defect = parseval_report(series)
    assert ratio >= 0.999
    # mass below 3x the frequency sum already captures the 0.999
    sub = series.truncated(3.0 * sum_lambda)
    assert sub.mass_captured / series.f_norm_sq >= 0.999


@pytest.fixture(scope="module", params=[(2.0, 1.0), (1.8, 0.9), (2.3, 1.15)],
                ids=["2-1", "1.8-0.9", "2.3-1.15"])
def rev_basis(request):
    return build_basis(RevTorus(*request.param), 4.5)


def theta_families(reps):
    """Every (m, parity) the product-to-sum identities can reach from the
    factors' theta parts: a superset of the exact support."""
    families = {(0, COS)}
    for m, parity in reps:
        families = {(abs(k + sign * m), p ^ parity) for k, p in families for sign in (1, -1)}
        families.discard((0, SIN))
    return families


@pytest.mark.parametrize("factors", [(1, 3), (2, 3), (1, 1), (1, 2, 3)])
def test_rev_oracle_selection_rule(rev_basis, factors):
    spec = ProductSpec(rev_basis, factors)
    series = expand_product(spec)
    assert series.oracle_gap <= 1e-10
    reps = list(zip(rev_basis.reps["m"].tolist(), rev_basis.reps["theta_parity"].tolist()))
    families = theta_families([reps[i] for i in factors])
    reached = np.array([rep in families for rep in reps])
    assert np.all(series.coeffs[~reached] == 0.0)
    assert np.any(series.coeffs[reached] != 0.0)
    quad, f_norm_sq = quadrature_coefficients(spec)
    assert float(np.max(np.abs(series.coeffs - quad))) <= 1e-10
    assert series.f_norm_sq == f_norm_sq
    exact = rev_basis.model.exact_coefficients(rev_basis, sorted(factors))
    assert series.oracle_gap == float(np.max(np.abs(exact - quad)))
    assert series.truncated(2.0).oracle_gap == series.oracle_gap


@pytest.mark.parametrize("factors", [(1, 3), (2, 3), (1, 1), (1, 2, 3)])
def test_rev_expansion_evaluates_only_factor_rows(rev_basis, factors, monkeypatch):
    # the quadrature check evaluates the factor modes on the grid and sums
    # every mode through axis_projections; no other mode is put on the grid
    seen = []
    original = RevTorus.axis_factor_rows

    def counting(self, basis, ids, axis_points):
        seen.extend(ids)
        return original(self, basis, ids, axis_points)

    monkeypatch.setattr(RevTorus, "axis_factor_rows", counting)
    assert expand_product(ProductSpec(rev_basis, factors)).oracle_gap <= 1e-10
    assert sorted(seen) == sorted(factors)


@pytest.mark.parametrize("periods", [(TWO_PI,), (2.5, 4.0)], ids=["flat1", "flat2"])
def test_flat_oracle_gate_can_fail(periods):
    # the quadrature sums on the basis's own grid, the oracle normalizes by
    # the model's periods: periods off by 1e-6 relative must trip the
    # agreement gate
    basis = build_basis(FlatTorus(len(periods), periods), 6.0)
    factors = (1, 3, 4)
    assert expand_product(ProductSpec(basis, factors)).oracle_gap <= 1e-10
    skewed = dataclasses.replace(
        basis, model=FlatTorus(len(periods), tuple(p * (1.0 + 1e-6) for p in periods)))
    with pytest.raises(BreakdownError, match="disagree"):
        expand_product(ProductSpec(skewed, factors))


def test_quadrature_on_a_grid_coarser_than_twice_the_top_frequency():
    # 10 nodes are exact to degree 9, enough for the constant times modes to
    # frequency 8; those frequencies lie past n / 2, where a half-spectrum
    # transform has no bin
    model = FlatTorus(1, (TWO_PI,))
    basis = build_basis(model, 8.0)
    coarse = dataclasses.replace(basis, axes=model.quadrature_grid([10]))
    assert basis.reps["freqs"].max() == 8
    series = expand_product(ProductSpec(coarse, (0,)))
    assert series.oracle_gap <= 1e-10
    quad, f_norm_sq = quadrature_coefficients(ProductSpec(coarse, (0,)))
    assert quad[0] == pytest.approx(1.0, abs=1e-13)
    assert float(np.max(np.abs(quad[1:]))) <= 1e-13
    assert f_norm_sq == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("minor_radius", [1e-9, 1.0 + 1e-6],
                         ids=["r-terms-dropped", "r-off-by-1e-6"])
def test_rev_oracle_gate_can_fail(minor_radius):
    # the quadrature sums with the weights of the basis's own grid, the
    # oracle convolves with the model's f = R + r cos s: a model whose r/2
    # terms are (almost) dropped, or r off by 1e-6, perturbs the oracle
    # alone and must trip the agreement gate
    basis = build_basis(RevTorus(2.0, 1.0), 4.5)
    assert expand_product(ProductSpec(basis, (1, 3))).oracle_gap <= 1e-10
    skewed = dataclasses.replace(basis, model=RevTorus(2.0, minor_radius))
    with pytest.raises(BreakdownError, match="disagree"):
        expand_product(ProductSpec(skewed, (1, 3)))


@pytest.mark.parametrize("model, lambda_max", [
    (FlatTorus(2, (2.5, 4.0)), 6.0), (Sphere2(), 3.5), (RevTorus(2.0, 1.0), 3.0)])
def test_grid_resolution_check_covers_every_axis(model, lambda_max):
    # the square of the top mode fits the default grid; a grid that is too
    # coarse on either axis alone must be refused
    basis = build_basis(model, lambda_max)
    factors = (basis.size - 1, basis.size - 1)
    quadrature_coefficients(ProductSpec(basis, factors))
    sizes = basis.axis_sizes()
    for axis in range(2):
        coarse = sizes[:axis] + [4] + sizes[axis + 1:]
        thin = dataclasses.replace(basis, axes=model.quadrature_grid(coarse))
        with pytest.raises(UnderResolvedError):
            quadrature_coefficients(ProductSpec(thin, factors))


def test_degenerate_norm_rejected(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1, 2)))
    broken = CoefficientSeries(series.product, np.zeros_like(series.coeffs), 0.0,
                               series.oracle_gap)
    with pytest.raises(BreakdownError):
        parseval_report(broken)


def test_product_spec_validation(circle_basis):
    with pytest.raises(ParameterError):
        ProductSpec(circle_basis, ())
    with pytest.raises(ParameterError):
        ProductSpec(circle_basis, (99,))


@pytest.mark.parametrize("factor", [1.7, True, "3"], ids=["float", "bool", "str"])
def test_product_spec_refuses_non_integer_ids(circle_basis, factor):
    # ids index the basis arrays: they are never rounded or parsed
    with pytest.raises(ParameterError, match="not an integer"):
        ProductSpec(circle_basis, (factor, 2))
    assert ProductSpec(circle_basis, (np.int64(1), 2)).factors == (1, 2)


def test_csv_dump(circle_basis):
    series = expand_product(ProductSpec(circle_basis, (1, 2)))
    text = series_to_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == "index,lambda,coeff,abs_coeff,cumulative_mass_ratio"
    assert len(lines) == circle_basis.size + 1
    ratios = [float(line.split(",")[4]) for line in lines[1:]]
    assert ratios == sorted(ratios)
    assert ratios[-1] == pytest.approx(1.0, abs=1e-10)
    # floats round-trip at 17 significant digits
    coeff_cell = lines[2].split(",")[2]
    assert float(coeff_cell) == series.coeffs[1]


def test_series_bessel_gate_refuses_mass_above_the_norm():
    # Bessel's inequality: a series may capture at most the product's norm,
    # up to a relative 1e-8
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 8.0)
    series = expand_product(ProductSpec(basis, (3, 5)))
    mass = series.mass_captured
    assert mass > 0.0
    with pytest.raises(BreakdownError, match="captured mass"):
        CoefficientSeries(series.product, series.coeffs, mass / (1.0 + 2e-8), series.oracle_gap)
    edge = CoefficientSeries(series.product, series.coeffs, mass / (1.0 + 0.5e-8),
                             series.oracle_gap)
    assert edge.mass_captured == mass


def test_product_whose_mass_exceeds_its_norm_exits_3(tmp_path, monkeypatch, capsys):
    # a planted quadrature norm of half the true one: the coefficients
    # still agree with the oracle, so only the Bessel gate can catch it
    expansion = coefficients._quadrature_expansion

    def halved_norm(spec):
        coeffs, norm_sq = expansion(spec)
        return coeffs, 0.5 * norm_sq
    monkeypatch.setattr(coefficients, "_quadrature_expansion", halved_norm)
    code = cli_main(["product", "--model", "flat-torus", "--dim", "1", "--factors", "cos2,cos3",
                     "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])
    assert code == 3
    assert "captured mass" in capsys.readouterr().err
    assert not (tmp_path / "out" / "product.json").exists()
