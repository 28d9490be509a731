"""Decay fits, truncation search, lower bounds, and the sphere triple."""

import math

import numpy as np
import pytest

from eigenprod import analysis
from eigenprod.analysis import (
    captured_norm_ratio,
    find_truncation,
    fit_decay,
    lower_bound_experiment,
    sphere_remark_experiment,
    sphere_rotated_pair_experiment,
)
from eigenprod.coefficients import CoefficientSeries, ProductSpec, expand_product
from eigenprod.cli import cli_main
from eigenprod.errors import BreakdownError, ParameterError, UnderResolvedError
from eigenprod.manifolds import COS, FlatTorus, RevTorus, Sphere2, build_basis
from reference import (
    assert_same_samples,
    envelope_dominates,
    find_mode,
    remark_samples_reference,
    rotated_pair_samples_reference,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def circle_basis_24():
    return build_basis(FlatTorus(1, (TWO_PI,)), 24.0)


def synthetic_series(basis, coeffs, factors=(1, 2), f_norm_sq=None):
    coeffs = np.asarray(coeffs, dtype=float)
    norm = float(coeffs @ coeffs) if f_norm_sq is None else f_norm_sq
    return CoefficientSeries(ProductSpec(basis, factors), coeffs, norm, oracle_gap=None)


def test_fit_recovers_exact_exponential(circle_basis_24):
    basis = circle_basis_24
    coeffs = np.exp(-0.5 * basis.lams)
    series = synthetic_series(basis, coeffs)  # sum_lambda = 2
    fit = fit_decay(series)
    assert not fit.band_limited
    assert fit.c_hat == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared >= 1.0 - 1e-9
    assert envelope_dominates(series, fit)


def test_band_limited_verdict_on_cos2_cos3(circle_basis_24):
    basis = circle_basis_24
    cos2 = find_mode(basis, ((2,), (COS,)))
    cos3 = find_mode(basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(basis, (cos2, cos3)))
    fit = fit_decay(series)
    assert fit.band_limited
    assert fit.onset_lambda == pytest.approx(5.0, abs=1e-12)
    assert math.isinf(fit.c_hat)
    assert envelope_dominates(series, fit)


def test_fit_refuses_a_series_without_lambdas_past_the_sum(circle_basis_24):
    basis = circle_basis_24
    cos2 = find_mode(basis, ((2,), (COS,)))
    cos3 = find_mode(basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(basis, (cos2, cos3)))
    for cut in (5.0, 4.0, -1.0):  # at the sum, below it, empty
        with pytest.raises(ParameterError, match="frequency sum"):
            fit_decay(series.truncated(cut))
    assert fit_decay(series.truncated(6.0)).band_limited


def test_fit_requires_enough_tail(circle_basis_24):
    basis = circle_basis_24
    coeffs = np.zeros(basis.size)
    coeffs[:3] = 1.0
    coeffs[-2] = 1e-3  # a lone tail coefficient is not enough to fit
    series = synthetic_series(basis, coeffs)
    with pytest.raises(ParameterError):
        fit_decay(series)


def test_onset_detects_decay_start(circle_basis_24):
    basis = circle_basis_24
    lams = basis.lams
    coeffs = np.where(lams <= 6.0, 0.5, np.exp(-1.0 * (lams - 6.0)))
    series = synthetic_series(basis, coeffs)
    fit = fit_decay(series, window=(8.0, 24.0))
    assert 6.0 <= fit.onset_lambda <= 8.0


def test_truncation_band_limited_case(circle_basis_24):
    basis = circle_basis_24
    cos2 = find_mode(basis, ((2,), (COS,)))
    cos3 = find_mode(basis, ((3,), (COS,)))
    series = expand_product(ProductSpec(basis, (cos2, cos3)))
    result = find_truncation(series, target=0.99)
    assert result.c5 == pytest.approx(1.0, abs=1e-12)
    assert result.captured_ratio == pytest.approx(1.0, abs=1e-10)
    assert max(series.lams[:result.kept_count]) <= 5.0 + 1e-12
    assert result.kept_count == np.count_nonzero(basis.lams <= 5.0 + 1e-12)


def test_truncation_synthetic_mass_batches(circle_basis_24):
    # hand cumulative sums: 0.9 at the frequency sum, 0.995 at twice it
    basis = circle_basis_24
    lams = basis.lams
    coeffs = np.zeros(basis.size)
    coeffs[np.argmax(lams == 2.0)] = math.sqrt(0.9)
    coeffs[np.argmax(lams == 4.0)] = math.sqrt(0.095)
    coeffs[np.argmax(lams == 6.0)] = math.sqrt(0.005)
    series = synthetic_series(basis, coeffs, f_norm_sq=1.0)
    result = find_truncation(series, target=0.99)
    assert result.c5 == pytest.approx(2.0, abs=1e-12)
    assert math.sqrt(0.9) <= captured_norm_ratio(series, 1.0) < 0.99


def test_truncation_target_zero(circle_basis_24):
    basis = circle_basis_24
    series = expand_product(ProductSpec(basis, (1, 2)))
    result = find_truncation(series, target=0.0)
    assert result.c5 == pytest.approx(0.1, abs=1e-12)
    assert result.kept_count >= 1  # the constant mode 0 sits below every cutoff


def test_truncation_monotone_in_c5(circle_basis_24):
    basis = circle_basis_24
    series = expand_product(ProductSpec(basis, (3, 6)))
    ratios = [captured_norm_ratio(series, 0.1 * k) for k in range(1, 40)]
    assert all(b >= a - 1e-15 for a, b in zip(ratios, ratios[1:]))


def test_truncation_rejects_underresolved_basis(circle_basis_24):
    basis = circle_basis_24
    coeffs = np.full(basis.size, 0.01)
    series = synthetic_series(basis, coeffs, f_norm_sq=1.0)  # most mass missing
    with pytest.raises(UnderResolvedError):
        find_truncation(series, target=0.99)


def test_lower_bound_self_products(circle_basis_24):
    # int cos^4 = 3 pi / 4 by hand: every self-product norm is
    # sqrt(3)/(2 sqrt(pi)), so the fitted decay rate is zero.
    basis = circle_basis_24
    freqs, parities = basis.reps["freqs"][:, 0], basis.reps["parities"][:, 0]
    cos_ids = np.flatnonzero((parities == COS) & (freqs >= 1) & (freqs <= 8)).tolist()
    specs = [ProductSpec(basis, (i, i)) for i in cos_ids]
    fit = lower_bound_experiment(specs)
    expected = 0.4886025119029199  # sqrt(3)/(2 sqrt(pi))
    for _s, norm in fit.samples:
        assert norm == pytest.approx(expected, abs=1e-10)
    assert fit.C4_hat == pytest.approx(0.0, abs=1e-10)
    assert fit.C3_hat == pytest.approx(expected, abs=1e-10)


def test_lower_bound_single_factor_family(circle_basis_24):
    basis = circle_basis_24
    specs = [ProductSpec(basis, (i,)) for i in (1, 3, 5, 7)]
    fit = lower_bound_experiment(specs)
    for _s, norm in fit.samples:
        assert norm == pytest.approx(1.0, abs=1e-12)
    assert fit.C3_hat == pytest.approx(1.0, abs=1e-10)
    assert fit.C4_hat == pytest.approx(0.0, abs=1e-10)
    assert fit.n_factors == 1


def test_lower_bound_envelope_touches_and_dominates_from_below(circle_basis_24):
    basis = circle_basis_24
    specs = [ProductSpec(basis, (i, j)) for i, j in ((1, 2), (3, 4), (5, 6), (7, 8))]
    fit = lower_bound_experiment(specs)
    bounds = [fit.C3_hat * math.exp(-fit.C4_hat * s) for s, _n in fit.samples]
    norms = [n for _s, n in fit.samples]
    assert all(b <= n * (1.0 + 1e-12) for b, n in zip(bounds, norms))
    assert any(abs(b - n) <= 1e-12 * n for b, n in zip(bounds, norms))


@pytest.mark.parametrize("model, lambda_max", [
    (FlatTorus(1, (TWO_PI,)), 8.0),
    (FlatTorus(2, (TWO_PI, 1.7)), 6.0),
    (Sphere2(), 6.0),
    (RevTorus(2.0, 1.0), 4.5),
], ids=["flat1", "flat2", "sphere", "rev"])
def test_lower_bound_samples_are_the_parseval_norms(model, lambda_max):
    # one product norm: each sample is the square root of the f_norm_sq
    # that expand_product divides the captured mass by, bit for bit
    basis = build_basis(model, lambda_max)
    for n_factors in (2, 3):
        specs = [ProductSpec(basis, tuple(range(i, i + n_factors))) for i in range(1, 9)]
        fit = lower_bound_experiment(specs)
        assert [n for _s, n in fit.samples] == \
            [math.sqrt(expand_product(spec).f_norm_sq) for spec in specs]


def test_lower_bound_validation(circle_basis_24):
    with pytest.raises(ParameterError):
        lower_bound_experiment([ProductSpec(circle_basis_24, (1, 2))])
    mixed = [ProductSpec(circle_basis_24, (1,)),
             ProductSpec(circle_basis_24, (1, 2)),
             ProductSpec(circle_basis_24, (3,)),
             ProductSpec(circle_basis_24, (4,))]
    with pytest.raises(ParameterError):
        lower_bound_experiment(mixed)


def test_lower_bound_refuses_an_aliased_norm():
    # cos8^4 has degree 64; the 64-node grid of the lambda=8 circle basis
    # integrates through degree 63 only
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 8.0)
    freqs, parities = basis.reps["freqs"][:, 0], basis.reps["parities"][:, 0]
    cos_ids = np.flatnonzero((parities == COS) & (freqs >= 5)).tolist()
    specs = [ProductSpec(basis, (i,) * 4) for i in cos_ids]
    assert basis.axis_exactness() == (63,)
    with pytest.raises(UnderResolvedError):
        lower_bound_experiment(specs)
    lower_bound_experiment(specs[:-1] + [ProductSpec(basis, (cos_ids[0],) * 4)])


def test_norm_floor_refuses_a_vanishing_sample():
    # a product norm at or below 1e-13 means the quadrature under-resolved
    # the product; just above the floor the fit goes through
    samples = [(2.0, 1.0), (3.0, 0.5), (4.0, 0.25), (5.0, 1e-13)]
    with pytest.raises(BreakdownError, match="below 1e-13"):
        analysis._norm_from_samples(samples, 2)
    fit = analysis._norm_from_samples(samples[:-1] + [(5.0, 1.0000001e-13)], 2)
    assert fit.C4_hat > 0.0


def test_lower_bound_with_a_vanishing_norm_exits_3(tmp_path, monkeypatch, capsys):
    # a planted product norm of 1e-14 for the family's last product, cos8^2
    norm_sq = analysis.product_norm_sq

    def vanishing_last(spec):
        return 1e-28 if spec.sum_lambda == 16.0 else norm_sq(spec)
    monkeypatch.setattr(analysis, "product_norm_sq", vanishing_last)
    basis = build_basis(FlatTorus(1, (TWO_PI,)), 8.0)
    ids = [find_mode(basis, ((k,), (COS,))) for k in (2, 4, 6, 8)]
    with pytest.raises(BreakdownError, match="below 1e-13"):
        lower_bound_experiment([ProductSpec(basis, (i, i)) for i in ids])
    code = cli_main(["lower-bound", "--model", "flat-torus", "--dim", "1",
                     "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")])
    assert code == 3
    assert "below 1e-13" in capsys.readouterr().err
    assert not (tmp_path / "out" / "lower-bound.json").exists()


def test_sphere_rotated_pairs_reject_negative_degrees():
    with pytest.raises(ParameterError):
        sphere_rotated_pair_experiment(range(-6, -1))


def test_sphere_rotated_pairs_decay():
    fit = sphere_rotated_pair_experiment(range(2, 13))
    assert all(norm > 0.0 for _s, norm in fit.samples)
    assert fit.C4_hat > 0.0
    assert fit.n_factors == 2


@pytest.mark.parametrize("l_min", [0, 2])
@pytest.mark.parametrize("l_max", [5, 12, 39])
def test_sphere_rotated_pairs_are_numpys_powers_bit_for_bit(l_min, l_max):
    # the streamed powers reproduce the samples of fresh ``z ** l`` per l,
    # and so the reports of every l range, to the last bit
    fit = sphere_rotated_pair_experiment(range(l_min, l_max + 1))
    assert_same_samples(fit.samples, rotated_pair_samples_reference(range(l_min, l_max + 1)))


def sphere_moment(a, b, c):
    """Exact monomial moment of x^a y^b z^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0

    def double_factorial(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    num = double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
    return 4.0 * math.pi * num / double_factorial(a + b + c + 1)


def test_remark_k1_matches_monomial_oracle():
    # k = 1: the product is x * x * y, whose squared norm is the moment
    # of x^4 y^2: 4 pi * 3 / 105 = 4 pi / 35.
    result = sphere_remark_experiment([1])
    expected = math.sqrt(sphere_moment(4, 2, 0))
    assert result.samples[0][1] == pytest.approx(expected, rel=1e-12)


def test_remark_norms_strictly_decreasing():
    result = sphere_remark_experiment(range(2, 11))
    norms = [n for _k, n in result.samples]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert result.log_slope < 0.0


@pytest.mark.parametrize("k_min", [1, 2, 3])
@pytest.mark.parametrize("k_max", [3, 8, 13, 16, 24])
def test_remark_samples_are_numpys_powers_bit_for_bit(k_min, k_max):
    # odd and even k_max: an odd one puts a Gauss node on the equator,
    # where y + iz vanishes on the phi = 0 meridian
    result = sphere_remark_experiment(range(k_min, k_max + 1))
    assert_same_samples(result.samples, remark_samples_reference(range(k_min, k_max + 1)))


def test_remark_rejects_out_of_range():
    with pytest.raises(ParameterError):
        sphere_remark_experiment([0, 1])
    with pytest.raises(ParameterError):
        sphere_remark_experiment([25])


def test_rev_torus_decay_smoke():
    # square the lowest nonconstant mode: the product spreads over two
    # angular families, which keeps the tail populated
    basis = build_basis(RevTorus(2.0, 1.0), 5.1)
    lowest = int(np.flatnonzero(basis.lams > 0.0)[0])
    spec = ProductSpec(basis, (lowest, lowest))
    assert 5.0 * spec.sum_lambda <= 5.1
    series = expand_product(spec).truncated(5.0 * spec.sum_lambda)
    fit = fit_decay(series, window=(2.0 * spec.sum_lambda, 5.0 * spec.sum_lambda))
    assert fit.c_hat > 0.0
    assert envelope_dominates(series, fit)
