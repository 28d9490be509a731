"""Eigenbases on the three model surfaces."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from eigenprod.errors import (
    CorruptionError,
    ParameterError,
    UnderResolvedError,
    VersionMismatchError,
)
from eigenprod import manifolds
from eigenprod.manifolds import (
    COS,
    SIN,
    FlatTorus,
    Mode,
    Resolution,
    RevTorus,
    Sphere2,
    basis_digest,
    basis_equal,
    basis_to_json_dict,
    build_basis,
    evaluate,
    load_basis,
    normalized_legendre,
    rev_profile_derivatives,
    save_basis,
)
from eigenprod.numerics import uniform_periodic

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def circle_basis_3():
    return build_basis(FlatTorus(1, (TWO_PI,)), 3.0)


@pytest.fixture(scope="module")
def sphere_basis_3():
    return build_basis(Sphere2(), 3.5)


@pytest.fixture(scope="module")
def flat2_basis():
    return build_basis(FlatTorus(2, (2.5, 4.0)), 6.0)


@pytest.fixture(scope="module")
def rev_basis_3():
    return build_basis(RevTorus(2.0, 1.0), 3.0)


def test_flat_circle_mode_table(circle_basis_3):
    basis = circle_basis_3
    assert basis.size == 7
    assert [m.lam for m in basis.modes] == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    # cos precedes sin at each frequency
    assert [m.rep for m in basis.modes] == [
        ((0,), (COS,)),
        ((1,), (COS,)), ((1,), (SIN,)),
        ((2,), (COS,)), ((2,), (SIN,)),
        ((3,), (COS,)), ((3,), (SIN,)),
    ]


def test_flat_circle_normalization(circle_basis_3):
    basis = circle_basis_3
    cos2 = basis.modes[3]
    assert evaluate(basis.model, cos2, 0.0) == pytest.approx(
        0.5641895835477563, abs=1e-12)  # 1/sqrt(pi)
    const = basis.modes[0]
    assert evaluate(basis.model, const, 1.234) == pytest.approx(
        1.0 / math.sqrt(TWO_PI), abs=1e-15)


def test_flat_torus_2d_mode_count():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 2.5)
    # lambda^2 values: 0 (x1), 1 (x4), 2 (x4), 4 (x4), 5 (x8)
    assert basis.size == 21
    lams = np.round(basis.lambdas() ** 2).astype(int).tolist()
    assert lams == [0] + [1] * 4 + [2] * 4 + [4] * 4 + [5] * 8


def test_flat_torus_orthonormal_on_grid(circle_basis_3):
    basis = circle_basis_3
    values = np.stack([basis.values_on_grid(m) for m in basis.modes])
    gram = (values * basis.grid.weights) @ values.T
    assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-12


def test_sphere_mode_table(sphere_basis_3):
    basis = sphere_basis_3
    assert basis.size == 16  # (l+1)^2 for l <= 3
    expected = [math.sqrt(l * (l + 1.0)) for l in range(4) for _ in range(2 * l + 1)]
    assert basis.lambdas() == pytest.approx(expected, abs=1e-15)


def test_sphere_point_values(sphere_basis_3):
    model = sphere_basis_3.model
    y00 = sphere_basis_3.modes[0]
    assert evaluate(model, y00, (1.0, 2.0)) == pytest.approx(
        0.2820947917738781, abs=1e-12)  # 1/sqrt(4 pi)
    y10 = next(m for m in sphere_basis_3.modes if m.rep == (1, 0))
    # explicit Y_1^0 with Legendre normalization: sqrt(3/4pi) cos(theta)
    assert evaluate(model, y10, (0.0, 0.0)) == pytest.approx(
        0.4886025119029199, abs=1e-12)


def test_sphere_matches_scipy_harmonics(sphere_basis_3):
    model = sphere_basis_3.model
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.05, math.pi - 0.05, size=12)
    phi = rng.uniform(0.0, TWO_PI, size=12)
    pts = np.stack([theta, phi], axis=-1)
    for mode in sphere_basis_3.modes:
        l, m = mode.rep
        ref = sph_harm_y(l, abs(m), theta, phi)
        if m == 0:
            expected = ref.real
        elif m > 0:
            expected = math.sqrt(2.0) * (-1.0) ** m * ref.real
        else:
            expected = math.sqrt(2.0) * (-1.0) ** m * ref.imag
        assert evaluate(model, mode, pts) == pytest.approx(expected, abs=1e-12)


def test_sphere_orthonormal_on_grid():
    basis = build_basis(Sphere2(), math.sqrt(8.0 * 9.0) + 1e-9)  # l <= 8
    values = np.stack([basis.values_on_grid(m) for m in basis.modes])
    gram = (values * basis.grid.weights) @ values.T
    assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-8


def test_normalized_legendre_l2_norm():
    # int over [-1,1] of P(l,m,x)^2 dx = 1/(2 pi) for every l, m
    from eigenprod.numerics import gauss_legendre

    grid = gauss_legendre(80)
    for l in range(0, 20, 3):
        for m in range(0, l + 1, 2):
            vals = normalized_legendre(l, m, grid.nodes)
            assert grid.integrate(vals * vals) == pytest.approx(
                1.0 / TWO_PI, rel=1e-12)


def test_rev_torus_constant_mode(rev_basis_3):
    basis = rev_basis_3
    const = basis.modes[0]
    assert const.id == 0
    assert const.lam == 0.0
    volume = basis.model.volume
    assert evaluate(basis.model, const, (0.7, 1.9)) == pytest.approx(
        1.0 / math.sqrt(volume), abs=1e-15)
    assert basis.provenance.startswith("numerical(residual=")


def test_rev_torus_angular_pairs_share_lambda(rev_basis_3):
    by_key = {}
    for mode in rev_basis_3.modes:
        m, parity, coeffs, lam = mode.rep
        by_key.setdefault((m, coeffs), []).append((parity, lam))
    for (m, _coeffs), entries in by_key.items():
        if m == 0:
            assert len(entries) == 1
        else:
            assert sorted(p for p, _ in entries) == [COS, SIN]
            assert entries[0][1] == entries[1][1]


def test_rev_torus_orthonormal_on_grid(rev_basis_3):
    basis = rev_basis_3
    values = np.stack([basis.values_on_grid(m) for m in basis.modes])
    gram = (values * basis.grid.weights) @ values.T
    assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-8


@pytest.mark.parametrize("fixture", ["circle_basis_3", "flat2_basis", "sphere_basis_3",
                                     "rev_basis_3"])
def test_profile_matrices_match_pointwise_evaluation(request, fixture):
    basis = request.getfixturevalue(fixture)
    for mode in basis.modes:
        pointwise = evaluate(basis.model, mode, basis.grid.nodes)
        assert np.max(np.abs(basis.values_on_grid(mode) - pointwise)) <= 1e-13


def test_rev_torus_strong_form_residual(rev_basis_3):
    # apply the metric Laplacian -(1/f)(f v')' + m^2 v / f^2 through exact
    # coefficient differentiation and measure the L2 defect per mode
    basis = rev_basis_3
    model = basis.model
    fine = uniform_periodic(2048, TWO_PI)
    s = fine.nodes
    f = model.profile(s)
    df = -model.minor_radius * np.sin(s)
    for mode in basis.modes:
        m = mode.rep[0]
        v, dv, ddv = rev_profile_derivatives(mode, s)
        residual = -ddv - (df / f) * dv + (m * m) * v / (f * f) - (mode.lam**2) * v
        norm_sq = fine.weights @ (f * v * v)
        defect = math.sqrt(float(fine.weights @ (f * residual * residual)))
        assert defect <= 1e-6 * math.sqrt(float(norm_sq))


def test_rev_torus_self_convergence():
    # doubling the Galerkin truncation moves no kept eigenvalue by > 1e-8
    coarse = build_basis(RevTorus(2.0, 1.0), 3.0,
                         Resolution(rev_fourier_n=64))
    fine = build_basis(RevTorus(2.0, 1.0), 3.0,
                       Resolution(rev_fourier_n=128))
    assert coarse.size == fine.size
    assert np.max(np.abs(coarse.lambdas() - fine.lambdas())) <= 1e-8


def test_rev_torus_under_resolution_errors():
    with pytest.raises(UnderResolvedError, match="angular"):
        build_basis(RevTorus(2.0, 1.0), 40.0)
    with pytest.raises(UnderResolvedError, match="truncation"):
        build_basis(RevTorus(2.0, 1.0), 12.0, Resolution(rev_m_cap=128, rev_fourier_n=512))


def test_torus_under_resolution_error():
    with pytest.raises(UnderResolvedError):
        build_basis(FlatTorus(1, (TWO_PI,)), 500.0)
    with pytest.raises(UnderResolvedError):
        build_basis(Sphere2(), 200.0)


def test_weyl_counting_flat_torus_2d():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 20.0)
    lams = basis.lambdas()
    volume = basis.model.volume
    counts = [int(np.count_nonzero(lams <= lam)) for lam in (10.0, 15.0, 20.0)]
    assert counts == sorted(counts)
    for lam, count in zip((10.0, 15.0, 20.0), counts):
        weyl = volume * lam * lam / (4.0 * math.pi)
        assert abs(count - weyl) <= 0.25 * weyl


def test_evaluate_rejects_bad_points(sphere_basis_3, circle_basis_3):
    with pytest.raises(ParameterError):
        evaluate(sphere_basis_3.model, sphere_basis_3.modes[0], (4.0, 0.0))
    with pytest.raises(ParameterError):
        evaluate(circle_basis_3.model, circle_basis_3.modes[0], float("nan"))
    with pytest.raises(ParameterError):
        circle_basis_3.mode(99)


def test_save_load_round_trip(tmp_path, circle_basis_3, rev_basis_3):
    for basis in (circle_basis_3, rev_basis_3):
        path = tmp_path / "basis.eprd"
        digest = save_basis(basis, path)
        assert digest == basis_digest(basis)
        loaded = load_basis(path)
        assert basis_equal(basis, loaded)


@pytest.mark.parametrize("name", ["circle_basis_3", "flat2_basis",
                                  "sphere_basis_3", "rev_basis_3"])
def test_memoised_digest_matches_the_payload(tmp_path, request, monkeypatch, name):
    # save and load record the digest they wrote or verified; it must be
    # the digest of the canonical payload, recomputed from scratch
    basis = request.getfixturevalue(name)
    fresh = build_basis(basis.model, basis.lambda_max)
    path = tmp_path / "basis.eprd"
    saved = save_basis(basis, path)
    loaded = load_basis(path)
    from_scratch = hashlib.sha256(manifolds._basis_payload(loaded)).hexdigest()
    assert saved == from_scratch
    assert hashlib.sha256(manifolds._basis_payload(basis)).hexdigest() == from_scratch
    assert basis_digest(fresh) == from_scratch

    def no_payload(_basis):
        raise AssertionError("a known digest must not be recomputed")

    monkeypatch.setattr(manifolds, "_basis_payload", no_payload)
    for memoised in (basis, loaded, fresh):
        assert basis_digest(memoised) == from_scratch


def test_loaded_basis_reproduces_coefficients_bitwise(tmp_path, rev_basis_3):
    # the persistence round trip must not perturb any downstream number
    from eigenprod.coefficients import ProductSpec, expand_product

    path = tmp_path / "basis.eprd"
    save_basis(rev_basis_3, path)
    loaded = load_basis(path)
    fresh = expand_product(ProductSpec(rev_basis_3, (1, 2)))
    reloaded = expand_product(ProductSpec(loaded, (1, 2)))
    assert np.array_equal(fresh.coeffs, reloaded.coeffs)
    assert fresh.f_norm_sq == reloaded.f_norm_sq


def test_load_rejects_bumped_version(tmp_path, circle_basis_3):
    path = tmp_path / "basis.eprd"
    save_basis(circle_basis_3, path)
    blob = bytearray(path.read_bytes())
    blob[4] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_basis(path)


def test_load_rejects_truncation_and_corruption(tmp_path, circle_basis_3):
    path = tmp_path / "basis.eprd"
    save_basis(circle_basis_3, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptionError):
        load_basis(path)
    flipped = bytearray(blob)
    flipped[-1] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(CorruptionError):
        load_basis(path)
    path.write_bytes(b"oops")
    with pytest.raises(CorruptionError):
        load_basis(path)


def test_json_export_shape(circle_basis_3):
    doc = basis_to_json_dict(circle_basis_3)
    assert doc["mode_count"] == 7
    assert doc["model"]["kind"] == "flat-torus"
    assert doc["modes"][3]["freqs"] == [2]
    assert len(doc["digest"]) == 64


def test_model_validation():
    with pytest.raises(ParameterError):
        FlatTorus(3, (1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        FlatTorus(1, (-1.0,))
    with pytest.raises(ParameterError):
        RevTorus(1.0, 2.0)
    with pytest.raises(ParameterError):
        build_basis(FlatTorus(1, (TWO_PI,)), -1.0)
