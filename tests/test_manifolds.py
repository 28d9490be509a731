"""Eigenbases on the three model surfaces."""

import ast
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.special import sph_harm_y

from eigenprod.cli import cli_main
from eigenprod.coefficients import ProductSpec, _factor_rows
from eigenprod.errors import (
    ConvergenceError,
    CorruptionError,
    ParameterError,
    UnderResolvedError,
    VersionMismatchError,
)
from eigenprod import manifolds
from eigenprod.manifolds import (
    COS,
    REV_M_CAP,
    REV_TRUNCATION_CAP,
    SIN,
    FlatTorus,
    RevTorus,
    Sphere2,
    _legendre_rows,
    _rev_truncation,
    as_chart_function,
    basis_digest,
    basis_to_json_dict,
    build_basis,
    evaluate,
    load_basis,
    save_basis,
)
from eigenprod.numerics import QuadratureGrid, rev_galerkin_terms, uniform_periodic
from reference import grid_weights, mode_reps, rev_build_reference, rev_profile_derivatives

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


def grid_chart_points(basis):
    """The grid nodes as chart points, first axis slowest: (n,) in 1-d,
    (n, 2) in 2-d, with theta = arccos of the sphere's Gauss axis."""
    nodes = [ax.nodes for ax in basis.axes]
    if isinstance(basis.model, Sphere2):
        nodes[0] = np.arccos(nodes[0])
    if len(nodes) == 1:
        return nodes[0]
    return np.stack([m.reshape(-1) for m in np.meshgrid(*nodes, indexing="ij")], axis=-1)


def basis_equal(one, other) -> bool:
    """Bit-exact comparison of every persisted field."""
    return (
        one.model == other.model
        and one.lambda_max == other.lambda_max
        and one.provenance == other.provenance
        and np.array_equal(one.lams, other.lams)
        and all(np.array_equal(one.reps[name], other.reps[name]) for name in one.model.rep_names)
        and np.array_equal(one.coefficients, other.coefficients)
        and len(one.axes) == len(other.axes)
        and all(np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
                for a, b in zip(one.axes, other.axes))
    )


def test_flat_circle_mode_table(circle_basis_3):
    basis = circle_basis_3
    assert basis.size == 7
    assert basis.lams.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    # cos precedes sin at each frequency
    assert mode_reps(basis) == [
        ((0,), (COS,)),
        ((1,), (COS,)), ((1,), (SIN,)),
        ((2,), (COS,)), ((2,), (SIN,)),
        ((3,), (COS,)), ((3,), (SIN,)),
    ]


def _tuple_sorted_modes(model, lambda_max):
    """(lam, rep) of every mode, from one loop per frequency or degree and
    a sort of the (lam, rep) tuples: the reference for the array builds."""
    if isinstance(model, Sphere2):
        return [(model.rep_lambda((l, 0)), (l, m))
                for l in range(manifolds._sphere_lmax(lambda_max) + 1) for m in range(-l, l + 1)]
    entries = []
    kmax = int(lambda_max * max(model.periods) / TWO_PI) + 1
    for freqs in itertools.product(range(kmax + 1), repeat=model.dim):
        lam = model.rep_lambda((freqs, None))
        if lam <= lambda_max * (1.0 + 1e-12):
            entries += [(lam, (freqs, pars)) for pars in
                        itertools.product(*((COS,) if k == 0 else (COS, SIN) for k in freqs))]
    return sorted(entries)


@pytest.mark.parametrize("model, lambda_max", [
    (FlatTorus(1, (TWO_PI,)), 16.0), (FlatTorus(1, (0.7,)), 60.0),
    (FlatTorus(2, (TWO_PI, TWO_PI)), 9.0), (FlatTorus(2, (1.0, 2.0)), 16.0),
    (FlatTorus(2, (TWO_PI, 3.1)), 8.0), (Sphere2(), 30.0),
], ids=["circle", "short-circle", "square", "oblong", "mixed", "sphere"])
def test_exact_builds_order_modes_like_a_tuple_sort(model, lambda_max):
    basis = build_basis(model, lambda_max)
    assert list(zip(basis.lams.tolist(), mode_reps(basis))) \
        == _tuple_sorted_modes(model, lambda_max)


def test_flat_circle_normalization(circle_basis_3):
    basis = circle_basis_3
    assert evaluate(basis, 3, 0.0) == pytest.approx(
        0.5641895835477563, abs=1e-12)  # 1/sqrt(pi), mode 3 is cos 2x
    assert evaluate(basis, 0, 1.234) == pytest.approx(
        1.0 / math.sqrt(TWO_PI), abs=1e-15)


def test_flat_torus_2d_mode_count():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 2.5)
    # lambda^2 values: 0 (x1), 1 (x4), 2 (x4), 4 (x4), 5 (x8)
    assert basis.size == 21
    lams = np.round(basis.lams ** 2).astype(int).tolist()
    assert lams == [0] + [1] * 4 + [2] * 4 + [4] * 4 + [5] * 8


def test_flat_torus_orthonormal_on_grid(circle_basis_3, grid_values):
    basis = circle_basis_3
    values = grid_values(basis)
    gram = (values * grid_weights(basis)) @ values.T
    assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-12


def test_sphere_mode_table(sphere_basis_3):
    basis = sphere_basis_3
    assert basis.size == 16  # (l+1)^2 for l <= 3
    expected = [math.sqrt(l * (l + 1.0)) for l in range(4) for _ in range(2 * l + 1)]
    assert basis.lams == pytest.approx(expected, abs=1e-15)


def test_sphere_point_values(sphere_basis_3):
    assert evaluate(sphere_basis_3, 0, (1.0, 2.0)) == pytest.approx(
        0.2820947917738781, abs=1e-12)  # 1/sqrt(4 pi), mode 0 is Y00
    y10 = mode_reps(sphere_basis_3).index((1, 0))
    # explicit Y_1^0 with Legendre normalization: sqrt(3/4pi) cos(theta)
    assert evaluate(sphere_basis_3, y10, (0.0, 0.0)) == pytest.approx(
        0.4886025119029199, abs=1e-12)


def test_sphere_matches_scipy_harmonics(sphere_basis_3):
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.05, math.pi - 0.05, size=12)
    phi = rng.uniform(0.0, TWO_PI, size=12)
    pts = np.stack([theta, phi], axis=-1)
    for mode, (l, m) in enumerate(mode_reps(sphere_basis_3)):
        ref = sph_harm_y(l, abs(m), theta, phi)
        if m == 0:
            expected = ref.real
        elif m > 0:
            expected = math.sqrt(2.0) * (-1.0) ** m * ref.real
        else:
            expected = math.sqrt(2.0) * (-1.0) ** m * ref.imag
        assert evaluate(sphere_basis_3, mode, pts) == pytest.approx(expected, abs=1e-12)


def test_sphere_orthonormal_on_grid(grid_values):
    basis = build_basis(Sphere2(), math.sqrt(8.0 * 9.0) + 1e-9)  # l <= 8
    values = grid_values(basis)
    gram = (values * grid_weights(basis)) @ values.T
    assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-8


def test_normalized_legendre_l2_norm():
    # int over [-1,1] of P(l,m,x)^2 dx = 1/(2 pi) for every l, m
    from eigenprod.numerics import gauss_legendre

    grid = gauss_legendre(80)
    for l in range(0, 20, 3):
        for m in range(0, l + 1, 2):
            vals = _legendre_rows([(l, m)], grid.nodes)[0]
            assert float(grid.weights @ (vals * vals)) == pytest.approx(
                1.0 / TWO_PI, rel=1e-12)


@pytest.mark.parametrize("model, lambda_max", [
    (FlatTorus(1, (TWO_PI,)), 9.0),
    (FlatTorus(2, (TWO_PI, 3.0)), 9.0),
    (Sphere2(), 12.0),
], ids=["flat1", "flat2", "sphere"])
def test_rep_lambda_is_the_built_lambda(model, lambda_max):
    basis = build_basis(model, lambda_max)
    assert basis.size > 15
    for lam, rep in zip(basis.lams.tolist(), mode_reps(basis)):
        assert model.rep_lambda(rep).hex() == lam.hex()


@pytest.mark.parametrize("model, token", [
    (FlatTorus(1, (TWO_PI,)), "sin0"),
    (FlatTorus(1, (TWO_PI,)), "cos-1"),
    (FlatTorus(2, (TWO_PI, TWO_PI)), "s0c1"),
    (Sphere2(), "Y2m3"),
    (Sphere2(), "Y-1m0"),
])
def test_labels_that_name_no_mode_are_refused(model, token):
    with pytest.raises(ParameterError, match="names no"):
        model.parse_label(token)


@pytest.mark.parametrize("model, token", [
    (FlatTorus(1, (TWO_PI,)), "cos1_0"),
    (FlatTorus(1, (TWO_PI,)), "cos\u0663"),
    (FlatTorus(1, (TWO_PI,)), "sin+2"),
    (FlatTorus(2, (TWO_PI, TWO_PI)), "c 1s2"),
    (FlatTorus(2, (TWO_PI, TWO_PI)), "c1s\u00b2"),
    (Sphere2(), "Y+2m-1"),
    (Sphere2(), "Y2m\u0661"),
], ids=["underscore", "arabic-indic", "plus", "space", "superscript", "sphere-plus",
        "sphere-arabic-indic"])
def test_labels_outside_the_ascii_grammar_are_refused(model, token):
    # a frequency or degree is ASCII digits with an optional minus sign
    with pytest.raises(ParameterError, match="cannot parse"):
        model.parse_label(token)


def test_rev_torus_has_no_closed_form_lambda(rev_basis_3):
    assert rev_basis_3.model.rep_lambda(mode_reps(rev_basis_3)[1]) is None


def test_rev_torus_constant_mode(rev_basis_3):
    basis = rev_basis_3
    assert basis.lams[0] == 0.0
    volume = basis.model.volume
    assert evaluate(basis, 0, (0.7, 1.9)) == pytest.approx(
        1.0 / math.sqrt(volume), abs=1e-15)
    assert basis.provenance.startswith("numerical(residual=")


def test_rev_torus_angular_pairs_share_lambda(rev_basis_3):
    by_key = {}
    for lam, (m, parity), coeffs in zip(rev_basis_3.lams.tolist(), mode_reps(rev_basis_3),
                                        rev_basis_3.coefficients):
        by_key.setdefault((m, tuple(coeffs)), []).append((parity, lam))
    for (m, _coeffs), entries in by_key.items():
        if m == 0:
            assert len(entries) == 1
        else:
            assert sorted(p for p, _ in entries) == [COS, SIN]
            assert entries[0][1] == entries[1][1]


def test_rev_torus_orthonormal_on_grid(rev_basis_3, grid_values):
    basis = rev_basis_3
    values = grid_values(basis)
    gram = (values * grid_weights(basis)) @ values.T
    assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-8


@pytest.mark.parametrize("fixture", ["circle_basis_3", "flat2_basis", "sphere_basis_3"])
def test_factor_rows_equal_profile_matrix_rows(request, fixture):
    # a product evaluates only its factor modes; on the closed-form models
    # those rows keep the bits of the rows of every mode on the grid (the
    # profile matrices), and with them the bits of the product norm
    basis = request.getfixturevalue(fixture)
    profile_matrices = basis.model.axis_factor_rows(
        basis, np.arange(basis.size), tuple(ax.nodes for ax in basis.axes))
    top = basis.size - 1
    for factors in ((0,), (2, 2), (top, 1, 2), (3, top, 3, 1)):
        rows = _factor_rows(ProductSpec(basis, factors))
        assert len(rows) == len(profile_matrices)
        for axis_rows, full in zip(rows, profile_matrices):
            assert np.array_equal(axis_rows, full[sorted(factors)])


@pytest.mark.parametrize("fixture", ["circle_basis_3", "flat2_basis", "sphere_basis_3",
                                     "rev_basis_3"])
def test_profile_matrices_match_pointwise_evaluation(request, fixture, grid_values):
    # every mode on the grid, from the per-axis rows, against evaluate at
    # the grid's chart points
    basis = request.getfixturevalue(fixture)
    values = grid_values(basis)
    for mode in range(basis.size):
        pointwise = evaluate(basis, mode, grid_chart_points(basis))
        assert np.max(np.abs(values[mode] - pointwise)) <= 1e-13


@pytest.mark.parametrize("fixture", ["circle_basis_3", "flat2_basis", "sphere_basis_3",
                                     "rev_basis_3"])
def test_grid_is_one_rule_per_chart_axis(request, fixture):
    basis = request.getfixturevalue(fixture)
    assert len(basis.axes) == basis.model.chart_dim
    for ax in basis.axes:
        assert isinstance(ax, QuadratureGrid)
        assert ax.nodes.ndim == 1 and ax.weights.shape == ax.nodes.shape
    assert basis.axis_sizes() == [ax.nodes.shape[0] for ax in basis.axes]
    weights = grid_weights(basis)
    assert weights.shape == (math.prod(basis.axis_sizes()),)
    assert math.isclose(weights.sum(), basis.model.volume, rel_tol=1e-12)


@pytest.fixture(scope="module")
def circle_basis_8_on_10_nodes():
    # 10 nodes are exact to degree 9, enough for the constant times every
    # mode; freqs 6 to 8 lie past n / 2, where a half spectrum has no bin
    model = FlatTorus(1, (TWO_PI,))
    return dataclasses.replace(build_basis(model, 8.0), axes=model.quadrature_grid([10]))


@pytest.mark.parametrize("fixture", ["circle_basis_3", "flat2_basis", "sphere_basis_3",
                                     "rev_basis_3", "circle_basis_8_on_10_nodes"])
def test_axis_projections_equal_row_sums(request, fixture):
    # per axis, every mode's factor row summed against one vector: the FFT
    # bins (and the sphere's Legendre rows) against the rows themselves
    basis = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    weighted = [ax.weights * rng.standard_normal(ax.size) for ax in basis.axes]
    rows = basis.model.axis_factor_rows(basis, np.arange(basis.size),
                                        tuple(ax.nodes for ax in basis.axes))
    sums = basis.model.axis_projections(basis, weighted)
    assert len(sums) == len(rows) == basis.model.chart_dim
    for axis_sums, axis_rows, values in zip(sums, rows, weighted):
        assert axis_sums.shape == (basis.size,)
        assert np.max(np.abs(axis_sums - axis_rows @ values)) <= 1e-13


@pytest.mark.parametrize("fixture", ["circle_basis_3", "flat2_basis", "sphere_basis_3",
                                     "rev_basis_3"])
def test_lattice_values_equal_pointwise_evaluation(request, fixture):
    # rows formed on each axis's own coordinates and multiplied as an outer
    # product give evaluate's value at every lattice point, bit for bit
    basis = request.getfixturevalue(fixture)
    model = basis.model
    coords = [np.linspace(0.1, 3.0, 37), np.linspace(-1.0, 7.0, 29)][:model.chart_dim]
    points = np.stack([m.reshape(-1) for m in np.meshgrid(*coords, indexing="ij")], axis=-1)
    pointwise = np.stack([evaluate(basis, mode, points[:, 0] if model.chart_dim == 1
                                   else points) for mode in range(basis.size)])
    for mode in range(basis.size):
        assert np.array_equal(model.lattice_values(basis, [mode], coords)[0], pointwise[mode])
    # several modes in one call: each row keeps its one-mode bits
    every = model.lattice_values(basis, np.arange(basis.size), coords)
    assert np.array_equal(every, pointwise)
    bad = [[coords[0][:1]] * (model.chart_dim + 1),
           [np.array([np.nan])] + coords[1:],
           *([[np.array([-0.1]), coords[1]]] if isinstance(model, Sphere2) else [])]
    for wrong in bad:
        with pytest.raises(ParameterError):
            model.lattice_values(basis, [0], wrong)


def _direct_trig_row(freq, parity, x, const, amp):
    if freq == 0:
        return np.full(x.shape, const)
    return amp * (np.cos if parity == COS else np.sin)(freq * x)


def test_trig_rows_equal_direct_evaluation_bit_for_bit(flat2_basis, rev_basis_3):
    # each distinct (freq, parity) row is evaluated once and gathered; the
    # gathered rows are the per-mode cos/sin values to the last bit
    model = flat2_basis.model
    axes = model.chart_axes(list(grid_chart_points(flat2_basis).T))
    rows = model.axis_factor_rows(flat2_basis, np.arange(flat2_basis.size), axes)
    for a, period in enumerate(model.periods):
        direct = np.stack([
            _direct_trig_row(freqs[a] * (TWO_PI / period), parities[a], axes[a],
                             1.0 / math.sqrt(period), math.sqrt(2.0 / period))
            for freqs, parities in mode_reps(flat2_basis)])
        assert np.array_equal(rows[a], direct)
    axes = rev_basis_3.model.chart_axes(list(grid_chart_points(rev_basis_3).T))
    theta_rows = rev_basis_3.model.axis_factor_rows(
        rev_basis_3, np.arange(rev_basis_3.size), axes)[1]
    direct = np.stack([
        _direct_trig_row(m, parity, axes[1], 1.0 / math.sqrt(TWO_PI), 1.0 / math.sqrt(math.pi))
        for m, parity in mode_reps(rev_basis_3)])
    assert len(set(mode_reps(rev_basis_3))) < rev_basis_3.size
    assert np.array_equal(theta_rows, direct)


def test_rev_torus_strong_form_residual(rev_basis_3):
    # apply the metric Laplacian -(1/f)(f v')' + m^2 v / f^2 through exact
    # coefficient differentiation and measure the L2 defect per mode
    basis = rev_basis_3
    model = basis.model
    fine = uniform_periodic(2048, TWO_PI)
    s = fine.nodes
    f = model.profile(s)
    df = -model.minor_radius * np.sin(s)
    for lam, m, coeffs in zip(basis.lams.tolist(), basis.reps["m"].tolist(), basis.coefficients):
        v, dv, ddv = rev_profile_derivatives(coeffs, s)
        residual = -ddv - (df / f) * dv + (m * m) * v / (f * f) - (lam**2) * v
        norm_sq = fine.weights @ (f * v * v)
        defect = math.sqrt(float(fine.weights @ (f * residual * residual)))
        assert defect <= 1e-6 * math.sqrt(float(norm_sq))


def test_rev_torus_self_convergence(monkeypatch):
    # doubling the Galerkin truncation moves no kept eigenvalue by > 1e-8
    model = RevTorus(2.0, 1.0)
    coarse = build_basis(model, 3.0)
    trunc = manifolds._rev_truncation(model, 3.0)
    monkeypatch.setattr(manifolds, "_rev_truncation", lambda _model, _lam: 2 * trunc)
    fine = build_basis(model, 3.0)
    assert coarse.coefficients.shape[1] == 2 * 32 + 1
    assert fine.coefficients.shape[1] == 2 * 64 + 1
    assert coarse.size == fine.size
    assert np.max(np.abs(coarse.lams - fine.lams)) <= 1e-8


def test_rev_torus_equal_sigma_families_match():
    # (4, 2) is (2, 1) with f doubled: the pencil of its family 2m is twice
    # that of family m on (2, 1), so each (2, 1) mode (m, parity) has a
    # (4, 2) twin (2m, parity) with its lambda and 1/sqrt(2) times its row
    small, large = (build_basis(RevTorus(*radii), 5.0) for radii in ((2.0, 1.0), (4.0, 2.0)))
    assert small.coefficients.shape[1] == large.coefficients.shape[1]
    families = [{}, {}]
    for basis, family in zip((small, large), families):
        for mode, rep in enumerate(mode_reps(basis)):
            family.setdefault(rep, []).append(mode)
    matched = 0
    for (m, parity), ids in families[0].items():
        twins = families[1][(2 * m, parity)]
        assert len(twins) >= len(ids)
        for i, j in zip(ids, twins):
            assert abs(small.lams[i] - large.lams[j]) <= 1e-12 * small.lams[i]
            assert np.max(np.abs(small.coefficients[i]
                                 - math.sqrt(2.0) * large.coefficients[j])) <= 1e-12
            matched += 1
    assert matched == small.size > 100


@pytest.mark.parametrize("big, small, lambda_max, trunc", [
    (5.0, 1.0, 3.0, 24), (2.0, 1.0, 3.0, 32), (2.0, 1.0, 4.5, 40), (1.3, 1.0, 4.0, 56),
    (2.0, 1.9, 3.0, 120), (2.0, 1.9, 8.1, 128), (1.02, 1.0, 2.0, 184),
    # R / r overflows to an infinite strip: the floor of 8 keeps a pencil
    (1e300, 1e-10, 0.0, 8),
])
def test_rev_truncation_is_lambda_max_plus_the_strip_decay_length(big, small, lambda_max, trunc):
    # N = lambda_max + ceil(36 / arccosh(R / r)), rounded up to a multiple of 8
    assert manifolds._rev_truncation(RevTorus(big, small), lambda_max) == trunc


def _profiles_by_family(basis):
    """Each mode's coefficient row keyed by (m, theta parity, s parity, q),
    with q counting the modes of one (m, theta parity, s parity) by lambda."""
    families = {}
    for rep, coeffs in zip(mode_reps(basis), basis.coefficients):
        families.setdefault((*rep, SIN if any(coeffs[2::2]) else COS), []).append(coeffs)
    return {(*key, q): row for key, rows in families.items() for q, row in enumerate(rows)}


@pytest.mark.parametrize("big, small, lambda_max", [
    (5.0, 1.0, 3.0), (2.0, 1.0, 3.0), (1.3, 1.0, 4.0), (2.0, 1.9, 3.0),
], ids=["sigma2.29", "sigma1.32", "sigma0.76", "sigma0.32"])
def test_rev_truncation_matches_a_wide_reference_across_the_strip_ladder(
        monkeypatch, big, small, lambda_max):
    # the strip rule's basis (N = 24, 32, 56, 120 here) against an N = 192
    # build: every profile coefficient within 1e-12 after sign alignment
    model = RevTorus(big, small)
    ours = _profiles_by_family(build_basis(model, lambda_max))
    monkeypatch.setattr(manifolds, "REV_TRUNCATION_CAP", 192)
    monkeypatch.setattr(manifolds, "_rev_truncation", lambda _model, _lam: 192)
    reference = _profiles_by_family(build_basis(model, lambda_max))
    assert ours.keys() == reference.keys()
    gap = 0.0
    for key, row in reference.items():
        padded = np.zeros_like(row)
        padded[:ours[key].size] = ours[key]
        sign = 1.0 if padded @ row >= 0.0 else -1.0
        gap = max(gap, float(np.max(np.abs(sign * padded - row))))
    assert gap <= 1e-12


def test_rev_torus_digest_does_not_depend_on_blas_threads():
    # the digest covers every profile coefficient and the residual, so it
    # is the bit-level check; each thread count runs in a fresh process.
    # The fourth input, a thin neck just inside the angular cap, runs at
    # the truncation cap, the widest pencil a build may solve.  Then each
    # rev-torus product or decay report gives the sha256 of its canonical
    # results and its basis digest.
    src = str(pathlib.Path(manifolds.__file__).parents[1])
    probe = textwrap.dedent("""\
        import contextlib, hashlib, io, pathlib, tempfile
        from eigenprod import RevTorus, basis_digest, build_basis, manifolds
        from eigenprod.cli import cli_main
        from eigenprod.reportio import canonical_json, load_json
        print(*(basis_digest(build_basis(RevTorus(R, r), lam)) for R, r, lam
                in ((2.0, 1.0, 6.0), (2.0, 1.0, 3.0), (1.8, 0.9, 4.5))))
        capped = build_basis(RevTorus(2.0, 1.9), 8.1)
        assert capped.coefficients.shape[1] == 2 * manifolds.REV_TRUNCATION_CAP + 1
        print(basis_digest(capped))
        with tempfile.TemporaryDirectory() as tmp:
            for k, (command, big, small, *args) in enumerate((
                    ("product", "2", "1", "--factors", "1,3"),
                    ("product", "3", "1", "--factors", "2,5"),
                    ("decay", "2", "1", "--factors", "1,3", "--lambda-max-mult", "6"))):
                out = pathlib.Path(tmp, str(k))
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([command, "--model", "rev-torus", "--R", big, "--r", small,
                                     *args, "--out", str(out), "--cache", tmp])
                assert code == 0
                doc = load_json(out / f"{command}.json")
                print(hashlib.sha256(canonical_json(doc["results"]).encode()).hexdigest(),
                      doc["provenance"]["basis_digest"])
        """)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        digests.append(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                      capture_output=True, text=True).stdout.split())
    assert len(digests[0]) == 4 + 2 * 3
    assert digests[0] == digests[1]


def _gvd_rev_modes(basis):
    """(lam, m, theta parity, s parity, coefficients) of every mode kept to
    the basis's lambda_max at its s-truncation, sorted like a basis, from
    one full-spectrum dsygvd per family and s-parity block: the reference
    for the reduced, kept-subset solver."""
    big, small = basis.model.major_radius, basis.model.minor_radius
    lambda_max = basis.lambda_max
    trunc = (basis.coefficients.shape[1] - 1) // 2
    blocks = rev_galerkin_terms(big, small, trunc)
    entries = []
    for m in range(math.floor(lambda_max * (big + small) * (1.0 + 1e-12)) + 1):
        # the full K + m^2 M_inv is 0 between the blocks
        families = [stiff + (m * m) * inv_weight for _idx, stiff, inv_weight, _mass in blocks]
        a_max = max(max(float(np.max(np.abs(a))) for a in families), 1.0)
        for s_parity, (idx, _stiff, _inv_weight, mass), a in zip((COS, SIN), blocks, families):
            values, vectors = scipy.linalg.eigh(a, mass, driver="gvd")
            lams = np.sqrt(np.where(values <= 1e-12 * a_max, 0.0, values))
            for q in np.flatnonzero(lams <= lambda_max * (1.0 + 1e-12)):
                coeffs = np.zeros(2 * trunc + 1)
                if lams[q] == 0.0:
                    coeffs[0] = 1.0 / math.sqrt(big)
                else:
                    column = vectors[:, q]
                    big_entries = np.abs(column) > 1e-8 * np.max(np.abs(column))
                    coeffs[idx] = column * np.sign(column[np.argmax(big_entries)])
                for theta_parity in ((COS,) if m == 0 else (COS, SIN)):
                    entries.append((float(lams[q]), m, theta_parity, s_parity, coeffs))
    entries.sort(key=lambda entry: entry[:4] + tuple(entry[4]))
    return entries


def _rev_cold_lambda(big, small):
    # the rev-cold decay op: lambda_max = 5 * (lambda_1 + lambda_3)
    probe = build_basis(RevTorus(big, small), 2.0)
    return 5.0 * (float(probe.lams[1]) + float(probe.lams[3]))


@pytest.mark.parametrize("big, small, lambda_max", [
    (2.0, 1.0, 6.0), (2.0, 1.0, 3.0), (1.8, 0.9, 4.5),
    (1.8, 0.9, None), (2.3, 1.15, None),
])
def test_reduced_subset_solver_matches_full_dsygvd(big, small, lambda_max):
    lambda_max = lambda_max or _rev_cold_lambda(big, small)
    basis = build_basis(RevTorus(big, small), lambda_max)
    oracle = _gvd_rev_modes(basis)
    ours = [(lam, m, parity, SIN if any(coeffs[2::2]) else COS, coeffs)
            for lam, (m, parity), coeffs in zip(basis.lams.tolist(), mode_reps(basis),
                                                basis.coefficients)]
    assert [entry[1:4] for entry in ours] == [entry[1:4] for entry in oracle]
    assert max(abs(x[0] - y[0]) for x, y in zip(ours, oracle)) <= 1e-11
    assert max(np.max(np.abs(x[4] - y[4])) for x, y in zip(ours, oracle)) <= 1e-12


def assert_same_rev_basis(ours, reference):
    assert ours.lams.dtype == reference.lams.dtype and np.array_equal(ours.lams, reference.lams)
    for name in reference.model.rep_names:
        assert ours.reps[name].dtype == reference.reps[name].dtype
        assert np.array_equal(ours.reps[name], reference.reps[name])
    assert np.array_equal(ours.coefficients, reference.coefficients)
    assert ours.provenance == reference.provenance
    # the digest also covers the sign of every zero
    assert basis_digest(ours) == basis_digest(reference)


# the rev-cold workload's geometries, R and r as its CLI arguments give them
REV_COLD_SCALES = [(float(f"{2.0 * scale:.4f}"), float(f"{scale:.4f}"))
                   for scale in (0.9, 0.95, 1.0, 1.05, 1.1, 1.15)]


@pytest.mark.parametrize("big, small", REV_COLD_SCALES)
def test_rev_build_matches_the_per_family_reference_on_rev_cold(big, small):
    # one array pass per s-parity block gives every bit of the per-family
    # build, on the lambda=2 probe and the final basis of a rev-cold op
    probe = build_basis(RevTorus(big, small), 2.0)
    assert_same_rev_basis(probe, rev_build_reference(RevTorus(big, small), 2.0))
    lambda_max = _rev_cold_lambda(big, small)
    assert_same_rev_basis(build_basis(RevTorus(big, small), lambda_max),
                          rev_build_reference(RevTorus(big, small), lambda_max))


@pytest.mark.parametrize("big, small, lambda_max", [
    (2.0, 1.0, 2.0), (2.0, 1.0, 3.0), (2.0, 1.0, 6.0),
    (2.0, 1.9, 8.1), (4.4296, 0.8220, 0.625),
], ids=["probe", "lambda-3", "lambda-6", "thin-neck", "no-s-sine-mode"])
def test_rev_build_matches_the_per_family_reference(big, small, lambda_max):
    basis = build_basis(RevTorus(big, small), lambda_max)
    assert_same_rev_basis(basis, rev_build_reference(RevTorus(big, small), lambda_max))
    if small == 1.9:
        # the thin neck runs at the truncation cap N = 128
        assert basis.coefficients.shape[1] == 2 * 128 + 1
    if big == 4.4296:
        # the s-sine block keeps no family at all
        assert not np.any(basis.coefficients[:, 2::2])



def _random_rev_geometries(count):
    rng = np.random.default_rng(40)
    cases = []
    for _ in range(count):
        small = float(rng.uniform(0.3, 2.0))
        cases.append((small * float(rng.uniform(1.05, 6.0)), small, float(rng.uniform(0.5, 8.0))))
    return cases


@pytest.mark.parametrize("big, small, lambda_max", [
    *[(big, small, None) for big, small in REV_COLD_SCALES],
    (2.0, 1.0, 6.0),
    # the thinnest neck the truncation cap admits (N = 128 at R / r = 1.04),
    # with every family up to the angular cap
    (1.04, 1.0, 15.7),
    *_random_rev_geometries(4),
])
def test_rev_stiffness_maximum_is_on_the_diagonal(big, small, lambda_max):
    # a rev build scales its zero-snap and residual by each family's
    # largest diagonal entry of K + m^2 M_inv.  K and M_inv are Gram
    # matrices under the positive weights f and 1/f, so the family is
    # positive semidefinite and no entry exceeds its largest diagonal one;
    # here the off-diagonal entries stay below 0.95 of it
    lambda_max = lambda_max or _rev_cold_lambda(big, small)
    trunc = min(_rev_truncation(RevTorus(big, small), lambda_max), REV_TRUNCATION_CAP)
    m_scan = min(math.floor(lambda_max * (big + small) * (1.0 + 1e-12)), REV_M_CAP)
    blocks = rev_galerkin_terms(big, small, trunc)
    for _idx, stiff, inv_weight, _mass in blocks:
        for gram in (stiff, inv_weight):
            assert np.linalg.eigvalsh(gram)[0] >= -1e-12 * float(np.max(np.diagonal(gram)))
    for m in range(m_scan + 1):
        families = [stiff + (m * m) * inv_weight for _idx, stiff, inv_weight, _mass in blocks]
        diagonal = max(float(np.max(np.diagonal(a))) for a in families)
        off_diagonal = max(float(np.max(np.abs(a - np.diag(np.diagonal(a))))) for a in families)
        assert max(float(np.max(np.abs(a))) for a in families) == diagonal, m
        assert off_diagonal < 0.95 * diagonal, m

def test_rev_build_peaks_below_the_family_stacks():
    # no (m_scan + 1, n, n) family stack, no |stack| copy and no per-family
    # row list: the per-family build peaked at 1.23 MiB here
    build_basis(RevTorus(2.0, 1.0), 6.954)
    tracemalloc.start()
    try:
        build_basis(RevTorus(2.0, 1.0), 6.954)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * 2 ** 20


def test_save_basis_streams_the_payload(tmp_path):
    # the body's parts are hashed and written in sequence; a save that
    # joined them into one blob (three payload copies) peaked at 0.57 MiB
    basis = build_basis(RevTorus(2.0, 1.0), 6.954)
    save_basis(basis, tmp_path / "warm.eprd")
    basis._digest = None
    tracemalloc.start()
    try:
        save_basis(basis, tmp_path / "basis.eprd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.coefficients.nbytes > 0.18 * 2 ** 20
    assert peak < 0.2 * 2 ** 20
    loaded = load_basis(tmp_path / "basis.eprd")
    assert loaded.coefficients.tobytes() == basis.coefficients.tobytes()


def test_rev_torus_residual_check_can_fail(tmp_path, monkeypatch):
    solve = manifolds.family_eigs

    def perturbed(*args):
        values, vectors, counts = solve(*args)
        return values, vectors + 1e-6, counts
    monkeypatch.setattr(manifolds, "family_eigs", perturbed)
    with pytest.raises(ConvergenceError, match="residual"):
        build_basis(RevTorus(2.0, 1.0), 3.0)
    code = cli_main(["basis", "--model", "rev-torus", "--R", "2", "--r", "1",
                     "--lambda-max", "3", "--out", str(tmp_path / "out"),
                     "--cache", str(tmp_path / "cache")])
    assert code == 3


def test_rev_torus_under_resolution_errors():
    with pytest.raises(UnderResolvedError, match="angular"):
        build_basis(RevTorus(2.0, 1.0), 40.0)
    # a thin neck: sigma = arccosh(1.02) = 0.20 asks for N = 184 at
    # lambda 1, far inside the angular cap (m <= 2)
    with pytest.raises(UnderResolvedError, match="truncation N=184 exceeds cap 128"):
        build_basis(RevTorus(1.02, 1.0), 1.0)


def test_torus_under_resolution_error():
    with pytest.raises(UnderResolvedError):
        build_basis(FlatTorus(1, (TWO_PI,)), 500.0)
    with pytest.raises(UnderResolvedError):
        build_basis(Sphere2(), 200.0)


def test_weyl_counting_flat_torus_2d():
    basis = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 20.0)
    lams = basis.lams
    volume = basis.model.volume
    counts = [int(np.count_nonzero(lams <= lam)) for lam in (10.0, 15.0, 20.0)]
    assert counts == sorted(counts)
    for lam, count in zip((10.0, 15.0, 20.0), counts):
        weyl = volume * lam * lam / (4.0 * math.pi)
        assert abs(count - weyl) <= 0.25 * weyl


def test_evaluate_rejects_bad_points(sphere_basis_3, circle_basis_3):
    with pytest.raises(ParameterError):
        evaluate(sphere_basis_3, 0, (4.0, 0.0))
    with pytest.raises(ParameterError):
        evaluate(circle_basis_3, 0, float("nan"))


@pytest.mark.parametrize("mode_id", [True, 1.0, np.float64(1.0), "1", -1, 7, np.int64(7)])
def test_mode_id_takers_refuse_what_names_no_mode(circle_basis_3, mode_id):
    # evaluate and the chart-function factories run the id check that
    # ProductSpec runs (test_product_spec_refuses_non_integer_ids)
    for call in (lambda: evaluate(circle_basis_3, mode_id, 0.5),
                 lambda: as_chart_function(circle_basis_3, mode_id)):
        with pytest.raises(ParameterError, match="mode id"):
            call()


def test_mode_id_takers_accept_numpy_ints(circle_basis_3):
    point = evaluate(circle_basis_3, 3, 0.5)
    assert evaluate(circle_basis_3, np.int64(3), 0.5) == point
    assert as_chart_function(circle_basis_3, np.int32(3))(np.array([0.5]))[0] == point


def test_save_load_round_trip(tmp_path, circle_basis_3, flat2_basis, sphere_basis_3,
                              rev_basis_3):
    for basis in (circle_basis_3, flat2_basis, sphere_basis_3, rev_basis_3):
        path = tmp_path / "basis.eprd"
        digest = save_basis(basis, path)
        assert digest == basis_digest(basis)
        loaded = load_basis(path)
        assert basis_equal(basis, loaded)


def test_interrupted_save_leaves_the_earlier_file(tmp_path, monkeypatch, circle_basis_3,
                                                  sphere_basis_3):
    # a writer killed before the rename leaves the old file whole and no
    # partial one, so later loads of the key do not fail their digest check
    path = tmp_path / "basis.eprd"
    save_basis(circle_basis_3, path)
    earlier = path.read_bytes()

    def interrupted(_src, _dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_basis(sphere_basis_3, path)
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["basis.eprd"]


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
    from_scratch = streamed_digest(loaded)
    assert saved == from_scratch
    assert streamed_digest(basis) == from_scratch
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


JSON_FIELDS = {  # kind, model fields, mode fields
    "circle_basis_3": ("flat-torus", ("dim", "periods"), ("freqs", "parities")),
    "flat2_basis": ("flat-torus", ("dim", "periods"), ("freqs", "parities")),
    "sphere_basis_3": ("sphere2", (), ("l", "m")),
    "rev_basis_3": ("rev-torus", ("major_radius", "minor_radius"),
                    ("m", "theta_parity", "profile_coefficients")),
}


@pytest.mark.parametrize("name", list(JSON_FIELDS))
def test_json_export_shape(request, name):
    basis = request.getfixturevalue(name)
    kind, model_fields, mode_fields = JSON_FIELDS[name]
    doc = basis_to_json_dict(basis)
    if name == "circle_basis_3":
        assert doc["mode_count"] == 7
        assert doc["modes"][3]["freqs"] == [2]
    assert doc["model"]["kind"] == kind
    assert len(doc["digest"]) == 64
    # model fields and representation fields in decimal, tuples as lists
    assert set(doc["model"]) == {"kind", *model_fields}
    for key in model_fields:
        value = getattr(basis.model, key)
        assert doc["model"][key] == (list(value) if isinstance(value, tuple) else value)
    assert doc["mode_count"] == basis.size == len(doc["modes"])
    for mode, (entry, lam, rep) in enumerate(zip(doc["modes"], basis.lams.tolist(),
                                                 mode_reps(basis))):
        assert set(entry) == {"id", "lambda", *mode_fields}
        assert (entry["id"], entry["lambda"]) == (mode, lam)
        for key, value in zip(mode_fields, rep):
            assert entry[key] == (list(value) if isinstance(value, tuple) else value)
        if "profile_coefficients" in mode_fields:
            assert entry["profile_coefficients"] == basis.coefficients[mode].tolist()
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("name", list(JSON_FIELDS))
def test_mode_reps_hold_only_ints(request, name):
    # per-mode floats live in basis.coefficients, never in a representation
    basis = request.getfixturevalue(name)
    assert basis.coefficients.shape[0] == basis.size
    assert not basis.coefficients.flags.writeable
    for mode, rep in enumerate(mode_reps(basis)):
        for value in rep:
            assert type(value) is int or (
                type(value) is tuple and all(type(v) is int for v in value)), mode


@pytest.mark.parametrize("name", list(JSON_FIELDS))
def test_basis_arrays_are_read_only(request, name, tmp_path):
    # build and load make the same per-mode arrays, once, and no caller
    # can write to them
    built = request.getfixturevalue(name)
    save_basis(built, tmp_path / "basis.eprd")
    loaded = load_basis(tmp_path / "basis.eprd")
    for basis in (built, loaded):
        assert set(basis.reps) == set(basis.model.rep_names)
        assert basis.bandwidths.shape == (basis.size, basis.model.chart_dim)
        assert len(basis.axis_columns) == basis.model.chart_dim
        arrays = [basis.lams, basis.bandwidths, basis.target_bandwidth, *basis.reps.values(),
                  *(c for c in basis.axis_columns if c is not None)]
        assert not any(array.flags.writeable for array in arrays)
    for field in built.model.rep_names:
        assert np.array_equal(built.reps[field], loaded.reps[field])
    assert np.array_equal(built.lams, loaded.lams)
    assert np.array_equal(built.bandwidths, loaded.bandwidths)


@pytest.mark.parametrize("name", list(JSON_FIELDS))
def test_rep_arrays_equal_the_whole_column_conversion(request, name, tmp_path):
    # each rep array is the column of the per-mode entries, in dtype,
    # shape, C order and values, built and loaded
    built = request.getfixturevalue(name)
    save_basis(built, tmp_path / "basis.eprd")
    for basis in (built, load_basis(tmp_path / "basis.eprd")):
        for k, field in enumerate(basis.model.rep_names):
            expected = np.array([rep[k] for rep in mode_reps(basis)], dtype=np.int64)
            got = basis.reps[field]
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert np.array_equal(got, expected)
            assert got.flags.c_contiguous


@pytest.mark.parametrize("name, digest", [
    ("circle_basis_3", "7c2767f8b41b5898b2e640664228e7f6e74747842844d5a9bb4e77c4d69c0024"),
    ("flat2_basis", "ba8cef88d5b12e355178effe32c210aefbcdb335b048dbe70abb32b639d45499"),
    ("sphere_basis_3", "dead255fa4f8a34dc4de173ed3df35ce89b58b73c30b0226224bff5e7f058788"),
], ids=["circle_basis_3", "flat2_basis", "sphere_basis_3"])
def test_cache_payload_is_pinned(request, name, digest):
    # the .eprd payload format is fixed: exact bases hash to known digests
    basis = request.getfixturevalue(name)
    assert streamed_digest(basis) == digest
    assert hashlib.sha256(payload_bytes(basis)).hexdigest() == digest


def streamed_digest(basis) -> str:
    """The sha256 of a basis's canonical body, fed its parts one at a time
    as ``save_basis`` streams them."""
    digest = hashlib.sha256()
    for part in manifolds._basis_payload(basis):
        digest.update(part)
    return digest.hexdigest()


def payload_bytes(basis) -> bytes:
    """A basis's canonical body: the bytes of its parts in sequence."""
    return b"".join(manifolds._basis_payload(basis))


def split_payload(payload: bytes):
    """(header dict, float64 values) of a cache body."""
    header, _, block = payload.partition(b"\n")
    return json.loads(header), np.frombuffer(block, dtype="<f8")


def test_rev_mode_payload_layout(rev_basis_3):
    # rev-torus bits depend on the BLAS build, so pin the layout instead: a
    # canonical header with m and theta parity as columns, then the lambda
    # column and the 2N+1 profile coefficients per mode, row-major, with
    # N = 32 from the strip rule on (2, 1) at lambda 3
    payload = payload_bytes(rev_basis_3)
    header, values = split_payload(payload)
    header_text = payload.partition(b"\n")[0]
    assert header_text == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    reps = mode_reps(rev_basis_3)
    count, width = len(reps), 2 * 32 + 1
    assert header["model"] == {"kind": "rev-torus", "major_radius": (2.0).hex(),
                               "minor_radius": (1.0).hex()}
    assert rev_basis_3.coefficients.shape == (count, width)
    assert (header["count"], header["floats_per_mode"]) == (count, width + 1)
    assert header["columns"] == {"m": [rep[0] for rep in reps],
                                 "theta_parity": [rep[1] for rep in reps]}
    assert header["lambda_max"] == (3.0).hex()
    assert header["grid_axis_sizes"] == rev_basis_3.axis_sizes()
    assert values.size == count * (width + 1)
    assert values[:count].tolist() == rev_basis_3.lams.tolist()
    assert np.array_equal(values[count:].reshape(count, width), rev_basis_3.coefficients)


def write_body(path, body: bytes) -> None:
    """A current-version cache file around ``body`` with a valid digest."""
    path.write_bytes(manifolds.CACHE_MAGIC + struct.pack("<H", manifolds.CACHE_VERSION)
                     + hashlib.sha256(body).digest() + struct.pack("<Q", len(body)) + body)


def test_non_models_fail_cleanly(tmp_path, circle_basis_3):
    with pytest.raises(ParameterError):
        build_basis(object(), 1.0)
    # a file with an unknown model kind but a valid digest: the kind check,
    # not the digest check, must reject it
    header, values = split_payload(payload_bytes(circle_basis_3))
    header["model"]["kind"] = "cube"
    path = tmp_path / "cube.eprd"
    write_body(path, json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
               + b"\n" + values.tobytes())
    with pytest.raises(CorruptionError, match="unknown model kind 'cube'"):
        load_basis(path)


def _no_separator(header, values):
    return json.dumps(header).encode() + values.tobytes().replace(b"\n", b"")


def _one_value_short(header, values):
    return json.dumps(header).encode() + b"\n" + values[:-1].tobytes()


def _count_off_by_one(header, values):
    return json.dumps({**header, "count": header["count"] + 1}).encode() + b"\n" \
        + values.tobytes()


def _short_column(header, values):
    columns = {k: v[:-1] for k, v in header["columns"].items()}
    return json.dumps({**header, "columns": columns}).encode() + b"\n" + values.tobytes()


def _ragged_column(header, values):
    # one representation entry nested deeper than the rest of its column
    name = sorted(header["columns"])[0]
    column = header["columns"][name]
    columns = {**header["columns"], name: [[column[0]], *column[1:]]}
    return json.dumps({**header, "columns": columns}).encode() + b"\n" + values.tobytes()


def _widened_column(position):
    """Damage that gives every entry of one column one more element: a
    flat torus row one int wider, a scalar a one-element list."""
    def damage(header, values):
        name = sorted(header["columns"])[position]
        columns = {**header["columns"], name: [entry + [0] if isinstance(entry, list) else [entry]
                                               for entry in header["columns"][name]]}
        return json.dumps({**header, "columns": columns}).encode() + b"\n" + values.tobytes()
    damage.__name__ = f"_widened_column_{position}"
    return damage


def _non_int_entry(convert):
    """Damage that converts the last int of one column's last entry: a
    float or a JSON boolean, which int64 conversion would accept, or an
    int past int64."""
    def damage(header, values):
        name = sorted(header["columns"])[0]
        *head, last = header["columns"][name]
        last = [*last[:-1], convert(last[-1])] if isinstance(last, list) else convert(last)
        columns = {**header["columns"], name: [*head, last]}
        return json.dumps({**header, "columns": columns}).encode() + b"\n" + values.tobytes()
    damage.__name__ = f"_non_int_entry_{convert.__name__}"
    return damage


def _past_int64(value):
    return value + 2 ** 63


def _no_modes(header, values):
    columns = {name: [] for name in header["columns"]}
    return json.dumps({**header, "count": 0, "columns": columns}).encode() + b"\n"


def _lambdas_descending(header, values):
    # every other byte of the body kept: only the lambda order is wrong
    count = header["count"]
    lams = values[:count][::-1]
    return json.dumps(header).encode() + b"\n" + np.concatenate([lams, values[count:]]).tobytes()


def _lambda_nan(header, values):
    values = values.copy()
    values[header["count"] - 1] = np.nan
    return json.dumps(header).encode() + b"\n" + values.tobytes()


def _coefficient_width_flipped(header, values):
    # a consistent block whose coefficient width does not fit the model:
    # one coefficient per flat-torus mode, none per rev-torus mode
    count = header["count"]
    if header["floats_per_mode"] == 1:
        header, values = {**header, "floats_per_mode": 2}, np.concatenate([values, values])
    else:
        header, values = {**header, "floats_per_mode": 1}, values[:count]
    return json.dumps(header).encode() + b"\n" + values.tobytes()


def _grid_sizes_miscounted(header, values):
    # one size too few on the two-axis rev torus, one too many on the circle
    sizes = header["grid_axis_sizes"]
    sizes = sizes[:1] if len(sizes) == 2 else sizes + sizes
    return json.dumps({**header, "grid_axis_sizes": sizes}).encode() + b"\n" + values.tobytes()


@pytest.mark.parametrize("name", ["circle_basis_3", "rev_basis_3"])
@pytest.mark.parametrize("damage", [_no_separator, _one_value_short, _count_off_by_one,
                                    _short_column, _ragged_column, _widened_column(0),
                                    _widened_column(1), _no_modes,
                                    _coefficient_width_flipped, _grid_sizes_miscounted,
                                    _non_int_entry(float), _non_int_entry(bool),
                                    _non_int_entry(_past_int64), _lambdas_descending,
                                    _lambda_nan])
def test_load_rejects_a_malformed_v4_body(tmp_path, request, name, damage):
    # a body with a valid digest whose header and float block disagree
    header, values = split_payload(payload_bytes(request.getfixturevalue(name)))
    path = tmp_path / "bad.eprd"
    write_body(path, damage(header, values))
    with pytest.raises(CorruptionError, match="malformed basis payload"):
        load_basis(path)


def test_load_refuses_fractional_and_boolean_rep_entries(tmp_path, circle_basis_3):
    # a circle lambda 3 file with freqs 0.7, 1.7, 1.7, 2.7, ... and parities
    # written as true/false, under a recomputed digest: int64 conversion
    # would truncate both back to the original basis
    header, values = split_payload(payload_bytes(circle_basis_3))
    columns = header["columns"]
    freqs = [[k + 0.7 for k in entry] for entry in columns["freqs"]]
    parities = [[bool(p) for p in entry] for entry in columns["parities"]]
    assert [entry[0] for entry in freqs[:4]] == [0.7, 1.7, 1.7, 2.7]
    path = tmp_path / "bad.eprd"
    for damaged in ({"freqs": freqs, "parities": parities}, {**columns, "freqs": freqs},
                    {**columns, "parities": parities}):
        write_body(path, json.dumps({**header, "columns": damaged}).encode()
                   + b"\n" + values.tobytes())
        with pytest.raises(CorruptionError, match="not an int"):
            load_basis(path)
    write_body(path, json.dumps(header).encode() + b"\n" + values.tobytes())
    assert basis_equal(load_basis(path), circle_basis_3)


@pytest.mark.parametrize("lambda_max", [4.5, 8.4])
def test_rev_cache_file_is_raw_float64(tmp_path, lambda_max):
    # every float is 8 bytes: the file is the float block plus a small
    # header (at lambda 4.5 the hex-in-JSON body of version 3 is about 2.2
    # times this bound)
    basis = build_basis(RevTorus(2.0, 1.0), lambda_max)
    path = tmp_path / "rev.eprd"
    save_basis(basis, path)
    width = basis.coefficients.shape[1]
    assert path.stat().st_size <= 8 * basis.size * (width + 1) + 4096
    assert basis_equal(load_basis(path), basis)


def test_rev_evaluate_builds_the_circle_basis_at_distinct_s_only(monkeypatch, rev_basis_3):
    # a 512 x 512 lattice has 512 distinct s values; the s profile must not
    # be evaluated once per point
    rows = []
    original = manifolds.circle_basis

    def recorded(s, size):
        rows.append(len(s))
        return original(s, size)

    monkeypatch.setattr(manifolds, "circle_basis", recorded)
    side = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    s, theta = np.meshgrid(side, side + 0.1, indexing="ij")
    values = evaluate(rev_basis_3, 3, np.column_stack([s.ravel(), theta.ravel()]))
    assert rows and max(rows) <= 512
    m, theta_parity = mode_reps(rev_basis_3)[3]
    profile = rev_profile_derivatives(rev_basis_3.coefficients[3], side)[0]
    if m == 0:
        angular = np.full(512, 1.0 / math.sqrt(TWO_PI))
    else:
        trig = np.cos if theta_parity == COS else np.sin
        angular = trig(m * (side + 0.1)) / math.sqrt(math.pi)
    np.testing.assert_allclose(values.reshape(512, 512), np.multiply.outer(profile, angular),
                               rtol=0.0, atol=1e-13)


def test_no_module_tests_which_model_it_holds():
    # a model's behaviour lives in its class: no module runs an isinstance
    # test against a model class, and none outside manifolds keys a dict by
    # one or looks an entry up by ``type(...)``, a second model registry
    models = {"FlatTorus", "Sphere2", "RevTorus"}
    found = []

    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" \
                    and len(node.args) == 2 and models & names(node.args[1]):
                found.append(f"{where} isinstance")
            if path.stem == "manifolds":
                continue
            keys = node.keys if isinstance(node, ast.Dict) else \
                [node.key] if isinstance(node, ast.DictComp) else []
            if any(key is not None and models & names(key) for key in keys):
                found.append(f"{where} keyed by a model class")
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Call) \
                    and ast.unparse(node.slice.func) == "type":
                found.append(f"{where} looked up by type")
    assert found == []


def test_fft_and_convolve_only_in_numerics():
    # the real Fourier codec of every periodic axis lives in numerics
    found = set()
    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name == "np.convolve" or name.startswith("np.fft."):
                    found.add(path.stem)
    assert found == {"numerics"}


def test_only_reportio_writes_indented_json():
    # every report's text comes from reportio.canonical_json: no other
    # package module calls json.dump or json.dumps with an indent
    found = set()
    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func) in ("json.dump", "json.dumps", "dump", "dumps") \
                    and any(keyword.arg == "indent" for keyword in node.keywords):
                found.add(path.stem)
    assert found <= {"reportio"}


def test_no_module_makes_or_reads_a_mode_value():
    # a mode is its id in the basis arrays: no package module defines or
    # builds a Mode, asks a basis for ``.mode(``, or reads ``.rep`` or
    # ``.modes``
    found = set()
    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name == "Mode":
                found.add((path.stem, "class Mode"))
            if isinstance(node, ast.Name) and node.id == "Mode":
                found.add((path.stem, "Mode"))
            if isinstance(node, ast.Attribute) and node.attr in ("rep", "modes", "Mode"):
                found.add((path.stem, f".{node.attr}"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "mode":
                found.add((path.stem, ".mode("))
    assert not found


def test_scipy_imported_only_inside_numerics_functions():
    # numerics owns every LAPACK call and takes its routines from one
    # loader; no module imports scipy or looks it up by name anywhere else
    found = set()

    def names_scipy(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
                "find_spec", "import_module", "__import__"):
            names = [arg.value for arg in node.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        else:
            names = []
        return any(name == "scipy" or name.startswith("scipy.") for name in names)

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if names_scipy(child):
                found.add((module, function))
            visit(module, child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.rglob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), None)
    assert found == {("numerics", "_lapack")}


def _unused_imports(path: pathlib.Path) -> list:
    """``name:line`` for each name that a module imports and never reads;
    a name listed in the module's ``__all__`` counts as read."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # the unused-import lint, over the package and its tests
    package = pathlib.Path(manifolds.__file__).parent
    paths = sorted(package.rglob("*.py")) + sorted(pathlib.Path(__file__).parent.rglob("*.py"))
    assert [line for path in paths for line in _unused_imports(path)] == []


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks ``from eigenprod.<module> import *``
    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.glob("*.py")):
        name = "eigenprod" if path.stem == "__init__" else f"eigenprod.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


# exported names that no package module refers to, each with its reason
UNCALLED_EXPORTS = {
    "evaluate": "the pointwise reference for lattice_values and as_chart_function",
    "sublevel_measure": "the per-threshold reference for remez_fit's measures",
    "wigner_3j": "the 3j reference for gaunt_real",
    "main": "the console entry point that pyproject.toml names",
}


def test_every_exported_name_has_a_caller_in_the_package():
    # every name in an __all__ is referred to by a module other than
    # __init__, outside the __all__ lists and the __main__ guard, unless
    # the allowlist says why not; check helpers live beside their tests
    exported, referred = set(), set()
    package = pathlib.Path(manifolds.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                exported |= set(ast.literal_eval(node.value))
            elif path.stem != "__init__" and not (isinstance(node, ast.If) and ast.unparse(
                    node.test) == "__name__ == '__main__'"):
                referred |= {getattr(n, "id", None) or n.attr for n in ast.walk(node)
                             if isinstance(n, (ast.Name, ast.Attribute))}
    assert exported - referred == set(UNCALLED_EXPORTS)


def test_model_validation():
    with pytest.raises(ParameterError):
        FlatTorus(3, (1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        FlatTorus(1, (-1.0,))
    with pytest.raises(ParameterError):
        RevTorus(1.0, 2.0)
    with pytest.raises(ParameterError):
        build_basis(FlatTorus(1, (TWO_PI,)), -1.0)
