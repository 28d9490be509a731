"""Generalized eigensolver and the closed-form rev-torus Galerkin matrices."""

import importlib.machinery
import importlib.util
import math
import sys

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import eigh

from eigenprod import numerics
from eigenprod.errors import FactorizationError, ParameterError
from eigenprod.manifolds import RevTorus, _rev_truncation
from eigenprod.numerics import (
    circle_basis,
    circle_frequencies,
    family_eigs,
    inverse_cholesky,
    reduce_congruent,
    rev_galerkin_terms,
)
from reference import circle_basis_derivative, full_galerkin_terms, rev_parity_indices


def solve_reduced(reduced, inv_lower, upper=None):
    """The pencil whose reduction is ``reduced``, as a family of one."""
    values, vectors, _counts = family_eigs(reduced, np.zeros_like(reduced), inv_lower, [0], upper)
    return values, vectors


def solve(a, b, upper=None):
    """A v = mu B v through the one reduction the rev-torus build uses."""
    inv_lower = inverse_cholesky(b)
    return solve_reduced(reduce_congruent(inv_lower, a), inv_lower, upper)


def test_lapack_routines_are_those_of_scipy_linalg_lapack():
    # scipy.linalg was imported with this module, so the loader reuses the
    # extension it loaded, and every call keeps scipy's exact routine
    lapack = numerics._lapack()
    for name in ("dpotrf", "dtrtri", "dsyevr", "dsyevr_lwork"):
        assert getattr(lapack, name) is getattr(scipy.linalg.lapack, name)


@pytest.mark.parametrize("finder", [importlib.util, importlib.machinery.PathFinder],
                         ids=["no-scipy", "no-extension"])
def test_missing_lapack_extension_raises_import_error(monkeypatch, finder):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(finder, "find_spec", lambda *args, **kwargs: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as raised:
        numerics._lapack()
    assert raised.value.name == "scipy.linalg._flapack"


def test_identity_pencil():
    values, vectors = solve(np.eye(2), np.eye(2))
    assert values == pytest.approx([1.0, 1.0], abs=1e-14)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(2))) <= 1e-14


def test_diagonal_pencil_axis_eigenvectors():
    values, vectors = solve(np.diag([1.0, 4.0]), np.eye(2))
    assert values == pytest.approx([1.0, 4.0], abs=1e-14)
    assert abs(abs(vectors[0, 0]) - 1.0) <= 1e-14
    assert abs(abs(vectors[1, 1]) - 1.0) <= 1e-14


def test_two_by_two_hand_solution():
    # det([[2-t, 1], [1, 2-t]]) = (t-1)(t-3): eigenvalues 1 and 3 with
    # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2).
    values, vectors = solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
    assert values == pytest.approx([1.0, 3.0], abs=1e-14)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.abs(vectors[:, 0]) == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-12)
    assert vectors[0, 1] * vectors[1, 1] > 0.0
    assert vectors[0, 0] * vectors[1, 0] < 0.0


def test_random_pencils_residual_and_b_orthonormality():
    # 100 seeded random pencils with dim <= 64: residual and B-Gram bounds.
    rng = np.random.default_rng(20240513)
    for _ in range(100):
        dim = int(rng.integers(1, 65))
        raw = rng.normal(size=(dim, dim))
        a = 0.5 * (raw + raw.T)
        root = rng.normal(size=(dim, dim))
        b = root @ root.T + dim * np.eye(dim)
        values, vectors = solve(a, b)
        assert np.all(np.diff(values) >= -1e-12)
        a_max = np.max(np.abs(a)) if dim else 1.0
        for j in range(dim):
            v = vectors[:, j]
            residual = np.linalg.norm(a @ v - values[j] * (b @ v))
            assert residual <= 1e-8 * max(a_max, 1e-300) * np.linalg.norm(v)
        gram = vectors.T @ b @ vectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-8


def test_eigenvalues_match_lapack_oracle():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(40, 40))
    a = 0.5 * (raw + raw.T)
    root = rng.normal(size=(40, 40))
    b = root @ root.T + 40.0 * np.eye(40)
    ours, _ = solve(a, b)
    lapack = eigh(a, b, eigvals_only=True)
    assert ours == pytest.approx(lapack, abs=1e-9)


def test_indefinite_mass_matrix_rejected():
    with pytest.raises(FactorizationError):
        solve(np.eye(2), np.diag([1.0, -1.0]))


def test_indefinite_mass_rejected_by_the_shared_reduction():
    # the rev-torus build factors each parity block's mass matrix here
    with pytest.raises(FactorizationError):
        inverse_cholesky(np.diag([2.0, 0.5, -1.0]))
    with pytest.raises(FactorizationError):
        inverse_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    b = np.array([[4.0, 2.0], [2.0, 3.0]])
    inv_lower = inverse_cholesky(b)
    assert np.array_equal(inv_lower, np.tril(inv_lower))
    assert np.max(np.abs(inv_lower @ b @ inv_lower.T - np.eye(2))) <= 1e-14


def test_kept_subset_matches_the_full_spectrum():
    # a bound between two eigenvalues returns exactly the pairs below it,
    # equal to the leading pairs of the full solve and of dsygvd
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(30, 30))
    a = 0.5 * (raw + raw.T)
    root = rng.normal(size=(30, 30))
    b = root @ root.T + 30.0 * np.eye(30)
    full_values, full_vectors = solve(a, b)
    oracle_values = eigh(a, b, driver="gvd", eigvals_only=True)
    inv_lower = inverse_cholesky(b)
    reduced = reduce_congruent(inv_lower, a)
    bounds = np.concatenate(([full_values[0] - 1.0],
                             (full_values[:-1] + full_values[1:]) / 2, [math.inf]))
    for kept in (0, 1, 7, 30):
        upper = bounds[kept]
        values, vectors = solve_reduced(reduced, inv_lower, upper)
        assert values.shape == (kept,) and vectors.shape == (30, kept)
        assert np.max(np.abs(values - oracle_values[:kept]), initial=0.0) <= 1e-11
        assert np.max(np.abs(vectors - full_vectors[:, :kept]), initial=0.0) <= 1e-10


def _eigh_families(k_red, w_red, inv_lower, weights, upper):
    """One ``scipy.linalg.eigh`` (dsyevr) per family, then the back-transform
    and the sign rule: the per-family solve that family_eigs replaces."""
    bounds = None if upper is None else (-math.inf, upper)
    out = []
    for w in weights:
        values, reduced = eigh(k_red + w * w_red, subset_by_value=bounds, driver="evr")
        vectors = np.einsum("ji,jk->ik", inv_lower, reduced)
        mags = np.abs(vectors)
        lead = np.argmax(mags > 1e-8 * np.maximum(mags.max(axis=0), 1e-300), axis=0)
        flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
        vectors[:, flip] = -vectors[:, flip]
        out.append((values, vectors))
    return out


def _rev_family_pencils():
    """(K, M_inv, B, weights m^2, upper) on both s-parity blocks of (2, 1)
    at lambda 6.954, as the rev-torus build solves them, and then with the
    bound of lambda 3, which keeps no pair from m = 9 (s-cosine block) and
    m = 7 (s-sine block) on."""
    lambda_max = 6.954
    trunc = _rev_truncation(RevTorus(2.0, 1.0), lambda_max)
    weights = [m * m for m in range(math.floor(lambda_max * 3.0) + 1)]
    for bound in (lambda_max, 3.0):
        for _idx, stiff, inv_weight, mass in rev_galerkin_terms(2.0, 1.0, trunc):
            yield stiff, inv_weight, mass, weights, (bound * (1.0 + 1e-9)) ** 2


def _random_family_pencils():
    rng = np.random.default_rng(97)
    for dim in (9, 33, 64):
        k, w = (0.5 * (raw + raw.T) for raw in rng.normal(size=(2, dim, dim)))
        root = rng.normal(size=(dim, dim))
        yield k, w, root @ root.T + dim * np.eye(dim), [0, 1, 2.5, 16], 0.0


@pytest.mark.parametrize("bounded", [True, False], ids=["upper", "all"])
@pytest.mark.parametrize("pencils", [_rev_family_pencils, _random_family_pencils],
                         ids=["rev-2-1", "random"])
def test_family_eigs_equals_one_eigh_per_family(pencils, bounded):
    # the direct dsyevr loop gives every bit of one scipy.linalg.eigh per
    # family; family i is the slice of counts[i] pairs after the families
    # before it, in the block's values and in the columns of its vectors
    for k, w, b, weights, upper in pencils():
        upper = upper if bounded else None
        inv_lower = inverse_cholesky(b)
        k_red, w_red = reduce_congruent(inv_lower, k), reduce_congruent(inv_lower, w)
        values, vectors, counts = family_eigs(k_red, w_red, inv_lower, weights, upper)
        reference = _eigh_families(k_red, w_red, inv_lower, weights, upper)
        assert counts.shape == (len(weights),) and counts.sum() > 0
        assert values.shape == (counts.sum(),) and vectors.shape == (k.shape[0], counts.sum())
        start = 0
        for count, (ref_values, ref_vectors) in zip(counts.tolist(), reference):
            assert np.array_equal(values[start:start + count], ref_values)
            assert np.array_equal(vectors[:, start:start + count], ref_vectors)
            start += count


def test_family_eigs_rejects_non_finite_matrices():
    inv_lower = np.eye(3)
    k_red = np.diag([1.0, 2.0, 3.0])
    k_red[0, 0] = math.nan
    with pytest.raises(ParameterError, match="finite"):
        family_eigs(k_red, np.eye(3), inv_lower, [0, 1])
    # finite reductions whose family K + w M overflows
    with pytest.raises(ParameterError, match="finite"):
        family_eigs(np.eye(3), np.full((3, 3), 1e300), inv_lower, [1e10])


def test_asymmetric_stiffness_rejected():
    with pytest.raises(ParameterError):
        solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    # the bound is 1e-12, as on the mass matrix
    with pytest.raises(ParameterError):
        reduce_congruent(np.eye(2), np.array([[1.0, 2e-12], [0.0, 1.0]]))
    with pytest.raises(ParameterError):
        inverse_cholesky(np.array([[4.0, 2e-12], [0.0, 4.0]]))
    reduce_congruent(np.eye(2), np.array([[1.0, 5e-13], [0.0, 1.0]]))


def test_flat_circle_galerkin_matrices():
    # f = 1: K = diag of squared frequencies, M_inv = B = identity, on the
    # s-cosine columns 0, 1, 3 (frequencies 0, 1, 2) and the s-sine
    # columns 2, 4 (frequencies 1, 2)
    (cos_idx, *cos_block), (sin_idx, *sin_block) = rev_galerkin_terms(1.0, 0.0, 2)
    assert cos_idx.tolist() == [0, 1, 3] and sin_idx.tolist() == [2, 4]
    for (stiff, inv_weight, mass), squares in ((cos_block, [0.0, 1.0, 4.0]),
                                               (sin_block, [1.0, 4.0])):
        assert np.max(np.abs(stiff - np.diag(squares))) <= 1e-12
        assert np.max(np.abs(inv_weight - np.eye(len(squares)))) <= 1e-12
        assert np.max(np.abs(mass - np.eye(len(squares)))) <= 1e-12


def test_angular_term_shifts_by_m_squared():
    for idx, stiff, inv_weight, mass in rev_galerkin_terms(1.0, 0.0, 3):
        shifted = stiff + 9.0 * inv_weight
        assert np.max(np.abs(shifted - (stiff + 9.0 * mass))) <= 1e-12
        values, _ = solve(shifted, mass)
        expected = sorted(k * k + 9 for k in circle_frequencies(idx).tolist())
        assert values == pytest.approx(expected, abs=1e-12)


def test_flat_circle_eigenvalues_exact():
    # frequency 0 and the cosines 1 ... 8 on one block, the sines 1 ... 8
    # on the other
    for idx, stiff, _, mass in rev_galerkin_terms(1.0, 0.0, 8):
        values, _ = solve(stiff, mass)
        expected = sorted(k * k for k in circle_frequencies(idx).tolist())
        assert np.max(np.abs(values - np.array(expected, dtype=float))) <= 1e-12


def test_cosine_weight_couplings_hand_integral():
    # f = 1 + 0.3 cos s.  The constant basis function has zero
    # derivative, so K[const, cos] = 0, while
    # B[const, cos] = int (1 + 0.3 cos s) cos s ds / (sqrt(2 pi) sqrt(pi))
    #              = 0.3 pi / (pi sqrt(2)) = 0.3/sqrt(2).
    # The s-cosine block holds columns 0, 1, 3: 1, cos s, cos 2s.
    (idx, stiff, _, mass), _sine = rev_galerkin_terms(1.0, 0.3, 8)
    assert idx[:3].tolist() == [0, 1, 3]
    assert stiff[0, 1] == pytest.approx(0.0, abs=1e-13)
    assert mass[0, 1] == pytest.approx(0.3 / math.sqrt(2.0), abs=1e-13)
    # first off-diagonal coupling of the cos block is proportional to 0.15
    assert mass[1, 2] == pytest.approx(0.15, abs=1e-13)


def test_nonpositive_weight_rejected():
    # 1 + cos s vanishes at s = pi
    with pytest.raises(ParameterError):
        rev_galerkin_terms(1.0, 1.0, 4)


def test_invalid_truncation_rejected():
    with pytest.raises(ParameterError):
        rev_galerkin_terms(1.0, 0.0, 1025)
    with pytest.raises(ParameterError):
        rev_galerkin_terms(1.0, 0.0, -1)


def _quadrature_galerkin_terms(big, small, trunc):
    """(K, M_inv, B) by the uniform rule on 4*trunc + 256 nodes: the
    integrands have bandwidth 2*trunc plus that of 1/f, whose Fourier
    coefficients fall like |rho|^n, so the aliasing error is below
    |rho|^256."""
    n = 4 * trunc + 256
    s = 2.0 * math.pi * np.arange(n) / n
    weights = np.full(n, 2.0 * math.pi / n)
    f = big + small * np.cos(s)
    basis = circle_basis(s, 2 * trunc + 1)
    deriv = circle_basis_derivative(s, 2 * trunc + 1)
    return ((deriv * (weights * f)[:, None]).T @ deriv,
            (basis * (weights / f)[:, None]).T @ basis,
            (basis * (weights * f)[:, None]).T @ basis)


@pytest.mark.parametrize("big, small, trunc", [
    (2.0, 1.0, 64), (1.8, 0.9, 64), (3.0, 1.0, 32), (2.0, 1.0, 128),
])
def test_closed_form_galerkin_terms_match_quadrature(big, small, trunc):
    # each block against its cut of the quadrature matrices, whose entries
    # between the blocks must vanish to the same tolerance
    blocks = rev_galerkin_terms(big, small, trunc)
    oracle = _quadrature_galerkin_terms(big, small, trunc)
    cos_idx, sin_idx = (idx for idx, *_ in blocks)
    assert np.array_equal(np.sort(np.concatenate((cos_idx, sin_idx))), np.arange(2 * trunc + 1))
    for position, name in enumerate(("K", "M_inv", "B")):
        theirs = oracle[position]
        tolerance = 1e-13 * np.max(np.abs(theirs))
        assert np.max(np.abs(theirs[np.ix_(cos_idx, sin_idx)])) <= tolerance, name
        for idx, *ours in blocks:
            ours = ours[position]
            assert ours.shape == (idx.shape[0],) * 2
            assert np.array_equal(ours, ours.T), name
            gap = np.max(np.abs(ours - theirs[np.ix_(idx, idx)]))
            assert gap <= tolerance, (name, gap)


@pytest.mark.parametrize("big, small, trunc", [
    (2.0, 1.0, 40), (1.8, 0.9, 64), (2.0, 1.9, 128), (4.4296, 0.822, 16), (1.0, 0.0, 2),
])
def test_galerkin_blocks_are_the_full_matrices_cut_bit_for_bit(big, small, trunc):
    # each block is gathered from the moments directly; its entries are
    # the full matrices' on np.ix_(idx, idx), every bit, and the full
    # matrices hold exact zeros between the blocks
    full = full_galerkin_terms(big, small, trunc)
    blocks = rev_galerkin_terms(big, small, trunc)
    cos_idx, sin_idx = rev_parity_indices(trunc)
    assert [idx.tolist() for idx, *_ in blocks] == [cos_idx.tolist(), sin_idx.tolist()]
    for matrix in full:
        assert not np.any(matrix[np.ix_(cos_idx, sin_idx)])
    for idx, *ours in blocks:
        for mine, whole in zip(ours, full):
            assert mine.dtype == whole.dtype
            assert np.array_equal(mine, whole[np.ix_(idx, idx)])
            assert np.array_equal(np.signbit(mine), np.signbit(whole[np.ix_(idx, idx)]))
