"""Helpers that several test modules share: mode lookups and the check
helpers that no CLI command runs."""

import json
import math
import platform

import numpy as np

from eigenprod.analysis import DecayFit, _sphere_cartesian
from eigenprod.coefficients import CoefficientSeries, ProductSpec
from eigenprod.errors import ConvergenceError, GridExhaustedError, ParameterError
from eigenprod.manifolds import (
    COS,
    GRID_MARGIN,
    GRID_PRODUCT_FACTORS,
    MAX_EIGEN_RESIDUAL,
    SIN,
    FlatTorus,
    SpectralBasis,
    _axis_product,
    _rev_truncation,
    _round_up,
)
from eigenprod.numerics import (
    TWO_PI,
    circle_basis,
    circle_frequencies,
    family_eigs,
    inverse_cholesky,
    reduce_congruent,
)


def find_mode(basis, rep):
    """The id of the mode whose ``basis.reps`` entries are ``rep``."""
    match = [np.all(basis.reps[name].reshape(basis.size, -1) == np.reshape(value, (1, -1)), axis=1)
             for name, value in zip(basis.model.rep_names, rep)]
    hits = np.flatnonzero(np.logical_and.reduce(match))
    if not hits.size:
        raise AssertionError(f"mode {rep} not in basis")
    return int(hits[0])


def mode_reps(basis) -> list:
    """Each mode's representation by id: its entries of the ``basis.reps``
    columns as ints, a flat torus's rows as tuples."""
    columns = [basis.reps[name].tolist() for name in basis.model.rep_names]
    return [tuple(tuple(v) if isinstance(v, list) else v for v in rep) for rep in zip(*columns)]


def torus_support_lambda(spec: ProductSpec) -> float:
    """Largest frequency in the exact expansion support of a flat-torus
    product: the product's band limit.

    The product of separable modes is separable, so the support is the
    cartesian product of the per-axis supports and its largest frequency
    is reached at the per-axis maxima.
    """
    model = spec.basis.model
    if not isinstance(model, FlatTorus):
        raise ParameterError("support enumeration is exact on flat tori only")
    factors = sorted(spec.factors)
    per_axis_max = []
    for columns, period in zip(spec.basis.axis_columns, model.periods):
        product = _axis_product(columns[factors], math.sqrt(TWO_PI / period))
        per_axis_max.append(float(circle_frequencies(np.flatnonzero(product)[-1]))
                            * (TWO_PI / period))
    return math.hypot(*per_axis_max) if model.dim == 2 else per_axis_max[0]


def envelope_dominates(series: CoefficientSeries, fit: DecayFit) -> bool:
    """Check |c_i| <= exp(-c_hat lambda_i + C_hat sum_lambda) on the window."""
    if fit.band_limited:
        tail = series.lams > series.sum_lambda * (1.0 + 1e-12)
        return bool(np.all(series.coeffs[tail] == 0.0))
    lo, hi = fit.window
    mask = (series.lams >= lo) & (series.lams <= hi)
    bound = np.exp(-fit.c_hat * series.lams[mask] + fit.C_hat * series.sum_lambda)
    return bool(np.all(np.abs(series.coeffs[mask]) <= bound * (1.0 + 1e-9)))


def circle_basis_derivative(s: np.ndarray, size: int) -> np.ndarray:
    """d/ds of :func:`eigenprod.numerics.circle_basis`, same column layout."""
    if size < 1 or size % 2 == 0:
        raise ParameterError("circle basis size must be odd (2N+1)")
    s = np.asarray(s, dtype=float)
    n_max = (size - 1) // 2
    out = np.zeros((s.shape[0], size))
    if n_max:
        freqs = np.arange(1, n_max + 1, dtype=float)
        ks = np.outer(s, freqs)
        out[:, 1::2] = -freqs * np.sin(ks) / math.sqrt(math.pi)
        out[:, 2::2] = freqs * np.cos(ks) / math.sqrt(math.pi)
    return out


def rev_profile_derivatives(coeffs: np.ndarray, s: np.ndarray):
    """(v, v', v'') of a revolution-torus s-profile (a coefficient row), by
    coefficient differentiation of the trigonometric expansion (exact)."""
    coeffs = np.asarray(coeffs, dtype=float)
    size = coeffs.shape[0]
    s = np.asarray(s, dtype=float)
    basis = circle_basis(s, size)
    deriv = circle_basis_derivative(s, size)
    dd_coeffs = -(circle_frequencies(np.arange(size)) ** 2.0) * coeffs
    return basis @ coeffs, deriv @ coeffs, basis @ dd_coeffs


def grid_weights(basis: SpectralBasis) -> np.ndarray:
    """Weights of the basis's flattened grid, first axis varying slowest."""
    if len(basis.axes) == 1:
        return basis.axes[0].weights
    return np.multiply.outer(basis.axes[0].weights, basis.axes[1].weights).reshape(-1)


def canonical_json_reference(obj) -> str:
    """The report text that ``reportio.canonical_json`` must reproduce:
    json's own indented encoding, with a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# the numpy builds (version, machine) on which ``numerics.real_part_powers`` was
# checked to give numpy's own complex powers bit for bit; another build may
# follow another recipe, or fuse its multiplies, and differ in the last bits
EXACT_POWER_BUILDS = {("2.4.6", "x86_64")}


def exact_powers_expected() -> bool:
    """Whether the running numpy build is one of :data:`EXACT_POWER_BUILDS`."""
    return (np.__version__, platform.machine()) in EXACT_POWER_BUILDS


def assert_same_samples(got, want) -> None:
    """(x, norm) samples equal to the last bit under a build of
    :data:`EXACT_POWER_BUILDS`, and to 1e-12 relative under another."""
    if exact_powers_expected():
        assert list(got) == list(want)
    else:
        assert len(got) == len(want)
        for (x, norm), (x_want, norm_want) in zip(got, want):
            assert x == x_want and math.isclose(norm, norm_want, rel_tol=1e-12)


def remark_samples_reference(ks) -> list:
    """``sphere_remark_experiment``'s (k, norm) samples from numpy's own
    complex powers, formed afresh for every k."""
    kmax = max(ks)
    xs, ys, zs, weights = _sphere_cartesian(3 * kmax + 8, 6 * kmax + 8)
    samples = []
    for k in ks:
        values = (np.real((xs + 1j * ys) ** k) * np.real((xs + 1j * zs) ** k)
                  * np.real((ys + 1j * zs) ** k))
        samples.append((k, math.sqrt(float(np.sum(weights * values * values)))))
    return samples


def rotated_pair_samples_reference(ls) -> list:
    """``sphere_rotated_pair_experiment``'s (2 lambda, norm) samples from
    numpy's own complex powers, formed afresh for every l."""
    lmax = max(ls)
    xs, ys, zs, weights = _sphere_cartesian(2 * lmax + 16, 4 * lmax + 16)
    samples = []
    for l in ls:
        first = np.real((xs + 1j * ys) ** l)
        second = np.real((xs + 1j * zs) ** l)
        first = first / math.sqrt(float(np.sum(weights * first * first)))
        second = second / math.sqrt(float(np.sum(weights * second * second)))
        product = first * second
        samples.append((2.0 * math.sqrt(l * (l + 1.0)),
                        math.sqrt(float(np.sum(weights * product * product)))))
    return samples


def good_set_thresholds_reference(rows, grid, factors) -> list:
    """The partition pick that ``remez._good_set_thresholds`` must
    reproduce: each factor's values on the whole lattice (its one absolute
    row on a line, the outer product of its two on a plane, each product
    rounded once) partitioned at rank floor(cells / (2 n)), and the first
    grid a whose exp(-a) is at most the value there."""
    values = np.empty(tuple(axis_rows.shape[1] for axis_rows in rows))
    flat = values.reshape(-1)
    rank = math.floor(flat.size / (2.0 * len(factors)))
    thresholds = []
    for j, i in enumerate(factors):
        if len(rows) == 1:
            np.copyto(values, rows[0][j])
        else:
            np.multiply.outer(rows[0][j], rows[1][j], out=values)
        flat.partition(rank)
        bound = float(flat[rank])
        chosen = next((float(a) for a in grid if math.exp(-float(a)) <= bound), None)
        if chosen is None:
            raise GridExhaustedError(f"no grid threshold tames the sublevel set of mode {i}")
        thresholds.append(chosen)
    return thresholds


def full_galerkin_terms(big: float, small: float, trunc: int):
    """(K, M_inv, B) of the torus of revolution as full (2N+1)^2 matrices,
    formed the way ``numerics.rev_galerkin_terms`` formed them before it
    gathered each s-parity block on its own: the moment sums on every
    entry, masked to 0 where an s-cosine column meets an s-sine one."""
    size = 2 * trunc + 1
    freq = circle_frequencies(np.arange(size))
    # +1 on cosine rows, -1 on sine rows: the sign of W_{k+l} in B
    sign = np.where((np.arange(size) % 2 == 0) & (freq > 0), -1.0, 1.0)[:, None]
    same = sign == sign.T
    norm = np.where(freq > 0, 1.0 / math.sqrt(math.pi), 1.0 / math.sqrt(TWO_PI))
    scale = 0.5 * (norm[:, None] * norm[None, :])
    diff = np.abs(freq[:, None] - freq[None, :])
    total = freq[:, None] + freq[None, :]
    f_moments = np.zeros(2 * trunc + 2)
    f_moments[:2] = TWO_PI * big, math.pi * small
    d = math.sqrt((big - small) * (big + small))
    inv_moments = (TWO_PI / d) * (-small / (big + d)) ** np.arange(2 * trunc + 2)

    def gather(moments, hankel_sign):
        return np.where(same, scale * (moments[diff] + hankel_sign * moments[total]), 0.0)

    stiff = (freq[:, None] * freq[None, :]) * gather(f_moments, -sign)
    return stiff, gather(inv_moments, sign), gather(f_moments, sign)


def rev_parity_indices(trunc: int):
    """The s-cosine and s-sine columns of a 2N+1 circle basis."""
    even = [0] + [2 * k - 1 for k in range(1, trunc + 1)]
    odd = [2 * k for k in range(1, trunc + 1)]
    return np.array(even), np.array(odd)


def per_family_eigs(k_red, w_red, inv_lower, weights, upper):
    """``family_eigs`` cut into one (values, C-contiguous vectors) pair per
    weight, the shape it returned before it gave one block's arrays."""
    values, vectors, counts = family_eigs(k_red, w_red, inv_lower, weights, upper)
    splits = np.cumsum(counts)[:-1]
    return [(vals, np.ascontiguousarray(block))
            for vals, block in zip(np.split(values, splits), np.split(vectors, splits, axis=1))]


def rev_build_reference(model, lambda_max: float) -> SpectralBasis:
    """The rev-torus build that ``RevTorus.build`` must reproduce bit for
    bit: the full Galerkin matrices cut into parity blocks by ``np.ix_``,
    (m_scan + 1, n, n) family stacks, and the zero-snap, kept count,
    residual and coefficient rows formed family by family."""
    big, small = model.major_radius, model.minor_radius
    m_scan = int(math.floor(lambda_max * (big + small) * (1.0 + 1e-12)))
    trunc = _rev_truncation(model, lambda_max)
    size = 2 * trunc + 1
    stiff, inv_weight, mass = full_galerkin_terms(big, small, trunc)
    weights = np.arange(m_scan + 1) ** 2
    blocks = []
    for s_parity, idx in zip((COS, SIN), rev_parity_indices(trunc)):
        grid = np.ix_(idx, idx)
        k, w = stiff[grid], inv_weight[grid]
        blocks.append((s_parity, idx, k, w, mass[grid],
                       k + weights[:, None, None] * w))
    a_maxes = np.maximum(np.max([np.abs(block[-1]).max(axis=(1, 2)) for block in blocks],
                                axis=0), 1.0).tolist()
    upper = (lambda_max * (1.0 + 1e-9)) ** 2
    profiles = []  # (lam, m, s_parity) in solve order
    rows = []  # their coefficient rows, full width, in solve order
    worst_residual = 0.0
    for s_parity, idx, k, w, b, families in blocks:
        inv_lower = inverse_cholesky(b)
        solved = per_family_eigs(reduce_congruent(inv_lower, k), reduce_congruent(inv_lower, w),
                                 inv_lower, weights, upper)
        for m, (a_max, (values, block)) in enumerate(zip(a_maxes, solved)):
            roots = np.sqrt(np.where(values <= 1e-12 * a_max, 0.0, values))
            kept = int(np.count_nonzero(roots <= lambda_max * (1.0 + 1e-12)))
            if not kept:
                continue
            block, values = block[:, :kept], values[:kept]
            residuals = np.linalg.norm(
                np.einsum("ij,jk->ik", families[m], block)
                - np.einsum("ij,jk->ik", b, block) * values, axis=0)
            worst_residual = max(worst_residual, float(np.max(residuals)) / a_max)
            rows.append(np.zeros((kept, size)))
            rows[-1][:, idx] = block.T
            profiles.extend((lam, m, s_parity) for lam in roots[:kept].tolist())
    if worst_residual > MAX_EIGEN_RESIDUAL:
        raise ConvergenceError(
            f"rev-torus eigen-residual {worst_residual:.3e} exceeds {MAX_EIGEN_RESIDUAL:g}")
    lams, ms, s_parities = np.array(profiles).T
    source = np.concatenate((np.arange(lams.shape[0]), np.flatnonzero(ms > 0)))
    theta_parities = np.where(np.arange(source.shape[0]) < lams.shape[0], COS, SIN)
    order = np.lexsort((source, s_parities[source], theta_parities, ms[source], lams[source]))
    source, theta_parities = source[order], theta_parities[order]
    lams, ms = lams[source], ms[source].astype(np.int64)
    coefficients = np.concatenate(rows)[source]
    constant = np.flatnonzero((ms == 0) & (lams == 0.0))
    coefficients[constant] = 0.0
    coefficients[constant, 0] = 1.0 / math.sqrt(big)
    stretch = max(GRID_PRODUCT_FACTORS + 1, 2 * GRID_PRODUCT_FACTORS)
    sizes = [_round_up(stretch * trunc + 2 + GRID_MARGIN),
             _round_up(stretch * max(int(ms.max()), 1) + 1 + GRID_MARGIN)]
    provenance = f"numerical(residual={worst_residual:.3e})"
    return SpectralBasis(model, float(lambda_max), lams,
                         {"m": ms, "theta_parity": theta_parities},
                         coefficients, model.quadrature_grid(sizes), provenance)
