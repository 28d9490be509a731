"""Helpers that several test modules share: mode lookups and the check
helpers that no CLI command runs."""

import math

import numpy as np

from eigenprod.analysis import DecayFit
from eigenprod.coefficients import CoefficientSeries, ProductSpec, _torus_axis_products
from eigenprod.errors import ParameterError
from eigenprod.manifolds import FlatTorus, SpectralBasis
from eigenprod.numerics import TWO_PI, circle_basis, circle_frequencies


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
    per_axis_max = [
        float(circle_frequencies(np.flatnonzero(product)[-1])) * (TWO_PI / period)
        for period, product in zip(model.periods, _torus_axis_products(spec))
    ]
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
