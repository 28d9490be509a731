"""Quantitative verdicts on coefficient series.

Fits the exponential decay envelope |c_i| <= exp(-c_hat lambda_i) *
exp(C_hat * sum lambda) to the tail of a series, detects where decay sets
in, finds the smallest frequency multiple capturing a target share of the
product's L2 mass, and runs the lower-bound and sphere-triple norm
experiments.

Fitted constants are empirical: the analytic constants they estimate are
nonconstructive, so every number reported here is measured, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSeries, product_norm_sq
from .errors import BreakdownError, ParameterError, UnderResolvedError
from .manifolds import Sphere2
from .numerics import real_part_powers

NOISE_FLOOR_REL = 1e-12
DEFAULT_BIN_WIDTH = 1.0
C5_GRID_STEP = 0.1
MIN_TAIL_ENTRIES = 8

__all__ = [
    "DecayFit",
    "TruncationResult",
    "LowerBoundFit",
    "RemarkDecay",
    "fit_decay",
    "find_truncation",
    "captured_norm_ratio",
    "lower_bound_experiment",
    "sphere_rotated_pair_experiment",
    "sphere_remark_experiment",
]


@dataclass(frozen=True)
class DecayFit:
    """Fitted envelope |c| <= exp(-c_hat * lambda + C_hat * sum_lambda).

    ``band_limited`` marks series whose tail past the frequency sum is
    identically zero; such series get no finite decay rate (c_hat is the
    infinity sentinel in memory and must be flagged, not serialized, as a
    float).
    """

    c_hat: float
    C_hat: float
    onset_lambda: float
    r_squared: float
    window: tuple
    band_limited: bool = False
    n_bins: int = 0


@dataclass(frozen=True)
class TruncationResult:
    """Minimal grid multiple C5 with ||sum_{A} c_i phi_i|| >= target ||f||,
    A = {i : lambda_i <= C5 * sum_lambda}, which is the modes
    0 ... kept_count - 1."""

    c5: float
    kept_count: int
    captured_ratio: float
    s_partial: float
    target: float
    c2: float


@dataclass(frozen=True)
class LowerBoundFit:
    """From-below envelope norm >= C3_hat * exp(-C4_hat * sum_lambda),
    touching the weakest sample and valid on all of them."""

    C3_hat: float
    C4_hat: float
    samples: tuple  # (sum_lambda, norm) pairs
    n_factors: int


@dataclass(frozen=True)
class RemarkDecay:
    """Norms of the rotated-power triple product against the exponent k."""

    samples: tuple  # (k, norm)
    log_slope: float
    r_squared: float


def _least_squares_line(x: np.ndarray, y: np.ndarray):
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise ParameterError("degenerate fit: all abscissae coincide")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / sxx
    intercept = y_mean - slope * x_mean
    predicted = intercept + slope * x
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, intercept, r_squared


def _bin_maxima(lams: np.ndarray, mags: np.ndarray, anchor: float,
                width: float = DEFAULT_BIN_WIDTH):
    """Per-bin maxima of |c|; each bin reports the lambda of its argmax."""
    indices = np.floor((lams - anchor) / width).astype(int)
    out = {}
    for idx, lam, mag in zip(indices, lams, mags):
        best = out.get(idx)
        if best is None or mag > best[1]:
            out[idx] = (lam, mag)
    ordered = sorted(out.items())
    xs = np.array([lam for _idx, (lam, _mag) in ordered])
    ys = np.array([mag for _idx, (_lam, mag) in ordered])
    return xs, ys


def fit_decay(series: CoefficientSeries, window: tuple | None = None) -> DecayFit:
    """Least-squares envelope on (lambda, log per-bin max |c|) over the
    tail window, lifted so it dominates every coefficient in the window.

    c_hat is minus the fitted slope and C_hat the lifted intercept divided
    by the product's frequency sum.  The onset is the first unit bin from
    which the running per-bin maxima decrease all the way out.  A series
    whose tail past the frequency sum is identically zero (band-limited
    models) returns the exact-zero verdict instead of a fit; one whose
    last lambda is not past the frequency sum has no tail and is refused.
    """
    sum_lambda = series.sum_lambda
    floor = NOISE_FLOOR_REL * math.sqrt(max(series.f_norm_sq, 0.0))
    mags = np.abs(series.coeffs)
    tail = series.lams > sum_lambda * (1.0 + 1e-12)
    if not (series.lams.size and tail[-1]):
        raise ParameterError(
            f"the series must reach past the frequency sum {sum_lambda:g} to fit a decay")
    if window is None:
        window = (2.0 * sum_lambda, float(series.lams[-1]))
    if not np.any(tail & (mags > floor)):
        return DecayFit(math.inf, 0.0, sum_lambda, 1.0, window,
                        band_limited=True, n_bins=0)
    if int(np.count_nonzero(tail & (mags > floor))) < MIN_TAIL_ENTRIES:
        raise ParameterError(
            f"need at least {MIN_TAIL_ENTRIES} tail coefficients above the "
            f"noise floor to fit a decay rate")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ParameterError("decay window must satisfy lo < hi")
    in_window = (series.lams >= lo) & (series.lams <= hi)
    fit_mask = in_window & (mags > floor)
    if int(np.count_nonzero(fit_mask)) < 2:
        raise ParameterError("decay window holds fewer than two usable coefficients")
    xs, ys = _bin_maxima(series.lams[fit_mask], mags[fit_mask], anchor=lo)
    if xs.size < 2:
        raise ParameterError("decay window holds fewer than two populated bins")
    slope, _intercept, r_squared = _least_squares_line(xs, np.log(ys))
    # lift the intercept so the envelope dominates every window coefficient
    positive = in_window & (mags > 0.0)
    lifted = float(np.max(np.log(mags[positive]) - slope * series.lams[positive]))
    c_hat = -slope
    big_c = lifted / sum_lambda
    onset = _onset_lambda(series, floor)
    return DecayFit(c_hat, big_c, onset, r_squared, (lo, hi), n_bins=int(xs.size))


def _onset_lambda(series: CoefficientSeries, floor: float) -> float:
    mags = np.abs(series.coeffs)
    keep = mags > floor
    xs, ys = _bin_maxima(series.lams[keep], mags[keep], anchor=0.0)
    if xs.size == 0:
        return series.sum_lambda
    start = xs.size - 1
    for idx in range(xs.size - 2, -1, -1):
        if ys[idx] > ys[idx + 1]:
            start = idx
        else:
            break
    return float(xs[start])


def captured_norm_ratio(series: CoefficientSeries, c5: float) -> float:
    """||sum over A of c_i phi_i|| / ||f|| with A = {lambda <= c5 * sum lambda}."""
    cutoff = c5 * series.sum_lambda
    kept = series.lams <= cutoff * (1.0 + 1e-12)
    mass = float(series.coeffs[kept] @ series.coeffs[kept])
    return math.sqrt(max(mass, 0.0) / series.f_norm_sq)


def find_truncation(series: CoefficientSeries, target: float = 0.99,
                    c2: float = 1.0) -> TruncationResult:
    """Smallest C5 on the 0.1-step grid whose index set captures the target
    norm share.  Cumulative sums are exact; no fit is involved."""
    if not 0.0 <= target <= 1.0:
        raise ParameterError("target must lie in [0, 1]")
    if series.f_norm_sq <= 0.0:
        raise BreakdownError("product norm degenerated to zero")
    ratio = series.mass_captured / series.f_norm_sq
    if ratio < target:
        raise UnderResolvedError(
            f"the basis captures only {ratio:.6f} of the product mass; "
            f"raise lambda_max before asking for target {target}")
    sum_lambda = series.sum_lambda
    lam_hi = float(series.lams[-1]) if series.lams.size else 0.0
    steps = max(1, int(math.ceil(lam_hi / (C5_GRID_STEP * sum_lambda))) + 1) \
        if sum_lambda > 0.0 else 1
    for k in range(1, steps + 1):
        c5 = C5_GRID_STEP * k
        captured = captured_norm_ratio(series, c5)
        if captured >= target:
            cutoff = c5 * sum_lambda
            kept = series.lams <= cutoff * (1.0 + 1e-12)
            s_partial = float(np.sum(np.exp(-c2 * series.lams[series.lams > 0.0])))
            return TruncationResult(c5, int(np.count_nonzero(kept)),
                                    captured, s_partial, target, c2)
    raise BreakdownError("truncation grid exhausted despite a feasible series")


# ---------------------------------------------------------------------------
# lower bounds


def _norm_from_samples(samples, n_factors: int) -> LowerBoundFit:
    sums = np.array([s for s, _n in samples])
    norms = np.array([n for _s, n in samples])
    if np.any(norms <= 1e-13):
        raise BreakdownError(
            "a product norm fell below 1e-13; products of eigenfunctions "
            "cannot vanish, so the quadrature under-resolved the product")
    if np.ptp(sums) == 0.0:
        slope = 0.0
    else:
        slope, _b, _r = _least_squares_line(sums, np.log(norms))
    c4 = -slope
    log_c3 = float(np.min(np.log(norms) + c4 * sums))
    return LowerBoundFit(math.exp(log_c3), c4, tuple((float(s), float(n))
                                                     for s, n in samples), n_factors)


def lower_bound_experiment(specs) -> LowerBoundFit:
    """Measure ||prod phi|| over a family of products and fit the
    from-below exponential envelope (least squares on log norms, then
    shifted down until it touches the weakest sample).  Each norm is the
    square root of :func:`eigenprod.coefficients.product_norm_sq`, the
    norm :func:`eigenprod.coefficients.expand_product` divides by."""
    specs = list(specs)
    if len(specs) < 4:
        raise ParameterError("need at least four products to fit an envelope")
    n_factors = {s.n_factors for s in specs}
    if len(n_factors) != 1:
        raise ParameterError("all products in a family must share the factor count")
    samples = [(spec.sum_lambda, math.sqrt(product_norm_sq(spec))) for spec in specs]
    return _norm_from_samples(samples, next(iter(n_factors)))


def _sphere_cartesian(n_gl: int, n_phi: int):
    x_axis, phi_axis = Sphere2().quadrature_grid((n_gl, n_phi))
    cos_t = x_axis.nodes[:, None]
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = phi_axis.nodes[None, :]
    xs = sin_t * np.cos(phi)
    ys = sin_t * np.sin(phi)
    zs = np.broadcast_to(cos_t, xs.shape)
    weights = np.multiply.outer(x_axis.weights, phi_axis.weights)
    return xs, ys, zs, weights


def _weighted_square_sum(weights, values, scratch=None) -> float:
    """sum(weights * values * values), its products formed in ``scratch``
    (a fresh array without one)."""
    square = np.multiply(weights, values, out=scratch)
    square *= values
    return float(np.sum(square))


def sphere_rotated_pair_experiment(l_values) -> LowerBoundFit:
    """Norms of Y_l^l times its quarter-turn about the x-axis.

    The sectoral harmonic concentrates on the equator; its rotated copy
    concentrates on a great circle meeting it at two points, so the
    product norm decays exponentially in l while staying positive.
    """
    l_values = [int(l) for l in l_values]
    if len(l_values) < 4:
        raise ParameterError("need at least four degrees")
    if min(l_values) < 0:
        raise ParameterError("degrees must be >= 0")
    lmax = max(l_values)
    xs, ys, zs, weights = _sphere_cartesian(2 * lmax + 16, 4 * lmax + 16)
    # Re (x + iy)^l, which is proportional to Y_l^l, and its quarter-turn
    # image, stacked
    pairs = real_part_powers(np.stack((xs, xs)), np.stack((ys, zs)), l_values)
    samples = []
    for l, (first, second) in zip(l_values, pairs):
        first /= math.sqrt(_weighted_square_sum(weights, first))
        second /= math.sqrt(_weighted_square_sum(weights, second))
        first *= second  # first * second
        norm = math.sqrt(_weighted_square_sum(weights, first))
        lam = math.sqrt(l * (l + 1.0))
        samples.append((2.0 * lam, norm))
    return _norm_from_samples(samples, 2)


def sphere_remark_experiment(k_range) -> RemarkDecay:
    """Quadrature norms of Re(x+iy)^k Re(x+iz)^k Re(y+iz)^k on the sphere.

    The integrand has polynomial degree 6k, so the grid is sized to
    bandwidth 3k per factor pair; returns the (k, norm) sequence and the
    fitted slope of log norm against k.
    """
    ks = [int(k) for k in k_range]
    if not ks or min(ks) < 1 or max(ks) > 24:
        raise ParameterError("exponents must lie in [1, 24]")
    kmax = max(ks)
    n_gl = 3 * kmax + 8
    n_phi = 6 * kmax + 8
    xs, ys, zs, weights = _sphere_cartesian(n_gl, n_phi)
    triples = real_part_powers(np.stack((xs, xs, ys)), np.stack((ys, zs, zs)), ks)
    del xs, ys, zs  # the stacked bases hold all that is needed of them
    samples = []
    for k in ks:
        first, second, third = next(triples)
        first *= second
        first *= third  # first * second * third
        samples.append((k, math.sqrt(_weighted_square_sum(weights, first, second))))
        del first, second, third  # freed before the next degree's stack is formed
    arr_k = np.array([float(k) for k, _n in samples])
    arr_n = np.array([n for _k, n in samples])
    if np.any(arr_n <= 0.0):
        raise BreakdownError("triple product norm degenerated to zero")
    if arr_k.size >= 2 and np.ptp(arr_k) > 0.0:
        slope, _b, r_squared = _least_squares_line(arr_k, np.log(arr_n))
    else:
        slope, r_squared = 0.0, 1.0
    return RemarkDecay(tuple((int(k), float(n)) for k, n in samples),
                       slope, r_squared)
