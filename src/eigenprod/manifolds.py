"""Model surfaces and their L2-normalized eigenbases.

Three closed analytic models are supported:

* ``FlatTorus(dim, periods)`` for dim 1 or 2: exact trigonometric modes.
* ``Sphere2``: real spherical harmonics, no Condon-Shortley phase.
* ``RevTorus(R, r)``: the donut surface with metric ds^2 + f(s)^2 dtheta^2,
  f(s) = R + r cos s.  Its modes separate into per-angular-frequency
  periodic Sturm-Liouville problems solved by the Fourier-Galerkin pencil
  machinery in :mod:`eigenprod.numerics`; this is the one model whose
  eigenfunction products are not band-limited.

Eigenvalues are written lambda^2 throughout; a mode stores lambda, the
frequency.  Modes are ordered by ascending lambda with ties broken by the
lexicographic order of their representation, so ids are reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CorruptionError,
    ParameterError,
    UnderResolvedError,
    VersionMismatchError,
)
from .numerics import (
    QuadratureGrid,
    SymmetricPencil,
    TWO_PI,
    circle_basis,
    circle_basis_derivative,
    gauss_legendre,
    periodic_galerkin_terms,
    sym_generalized_eig,
    tensor_grid,
    uniform_periodic,
)

COS, SIN = 0, 1

CACHE_MAGIC = b"EPRD"
CACHE_VERSION = 2

__all__ = [
    "FlatTorus",
    "Sphere2",
    "RevTorus",
    "Mode",
    "Resolution",
    "SpectralBasis",
    "build_basis",
    "evaluate",
    "as_chart_function",
    "save_basis",
    "load_basis",
    "basis_digest",
    "basis_to_json_dict",
    "normalized_legendre",
]


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus R^d / (periods Z^d), d in {1, 2}."""

    dim: int
    periods: tuple

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterError("flat torus dimension must be 1 or 2")
        periods = tuple(float(p) for p in np.atleast_1d(np.asarray(self.periods, dtype=float)))
        if len(periods) != self.dim:
            raise ParameterError("need one period per dimension")
        if any(not (p > 0.0) or not math.isfinite(p) for p in periods):
            raise ParameterError("periods must be positive and finite")
        object.__setattr__(self, "periods", periods)

    @property
    def chart_dim(self) -> int:
        return self.dim

    @property
    def volume(self) -> float:
        return float(np.prod(self.periods))


@dataclass(frozen=True)
class Sphere2:
    """The unit round sphere."""

    @property
    def chart_dim(self) -> int:
        return 2

    @property
    def volume(self) -> float:
        return 4.0 * math.pi


@dataclass(frozen=True)
class RevTorus:
    """Torus of revolution: (s, theta) in [0, 2pi)^2 with
    metric ds^2 + (R + r cos s)^2 dtheta^2, R > r > 0."""

    major_radius: float
    minor_radius: float

    def __post_init__(self):
        big, small = float(self.major_radius), float(self.minor_radius)
        if not (big > small > 0.0) or not math.isfinite(big):
            raise ParameterError("need major_radius > minor_radius > 0")
        object.__setattr__(self, "major_radius", big)
        object.__setattr__(self, "minor_radius", small)

    def profile(self, s):
        return self.major_radius + self.minor_radius * np.cos(s)

    @property
    def chart_dim(self) -> int:
        return 2

    @property
    def volume(self) -> float:
        return TWO_PI * TWO_PI * self.major_radius


@dataclass(frozen=True)
class Mode:
    """One eigenfunction: ordinal id, frequency lambda, and a
    manifold-specific representation.

    Representations: flat torus (freqs, parities) with parity 0=cos /
    1=sin per axis; sphere (l, m) of a real harmonic (m>0 cosine type,
    m<0 sine type); torus of revolution (m, theta parity, profile
    coefficients in the real Fourier s-basis, lambda).
    """

    id: int
    lam: float
    rep: tuple


@dataclass(frozen=True)
class Resolution:
    """Caps and sizing knobs for basis construction.

    ``max_product_factors`` sizes the quadrature grid so that coefficient
    and norm integrands of products with that many eigenfunction factors
    are within the grid's exactness.
    """

    max_product_factors: int = 3
    margin: int = 8
    torus_freq_cap: int = 128
    sphere_l_cap: int = 64
    rev_m_cap: int = 32
    rev_fourier_cap: int = 256
    rev_fourier_n: int | None = None

    def __post_init__(self):
        if self.max_product_factors < 1:
            raise ParameterError("max_product_factors must be >= 1")
        if self.margin < 0:
            raise ParameterError("margin must be >= 0")


@dataclass(eq=False)
class SpectralBasis:
    """All eigenfunctions with lambda <= lambda_max on one model, plus the
    quadrature grid every integral in the package runs on.

    ``profile_matrices`` holds, per grid axis, the factor values of every
    mode on that axis's nodes as one (modes, nodes) array.  It is built in
    one shot on first use, so bases that are only loaded or saved (CLI
    token probes) never pay for it, and it never changes afterwards.
    The content digest is kept the same way: ``save_basis`` and
    ``load_basis`` record the digest they wrote or verified, and
    ``basis_digest`` serializes only bases that were never saved or loaded.
    """

    model: object
    lambda_max: float
    modes: tuple
    grid: QuadratureGrid
    provenance: str
    resolution: Resolution
    _digest: str | None = field(default=None, init=False, repr=False)

    @cached_property
    def profile_matrices(self) -> tuple:
        grid = self.grid
        nodes = tuple(ax[0] for ax in grid.axes) if grid.axes else (grid.nodes,)
        return _axis_factor_rows(self.model, self.modes, nodes)

    def mode(self, mode_id: int) -> Mode:
        if not 0 <= mode_id < len(self.modes):
            raise ParameterError(f"unknown mode id {mode_id}")
        return self.modes[mode_id]

    @property
    def size(self) -> int:
        return len(self.modes)

    def lambdas(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])

    def axis_profiles(self, mode: Mode):
        """Per-axis factor values of the mode on the grid axes (row views
        of ``profile_matrices``).

        Every model here has separable modes, which keeps coefficient
        quadrature at matrix-vector cost instead of full tensor size.
        """
        return tuple(rows[mode.id] for rows in self.profile_matrices)

    def values_on_grid(self, mode: Mode) -> np.ndarray:
        profiles = self.axis_profiles(mode)
        if len(profiles) == 1:
            return profiles[0]
        return np.multiply.outer(profiles[0], profiles[1]).reshape(-1)

    def axis_exactness(self) -> tuple:
        if self.grid.axes:
            return tuple(ax[2] for ax in self.grid.axes)
        return (self.grid.exactness_degree,)


def build_basis(model, lambda_max: float, resolution: Resolution | None = None) -> SpectralBasis:
    """Construct the ordered eigenbasis with lambda <= lambda_max."""
    if not math.isfinite(lambda_max) or lambda_max < 0.0:
        raise ParameterError("lambda_max must be finite and >= 0")
    res = resolution or Resolution()
    if isinstance(model, FlatTorus):
        return _build_flat_torus(model, lambda_max, res)
    if isinstance(model, Sphere2):
        return _build_sphere(model, lambda_max, res)
    if isinstance(model, RevTorus):
        return _build_rev_torus(model, lambda_max, res)
    raise ParameterError(f"unknown manifold model {model!r}")


# ---------------------------------------------------------------------------
# flat torus


def _torus_freq_cap(period: float, lambda_max: float) -> int:
    return int(math.floor(lambda_max * period / TWO_PI * (1.0 + 1e-12)))


def _build_flat_torus(model: FlatTorus, lambda_max: float, res: Resolution) -> SpectralBasis:
    scales = tuple(TWO_PI / p for p in model.periods)
    kmaxes = tuple(_torus_freq_cap(p, lambda_max) for p in model.periods)
    if max(kmaxes) > res.torus_freq_cap:
        raise UnderResolvedError(
            f"flat torus needs frequencies up to {max(kmaxes)} "
            f"(cap {res.torus_freq_cap}) to reach lambda_max={lambda_max}")
    entries = []
    if model.dim == 1:
        for k in range(kmaxes[0] + 1):
            lam = k * scales[0]
            for parity in ((COS,) if k == 0 else (COS, SIN)):
                entries.append((lam, (k,), (parity,)))
    else:
        for k1 in range(kmaxes[0] + 1):
            for k2 in range(kmaxes[1] + 1):
                lam = math.hypot(k1 * scales[0], k2 * scales[1])
                if lam > lambda_max * (1.0 + 1e-12):
                    continue
                par1 = (COS,) if k1 == 0 else (COS, SIN)
                par2 = (COS,) if k2 == 0 else (COS, SIN)
                for p1 in par1:
                    for p2 in par2:
                        entries.append((lam, (k1, k2), (p1, p2)))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    modes = tuple(
        Mode(i, lam, (freqs, pars)) for i, (lam, freqs, pars) in enumerate(entries)
    )
    grid = _flat_torus_grid(model, kmaxes, res)
    return SpectralBasis(model, float(lambda_max), modes, grid, "exact", res)


def _flat_torus_grid(model: FlatTorus, kmaxes, res: Resolution) -> QuadratureGrid:
    sizes = [_round_up(2 * res.max_product_factors * max(kmax, 1) + res.margin + 1)
             for kmax in kmaxes]
    return _grid_from_axis_sizes(model, sizes)


def _trig_rows(freqs, parities, x, const: float, amp: float) -> np.ndarray:
    """One row per (freq, parity): ``const`` where freq is 0, else
    amp * cos(freq x) (parity COS) or amp * sin(freq x) (parity SIN).
    Each distinct pair is evaluated once, in place in its first row."""
    keys, inverse = np.unique(np.column_stack([np.asarray(freqs, dtype=float), parities]),
                              axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    x = np.asarray(x, dtype=float)
    out = np.empty((inverse.size, x.shape[0]))
    for key, (freq, parity) in enumerate(keys):
        rows = np.flatnonzero(inverse == key)
        first = out[rows[0]]
        if freq == 0.0:
            first[:] = const
        else:
            np.multiply(freq, x, out=first)
            (np.cos if parity == COS else np.sin)(first, out=first)
            first *= amp
        out[rows[1:]] = first
    return out


# ---------------------------------------------------------------------------
# sphere


def normalized_legendre(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """Orthonormalized associated Legendre values without the
    Condon-Shortley phase.

    Normalized so that the real harmonics Y_{l,0} = P(l,0,cos theta) and
    Y_{l,+-m} = sqrt(2) P(l,m,cos theta) {cos,sin}(m phi) have unit L2
    norm on the sphere.  Stable three-term recursion, values stay O(1).
    """
    if l < 0 or m < 0 or m > l:
        raise ParameterError("need 0 <= m <= l")
    return _legendre_ladder(m, l, np.asarray(x, dtype=float))[-1]


def _legendre_ladder(m: int, l_max: int, x: np.ndarray) -> list:
    """[P(m,m,x), P(m+1,m,x), ..., P(l_max,m,x)] from one run of the
    recursion of :func:`normalized_legendre`."""
    u = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    p_mm = np.full(x.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for j in range(1, m + 1):
        p_mm = math.sqrt((2.0 * j + 1.0) / (2.0 * j)) * u * p_mm
    ladder = [p_mm]
    if l_max == m:
        return ladder
    p_prev = p_mm
    p_cur = math.sqrt(2.0 * m + 3.0) * x * p_mm
    ladder.append(p_cur)
    for j in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * j * j - 1.0) / (j * j - m * m))
        b = math.sqrt(((j - 1.0) ** 2 - m * m) / (4.0 * (j - 1.0) ** 2 - 1.0))
        p_cur, p_prev = a * (x * p_cur - b * p_prev), p_cur
        ladder.append(p_cur)
    return ladder


def _legendre_rows(lms, x: np.ndarray) -> np.ndarray:
    """P(l, |m|, x) for every (l, m) in ``lms``, one recursion per order."""
    by_order: dict = {}
    for row, (l, m) in enumerate(lms):
        by_order.setdefault(abs(m), []).append((row, l))
    out = np.empty((len(lms), x.shape[0]))
    for order, wanted in by_order.items():
        ladder = _legendre_ladder(order, max(l for _row, l in wanted), x)
        for row, l in wanted:
            out[row] = ladder[l - order]
    return out


def _sphere_lmax(lambda_max: float) -> int:
    l = int(math.floor(0.5 * (math.sqrt(1.0 + 4.0 * lambda_max * lambda_max) - 1.0) * (1.0 + 1e-12)))
    while math.sqrt((l + 1.0) * (l + 2.0)) <= lambda_max * (1.0 + 1e-12):
        l += 1
    return l


def _build_sphere(model: Sphere2, lambda_max: float, res: Resolution) -> SpectralBasis:
    lmax = _sphere_lmax(lambda_max)
    if lmax > res.sphere_l_cap:
        raise UnderResolvedError(
            f"sphere needs harmonics to degree {lmax} (cap {res.sphere_l_cap})")
    modes = []
    for l in range(lmax + 1):
        lam = math.sqrt(l * (l + 1.0))
        for m in range(-l, l + 1):
            modes.append(Mode(len(modes), lam, (l, m)))
    grid = _sphere_grid(lmax, res)
    return SpectralBasis(model, float(lambda_max), tuple(modes), grid, "exact", res)


def _sphere_grid(lmax: int, res: Resolution) -> QuadratureGrid:
    degree_needed = 2 * res.max_product_factors * max(lmax, 1) + res.margin
    sizes = [_round_up((degree_needed + 2) // 2, 4), _round_up(degree_needed + 1)]
    return _grid_from_axis_sizes(Sphere2(), sizes)


# ---------------------------------------------------------------------------
# torus of revolution


def _rev_parity_indices(trunc: int):
    even = [0] + [2 * k - 1 for k in range(1, trunc + 1)]
    odd = [2 * k for k in range(1, trunc + 1)]
    return np.array(even), np.array(odd)


def _build_rev_torus(model: RevTorus, lambda_max: float, res: Resolution) -> SpectralBasis:
    big, small = model.major_radius, model.minor_radius
    trunc = res.rev_fourier_n or max(64, 4 * int(math.ceil(lambda_max * small)))
    if trunc > res.rev_fourier_cap:
        raise UnderResolvedError(
            f"s-profile truncation N={trunc} exceeds cap {res.rev_fourier_cap}")
    # Rayleigh bound: the m-family has lambda >= m / max(f), so angular
    # frequencies beyond lambda_max * (R + r) cannot contribute.
    m_scan = int(math.floor(lambda_max * (big + small) * (1.0 + 1e-12)))
    if m_scan > res.rev_m_cap:
        raise UnderResolvedError(
            f"angular family m={m_scan} needed for lambda_max={lambda_max} "
            f"(cap {res.rev_m_cap})")
    size = 2 * trunc + 1
    even_idx, odd_idx = _rev_parity_indices(trunc)
    stiff, inv_weight, mass = periodic_galerkin_terms(model.profile, model.profile, trunc)
    profiles = []  # (lam, m, s_parity, coeffs)
    worst_residual = 0.0
    for m in range(m_scan + 1):
        a = stiff + (m * m) * inv_weight
        a_max = max(float(np.max(np.abs(a))), 1.0)
        for s_parity, idx in ((COS, even_idx), (SIN, odd_idx)):
            sub = SymmetricPencil(a[np.ix_(idx, idx)], mass[np.ix_(idx, idx)])
            values, vectors = sym_generalized_eig(sub)
            lams = np.sqrt(np.where(values <= 1e-12 * a_max, 0.0, values))
            kept = int(np.count_nonzero(lams <= lambda_max * (1.0 + 1e-12)))
            if not kept:
                continue
            block = vectors[:, :kept]
            residuals = np.linalg.norm(
                sub.a @ block - (sub.b @ block) * values[:kept], axis=0)
            worst_residual = max(worst_residual, float(np.max(residuals)) / a_max)
            for q in range(kept):
                coeffs = np.zeros(size)
                if m == 0 and lams[q] == 0.0:
                    # the constant: v = e_0 / sqrt(R), exact by inspection
                    coeffs[0] = 1.0 / math.sqrt(big)
                else:
                    coeffs[idx] = block[:, q]
                profiles.append((float(lams[q]), m, s_parity, coeffs))
    entries = []
    for lam, m, s_parity, coeffs in profiles:
        for theta_parity in ((COS,) if m == 0 else (COS, SIN)):
            entries.append((lam, m, theta_parity, s_parity, coeffs))
    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3], tuple(e[4])))
    modes = tuple(
        Mode(i, lam, (m, theta_parity, tuple(float(c) for c in coeffs), lam))
        for i, (lam, m, theta_parity, _sp, coeffs) in enumerate(entries)
    )
    m_used = max((mode.rep[0] for mode in modes), default=0)
    grid = _rev_grid(model, trunc, m_used, res)
    provenance = f"numerical(residual={worst_residual:.3e})"
    return SpectralBasis(model, float(lambda_max), modes, grid, provenance, res)


def _rev_grid(model: RevTorus, trunc: int, m_used: int, res: Resolution) -> QuadratureGrid:
    mpf = res.max_product_factors
    stretch = max(mpf + 1, 2 * mpf)
    sizes = [_round_up(stretch * trunc + 2 + res.margin),
             _round_up(stretch * max(m_used, 1) + 1 + res.margin)]
    return _grid_from_axis_sizes(model, sizes)


def rev_profile_derivatives(mode: Mode, s: np.ndarray):
    """(v, v', v'') of a revolution-torus s-profile, by coefficient
    differentiation of the trigonometric expansion (exact)."""
    coeffs = np.asarray(mode.rep[2], dtype=float)
    size = coeffs.shape[0]
    s = np.asarray(s, dtype=float)
    basis = circle_basis(s, size)
    deriv = circle_basis_derivative(s, size)
    trunc = (size - 1) // 2
    freqs = np.arange(1, trunc + 1, dtype=float)
    dd_coeffs = coeffs.copy()
    dd_coeffs[0] = 0.0
    dd_coeffs[1::2] = -(freqs**2) * coeffs[1::2]
    dd_coeffs[2::2] = -(freqs**2) * coeffs[2::2]
    return basis @ coeffs, deriv @ coeffs, basis @ dd_coeffs


# ---------------------------------------------------------------------------
# evaluation


def _axis_factor_rows(model, modes, axis_points) -> tuple:
    """Per-axis factors of ``modes`` at per-axis coordinates: one
    (len(modes), len(points)) array per axis, whose rows multiply to the
    modes' values.  The sphere's first axis takes x = cos theta."""
    if isinstance(model, FlatTorus):
        return tuple(
            _trig_rows(np.array([m.rep[0][a] for m in modes]) * (TWO_PI / period),
                       [m.rep[1][a] for m in modes], axis_points[a],
                       1.0 / math.sqrt(period), math.sqrt(2.0 / period))
            for a, period in enumerate(model.periods)
        )
    if isinstance(model, Sphere2):
        orders = [m.rep[1] for m in modes]
        return (
            _legendre_rows([m.rep for m in modes], np.asarray(axis_points[0], dtype=float)),
            _trig_rows(np.abs(orders), [SIN if o < 0 else COS for o in orders],
                       axis_points[1], 1.0, math.sqrt(2.0)),
        )
    if isinstance(model, RevTorus):
        coeffs = np.array([m.rep[2] for m in modes])
        s_points = np.asarray(axis_points[0], dtype=float)
        return (
            coeffs @ circle_basis(s_points, coeffs.shape[1]).T,
            _trig_rows([m.rep[0] for m in modes], [m.rep[1] for m in modes],
                       axis_points[1], 1.0 / math.sqrt(TWO_PI), 1.0 / math.sqrt(math.pi)),
        )
    raise ParameterError(f"unknown manifold model {model!r}")


def _normalize_points(points, dim: int):
    arr = np.asarray(points, dtype=float)
    scalar = False
    if dim == 1:
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
            scalar = True
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim == 2 and arr.shape[1] == 1:
            pass
        else:
            raise ParameterError("points for a 1-d chart must be scalars or 1-d arrays")
    else:
        if arr.ndim == 1 and arr.shape[0] == dim:
            arr = arr.reshape(1, dim)
            scalar = True
        elif arr.ndim == 2 and arr.shape[1] == dim:
            pass
        else:
            raise ParameterError(f"points must have {dim} chart coordinates")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("points must be finite chart coordinates")
    return arr, scalar


def evaluate(model, mode: Mode, points):
    """Value of the L2-normalized eigenfunction at chart points.

    Charts: flat torus, x in R^d (periodic); sphere, (theta, phi) with
    theta in [0, pi]; torus of revolution, (s, theta), both periodic.
    Scalar-like input returns a float.
    """
    arr, scalar = _normalize_points(points, model.chart_dim)
    coords = [arr[:, a] for a in range(arr.shape[1])]
    if isinstance(model, Sphere2):
        if np.any(coords[0] < 0.0) or np.any(coords[0] > math.pi):
            raise ParameterError("polar angle must lie in [0, pi]")
        coords[0] = np.cos(coords[0])
    rows = _axis_factor_rows(model, (mode,), coords)
    out = rows[0][0]
    for axis_rows in rows[1:]:
        out *= axis_rows[0]
    return float(out[0]) if scalar else out


def as_chart_function(model, mode: Mode):
    """Wrap a mode as a plain callable on (n, chart_dim) point arrays."""

    def fn(points):
        return evaluate(model, mode, points)

    return fn


# ---------------------------------------------------------------------------
# persistence


def model_descriptor(model) -> dict:
    if isinstance(model, FlatTorus):
        return {"kind": "flat-torus", "dim": model.dim,
                "periods": [p.hex() for p in model.periods]}
    if isinstance(model, Sphere2):
        return {"kind": "sphere2"}
    if isinstance(model, RevTorus):
        return {"kind": "rev-torus",
                "major_radius": model.major_radius.hex(),
                "minor_radius": model.minor_radius.hex()}
    raise ParameterError(f"unknown manifold model {model!r}")


def model_from_descriptor(desc: dict):
    kind = desc.get("kind")
    if kind == "flat-torus":
        return FlatTorus(desc["dim"], tuple(float.fromhex(p) for p in desc["periods"]))
    if kind == "sphere2":
        return Sphere2()
    if kind == "rev-torus":
        return RevTorus(float.fromhex(desc["major_radius"]),
                        float.fromhex(desc["minor_radius"]))
    raise CorruptionError(f"unknown model kind {kind!r} in basis file")


def _resolution_payload(res: Resolution) -> dict:
    return {
        "max_product_factors": res.max_product_factors,
        "margin": res.margin,
        "torus_freq_cap": res.torus_freq_cap,
        "sphere_l_cap": res.sphere_l_cap,
        "rev_m_cap": res.rev_m_cap,
        "rev_fourier_cap": res.rev_fourier_cap,
        "rev_fourier_n": res.rev_fourier_n,
    }


def _mode_payload(model, mode: Mode):
    if isinstance(model, FlatTorus):
        freqs, parities = mode.rep
        return [mode.id, mode.lam.hex(), list(freqs), list(parities)]
    if isinstance(model, Sphere2):
        l, m = mode.rep
        return [mode.id, mode.lam.hex(), l, m]
    m, parity, coeffs, lam = mode.rep
    return [mode.id, mode.lam.hex(), m, parity, lam.hex(), [c.hex() for c in coeffs]]


def _mode_from_payload(model, payload) -> Mode:
    mode_id = int(payload[0])
    lam = float.fromhex(payload[1])
    if isinstance(model, FlatTorus):
        return Mode(mode_id, lam, (tuple(int(k) for k in payload[2]),
                                   tuple(int(p) for p in payload[3])))
    if isinstance(model, Sphere2):
        return Mode(mode_id, lam, (int(payload[2]), int(payload[3])))
    return Mode(mode_id, lam, (int(payload[2]), int(payload[3]),
                               tuple(float.fromhex(c) for c in payload[5]),
                               float.fromhex(payload[4])))


def _basis_payload(basis: SpectralBasis) -> bytes:
    if basis.grid.axes:
        axis_sizes = [len(ax[0]) for ax in basis.grid.axes]
    else:
        axis_sizes = [basis.grid.size]
    body = {
        "model": model_descriptor(basis.model),
        "lambda_max": basis.lambda_max.hex(),
        "resolution": _resolution_payload(basis.resolution),
        "provenance": basis.provenance,
        "grid_axis_sizes": axis_sizes,
        "modes": [_mode_payload(basis.model, m) for m in basis.modes],
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def basis_digest(basis: SpectralBasis) -> str:
    """Content digest of the basis (independent of where it is stored):
    the sha256 of its canonical payload, computed at most once per basis."""
    if basis._digest is None:
        basis._digest = hashlib.sha256(_basis_payload(basis)).hexdigest()
    return basis._digest


def save_basis(basis: SpectralBasis, path) -> str:
    """Write the versioned binary cache file; returns the content digest."""
    body = _basis_payload(basis)
    digest = hashlib.sha256(body).digest()
    blob = CACHE_MAGIC + struct.pack("<H", CACHE_VERSION) + digest
    blob += struct.pack("<Q", len(body)) + body
    with open(path, "wb") as handle:
        handle.write(blob)
    basis._digest = digest.hex()
    return basis._digest


def load_basis(path) -> SpectralBasis:
    """Read a basis cache file; the round trip is bit-exact."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 4 + 2 + 32 + 8 or blob[:4] != CACHE_MAGIC:
        raise CorruptionError(f"{path}: not a basis cache file")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != CACHE_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version} needs migration "
            f"(this build reads version {CACHE_VERSION})")
    digest = blob[6:38]
    (length,) = struct.unpack_from("<Q", blob, 38)
    body = blob[46:46 + length]
    if len(body) != length or hashlib.sha256(body).digest() != digest:
        raise CorruptionError(f"{path}: content digest mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
        model = model_from_descriptor(payload["model"])
        res = Resolution(**payload["resolution"])
        modes = tuple(_mode_from_payload(model, m) for m in payload["modes"])
        lambda_max = float.fromhex(payload["lambda_max"])
        grid = _grid_from_axis_sizes(model, payload["grid_axis_sizes"])
        provenance = payload["provenance"]
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptionError(f"{path}: malformed basis payload ({exc})") from exc
    basis = SpectralBasis(model, lambda_max, modes, grid, provenance, res)
    basis._digest = digest.hex()  # the body is the canonical payload save_basis wrote
    return basis


def _grid_from_axis_sizes(model, sizes) -> QuadratureGrid:
    """The model's quadrature grid from its per-axis node counts."""
    if isinstance(model, FlatTorus):
        axes = [uniform_periodic(n, p) for n, p in zip(sizes, model.periods)]
        return axes[0] if model.dim == 1 else tensor_grid(*axes)
    if isinstance(model, Sphere2):
        x_axis = gauss_legendre(sizes[0])
        phi_axis = uniform_periodic(sizes[1], TWO_PI)
        grid = tensor_grid(x_axis, phi_axis)
        # nodes are reported in chart coordinates (theta, phi); the x = cos(theta)
        # Gauss axis already absorbs the sin(theta) volume factor.
        theta = np.arccos(grid.nodes[:, 0])
        nodes = np.stack([theta, grid.nodes[:, 1]], axis=-1)
        return QuadratureGrid(nodes, grid.weights,
                              min(2 * sizes[0] - 1, sizes[1] - 1),
                              4.0 * math.pi, axes=grid.axes)
    if isinstance(model, RevTorus):
        s_plain = uniform_periodic(sizes[0], TWO_PI)
        s_axis = QuadratureGrid(
            s_plain.nodes, s_plain.weights * model.profile(s_plain.nodes),
            sizes[0] - 2,  # degree of g such that the integral of g * f ds is exact
            TWO_PI * model.major_radius)
        theta_axis = uniform_periodic(sizes[1], TWO_PI)
        return tensor_grid(s_axis, theta_axis)
    raise ParameterError(f"unknown manifold model {model!r}")


def basis_equal(one: SpectralBasis, other: SpectralBasis) -> bool:
    """Bit-exact comparison of every persisted field."""
    return (
        one.model == other.model
        and one.lambda_max == other.lambda_max
        and one.provenance == other.provenance
        and one.resolution == other.resolution
        and one.modes == other.modes
        and np.array_equal(one.grid.nodes, other.grid.nodes)
        and np.array_equal(one.grid.weights, other.grid.weights)
    )


def basis_to_json_dict(basis: SpectralBasis) -> dict:
    """Human-inspectable structured form (decimal floats, 17 digits)."""
    modes = []
    for mode in basis.modes:
        entry = {"id": mode.id, "lambda": float(mode.lam)}
        if isinstance(basis.model, FlatTorus):
            entry["freqs"] = list(mode.rep[0])
            entry["parities"] = list(mode.rep[1])
        elif isinstance(basis.model, Sphere2):
            entry["l"], entry["m"] = mode.rep
        else:
            entry["m"] = mode.rep[0]
            entry["theta_parity"] = mode.rep[1]
            entry["profile_coefficients"] = [float(c) for c in mode.rep[2]]
        modes.append(entry)
    desc = model_descriptor(basis.model)
    if isinstance(basis.model, FlatTorus):
        desc["periods"] = list(basis.model.periods)
    elif isinstance(basis.model, RevTorus):
        desc["major_radius"] = basis.model.major_radius
        desc["minor_radius"] = basis.model.minor_radius
    return {
        "model": desc,
        "lambda_max": basis.lambda_max,
        "mode_count": basis.size,
        "provenance": basis.provenance,
        "digest": basis_digest(basis),
        "modes": modes,
    }


def _round_up(n: int, mult: int = 16) -> int:
    return ((int(n) + mult - 1) // mult) * mult
