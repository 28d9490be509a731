"""Model surfaces and their L2-normalized eigenbases.

Three closed analytic models are supported:

* ``FlatTorus(dim, periods)`` for dim 1 or 2: exact trigonometric modes.
* ``Sphere2``: real spherical harmonics, no Condon-Shortley phase.
* ``RevTorus(R, r)``: the donut surface with metric ds^2 + f(s)^2 dtheta^2,
  f(s) = R + r cos s.  Its modes separate into per-angular-frequency
  periodic Sturm-Liouville problems, solved as Fourier-Galerkin pencils
  whose matrices :func:`eigenprod.numerics.rev_galerkin_terms` gives in
  closed form; this is the one model whose eigenfunction products are not
  band-limited.

Eigenvalues are written lambda^2 throughout.  A basis is its arrays by
mode id: ``lams``, the frequencies lambda, and ``reps``, the integer
representation columns; per-mode floats are rows of
``SpectralBasis.coefficients``.  Modes are ordered by ascending lambda
with ties broken by their representation, so ids are reproducible.
A mode is named by its id everywhere in the package.

Everything that differs between models lives in the model's class, one
section of this module each; ``build_basis``, ``evaluate``, persistence
and the JSON view are model-agnostic.  A fourth model is a frozen
dataclass derived from ``_Surface`` whose fields are its constructor
arguments.  It implements the method set listed there and joins
``_MODELS``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConvergenceError,
    CorruptionError,
    ParameterError,
    UnderResolvedError,
    VersionMismatchError,
)
from .numerics import (
    QuadratureGrid,
    TWO_PI,
    circle_basis,
    circle_columns,
    circle_frequencies,
    circle_norms,
    circle_product,
    circle_sums,
    circle_unit_product,
    family_eigs,
    gauss_legendre,
    gaunt_real,
    inverse_cholesky,
    reduce_congruent,
    rev_galerkin_terms,
    uniform_periodic,
)
from .reportio import atomic_write_bytes

COS, SIN = 0, 1

CACHE_MAGIC = b"EPRD"
CACHE_VERSION = 8
# largest relative residual |A v - mu B v| / max|A| a rev-torus build accepts
MAX_EIGEN_RESIDUAL = 1e-10
# Build caps.  Grids are exact for the coefficient and norm integrands of
# products of up to GRID_PRODUCT_FACTORS eigenfunctions, with GRID_MARGIN
# spare degrees.  A rev-torus s-truncation is sized by the profile's
# analyticity strip |Im s| < sigma = arccosh(R / r): past k = lambda a
# mode's s-coefficients fall like exp(-sigma (k - lambda)), so
# N = lambda_max + ceil(36 / sigma), rounded up to a multiple of 8
# (_rev_truncation).  Up to REV_TRUNCATION_CAP its digests were measured
# equal at 1 and 2 BLAS threads; at N = 144 they differ.  Thin necks
# (R / r near 1, small sigma) pass the cap and are refused, not built
# under-resolved.
GRID_PRODUCT_FACTORS = 3
GRID_MARGIN = 8
TORUS_FREQ_CAP = 128
SPHERE_L_CAP = 64
REV_M_CAP = 32
REV_TRUNCATION_CAP = 128

__all__ = [
    "FlatTorus",
    "Sphere2",
    "RevTorus",
    "SpectralBasis",
    "build_basis",
    "evaluate",
    "as_chart_function",
    "save_basis",
    "load_basis",
    "basis_digest",
    "basis_to_json_dict",
]


@dataclass(eq=False)
class SpectralBasis:
    """All eigenfunctions with lambda <= lambda_max on one model, plus the
    quadrature grid every integral in the package runs on: ``axes``, one
    one-dimensional rule per chart axis, whose tensor product is the grid.
    Integrals are sums over the axes.  The values on the grid of the
    modes a caller needs come from the model's ``axis_factor_rows``.

    A basis is its modes' read-only arrays by mode id: ``lams`` (float64),
    ``reps`` (one int64 column per name in the model's ``rep_names``, the
    columns a cache header stores) and ``coefficients`` (row i is mode
    i's rev-torus s-profile; width 0 on the other models).  The
    representations: flat torus ``freqs`` and ``parities``, (modes, d),
    parity 0=cos / 1=sin per axis; sphere ``l`` and ``m`` of a real
    harmonic (m>0 cosine type, m<0 sine type); torus of revolution ``m``
    and ``theta_parity``.  Construction adds the model's (modes, axes)
    ``bandwidths``, their column maximum ``target_bandwidth``, and the
    model's ``axis_columns``; ``checked_id(i)`` is the check every
    function that takes a mode id runs.
    ``save_basis`` and ``load_basis`` record the content digest they wrote
    or verified, and ``basis_digest`` serializes only bases that were
    never saved or loaded.
    """

    model: object
    lambda_max: float
    lams: np.ndarray
    reps: dict
    coefficients: np.ndarray
    axes: tuple
    provenance: str
    bandwidths: np.ndarray = field(init=False, repr=False)
    target_bandwidth: np.ndarray = field(init=False, repr=False)
    axis_columns: tuple = field(init=False, repr=False)
    _digest: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.bandwidths = self.model.bandwidths(self.reps, self.coefficients.shape[1])
        self.target_bandwidth = self.bandwidths.max(axis=0)
        self.axis_columns = self.model.axis_columns(self.reps)
        for array in (self.coefficients, self.lams, self.bandwidths, self.target_bandwidth,
                      *self.reps.values(), *(c for c in self.axis_columns if c is not None)):
            array.setflags(write=False)

    def checked_id(self, mode_id) -> int:
        """``mode_id`` as an int; ParameterError unless it is an integer
        (not a bool) naming a mode of this basis."""
        if not isinstance(mode_id, (int, np.integer)) or isinstance(mode_id, bool):
            raise ParameterError(f"mode id {mode_id!r} is not an integer")
        if not 0 <= mode_id < self.size:
            raise ParameterError(f"unknown mode id {mode_id}")
        return int(mode_id)

    @property
    def size(self) -> int:
        return self.lams.shape[0]

    def axis_exactness(self) -> tuple:
        return tuple(ax.exactness_degree for ax in self.axes)

    def axis_sizes(self) -> list:
        """Node count per grid axis, the grid input that is persisted."""
        return [ax.size for ax in self.axes]


class _Surface:
    """The method set of a model; what is defined here is shared or a default.

    Required: ``kind`` (the persisted descriptor key), ``rep_names`` (the
    names of the int representation columns), ``chart_dim``, ``volume``,
    ``build(lambda_max)`` (the ordered basis),
    ``quadrature_grid(sizes)`` (one one-dimensional rule per chart axis,
    from the per-axis node counts),
    ``axis_columns(reps)`` (per chart axis, each mode's circle_basis
    column as an int array, None where a factor is not one column: the
    one place a model maps its representation columns to circle columns),
    ``bandwidths(reps, width)`` (the (modes, axes) per-axis degrees that
    size the exactness a product's integrands need, at row width ``width``),
    ``axis_factor_rows(basis, ids, axis_points)`` (per grid axis, one
    (len(ids), len(points)) array whose rows multiply to the values of the
    modes ``ids``) and
    ``axis_projections(basis, weighted)`` (per grid axis, the sum of every
    mode's factor row against ``weighted[axis]``, one value per mode: the
    quadrature check of product coefficients; a uniform periodic axis
    takes one FFT, :func:`_circle_projections`) and
    ``exact_coefficients(basis, factors)`` (the exact oracle: every mode's
    coefficient in the product of the modes ``factors``, ascending ids).

    Optional: ``coefficients_name`` (the JSON name of a coefficient row;
    None for empty rows), ``rep_shape`` (the shape of one mode's entry in
    a representation column; () for a scalar), ``chart_axes(coords)``
    (the grid-axis coordinates of a list of per-axis chart coordinates,
    and their range check), ``parse_label(token)`` (the representation a
    CLI mode label names), ``rep_lambda(rep)`` (the mode's lambda in
    closed form, with which ``build`` and the CLI size), and the explicit
    cosh extension's ``extension_chart()`` (the injectivity radius and
    the sup of the metric's coefficient sum) and
    ``extension_spectrum(basis, ids)`` (per mode of ``ids``, its Laplacian
    eigenvalue from its representation and its sup).

    Shared: ``lattice_rows`` (the factor rows on each axis's own
    coordinates, checked), whose product at scattered chart points is
    :func:`evaluate`, and ``lattice_values`` (their outer product, a tensor
    lattice).
    """

    coefficients_name = None
    rep_shape = ()

    def chart_axes(self, coords: list) -> list:
        """The grid-axis coordinates of validated per-axis chart coordinates."""
        return coords

    def lattice_rows(self, basis: SpectralBasis, ids, coords) -> tuple:
        """The factor rows of the modes ``ids`` of ``basis`` on the per-axis
        chart coordinates ``coords``, one (len(ids), len(coords[a])) array
        per chart axis, each formed on its axis's own coordinates; a wrong
        number of axes or a coordinate that is not finite is refused."""
        if len(coords) != self.chart_dim:
            raise ParameterError(f"points must have {self.chart_dim} chart coordinates")
        coords = [np.asarray(c, dtype=float).reshape(-1) for c in coords]
        if not all(np.all(np.isfinite(c)) for c in coords):
            raise ParameterError("points must be finite chart coordinates")
        return self.axis_factor_rows(basis, ids, self.chart_axes(coords))

    def lattice_values(self, basis: SpectralBasis, ids, coords) -> np.ndarray:
        """Values of the modes ``ids`` of ``basis`` on the tensor lattice of
        the per-axis chart coordinates ``coords`` (first axis slowest, as
        ``meshgrid`` with ``indexing="ij"``), one row per mode.  The
        :meth:`lattice_rows` are multiplied as an outer product, so each
        value is the product :func:`evaluate` forms at that lattice point,
        bit for bit, however many modes one call asks for."""
        rows = self.lattice_rows(basis, ids, coords)
        out = rows[0]
        for axis_rows in rows[1:]:
            out = (out[:, :, None] * axis_rows[:, None, :]).reshape(out.shape[0], -1)
        return out

    def parse_label(self, token: str) -> tuple:
        """The representation a mode label names (CLI factor tokens)."""
        raise ParameterError(f"cannot parse factor token {token!r} for this model")

    def rep_lambda(self, rep: tuple) -> float | None:
        """Lambda of the mode ``rep`` names, or None: no closed form."""
        return None

    def extension_chart(self) -> tuple:
        """(injectivity radius, coefficient sup) of the extension's chart."""
        raise ParameterError("the explicit cosh extension exists only on the flat torus")

    def extension_spectrum(self, basis: SpectralBasis, ids) -> tuple:
        """(Laplacian eigenvalues, sups) of the modes ``ids`` of ``basis``."""
        raise ParameterError("harmonic extension requires a flat torus basis")


def _round_up(n: int, mult: int = 16) -> int:
    return ((int(n) + mult - 1) // mult) * mult


# ---------------------------------------------------------------------------
# flat torus


@dataclass(frozen=True)
class FlatTorus(_Surface):
    """Flat torus R^d / (periods Z^d), d in {1, 2}."""

    dim: int
    periods: tuple

    kind = "flat-torus"
    rep_names = ("freqs", "parities")

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
    def rep_shape(self) -> tuple:
        return (self.dim,)

    @property
    def volume(self) -> float:
        return float(np.prod(self.periods))

    def build(self, lambda_max: float) -> SpectralBasis:
        # the cap is checked on the float reach, which may be inf
        reach = [lambda_max * p / TWO_PI * (1.0 + 1e-12) for p in self.periods]
        if max(reach) >= TORUS_FREQ_CAP + 1:
            raise UnderResolvedError(
                f"flat torus needs frequencies past the cap {TORUS_FREQ_CAP} "
                f"to reach lambda_max={lambda_max}")
        kmaxes = tuple(int(math.floor(k)) for k in reach)
        # per axis every (frequency, parity) factor: a zero frequency has no sine
        factors = [[(k, p) for k in range(kmax + 1) for p in ((COS,) if k == 0 else (COS, SIN))]
                   for kmax in kmaxes]
        pairs = np.array(list(itertools.product(*factors)), dtype=np.int64)
        lams = np.array([self.rep_lambda((f, None)) for f in pairs[:, :, 0].tolist()])
        kept = lams <= lambda_max * (1.0 + 1e-12)
        freqs, pars, lams = pairs[kept, :, 0], pairs[kept, :, 1], lams[kept]
        # by lambda, then the frequencies and the parities, axis by axis
        order = np.lexsort((*pars.T[::-1], *freqs.T[::-1], lams))
        sizes = [_round_up(2 * GRID_PRODUCT_FACTORS * max(kmax, 1) + GRID_MARGIN + 1)
                 for kmax in kmaxes]
        return SpectralBasis(self, float(lambda_max), lams[order],
                             {"freqs": freqs[order], "parities": pars[order]},
                             np.empty((order.shape[0], 0)), self.quadrature_grid(sizes), "exact")

    def quadrature_grid(self, sizes) -> tuple:
        return tuple(uniform_periodic(n, p) for n, p in zip(sizes, self.periods))

    def axis_columns(self, reps: dict) -> tuple:
        # a factor on an axis of period P is sqrt(2 pi / P) times a
        # circle_basis column of 2 pi x / P
        return tuple(circle_columns(reps["freqs"][:, a], reps["parities"][:, a])
                     for a in range(self.dim))

    def bandwidths(self, reps: dict, width: int) -> np.ndarray:
        return reps["freqs"]

    def axis_factor_rows(self, basis: SpectralBasis, ids, axis_points) -> tuple:
        return tuple(_trig_rows(axis_points[a], basis.axis_columns[a][ids],
                                1.0 / math.sqrt(period), math.sqrt(2.0 / period), TWO_PI / period)
                     for a, period in enumerate(self.periods))

    def axis_projections(self, basis: SpectralBasis, weighted) -> tuple:
        return tuple(_circle_projections(weighted[a], basis.axis_columns[a],
                                         math.sqrt(TWO_PI / period))
                     for a, period in enumerate(self.periods))

    def rep_lambda(self, rep: tuple) -> float:
        """|k| with k_a = 2 pi freqs[a] / periods[a]; the parities do not enter."""
        return math.hypot(*(k * (TWO_PI / p) for k, p in zip(rep[0], self.periods)))

    def parse_label(self, token: str) -> tuple:
        """``const``, ``cos<k>``, ``sin<k>`` in 1-d; ``<p><k1><p><k2>`` with
        p in {c, s} (for example ``c1s2``) in 2-d; each k is ASCII digits
        with an optional minus sign."""
        if self.dim == 1 and token == "const":
            return ((0,), (COS,))
        match = re.fullmatch(r"(cos|sin)(-?[0-9]+)" if self.dim == 1
                             else r"([cs])(-?[0-9]+)([cs])(-?[0-9]+)", token)
        if match is None:
            return super().parse_label(token)
        parities = tuple(SIN if p[0] == "s" else COS for p in match.groups()[::2])
        freqs = tuple(int(k) for k in match.groups()[1::2])
        # frequencies are >= 0, and a zero frequency has only the cosine factor
        if any(k < 0 or (k == 0 and p == SIN) for k, p in zip(freqs, parities)):
            raise ParameterError(f"factor token {token!r} names no mode of the flat torus")
        return (freqs, parities)

    def exact_coefficients(self, basis: SpectralBasis, factors) -> np.ndarray:
        # per axis, the product of the factors' columns; a factor on an
        # axis of period P is sqrt(2 pi / P) times a column
        coeffs = np.ones(basis.size)
        for columns, period in zip(basis.axis_columns, self.periods):
            coeffs *= _gather(_axis_product(columns[factors], math.sqrt(TWO_PI / period)), columns)
        return coeffs

    def extension_chart(self) -> tuple:
        """Half the shortest period, and d: the flat Laplacian has d unit
        second-order coefficients, (2 R3)^0 each."""
        return min(self.periods) / 2.0, float(self.dim)

    def extension_spectrum(self, basis: SpectralBasis, ids) -> tuple:
        """The eigenvalues from the frequency vectors, independent of
        ``basis.lams``; a mode's sup is the product over the axes of
        sqrt(2 pi / P) over the norm of its circle_basis column."""
        eigs = sum((TWO_PI * circle_frequencies(columns[ids]) / period) ** 2
                   for columns, period in zip(basis.axis_columns, self.periods))
        sups = np.prod([math.sqrt(TWO_PI / period) / circle_norms(columns[ids])
                        for columns, period in zip(basis.axis_columns, self.periods)], axis=0)
        return eigs, sups


def _trig_rows(x, columns, const: float, amp: float, scale: float = 1.0) -> np.ndarray:
    """One row per circle_basis column, of frequency freq: ``const`` for
    column 0, else amp * cos(scale freq x) (odd columns) or amp *
    sin(scale freq x) (even columns).  Each distinct column is evaluated
    once.  ``const`` and ``amp`` are the factor's scale over the
    circle_basis norms, written out so that a row's bits do not depend on
    how that quotient rounds."""
    keys, inverse = np.unique(columns, return_inverse=True)
    x = np.asarray(x, dtype=float)
    rows = np.empty((keys.size, x.shape[0]))
    for row, column in zip(rows, keys.tolist()):
        freq = (column + 1) // 2
        if freq == 0:
            row[:] = const
        else:
            np.multiply(freq * scale, x, out=row)
            (np.cos if column % 2 else np.sin)(row, out=row)
            row *= amp
    return rows[inverse.reshape(-1)]


def _circle_projections(values, columns, scale: float = 1.0) -> np.ndarray:
    """Per circle_basis column, the sum of the factor ``scale`` times that
    column against ``values`` on a uniform periodic grid with a node at 0
    (:func:`eigenprod.numerics.circle_sums`, one FFT), exact for every
    frequency below the node count."""
    width = 2 * int(circle_frequencies(np.max(columns, initial=0))) + 1
    return scale * circle_sums(values, width)[columns]


def _axis_product(columns, scale: float) -> np.ndarray:
    """Per column t of the product's band, the integral over one period of
    the product of the axis factors ``scale`` col_c(2 pi x / period), c in
    ``columns``, against ``scale`` col_t, where col is a
    :func:`eigenprod.numerics.circle_basis` column and scale^2 = 2 pi /
    period.  With amplitudes a = scale / circle_norms, the factors are a_c
    times 1, cos or sin, and the integral is prod(a_c) T_t / a_t for the
    product T of those unit series."""
    product = circle_unit_product(columns)
    return np.prod(scale / circle_norms(columns)) * product / (
        scale / circle_norms(np.arange(product.shape[0])))


def _gather(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """row[columns], 0 past the end of ``row``."""
    return np.where(columns < row.shape[0], row[np.minimum(columns, row.shape[0] - 1)], 0.0)


# ---------------------------------------------------------------------------
# sphere


@dataclass(frozen=True)
class Sphere2(_Surface):
    """The unit round sphere.  Its grid's first axis is x = cos theta."""

    kind = "sphere2"
    rep_names = ("l", "m")

    @property
    def chart_dim(self) -> int:
        return 2

    @property
    def volume(self) -> float:
        return 4.0 * math.pi

    def build(self, lambda_max: float) -> SpectralBasis:
        # checked before the degree is computed, where 4 lambda^2 may overflow
        if lambda_max * (1.0 + 1e-12) >= self.rep_lambda((SPHERE_L_CAP + 1, 0)):
            raise UnderResolvedError(
                f"sphere needs harmonics past degree {SPHERE_L_CAP} (its cap) "
                f"to reach lambda_max={lambda_max}")
        lmax = _sphere_lmax(lambda_max)
        degrees = np.arange(lmax + 1, dtype=np.int64)
        l = np.repeat(degrees, 2 * degrees + 1)
        m = np.arange(l.shape[0]) - l * (l + 1)  # degree l holds the ids l^2 .. l^2 + 2l
        degree_needed = 2 * GRID_PRODUCT_FACTORS * max(lmax, 1) + GRID_MARGIN
        sizes = [_round_up((degree_needed + 2) // 2, 4), _round_up(degree_needed + 1)]
        return SpectralBasis(self, float(lambda_max), np.sqrt(l * (l + 1.0)), {"l": l, "m": m},
                             np.empty((l.shape[0], 0)), self.quadrature_grid(sizes), "exact")

    def quadrature_grid(self, sizes) -> tuple:
        # the x = cos(theta) Gauss axis absorbs the sin(theta) volume factor
        return gauss_legendre(sizes[0]), uniform_periodic(sizes[1], TWO_PI)

    def chart_axes(self, coords: list) -> list:
        theta = coords[0]
        if np.any(theta < 0.0) or np.any(theta > math.pi):
            raise ParameterError("polar angle must lie in [0, pi]")
        return [np.cos(theta), coords[1]]

    def axis_columns(self, reps: dict) -> tuple:
        # the Gauss x-axis holds Legendre rows; a phi factor is sqrt(2 pi)
        # times the column of frequency |m|, a sine where m < 0
        orders = reps["m"]
        return None, circle_columns(np.abs(orders), orders < 0)

    def bandwidths(self, reps: dict, width: int) -> np.ndarray:
        return np.column_stack((reps["l"], reps["l"]))

    def axis_factor_rows(self, basis: SpectralBasis, ids, axis_points) -> tuple:
        lms = np.column_stack((basis.reps["l"][ids], basis.reps["m"][ids]))
        return (_legendre_rows(lms, np.asarray(axis_points[0], dtype=float)),
                _trig_rows(axis_points[1], basis.axis_columns[1][ids], 1.0, math.sqrt(2.0)))

    def axis_projections(self, basis: SpectralBasis, weighted) -> tuple:
        # the Gauss x-axis is not periodic: its Legendre rows are formed
        # here, once per distinct (l, |m|), keyed l^2 + |m| with |m| <= l
        lms = np.column_stack((basis.reps["l"], np.abs(basis.reps["m"])))
        _keys, first, inverse = np.unique(lms[:, 0] ** 2 + lms[:, 1],
                                          return_index=True, return_inverse=True)
        x_sums = _legendre_rows(lms[first], basis.axes[0].nodes) @ weighted[0]
        return (x_sums[inverse.reshape(-1)],
                _circle_projections(weighted[1], basis.axis_columns[1], math.sqrt(TWO_PI)))

    def rep_lambda(self, rep: tuple) -> float:
        """sqrt(l (l + 1)); the order m does not enter."""
        return math.sqrt(rep[0] * (rep[0] + 1.0))

    def parse_label(self, token: str) -> tuple:
        """``Y<l>m<m>`` with |m| <= l, for example ``Y2m-1``; l and m are
        ASCII digits with an optional minus sign."""
        match = re.fullmatch(r"Y(-?[0-9]+)m(-?[0-9]+)", token)
        if match:
            l, m = int(match[1]), int(match[2])
            if abs(m) > l:
                raise ParameterError(f"factor token {token!r} names no harmonic: need |m| <= l")
            return (l, m)
        return super().parse_label(token)

    def exact_coefficients(self, basis: SpectralBasis, factors) -> np.ndarray:
        """Gaunt fold over the factors in id order, dropping degrees the rest
        cannot bring back into the basis; then one table lookup of every
        basis mode, keyed l (l + 1) + m, which is unique per harmonic."""
        degrees, orders = basis.reps["l"], basis.reps["m"]
        first, *rest = ((int(degrees[i]), int(orders[i])) for i in factors)
        top = int(degrees.max()) + sum(l for l, _m in rest)
        poly = {first: 1.0}
        for l, m in rest:
            top -= l
            poly = _harmonic_multiply(poly, l, m, top)
        table = np.zeros((top + 1) ** 2)
        table[[l * (l + 1) + m for l, m in poly]] = list(poly.values())
        return table[degrees * (degrees + 1) + orders]


def _legendre_rows(lms, x: np.ndarray) -> np.ndarray:
    """P(l, |m|, x) for every (l, m) in ``lms``: orthonormalized
    associated Legendre values without the Condon-Shortley phase, so that
    the real harmonics Y_{l,0} = P(l,0,cos theta) and Y_{l,+-m} =
    sqrt(2) P(l,m,cos theta) {cos,sin}(m phi) have unit L2 norm on the
    sphere.  A stable three-term recursion keeps the values O(1); it runs
    for every order at once: pass t steps each order m from degree
    m + t - 1 to m + t, so the passes number the top degree, not the
    degree-order pairs."""
    pairs = np.abs(np.asarray(lms, dtype=np.int64)).reshape(-1, 2)
    out = np.empty((pairs.shape[0], x.shape[0]))
    if not pairs.size:
        return out
    orders, slots = np.unique(pairs[:, 1], return_inverse=True)
    steps = pairs[:, 0] - pairs[:, 1]
    by_step = np.argsort(steps, kind="stable")
    bounds = np.searchsorted(steps[by_step], np.arange(int(steps.max()) + 2)).tolist()
    u = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    current = np.empty((orders.shape[0], x.shape[0]))
    p_mm = np.full(x.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for slot, (low, high) in enumerate(zip([0, *orders[:-1].tolist()], orders.tolist())):
        for j in range(low + 1, high + 1):
            p_mm = math.sqrt((2.0 * j + 1.0) / (2.0 * j)) * u * p_mm
        current[slot] = p_mm
    # the recursion's coefficients at degree j = m + t, one row per pass t >= 2
    m = orders
    j = m + np.arange(2, len(bounds) - 1)[:, None]
    a = np.sqrt((4.0 * j * j - 1.0) / (j * j - m * m))[:, :, None]
    b = np.sqrt(((j - 1.0) ** 2 - m * m) / (4.0 * (j - 1.0) ** 2 - 1.0))[:, :, None]
    previous = None
    for t in range(len(bounds) - 1):
        if t == 1:
            previous, current = current, (np.sqrt(2.0 * m + 3.0)[:, None] * x) * current
        elif t > 1:
            previous, current = current, a[t - 2] * (x * current - b[t - 2] * previous)
        rows = by_step[bounds[t]:bounds[t + 1]]
        out[rows] = current[slots[rows]]
    return out


def _harmonic_multiply(poly: dict, l: int, m: int, top: int) -> dict:
    """poly * Y_lm for poly = {(l, m): coefficient}, exact through Gaunt, up
    to degree ``top``.  Each term visits, in ascending (L, M), only the
    targets the real-Gaunt rules allow: |l_a - l| <= L <= l_a + l with
    l_a + l + L even, and |M| in {|m_a| + |m|, ||m_a| - |m||}, negative
    exactly when one of m_a, m is."""
    out: dict = {}
    for (la, ma), weight in poly.items():
        sign = -1 if (ma < 0) != (m < 0) else 1
        orders = sorted({sign * o for o in (abs(ma) + abs(m), abs(abs(ma) - abs(m)))
                         if o or sign > 0})
        for big_l in range(abs(la - l), min(la + l, top) + 1, 2):
            for big_m in (o for o in orders if abs(o) <= big_l):
                g = gaunt_real(la, ma, l, m, big_l, big_m)
                out[big_l, big_m] = out.get((big_l, big_m), 0.0) + weight * g
    return {k: v for k, v in out.items() if v != 0.0}


def _sphere_lmax(lambda_max: float) -> int:
    l = int(math.floor(0.5 * (math.sqrt(1.0 + 4.0 * lambda_max * lambda_max) - 1.0) * (1.0 + 1e-12)))
    while math.sqrt((l + 1.0) * (l + 2.0)) <= lambda_max * (1.0 + 1e-12):
        l += 1
    return l


# ---------------------------------------------------------------------------
# torus of revolution


@dataclass(frozen=True)
class RevTorus(_Surface):
    """Torus of revolution: (s, theta) in [0, 2pi)^2 with
    metric ds^2 + (R + r cos s)^2 dtheta^2, R > r > 0."""

    major_radius: float
    minor_radius: float

    kind = "rev-torus"
    rep_names = ("m", "theta_parity")
    coefficients_name = "profile_coefficients"

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

    def build(self, lambda_max: float) -> SpectralBasis:
        big, small = self.major_radius, self.minor_radius
        # Rayleigh bound: the m-family has lambda >= m / max(f), so angular
        # frequencies beyond lambda_max * (R + r) cannot contribute.
        m_scan = int(math.floor(lambda_max * (big + small) * (1.0 + 1e-12)))
        if m_scan > REV_M_CAP:
            raise UnderResolvedError(
                f"angular family m={m_scan} needed for lambda_max={lambda_max} "
                f"(cap {REV_M_CAP})")
        trunc = _rev_truncation(self, lambda_max)
        if trunc > REV_TRUNCATION_CAP:
            raise UnderResolvedError(
                f"s-profile truncation N={trunc} exceeds cap {REV_TRUNCATION_CAP}")
        blocks = rev_galerkin_terms(big, small, trunc)
        weights = np.arange(m_scan + 1) ** 2
        # max |K + m^2 M_inv| scales the zero-snap and the residual.  K and
        # M_inv are Gram matrices under the positive weights f and 1/f, so
        # by Cauchy-Schwarz |a_ij| <= sqrt(a_ii a_jj): each family's largest
        # entry is on its diagonal (entries between the blocks are 0)
        a_maxes = np.maximum(np.maximum(*[
            (np.diagonal(k) + weights[:, None] * np.diagonal(w)).max(axis=1)
            for _idx, k, w, _b in blocks]), 1.0)
        # only the eigenpairs below a slightly widened lambda_max are computed
        upper = (lambda_max * (1.0 + 1e-9)) ** 2
        # every family m solves (K + m^2 M_inv) v = mu B v on each s-parity
        # block, so B is factored and K, M_inv are reduced once per block
        lams, ms, s_parities, kept_vectors = [], [], [], []
        worst_residual = 0.0
        for s_parity, (idx, k, w, b) in zip((COS, SIN), blocks):
            inv_lower = inverse_cholesky(b)
            values, vectors, counts = family_eigs(
                reduce_congruent(inv_lower, k), reduce_congruent(inv_lower, w),
                inv_lower, weights, upper)
            family = np.repeat(np.arange(counts.shape[0]), counts)
            roots = np.sqrt(np.where(values <= 1e-12 * a_maxes[family], 0.0, values))
            # each family's roots ascend, so it keeps a prefix of its pairs
            keep = roots <= lambda_max * (1.0 + 1e-12)
            kept = np.bincount(family[keep], minlength=counts.shape[0])
            starts = np.cumsum(counts) - counts
            stiffness = np.empty_like(k)
            for m in np.flatnonzero(kept).tolist():
                start, count = starts[m], counts[m]
                # each family's residual on a contiguous copy of its vectors,
                # sliced to the kept ones; einsum without ``optimize`` takes
                # no BLAS path, so the residual (part of the digest) does not
                # depend on the BLAS thread count
                block = np.ascontiguousarray(vectors[:, start:start + count])[:, :kept[m]]
                np.multiply(w, weights[m], out=stiffness)
                np.add(k, stiffness, out=stiffness)
                residual = (np.einsum("ij,jk->ik", stiffness, block)
                            - np.einsum("ij,jk->ik", b, block) * values[start:start + kept[m]])
                np.square(residual, out=residual)
                # sqrt is monotone and correctly rounded: the largest norm
                # is the root of the largest sum of squares
                worst_residual = max(worst_residual,
                                     math.sqrt(residual.sum(axis=0).max()) / float(a_maxes[m]))
            lams.append(roots[keep])
            ms.append(family[keep])
            s_parities.append(np.full(lams[-1].shape[0], s_parity))
            kept_vectors.append((idx, vectors[:, keep]))
        if worst_residual > MAX_EIGEN_RESIDUAL:
            raise ConvergenceError(
                f"rev-torus eigen-residual {worst_residual:.3e} exceeds {MAX_EIGEN_RESIDUAL:g}")
        # the profiles (lambda, m, s-parity) and their coefficient rows, full
        # width, in solve order
        lams, ms, s_parities = map(np.concatenate, (lams, ms, s_parities))
        rows = np.zeros((lams.shape[0], 2 * trunc + 1))
        offset = 0
        for idx, vectors in kept_vectors:
            rows[offset:offset + vectors.shape[1], idx] = vectors.T
            offset += vectors.shape[1]
        # each profile gives a cosine mode in theta, and a sine mode where
        # m > 0: by lambda, then m, the parities and the solve order
        source = np.concatenate((np.arange(lams.shape[0]), np.flatnonzero(ms > 0)))
        theta_parities = np.where(np.arange(source.shape[0]) < lams.shape[0], COS, SIN)
        order = np.lexsort((source, s_parities[source], theta_parities, ms[source], lams[source]))
        source, theta_parities = source[order], theta_parities[order]
        lams, ms = lams[source], ms[source]
        coefficients = rows[source]
        # the constant: v = e_0 / sqrt(R), exact by inspection
        constant = np.flatnonzero((ms == 0) & (lams == 0.0))
        coefficients[constant] = 0.0
        coefficients[constant, 0] = 1.0 / math.sqrt(big)
        stretch = max(GRID_PRODUCT_FACTORS + 1, 2 * GRID_PRODUCT_FACTORS)
        sizes = [_round_up(stretch * trunc + 2 + GRID_MARGIN),
                 _round_up(stretch * max(int(ms.max()), 1) + 1 + GRID_MARGIN)]
        provenance = f"numerical(residual={worst_residual:.3e})"
        return SpectralBasis(self, float(lambda_max), lams,
                             {"m": ms, "theta_parity": theta_parities},
                             coefficients, self.quadrature_grid(sizes), provenance)

    def quadrature_grid(self, sizes) -> tuple:
        s_plain = uniform_periodic(sizes[0], TWO_PI)
        s_axis = QuadratureGrid(
            s_plain.nodes, s_plain.weights * self.profile(s_plain.nodes),
            sizes[0] - 2,  # degree of g such that the integral of g * f ds is exact
            TWO_PI * self.major_radius)
        return s_axis, uniform_periodic(sizes[1], TWO_PI)

    def axis_columns(self, reps: dict) -> tuple:
        # the s factor is a coefficient row; the theta factor is a
        # circle_basis column
        return None, circle_columns(reps["m"], reps["theta_parity"])

    def bandwidths(self, reps: dict, width: int) -> np.ndarray:
        # the s bandwidth is estimated by the Galerkin truncation per factor
        return np.column_stack((np.full(reps["m"].shape, (width - 1) // 2), reps["m"]))

    def axis_factor_rows(self, basis: SpectralBasis, ids, axis_points) -> tuple:
        # the s profiles are evaluated at the distinct s values only: a
        # lattice of n points has about sqrt(n) of them.  einsum without
        # ``optimize`` takes no BLAS path, so a row's bits depend neither
        # on how many modes one call asks for nor on the BLAS thread count
        coefficients = basis.coefficients[ids]
        s_values, inverse = np.unique(np.asarray(axis_points[0], dtype=float),
                                      return_inverse=True)
        s_rows = np.einsum("ij,kj->ik", coefficients,
                           circle_basis(s_values, coefficients.shape[1]))
        return s_rows[:, inverse.reshape(-1)], _trig_rows(
            axis_points[1], basis.axis_columns[1][ids],
            1.0 / math.sqrt(TWO_PI), 1.0 / math.sqrt(math.pi))

    def axis_projections(self, basis: SpectralBasis, weighted) -> tuple:
        # the s sums are the coefficient rows against the s vector's
        # circle_basis sums: no (modes, nodes) array is formed
        return (basis.coefficients @ circle_sums(weighted[0], basis.coefficients.shape[1]),
                _circle_projections(weighted[1], basis.axis_columns[1]))

    def exact_coefficients(self, basis: SpectralBasis, factors) -> np.ndarray:
        """The product of the factors' theta columns, the product of their s
        profiles with f = R + r cos s, then one dot per target row of the
        theta support.

        Theta factors are circle_basis columns, so the theta integral of the
        product against a family (m, parity) is the product's coefficient in
        that column, and only families in the product's support are nonzero.
        The s integral carries the weight f; it is the target's coefficient
        row dotted with the circle_basis coefficients of f times the factors'
        s profiles.
        """
        columns = basis.axis_columns[1]
        theta = _gather(_axis_product(columns[factors], 1.0), columns)
        norms = circle_norms(np.arange(basis.coefficients.shape[1]))
        # the profiles as series in 1, cos, sin: the constant divided by its
        # norm, the other columns times the reciprocal norm, which keeps the
        # bits this oracle has always had; f is the series R + r cos s
        profiles = basis.coefficients[factors] * (1.0 / norms)
        profiles[:, 0] = basis.coefficients[factors, 0] / norms[0]
        weighted = circle_product([*profiles, [self.major_radius, self.minor_radius, 0.0]])
        weighted = weighted[:norms.shape[0]] * norms
        rows = np.flatnonzero(theta)
        coeffs = np.zeros(basis.size)
        # einsum without ``optimize`` takes no BLAS path, so the bits do not
        # depend on the BLAS thread count
        coeffs[rows] = np.einsum("ij,j->i", basis.coefficients[rows], weighted) * theta[rows]
        return coeffs


def _rev_truncation(model: RevTorus, lambda_max: float) -> int:
    """The s-truncation N of a rev-torus build to ``lambda_max``:
    lambda_max + ceil(36 / sigma) with sigma = arccosh(R / r), rounded up
    to a multiple of 8.  36 is about ln 2^52, so a mode's first dropped
    coefficient lies near 2^-52 of its largest (at least 8, where R / r
    overflows to an infinite strip)."""
    sigma = math.acosh(model.major_radius / model.minor_radius)
    return max(8, _round_up(math.ceil(lambda_max + math.ceil(36.0 / sigma)), 8))


_MODELS = {cls.kind: cls for cls in (FlatTorus, Sphere2, RevTorus)}


def _surface(model):
    if not isinstance(model, _Surface):
        raise ParameterError(f"unknown manifold model {model!r}")
    return model


# ---------------------------------------------------------------------------
# construction and evaluation


def build_basis(model, lambda_max: float) -> SpectralBasis:
    """Construct the ordered eigenbasis with lambda <= lambda_max."""
    _surface(model)
    if not math.isfinite(lambda_max) or lambda_max < 0.0:
        raise ParameterError("lambda_max must be finite and >= 0")
    return model.build(lambda_max)


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
    return arr, scalar


def evaluate(basis: SpectralBasis, mode_id: int, points):
    """Value of the L2-normalized eigenfunction ``mode_id`` of ``basis`` at
    chart points.

    Charts: flat torus, x in R^d (periodic); sphere, (theta, phi) with
    theta in [0, pi]; torus of revolution, (s, theta), both periodic.
    Scalar-like input returns a float.  The value at a point is the
    product of the mode's :meth:`_Surface.lattice_rows` there.
    """
    mode_id = basis.checked_id(mode_id)
    model = basis.model
    arr, scalar = _normalize_points(points, model.chart_dim)
    rows = model.lattice_rows(basis, [mode_id], list(arr.T))
    out = rows[0][0]
    for axis_rows in rows[1:]:
        out *= axis_rows[0]
    return float(out[0]) if scalar else out


def as_chart_function(basis: SpectralBasis, mode_id: int):
    """Wrap the mode ``mode_id`` of ``basis`` as a chart function:
    ``fn(*coords)`` gives the mode on the tensor lattice of one coordinate
    array per chart axis (:meth:`_Surface.lattice_values`, so the values
    are :func:`evaluate`'s, bit for bit), shaped (x.size, y.size) on a
    plane and as x on a line, which is what the open mesh of
    :mod:`eigenprod.remez` broadcasts to."""
    mode_id = basis.checked_id(mode_id)

    def fn(*coords):
        values = basis.model.lattice_values(basis, [mode_id], coords)[0]
        sizes = tuple(map(np.size, coords))
        return values.reshape(np.shape(coords[0]) if len(coords) == 1 else sizes)

    return fn


# ---------------------------------------------------------------------------
# persistence


def _encode_field(value, number):
    """A model field (a scalar or a tuple of floats) with floats mapped
    through ``number`` (``float.hex`` to persist, ``float`` for JSON),
    tuples as lists."""
    if isinstance(value, tuple):
        return list(map(number, value))
    return number(value) if isinstance(value, float) else value


def _decode_field(value):
    """Inverse of persisting through :func:`_encode_field`, lists back as tuples."""
    if isinstance(value, list):
        return tuple(map(float.fromhex, value))
    return float.fromhex(value) if isinstance(value, str) else value


def _model_fields(model, number) -> dict:
    return {"kind": model.kind,
            **{f.name: _encode_field(getattr(model, f.name), number) for f in fields(model)}}


def model_descriptor(model) -> dict:
    return _model_fields(_surface(model), float.hex)


def model_from_descriptor(desc: dict):
    kind = desc.get("kind")
    if kind not in _MODELS:
        raise CorruptionError(f"unknown model kind {kind!r} in basis file")
    return _MODELS[kind](**{k: _decode_field(v) for k, v in desc.items() if k != "kind"})


def _basis_payload(basis: SpectralBasis) -> tuple:
    """The canonical body as the three parts whose bytes it is, in order:
    a JSON header of ints and strings (sorted keys, no whitespace; the
    representation fields are its columns) ending in ``\\n``, then the
    lambda column and the (modes x width) coefficient matrix, row-major,
    as little-endian float64 arrays.  The arrays are the basis's own
    wherever they already have that layout, so no part of the body is
    copied to hash or write it."""
    model = basis.model
    header = {
        "model": model_descriptor(model),
        "lambda_max": basis.lambda_max.hex(),
        "provenance": basis.provenance,
        "grid_axis_sizes": basis.axis_sizes(),
        "count": basis.size,
        "floats_per_mode": 1 + basis.coefficients.shape[1],
        "columns": {name: basis.reps[name].tolist() for name in model.rep_names},
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return (text.encode("utf-8") + b"\n", np.ascontiguousarray(basis.lams, dtype="<f8"),
            np.ascontiguousarray(basis.coefficients, dtype="<f8"))


def _payload_hash(parts):
    """The sha256 of the body whose bytes are ``parts`` in sequence."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest


def _arrays_from_payload(model, header: dict, block: bytes) -> tuple:
    """(lams, reps, coefficients) as :func:`_basis_payload` wrote them;
    ValueError if the block or a column does not match the mode count and
    the model's ``rep_shape``, a column entry is not an int (a float or a
    JSON boolean), the width does not fit the model (0 exactly when it
    has no ``coefficients_name``), or the lambdas are not finite, >= 0 and
    ascending, the mode order every build makes; OverflowError for an int
    past int64."""
    count, per_mode = header["count"], header["floats_per_mode"]
    if not (isinstance(count, int) and isinstance(per_mode, int)) \
            or per_mode < 1 or len(block) != 8 * count * per_mode \
            or (per_mode > 1) != (model.coefficients_name is not None):
        raise ValueError("the float block does not match the header")
    values = np.frombuffer(block, dtype="<f8")
    lams = values[:count]
    if not (np.all(np.isfinite(lams)) and np.all(lams >= 0.0) and np.all(np.diff(lams) >= 0.0)):
        raise ValueError("the lambda column is not finite, >= 0 and ascending")
    reps = {}
    for name in model.rep_names:
        column = header["columns"][name]
        if model.rep_shape and not set(map(len, column)) <= {model.rep_shape[0]}:
            raise ValueError(f"header column {name!r} holds an entry of the wrong length")
        entries = list(itertools.chain.from_iterable(column)) if model.rep_shape else column
        if not set(map(type, entries)) <= {int}:
            raise ValueError(f"header column {name!r} holds an entry that is not an int")
        reps[name] = np.array(entries, dtype=np.int64).reshape(-1, *model.rep_shape)
    if any(column.shape != (count, *model.rep_shape) for column in reps.values()):
        raise ValueError("a header column does not hold one entry of the model's shape per mode")
    return lams, reps, values[count:].reshape(count, per_mode - 1)


def basis_digest(basis: SpectralBasis) -> str:
    """Content digest of the basis (independent of where it is stored):
    the sha256 of its canonical payload, computed at most once per basis."""
    if basis._digest is None:
        basis._digest = _payload_hash(_basis_payload(basis)).hexdigest()
    return basis._digest


def save_basis(basis: SpectralBasis, path) -> str:
    """Write the versioned binary cache file, creating its directory and
    replacing any file at ``path`` atomically; returns the content digest.
    The body's parts are hashed and written one after another."""
    parts = _basis_payload(basis)
    digest = _payload_hash(parts).digest()
    length = sum(memoryview(part).nbytes for part in parts)
    atomic_write_bytes(path, CACHE_MAGIC + struct.pack("<H", CACHE_VERSION) + digest
                       + struct.pack("<Q", length), *parts)
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
    header_text, separator, block = body.partition(b"\n")
    try:
        if not separator:
            raise ValueError("no header separator")
        header = json.loads(header_text)
        model = model_from_descriptor(header["model"])
        lams, reps, coefficients = _arrays_from_payload(model, header, block)
        lambda_max = float.fromhex(header["lambda_max"])
        if len(header["grid_axis_sizes"]) != model.chart_dim:
            raise ValueError(f"grid axis sizes do not match the {model.chart_dim} chart axes")
        axes = model.quadrature_grid(header["grid_axis_sizes"])
        basis = SpectralBasis(model, lambda_max, lams, reps, coefficients, axes,
                              header["provenance"])
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{path}: malformed basis payload ({exc})") from exc
    basis._digest = digest.hex()  # the body is the canonical payload save_basis wrote
    return basis


def basis_to_json_dict(basis: SpectralBasis) -> dict:
    """Human-inspectable structured form (decimal floats, 17 digits)."""
    model, row_name = basis.model, basis.model.coefficients_name
    columns = [basis.reps[name].tolist() for name in model.rep_names]
    modes = [{"id": i, "lambda": lam, **dict(zip(model.rep_names, rep)),
              **({row_name: row} if row_name else {})}
             for i, (lam, row, *rep) in enumerate(zip(basis.lams.tolist(),
                                                      basis.coefficients.tolist(), *columns))]
    return {
        "model": _model_fields(model, float),
        "lambda_max": basis.lambda_max,
        "mode_count": basis.size,
        "provenance": basis.provenance,
        "digest": basis_digest(basis),
        "modes": modes,
    }
