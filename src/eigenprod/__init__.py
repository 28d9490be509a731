"""eigenprod: a desk-scale laboratory for the spectral coefficients of
products of Laplace-Beltrami eigenfunctions on model analytic surfaces.

The pipeline: build an eigenbasis on a model surface (`manifolds`), expand
a product of eigenfunctions into it with cross-checked oracles
(`coefficients`), measure decay envelopes, truncation sets and norm lower
bounds (`analysis`), replay the harmonic-extension/boundary-integral
machinery on the flat torus (`extension`), and probe doubling indices and
sublevel sets (`remez`).  `cli` wraps everything with deterministic JSON
reports.  Three exports no command runs are the references the tests
compare against: `evaluate` (pointwise mode values), `sublevel_measure`
(one threshold's measure) and `wigner_3j`.
"""

__version__ = "0.1.0"

from .analysis import (
    DecayFit,
    LowerBoundFit,
    RemarkDecay,
    TruncationResult,
    captured_norm_ratio,
    find_truncation,
    fit_decay,
    lower_bound_experiment,
    sphere_remark_experiment,
    sphere_rotated_pair_experiment,
)
from .coefficients import (
    CoefficientSeries,
    ProductSpec,
    expand_product,
    parseval_report,
    quadrature_coefficients,
    series_to_csv,
)
from .extension import (
    CauchyCheck,
    ExtensionParams,
    HarmonicExtension,
    cauchy_estimate_check,
    compute_extension_params,
    greens_coefficients,
    harmonic_extension_flat,
)
from .manifolds import (
    FlatTorus,
    RevTorus,
    SpectralBasis,
    Sphere2,
    as_chart_function,
    basis_digest,
    build_basis,
    evaluate,
    load_basis,
    save_basis,
)
from .numerics import (
    QuadratureGrid,
    gauss_legendre,
    gaunt_real,
    uniform_periodic,
    wigner_3j,
)
from .remez import (
    DoublingReport,
    GoodSetResult,
    RemezReport,
    doubling_index,
    good_set_experiment,
    remez_fit,
    sublevel_measure,
)

__all__ = [
    "__version__",
    # numerics
    "QuadratureGrid", "gauss_legendre", "uniform_periodic", "wigner_3j", "gaunt_real",
    # manifolds
    "FlatTorus", "Sphere2", "RevTorus", "SpectralBasis",
    "build_basis", "evaluate", "as_chart_function", "save_basis", "load_basis",
    "basis_digest",
    # coefficients
    "ProductSpec", "CoefficientSeries", "expand_product",
    "quadrature_coefficients", "parseval_report", "series_to_csv",
    # analysis
    "DecayFit", "TruncationResult", "LowerBoundFit", "RemarkDecay",
    "fit_decay", "find_truncation", "captured_norm_ratio", "lower_bound_experiment",
    "sphere_rotated_pair_experiment", "sphere_remark_experiment",
    # extension
    "ExtensionParams", "HarmonicExtension", "CauchyCheck",
    "compute_extension_params", "harmonic_extension_flat",
    "greens_coefficients", "cauchy_estimate_check",
    # remez
    "DoublingReport", "RemezReport", "GoodSetResult", "doubling_index",
    "sublevel_measure", "remez_fit", "good_set_experiment",
]
