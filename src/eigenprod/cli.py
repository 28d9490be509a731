"""Command-line surface: every experiment as a subcommand with JSON
reports, optional CSV/SVG views, a basis cache, and exact replay.

Exit codes: 0 success, 2 validation error, 3 numerical breakdown.  Every
report embeds its canonical run configuration; ``report --replay`` re-runs
that configuration and must reproduce all numeric fields to the digit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .analysis import (
    find_truncation,
    fit_decay,
    lower_bound_experiment,
    sphere_remark_experiment,
    sphere_rotated_pair_experiment,
)
from .coefficients import (
    ProductSpec,
    expand_product,
    parseval_report,
    series_to_csv,
)
from .errors import (
    NumericalError,
    ParameterError,
    ValidationError,
)
from .extension import (
    cauchy_estimate_check,
    compute_extension_params,
    greens_coefficients,
    harmonic_extension_flat,
)
from .manifolds import (
    CACHE_VERSION,
    FlatTorus,
    RevTorus,
    Sphere2,
    as_chart_function,
    basis_digest,
    basis_to_json_dict,
    build_basis,
    load_basis,
    model_descriptor,
    save_basis,
)
from .remez import (
    coordinate_function,
    doubling_index,
    good_set_experiment,
    harmonic_power_function,
    remez_fit,
)
from .reportio import atomic_write_text, canonical_json, diff_paths, load_json
from .svgplot import svg_coefficient_plot

SCHEMA = "eigenprod-report/1"
CACHE_ENV = "EIGENPROD_CACHE"

__all__ = ["cli_main", "main", "run_config", "config_from_text"]


# ---------------------------------------------------------------------------
# configuration plumbing


def _number(text, convert=float):
    """``convert(text)``; a malformed number or a fractional int exits 2."""
    try:
        if convert is int and isinstance(text, float) and not text.is_integer():
            raise ValueError("not an integer")
        return convert(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"cannot read {text!r} as {convert.__name__}") from exc


def _param(section: dict, key: str, default=None, convert=float):
    """``section[key]``, or ``default``, of a config section (flags, config
    file or replayed report) read through :func:`_number`; a key that is
    missing and has no default is a validation error (exit 2)."""
    value = section.get(key, default)
    if value is None:
        raise ParameterError(f"missing --{key.replace('_', '-')}")
    return _number(value, convert)


def _flat_config(args) -> dict:
    dim = 1 if args.dim is None else args.dim
    periods = [2.0 * math.pi] * dim if args.periods is None else args.periods.split(",")
    return {"dim": dim, "periods": [_number(p) for p in periods]}


def _flat_model(cfg: dict):
    dim = _param(cfg, "dim", convert=int)
    periods = cfg.get("periods") or [2.0 * math.pi] * dim
    return FlatTorus(dim, tuple(_number(p) for p in periods))


def _rev_config(args) -> dict:
    if args.major is None or args.minor is None:
        raise ParameterError("rev-torus needs --R and --r")
    return {"R": float(args.major), "r": float(args.minor)}


# The models by their CLI name, which is also the ``kind`` of a [model]
# config section: the section's other keys, the section read from the
# parsed arguments, and the surface a section names.
_CLI_MODELS = {
    "flat-torus": (("dim", "periods"), _flat_config, _flat_model),
    "sphere": ((), lambda args: {}, lambda cfg: Sphere2()),
    "rev-torus": (("R", "r"), _rev_config,
                  lambda cfg: RevTorus(_param(cfg, "R"), _param(cfg, "r"))),
}


def _model_from_config(cfg: dict):
    """The surface a [model] section names; a key its kind does not take
    is a validation error (exit 2)."""
    if not isinstance(cfg, dict):
        raise ParameterError("missing --model")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _CLI_MODELS:
        raise ParameterError(f"unknown model kind {kind!r} in configuration")
    keys, _from_args, surface = _CLI_MODELS[kind]
    unknown = sorted(set(cfg) - {"kind", *keys})
    if unknown:
        raise ParameterError(f"model {kind} takes no key {unknown[0]!r}")
    return surface(cfg)


def _factor_key(model, token: str):
    """A factor token parsed once, independent of any basis: a numeric
    mode id (int; ASCII digits with an optional minus sign) or the
    representation a model label names (tuple)."""
    token = token.strip()
    try:
        return int(token) if re.fullmatch(r"-?[0-9]+", token) else model.parse_label(token)
    except ValueError as exc:  # past int's digit limit
        raise ParameterError(f"cannot parse factor token {token!r} for this model") from exc


def _mode_id(basis, key, token: str) -> int:
    """The id of the mode that ``key``, parsed from ``token``, names in ``basis``."""
    if isinstance(key, int):
        if not 0 <= key < basis.size:
            raise ParameterError(f"mode id {key} not in the basis")
        return key
    table = np.column_stack([basis.reps[name] for name in basis.model.rep_names])
    (found,) = np.nonzero(np.all(table == np.hstack(key), axis=1))
    if not found.size:
        raise ParameterError(f"mode {token.strip()} exceeds the basis cutoff")
    return int(found[0])


def _product_basis(config: dict, cache_dir: str, default_mult: float = 2.0):
    """The basis and the mode ids of the product that the required
    ``factors`` param (comma-separated tokens) names."""
    tokens = _param(config["params"], "factors", convert=str).split(",")
    basis, (ids,) = _resolve_basis_and_factors(config["model"], config["params"], [tokens],
                                               cache_dir, default_mult)
    return basis, ids


def _resolve_basis_and_factors(model_cfg: dict, params: dict, groups: list, cache_dir: str,
                               default_mult: float = 2.0):
    """Build (and cache) the basis holding every factor of the token
    ``groups`` (lists of tokens, one per product) and return it with each
    group's mode ids.  It is sized by ``params``: ``lambda_max``, or else
    ``lambda_max_mult`` (the command's ``default_mult`` when unset) times
    the largest frequency sum of a group.

    Without ``lambda_max``, the factors' lambdas come in closed form when
    every token is a label and the model has ``rep_lambda``; otherwise
    from a probe basis, the smallest of lambda 2, 4, ..., 128 that holds
    every factor."""
    model = _model_from_config(model_cfg)
    groups = [[t for t in group if t] for group in groups]
    if not all(groups):
        raise ParameterError("--factors names no mode")
    tokens = [t for group in groups for t in group]
    explicit = params.get("lambda_max")
    mult = _param(params, "lambda_max_mult", default_mult)
    if not mult > 0.0:
        raise ParameterError("--lambda-max-mult must be > 0")
    keys = [_factor_key(model, t) for t in tokens]
    starts = np.cumsum([0] + [len(group) for group in groups]).tolist()
    probe = None
    if explicit is not None:
        lambda_max = _number(explicit)
    else:
        lams = _label_lambdas(model, keys)
        if lams is None:
            probe_lambda = 2.0
            while True:
                probe = _cached_basis(model, probe_lambda, cache_dir)
                try:
                    ids = tuple(_mode_id(probe, key, t) for key, t in zip(keys, tokens))
                    break
                except ParameterError:
                    if probe_lambda > 64.0:
                        raise
                    probe_lambda *= 2.0
            lams = probe.lams[list(ids)].tolist()
        # ascending, the order of the modes, so a sum's bits do not depend
        # on the order of the tokens
        sum_lambda = max(float(sum(sorted(lams[a:b]))) for a, b in zip(starts, starts[1:]))
        lambda_max = max(mult * sum_lambda, max(lams) * 1.01)
    basis = _cached_basis(model, lambda_max, cache_dir)
    ids = tuple(_mode_id(basis, key, t) for key, t in zip(keys, tokens))
    if probe is not None:
        _check_positional_ids(probe, basis, keys, ids)
    return basis, [ids[a:b] for a, b in zip(starts, starts[1:])]


def _label_lambdas(model, keys):
    """The factors' lambdas in closed form, or None when a factor is a
    numeric id or the model has no closed form."""
    if any(isinstance(key, int) for key in keys):
        return None
    try:
        lams = [model.rep_lambda(key) for key in keys]
    except OverflowError as exc:
        raise ParameterError("a factor label's frequency is beyond floating point range") from exc
    return None if None in lams else lams


def _check_positional_ids(probe, basis, keys, ids) -> None:
    """A numeric factor id (an int key) is resolved on the probe basis (to
    size the final one) and then on the final basis; both must name the
    same mode: the same representation and lambda within 1e-9 relative."""
    for key, idx in zip(keys, ids):
        if not isinstance(key, int):
            continue
        seen, used = float(probe.lams[idx]), float(basis.lams[idx])
        if any(not np.array_equal(probe.reps[name][idx], column[idx])
               for name, column in basis.reps.items()) or \
                abs(seen - used) > 1e-9 * max(abs(seen), abs(used)):
            raise ParameterError(
                f"mode id {idx} names different modes in the probe basis "
                f"(lambda={seen!r}) and the final basis (lambda={used!r}); "
                "pass a mode label instead")


def _cache_key(model, lambda_max: float) -> str:
    blob = json.dumps({"model": model_descriptor(model),
                       "lambda_max": float(lambda_max).hex(),
                       "version": CACHE_VERSION}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _cached_basis(model, lambda_max: float, cache_dir: str):
    """Load the basis from the disk cache, or build and store it.  A file
    whose model or lambda_max differs from the request is a miss: it is
    rebuilt and overwritten, never served."""
    path = os.path.join(cache_dir, f"{_cache_key(model, lambda_max)}.eprd")
    if os.path.exists(path):
        basis = load_basis(path)
        if basis.model == model and basis.lambda_max == float(lambda_max):
            return basis
    basis = build_basis(model, lambda_max)
    save_basis(basis, path)
    return basis


def _parse_scalar(text: str):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "none":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def config_from_text(text: str) -> dict:
    """Parse the sectioned key = value format.  An unknown section, [run]
    key or command is rejected here; [params] keys are checked against the
    command's flags and [model] keys against the model kind when the
    configuration runs (:func:`run_config`)."""
    section = None
    config: dict = {"command": None, "model": None, "params": {}}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("run", "model", "params"):
                raise ParameterError(f"unknown config section [{section}]")
            if section == "model":
                config["model"] = {}
            continue
        if "=" not in line or section is None:
            raise ParameterError(f"malformed config line {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "run":
            if key != "command":
                raise ParameterError(f"unknown key {key!r} in [run]")
            if value not in _SUBCOMMANDS:
                raise ParameterError(f"unknown command {value!r}")
            config["command"] = value
        elif section == "model":
            if key == "periods":
                config["model"][key] = [_number(p) for p in value.split(",")]
            elif key == "kind":
                config["model"][key] = value
            else:
                config["model"][key] = _parse_scalar(value)
        else:
            config["params"][key] = _parse_scalar(value)
    if config["command"] is None:
        raise ParameterError("config must set command in [run]")
    return config


# ---------------------------------------------------------------------------
# command handlers: each consumes a canonical config and returns
# (results dict, provenance dict, artifacts dict, summary string)


def _series_results(series) -> dict:
    ratio, defect = parseval_report(series)
    return {
        "sum_lambda": series.sum_lambda,
        "f_norm_sq": series.f_norm_sq,
        "mass_captured": series.mass_captured,
        "parseval_ratio": ratio,
        "parseval_defect": defect,
        "method": "both",
        "entries": [[i, lam, c] for i, (lam, c) in
                    enumerate(zip(series.lams.tolist(), series.coeffs.tolist()))],
    }


def _provenance(basis=None) -> dict:
    """The package version, and what identifies the basis a run read."""
    if basis is None:
        return {"package_version": __version__}
    return {
        "basis_digest": basis_digest(basis),
        "grid_axis_sizes": basis.axis_sizes(),
        "mode_count": basis.size,
        "basis_provenance": basis.provenance,
        "package_version": __version__,
    }


def _cmd_basis(config, cache_dir):
    model = _model_from_config(config["model"])
    lambda_max = _param(config["params"], "lambda_max")
    basis = _cached_basis(model, lambda_max, cache_dir)
    doc = basis_to_json_dict(basis)
    summary = f"basis: {basis.size} modes up to lambda_max={lambda_max:g}"
    return doc, _provenance(basis), {}, summary


def _cmd_product(config, cache_dir):
    params = config["params"]
    basis, ids = _product_basis(config, cache_dir)
    series = expand_product(ProductSpec(basis, ids))
    results = _series_results(series)
    artifacts = _series_artifacts(params, series, "coefficients")
    summary = (f"product: {len(ids)} factors, parseval ratio "
               f"{results['parseval_ratio']:.9f}")
    return results, _provenance(basis), artifacts, summary


def _series_artifacts(params, series, title: str, envelope=None) -> dict:
    """The CSV and SVG views of a coefficient series that ``params`` ask for."""
    artifacts = {}
    if params.get("csv"):
        artifacts["csv"] = series_to_csv(series)
    if params.get("svg"):
        positive = series.coeffs != 0.0
        artifacts["svg"] = svg_coefficient_plot(
            series.lams[positive], np.abs(series.coeffs[positive]),
            envelope=envelope, title=title)
    return artifacts


def _cmd_decay(config, cache_dir):
    params = config["params"]
    # the basis reaches the multiple the series is cut at
    mult = _param(params, "lambda_max_mult", 6.0)
    basis, ids = _product_basis(config, cache_dir, mult)
    spec = ProductSpec(basis, ids)
    series = expand_product(spec).truncated(mult * spec.sum_lambda) \
        if params.get("lambda_max") is None else expand_product(spec)
    lo_mult = _param(params, "window_lo_mult", 2.0)
    window = (lo_mult * spec.sum_lambda, float(series.lams[-1]))
    fit = fit_decay(series, window=window)
    results = {
        "sum_lambda": spec.sum_lambda,
        "band_limited": fit.band_limited,
        "c_hat": None if fit.band_limited else fit.c_hat,
        "C_hat": fit.C_hat,
        "onset_lambda": fit.onset_lambda,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "n_bins": fit.n_bins,
        "n_entries": int(series.lams.size),
    }
    envelope = None if fit.band_limited else (fit.c_hat, fit.C_hat * spec.sum_lambda)
    artifacts = _series_artifacts(params, series, "decay", envelope)
    if fit.band_limited:
        summary = f"decay: band-limited, onset at lambda={fit.onset_lambda:g}"
    else:
        summary = f"decay: c_hat={fit.c_hat:.6f}, r2={fit.r_squared:.4f}"
    return results, _provenance(basis), artifacts, summary


def _cmd_truncate(config, cache_dir):
    params = config["params"]
    basis, ids = _product_basis(config, cache_dir)
    series = expand_product(ProductSpec(basis, ids))
    target = _param(params, "target", 0.99)
    result = find_truncation(series, target=target, c2=_param(params, "c2", 1.0))
    results = {
        "sum_lambda": series.sum_lambda,
        "C5": result.c5,
        "captured_ratio": result.captured_ratio,
        "kept_count": result.kept_count,
        "s_partial": result.s_partial,
        "target": result.target,
        "c2": result.c2,
    }
    summary = (f"truncate: C5={result.c5:g} captures "
               f"{result.captured_ratio:.6f} of the norm")
    return results, _provenance(basis), {}, summary


# The params each lower-bound family reads, besides ``family``.
_LOWER_BOUND_PARAMS = {
    "self": ("k_min", "k_max", "lambda_max", "lambda_max_mult"),
    "pairs": ("pairs", "lambda_max", "lambda_max_mult"),
    "rotated-s2": ("l_min", "l_max"),
}


def _cmd_lower_bound(config, cache_dir):
    params = config["params"]
    family = _param(params, "family", "self", str)
    if family not in _LOWER_BOUND_PARAMS:
        raise ParameterError(f"unknown family {family!r}")
    unread = sorted(set(params) - {"family", *_LOWER_BOUND_PARAMS[family]})
    if unread:
        raise ParameterError(
            f"--family {family} reads no --{unread[0].replace('_', '-')}")
    if family == "rotated-s2":
        if config["model"] is not None:
            raise ParameterError("--family rotated-s2 reads no model")
        fit = sphere_rotated_pair_experiment(
            range(_param(params, "l_min", 2, int), _param(params, "l_max", 12, int) + 1))
        summary = f"lower-bound: C3={fit.C3_hat:.3e} C4={fit.C4_hat:.4f}"
        return _lower_bound_results(fit), _provenance(), {}, summary
    model_cfg = config["model"]
    if family == "self":
        k_lo = _param(params, "k_min", 1, int)
        k_hi = _param(params, "k_max", 8, int)
        if k_lo > k_hi:
            raise ParameterError("--k-min must not exceed --k-max")
        tokens = [f"cos{k}" for k in range(k_lo, k_hi + 1)]
        basis, (ids,) = _resolve_basis_and_factors(model_cfg, params, [tokens], cache_dir)
        specs = [ProductSpec(basis, (i, i)) for i in ids]
    else:
        groups = [g for g in _param(params, "pairs", convert=str).split(";") if g.strip(",")]
        if not groups:
            raise ParameterError("--pairs names no pair")
        basis, group_ids = _resolve_basis_and_factors(
            model_cfg, params, [g.split(",") for g in groups], cache_dir)
        specs = [ProductSpec(basis, ids) for ids in group_ids]
    fit = lower_bound_experiment(specs)
    summary = f"lower-bound: C3={fit.C3_hat:.6e} C4={fit.C4_hat:.6f}"
    return _lower_bound_results(fit), _provenance(basis), {}, summary


def _lower_bound_results(fit) -> dict:
    return {
        "C3_hat": fit.C3_hat,
        "C4_hat": fit.C4_hat,
        "n_factors": fit.n_factors,
        "samples": [[s, n] for s, n in fit.samples],
    }


def _cmd_remark_s2(config, _cache_dir):
    params = config["params"]
    k_lo, k_hi = _param(params, "k_min", 2, int), _param(params, "k_max", 20, int)
    if k_lo > k_hi:
        raise ParameterError("--k-min must not exceed --k-max")
    result = sphere_remark_experiment(range(k_lo, k_hi + 1))
    results = {
        "samples": [[k, n] for k, n in result.samples],
        "log_slope": result.log_slope,
        "r_squared": result.r_squared,
    }
    summary = (f"remark-s2: slope={result.log_slope:.4f} "
               f"r2={result.r_squared:.4f}")
    return results, _provenance(), {}, summary


def _cmd_greens(config, cache_dir):
    params = config["params"]
    # a model without the extension's constants is refused before any
    # basis is loaded or built
    extension_constants = compute_extension_params(_model_from_config(config["model"]))
    basis, ids = _product_basis(config, cache_dir)
    series = expand_product(ProductSpec(basis, ids))
    heights = [_number(h) for h in str(params.get("heights", "")).split(",") if h] \
        or [extension_constants.T, extension_constants.T / 2.0]
    ext = harmonic_extension_flat(series, max(heights))
    per_height = []
    worst = 0.0
    for height in heights:
        ids, recovered = greens_coefficients(ext, height)
        err = float(np.max(np.abs(recovered - series.coeffs[ids])))
        worst = max(worst, err)
        per_height.append({"height": height, "max_error": err})
    check = None
    if max(heights) >= extension_constants.T * (1.0 - 1e-12):
        check = cauchy_estimate_check(ext, extension_constants.R3,
                                      extension_constants.delta)
    results = {
        "sum_lambda": series.sum_lambda,
        "heights": per_height,
        "max_error": worst,
        "cauchy_check": None if check is None else
        {"lhs": check.lhs, "rhs": check.rhs, "ok": check.ok},
    }
    summary = f"greens: max reconstruction error {worst:.3e}"
    return results, _provenance(basis), {}, summary


def _cmd_extension_params(config, _cache_dir):
    params = config["params"]
    model = _model_from_config(config["model"])
    r2 = params.get("R2")
    out = compute_extension_params(model, None if r2 is None else _number(r2))
    results = {
        "dim": out.dim, "R1": out.R1, "R2": out.R2, "R3": out.R3,
        "delta0": out.delta0, "delta": out.delta, "T": out.T,
        "coeff_sup": out.coeff_sup, "C8": out.C8,
    }
    summary = f"extension-params: delta0={out.delta0:.6f} T={out.T:.7f}"
    return results, _provenance(), {}, summary


def _function_from_config(config, cache_dir):
    """The chart function ``function`` names, its chart dimension, and the
    basis it was drawn from (None for the closed-form functions)."""
    params = config["params"]
    spec = str(params.get("function", "linear"))
    if (spec == "linear" or spec.startswith("power:")) and config["model"] is not None:
        raise ParameterError(f"--function {spec} reads no model")
    if spec == "linear":
        return coordinate_function(), 1, None
    if spec.startswith("power:"):
        return harmonic_power_function(_number(spec.split(":", 1)[1], int)), 2, None
    if spec.startswith("mode:"):
        tokens = spec.split(":", 1)[1].split(",")
        if len(tokens) != 1 or not tokens[0].strip():
            raise ParameterError(f"--function {spec} must name exactly one mode")
        basis, ((mode_id,),) = _resolve_basis_and_factors(config["model"], params, [tokens],
                                                          cache_dir)
        return as_chart_function(basis, mode_id), basis.model.chart_dim, basis
    raise ParameterError(f"unknown function spec {spec!r}")


def _center_from_params(params, dim: int):
    parts = [_number(c) for c in str(params.get("center", "0")).split(",")]
    if len(parts) == 1 and dim == 2:
        parts = parts * 2
    if len(parts) != dim:
        raise ParameterError(f"center needs {dim} coordinates")
    return tuple(parts) if dim > 1 else parts[0]


def _cmd_remez(config, cache_dir):
    params = config["params"]
    fn, dim, basis = _function_from_config(config, cache_dir)
    center = _center_from_params(params, dim)
    side = _param(params, "side", 2.0)
    report = remez_fit(fn, center, side)
    results = {
        "doubling": report.doubling,
        "beta_hat": report.beta_hat,
        "cr_hat": report.cr_hat,
        "defined": report.defined,
        "a_grid": list(report.a_grid),
        "measures": list(report.measures),
    }
    artifacts = {}
    if params.get("csv"):
        lines = ["a,measure"] + [
            f"{a:.17g},{m:.17g}" for a, m in zip(report.a_grid, report.measures)]
        artifacts["csv"] = "\n".join(lines) + "\n"
    beta_text = "undefined" if report.beta_hat is None else f"{report.beta_hat:.4f}"
    summary = f"remez: N={report.doubling:.4f} beta={beta_text}"
    return results, _provenance(basis), artifacts, summary


def _cmd_doubling(config, cache_dir):
    params = config["params"]
    fn, dim, basis = _function_from_config(config, cache_dir)
    center = _center_from_params(params, dim)
    r = _param(params, "r", 0.25)
    report = doubling_index(fn, center, r)
    results = {
        "r": report.r, "sup_r": report.sup_r, "sup_2r": report.sup_2r,
        "index": report.index,
    }
    summary = f"doubling: N={report.index:.6f}"
    return results, _provenance(basis), {}, summary


def _cmd_good_set(config, cache_dir):
    params = config["params"]
    basis, ids = _product_basis(config, cache_dir)
    spec = ProductSpec(basis, ids)
    center = _center_from_params(params, basis.model.chart_dim)
    side = _param(params, "side", 2.0)
    result = good_set_experiment(spec, center, side)
    results = {
        "thresholds": list(result.thresholds),
        "measure_e": result.measure_e,
        "measure_half_cube": result.measure_half_cube,
        "min_product_bound": result.min_product_bound,
    }
    summary = (f"good-set: measure {result.measure_e:.6f} of "
               f"{result.measure_half_cube:.6f}")
    return results, _provenance(basis), {}, summary


# ---------------------------------------------------------------------------
# the commands and their flags


_LAMBDA_MAX = ("--lambda-max", float, None)
_SIZING = (_LAMBDA_MAX, ("--lambda-max-mult", float, None))
_FACTORS = (("--factors", str, "comma-separated mode ids or names (cos2, Y2m1, ...)"),
            *_SIZING)
_VIEWS = (("--csv", bool, None), ("--svg", bool, None))
_K_RANGE = (("--k-min", int, None), ("--k-max", int, None))
_CENTER = ("--center", str, None)
# read into a [model] section by _config_from_args, never into params
_MODEL_FLAGS = (("--model", tuple(_CLI_MODELS), None), ("--dim", int, None),
                ("--periods", str, "comma-separated periods for the flat torus"),
                ("--R", float, None), ("--r", float, None))
_DESTS = {"--R": "major", "--r": "minor", "--radius": "r"}

# Each command that runs an experiment, once (``report`` replays a report:
# see _replay): its handler, whether it takes --model and the model flags,
# and its own flags as (flag, type or choices, help), where bool makes a
# switch.  Only a command's own flags are run parameters, so their dests
# are the params keys a config file or a replayed report may set.
_SUBCOMMANDS = {
    "basis": (_cmd_basis, True, (_LAMBDA_MAX,)),
    "product": (_cmd_product, True, (*_FACTORS, *_VIEWS)),
    "decay": (_cmd_decay, True, (*_FACTORS, *_VIEWS, ("--window-lo-mult", float, None))),
    "truncate": (_cmd_truncate, True,
                 (*_FACTORS, ("--target", float, None), ("--c2", float, None))),
    "lower-bound": (_cmd_lower_bound, True, (
        *_SIZING, ("--family", ("self", "pairs", "rotated-s2"), None), *_K_RANGE,
        ("--l-min", int, None), ("--l-max", int, None),
        ("--pairs", str, "semicolon-separated id pairs"))),
    "remark-s2": (_cmd_remark_s2, False, _K_RANGE),
    "greens": (_cmd_greens, True, (*_FACTORS, ("--heights", str, "comma-separated heights"))),
    "extension-params": (_cmd_extension_params, True, (("--R2", float, None),)),
    "remez": (_cmd_remez, True, (("--function", str, "linear | power:<k> | mode:<token>"),
                                 _CENTER, ("--side", float, None), ("--csv", bool, None))),
    "doubling": (_cmd_doubling, True,
                 (("--function", str, None), _CENTER, ("--radius", float, None))),
    "good-set": (_cmd_good_set, True, (*_FACTORS, _CENTER, ("--side", float, None))),
}


def _dest(flag: str) -> str:
    """The parsed-argument name of a flag: its name with "_" for "-", except
    that the rev torus's ``--R``/``--r`` set ``major``/``minor``, so that
    ``doubling --radius`` can set the run parameter ``r``."""
    return _DESTS.get(flag) or flag[2:].replace("-", "_")


def run_config(config: dict, out_dir: str, cache_dir: str):
    """Execute a canonical configuration; returns (report, artifacts, summary).

    Argv, config files and replayed reports all run through here: a params
    key that no flag of the command sets, a model for a command without
    model flags, a model key its kind does not take, or a model for a run
    that reads none (``remez``/``doubling`` with ``--function linear`` or
    ``power:<k>``, ``lower-bound --family rotated-s2``) exits 2."""
    command = config["command"]
    if not isinstance(command, str) or command not in _SUBCOMMANDS:
        raise ParameterError(f"unknown command {command!r}")
    handler, takes_model, flags = _SUBCOMMANDS[command]
    unknown = sorted(set(config["params"]) - {_dest(flag) for flag, _, _ in flags})
    if unknown:
        raise ParameterError(f"{command} has no flag for param {unknown[0]!r}")
    if config["model"] is not None:
        if not takes_model:
            raise ParameterError(f"{command} takes no model")
        _model_from_config(config["model"])
    results, provenance, artifacts, summary = handler(config, cache_dir)
    report = {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "io": {"out": out_dir, "cache": cache_dir},
        "provenance": provenance,
        "results": results,
    }
    return report, artifacts, summary


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="eigenprod",
        description="spectral coefficients of eigenfunction products on "
                    "model analytic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, takes_model, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--cache", default=None,
                       help=f"basis cache directory (default ${CACHE_ENV} "
                            f"or <out>/cache)")
        p.add_argument("--config", default=None,
                       help="sectioned key=value config file; explicit flags win")
        for flag, kind, help_text in (_MODEL_FLAGS if takes_model else ()) + flags:
            how = {"action": "store_true"} if kind is bool else \
                {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(flag, dest=_dest(flag), help=help_text, **how)
    p = sub.add_parser("report")
    p.add_argument("--replay", required=True, help="existing report to re-run")
    p.add_argument("--out", default="out")
    p.add_argument("--cache", default=None)
    p.add_argument("--check", action="store_true",
                   help="exit 3 unless the replay matches numerically")
    return parser


def _config_from_args(args) -> dict:
    _handler, takes_model, flags = _SUBCOMMANDS[args.command]
    file_config = None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_config = config_from_text(handle.read())
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        if file_config["command"] != args.command:
            raise ParameterError(
                f"config file is for {file_config['command']!r}, "
                f"not {args.command!r}")
    params = dict(file_config["params"]) if file_config else {}
    for flag, _kind, _help in flags:
        value = getattr(args, _dest(flag))
        if value is not None and value is not False:
            params[_dest(flag)] = value
    model = file_config["model"] if file_config else None
    if takes_model:
        given = [flag for flag, _kind, _help in _MODEL_FLAGS[1:]
                 if getattr(args, _dest(flag)) is not None]
        if args.model is None and given:
            raise ParameterError(f"{given[0]} needs --model")
        if args.model is not None:
            keys, from_args, _surface = _CLI_MODELS[args.model]
            foreign = [flag for flag in given if flag[2:] not in keys]
            if foreign:
                raise ParameterError(f"model {args.model} takes no {foreign[0]}")
            model = {"kind": args.model, **from_args(args)}
    return {"command": args.command, "model": model, "params": params}


def _write_outputs(out_dir: str, name: str, report: dict, artifacts: dict) -> str:
    """Write the report and each artifact under ``out_dir/name``; returns that stem."""
    stem = os.path.join(out_dir, name)
    atomic_write_text(stem + ".json", canonical_json(report))
    for kind, payload in artifacts.items():
        atomic_write_text(f"{stem}.{kind}", payload)
    return stem


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out_dir = args.out
        cache_dir = args.cache or os.environ.get(CACHE_ENV) \
            or os.path.join(out_dir, "cache")
        if args.command == "report":
            return _replay(args, out_dir, cache_dir)
        config = _config_from_args(args)
        report, artifacts, summary = run_config(config, out_dir, cache_dir)
        stem = _write_outputs(out_dir, args.command, report, artifacts)
        print(f"{summary} -> {stem}.json")
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


def _replay(args, out_dir: str, cache_dir: str) -> int:
    try:
        original = load_json(args.replay)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read report: {exc}") from exc
    config = original.get("config") if isinstance(original, dict) else None
    if not (isinstance(config, dict) and {"command", "model"} <= set(config)
            and isinstance(config.get("params"), dict)):
        raise ParameterError(f"{args.replay} carries no embedded configuration")
    provenance = original.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ParameterError(f"{args.replay}: provenance must be a JSON object")
    report, artifacts, summary = run_config(config, out_dir, cache_dir)
    stem = _write_outputs(out_dir, f"replay-{config['command']}", report, artifacts)
    differences = diff_paths(original.get("results"), report["results"])
    differences += diff_paths(provenance.get("basis_digest"),
                              report["provenance"].get("basis_digest"),
                              "provenance.basis_digest")
    if differences:
        print(f"replay mismatch at {len(differences)} fields: "
              + ", ".join(differences[:5]), file=sys.stderr)
        if args.check:
            return 3
    print(f"{summary} -> {stem}.json (replay "
          + ("matches)" if not differences else "DIFFERS)"))
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
