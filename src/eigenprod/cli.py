"""Command-line surface: every experiment as a subcommand with JSON
reports, optional CSV/SVG views, a basis cache, and exact replay.

Exit codes: 0 success, 2 validation error, 3 numerical breakdown.  Every
report embeds its canonical run configuration; ``report --replay`` re-runs
that configuration and must reproduce all numeric fields to the digit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
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
    EigenprodError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .extension import (
    cauchy_estimate_check,
    compute_extension_params,
    greens_coefficient,
    harmonic_extension_flat,
)
from .manifolds import (
    CACHE_VERSION,
    COS,
    SIN,
    FlatTorus,
    Resolution,
    RevTorus,
    Sphere2,
    as_chart_function,
    basis_digest,
    basis_to_json_dict,
    build_basis,
    load_basis,
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

COMMANDS = (
    "basis", "product", "decay", "truncate", "lower-bound", "remark-s2",
    "greens", "extension-params", "remez", "doubling", "good-set", "report",
)

__all__ = ["cli_main", "main", "run_config", "config_to_text", "config_from_text"]


# ---------------------------------------------------------------------------
# configuration plumbing


def _model_config(args) -> dict | None:
    kind = getattr(args, "model", None)
    if kind is None:
        return None
    if kind == "flat-torus":
        dim = args.dim or 1
        periods = args.periods
        if periods is None:
            periods = [2.0 * math.pi] * dim
        else:
            periods = [float(p) for p in periods.split(",")]
        return {"kind": "flat-torus", "dim": dim, "periods": periods}
    if kind == "sphere":
        return {"kind": "sphere"}
    if kind == "rev-torus":
        if args.major is None or args.minor is None:
            raise ParameterError("rev-torus needs --R and --r")
        return {"kind": "rev-torus", "R": float(args.major), "r": float(args.minor)}
    raise ParameterError(f"unknown model {kind!r}")


def _model_from_config(cfg: dict):
    kind = cfg.get("kind")
    if kind == "flat-torus":
        dim = int(cfg["dim"])
        periods = cfg.get("periods") or [2.0 * math.pi] * dim
        return FlatTorus(dim, tuple(float(p) for p in periods))
    if kind == "sphere":
        return Sphere2()
    if kind == "rev-torus":
        return RevTorus(float(cfg["R"]), float(cfg["r"]))
    raise ParameterError(f"unknown model kind {kind!r} in configuration")


def _parse_factor_token(model, basis, token: str) -> int:
    token = token.strip()
    if token.lstrip("-").isdigit():
        idx = int(token)
        if not 0 <= idx < basis.size:
            raise ParameterError(f"mode id {idx} not in the basis")
        return idx
    if isinstance(model, FlatTorus) and model.dim == 1:
        if token == "const":
            return 0
        for name, parity in (("cos", COS), ("sin", SIN)):
            if token.startswith(name):
                k = int(token[len(name):])
                for mode in basis.modes:
                    if mode.rep == ((k,), (parity,)):
                        return mode.id
                raise ParameterError(f"mode {token} exceeds the basis cutoff")
    if isinstance(model, FlatTorus) and model.dim == 2 and len(token) >= 4:
        parities = {"c": COS, "s": SIN}
        head, tail = token[0], token[1:]
        for split in range(1, len(tail)):
            if tail[split] in parities and head in parities:
                try:
                    k1 = int(tail[:split])
                    k2 = int(tail[split + 1:])
                except ValueError:
                    continue
                rep = ((k1, k2), (parities[head], parities[tail[split]]))
                for mode in basis.modes:
                    if mode.rep == rep:
                        return mode.id
                raise ParameterError(f"mode {token} exceeds the basis cutoff")
    if isinstance(model, Sphere2) and token.startswith("Y") and "m" in token:
        l_text, m_text = token[1:].split("m", 1)
        rep = (int(l_text), int(m_text))
        for mode in basis.modes:
            if mode.rep == rep:
                return mode.id
        raise ParameterError(f"harmonic {token} exceeds the basis cutoff")
    raise ParameterError(f"cannot parse factor token {token!r} for this model")


def _resolve_basis_and_factors(model_cfg: dict, params: dict, cache_dir: str):
    """Build (and cache) the basis sized from the factor frequency sum."""
    model = _model_from_config(model_cfg)
    tokens = [t for t in str(params["factors"]).split(",") if t]
    explicit = params.get("lambda_max")
    mult = float(params.get("lambda_max_mult", 2.0))
    probe_lambda = 2.0
    while True:
        probe = _cached_basis(model, probe_lambda, cache_dir)
        try:
            ids = tuple(_parse_factor_token(model, probe, t) for t in tokens)
            break
        except ParameterError:
            if probe_lambda > 64.0:
                raise
            probe_lambda *= 2.0
    sum_lambda = float(sum(probe.modes[i].lam for i in sorted(ids)))
    if explicit is not None:
        lambda_max = float(explicit)
    else:
        lambda_max = max(mult * sum_lambda,
                         max(probe.modes[i].lam for i in ids) * 1.01)
    basis = _cached_basis(model, lambda_max, cache_dir)
    ids = tuple(_parse_factor_token(model, basis, t) for t in tokens)
    _check_positional_ids(probe, basis, tokens, ids)
    return basis, ids


def _check_positional_ids(probe, basis, tokens, ids) -> None:
    """A numeric factor id is resolved on the probe basis (to size the
    final one) and then on the final basis; both must name the same mode:
    the same leading representation fields and lambda within 1e-9
    relative."""
    for token, idx in zip(tokens, ids):
        if not token.strip().lstrip("-").isdigit():
            continue
        seen, used = probe.modes[idx], basis.modes[idx]
        if seen.rep[:2] != used.rep[:2] or \
                abs(seen.lam - used.lam) > 1e-9 * max(abs(seen.lam), abs(used.lam)):
            raise ParameterError(
                f"mode id {idx} names different modes in the probe basis "
                f"(lambda={seen.lam!r}) and the final basis (lambda={used.lam!r}); "
                "pass a mode label instead")


def _cache_key(model, lambda_max: float, resolution: Resolution) -> str:
    from .manifolds import _resolution_payload, model_descriptor

    blob = json.dumps({"model": model_descriptor(model),
                       "lambda_max": float(lambda_max).hex(),
                       "resolution": _resolution_payload(resolution),
                       "version": CACHE_VERSION}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _cached_basis(model, lambda_max: float, cache_dir: str):
    """Load the basis from the disk cache, or build and store it.  A file
    whose model, lambda_max or resolution differs from the request is a
    miss: it is rebuilt and overwritten, never served."""
    res = Resolution()
    path = os.path.join(cache_dir, f"{_cache_key(model, lambda_max, res)}.eprd")
    if os.path.exists(path):
        basis = load_basis(path)
        if basis.model == model and basis.lambda_max == float(lambda_max) \
                and basis.resolution == res:
            return basis
    basis = build_basis(model, lambda_max, res)
    os.makedirs(cache_dir, exist_ok=True)
    save_basis(basis, path)
    return basis


def config_to_text(config: dict) -> str:
    """Flat key = value rendering with sections, strict round trip."""
    lines = ["[run]", f"command = {config['command']}"]
    model = config.get("model")
    if model:
        lines.append("[model]")
        for key in sorted(model):
            value = model[key]
            if isinstance(value, list):
                value = ",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in value)
            lines.append(f"{key} = {value}")
    params = config.get("params", {})
    if params:
        lines.append("[params]")
        for key in sorted(params):
            lines.append(f"{key} = {params[key]}")
    return "\n".join(lines) + "\n"


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


_MODEL_KEYS = {"kind", "dim", "periods", "R", "r"}


def config_from_text(text: str) -> dict:
    """Parse the sectioned key = value format; unknown keys are rejected."""
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
            if value not in COMMANDS:
                raise ParameterError(f"unknown command {value!r}")
            config["command"] = value
        elif section == "model":
            if key not in _MODEL_KEYS:
                raise ParameterError(f"unknown key {key!r} in [model]")
            if key == "periods":
                config["model"][key] = [float(p) for p in value.split(",")]
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
        "method": series.method,
        "entries": [[int(i), float(l), float(c)] for i, l, c in series.entries()],
    }


def _provenance(basis) -> dict:
    sizes = [len(ax[0]) for ax in basis.grid.axes] if basis.grid.axes \
        else [basis.grid.size]
    return {
        "basis_digest": basis_digest(basis),
        "grid_axis_sizes": sizes,
        "mode_count": basis.size,
        "basis_provenance": basis.provenance,
        "package_version": __version__,
    }


def _cmd_basis(config, cache_dir):
    model = _model_from_config(config["model"])
    lambda_max = float(config["params"]["lambda_max"])
    basis = _cached_basis(model, lambda_max, cache_dir)
    doc = basis_to_json_dict(basis)
    summary = f"basis: {basis.size} modes up to lambda_max={lambda_max:g}"
    return doc, _provenance(basis), {}, summary


def _cmd_product(config, cache_dir):
    basis, ids = _resolve_basis_and_factors(config["model"], config["params"],
                                            cache_dir)
    series = expand_product(ProductSpec(basis, ids))
    results = _series_results(series)
    artifacts = {}
    if config["params"].get("csv"):
        artifacts["csv"] = series_to_csv(series)
    if config["params"].get("svg"):
        positive = series.coeffs != 0.0
        artifacts["svg"] = svg_coefficient_plot(
            series.lams[positive], np.abs(series.coeffs[positive]),
            title="coefficients")
    summary = (f"product: {len(ids)} factors, parseval ratio "
               f"{results['parseval_ratio']:.9f}")
    return results, _provenance(basis), artifacts, summary


def _cmd_decay(config, cache_dir):
    params = config["params"]
    basis, ids = _resolve_basis_and_factors(config["model"], params, cache_dir)
    spec = ProductSpec(basis, ids)
    mult = float(params.get("lambda_max_mult", 6.0))
    series = expand_product(spec).truncated(mult * spec.sum_lambda) \
        if params.get("lambda_max") is None else expand_product(spec)
    lo_mult = float(params.get("window_lo_mult", 2.0))
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
    artifacts = {}
    if params.get("csv"):
        artifacts["csv"] = series_to_csv(series)
    if params.get("svg"):
        positive = series.coeffs != 0.0
        envelope = None if fit.band_limited else \
            (fit.c_hat, fit.C_hat * spec.sum_lambda)
        artifacts["svg"] = svg_coefficient_plot(
            series.lams[positive], np.abs(series.coeffs[positive]),
            envelope=envelope, title="decay")
    if fit.band_limited:
        summary = f"decay: band-limited, onset at lambda={fit.onset_lambda:g}"
    else:
        summary = f"decay: c_hat={fit.c_hat:.6f}, r2={fit.r_squared:.4f}"
    return results, _provenance(basis), artifacts, summary


def _cmd_truncate(config, cache_dir):
    params = config["params"]
    basis, ids = _resolve_basis_and_factors(config["model"], params, cache_dir)
    series = expand_product(ProductSpec(basis, ids))
    target = float(params.get("target", 0.99))
    result = find_truncation(series, target=target,
                             c2=float(params.get("c2", 1.0)))
    results = {
        "sum_lambda": series.sum_lambda,
        "C5": result.c5,
        "captured_ratio": result.captured_ratio,
        "kept_count": len(result.kept_ids),
        "s_partial": result.s_partial,
        "target": result.target,
        "c2": result.c2,
    }
    summary = (f"truncate: C5={result.c5:g} captures "
               f"{result.captured_ratio:.6f} of the norm")
    return results, _provenance(basis), {}, summary


def _cmd_lower_bound(config, cache_dir):
    params = config["params"]
    family = params.get("family", "self")
    if family == "rotated-s2":
        fit = sphere_rotated_pair_experiment(
            range(int(params.get("l_min", 2)), int(params.get("l_max", 12)) + 1))
        provenance = {"package_version": __version__}
        summary = f"lower-bound: C3={fit.C3_hat:.3e} C4={fit.C4_hat:.4f}"
        results = {
            "C3_hat": fit.C3_hat,
            "C4_hat": fit.C4_hat,
            "n_factors": fit.n_factors,
            "samples": [[s, n] for s, n in fit.samples],
        }
        return results, provenance, {}, summary
    model_cfg = config["model"]
    if family == "self":
        k_lo = int(params.get("k_min", 1))
        k_hi = int(params.get("k_max", 8))
        params_local = dict(params)
        params_local["factors"] = ",".join(f"cos{k}" for k in range(k_lo, k_hi + 1))
        basis, ids = _resolve_basis_and_factors(model_cfg, params_local, cache_dir)
        specs = [ProductSpec(basis, (i, i)) for i in ids]
    elif family == "pairs":
        groups = [g for g in str(params["pairs"]).split(";") if g]
        params_local = dict(params)
        params_local["factors"] = ",".join(groups[0].split(","))
        basis, _ = _resolve_basis_and_factors(model_cfg, params_local, cache_dir)
        specs = []
        for group in groups:
            ids = tuple(_parse_factor_token(basis.model, basis, t)
                        for t in group.split(","))
            specs.append(ProductSpec(basis, ids))
    else:
        raise ParameterError(f"unknown family {family!r}")
    fit = lower_bound_experiment(basis, specs)
    results = {
        "C3_hat": fit.C3_hat,
        "C4_hat": fit.C4_hat,
        "n_factors": fit.n_factors,
        "samples": [[s, n] for s, n in fit.samples],
    }
    summary = f"lower-bound: C3={fit.C3_hat:.6e} C4={fit.C4_hat:.6f}"
    return results, _provenance(basis), {}, summary


def _cmd_remark_s2(config, _cache_dir):
    params = config["params"]
    result = sphere_remark_experiment(
        range(int(params.get("k_min", 2)), int(params.get("k_max", 20)) + 1))
    results = {
        "samples": [[k, n] for k, n in result.samples],
        "log_slope": result.log_slope,
        "r_squared": result.r_squared,
    }
    summary = (f"remark-s2: slope={result.log_slope:.4f} "
               f"r2={result.r_squared:.4f}")
    return results, {"package_version": __version__}, {}, summary


def _cmd_greens(config, cache_dir):
    params = config["params"]
    basis, ids = _resolve_basis_and_factors(config["model"], params, cache_dir)
    series = expand_product(ProductSpec(basis, ids))
    extension_constants = compute_extension_params(basis.model)
    heights = [float(h) for h in str(params.get("heights", "")).split(",") if h] \
        or [extension_constants.T, extension_constants.T / 2.0]
    ext = harmonic_extension_flat(series, max(heights))
    per_height = []
    worst = 0.0
    for height in heights:
        errs = [
            abs(greens_coefficient(ext, mode.id, height) - series.coeffs[mode.id])
            for mode in basis.modes if mode.lam > 0.0
        ]
        err = float(max(errs))
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
    out = compute_extension_params(model, None if r2 is None else float(r2))
    results = {
        "dim": out.dim, "R1": out.R1, "R2": out.R2, "R3": out.R3,
        "delta0": out.delta0, "delta": out.delta, "T": out.T,
        "coeff_sup": out.coeff_sup, "C8": out.C8,
        "C6": out.C6, "C7": out.C7,
    }
    summary = f"extension-params: delta0={out.delta0:.6f} T={out.T:.7f}"
    return results, {"package_version": __version__}, {}, summary


def _function_from_config(config, cache_dir):
    params = config["params"]
    spec = str(params.get("function", "linear"))
    if spec == "linear":
        return coordinate_function(), 1
    if spec.startswith("power:"):
        return harmonic_power_function(int(spec.split(":", 1)[1])), 2
    if spec.startswith("mode:"):
        if config.get("model") is None:
            raise ParameterError("mode: functions need --model")
        params_local = dict(params)
        params_local["factors"] = spec.split(":", 1)[1]
        basis, ids = _resolve_basis_and_factors(config["model"], params_local,
                                                cache_dir)
        return (as_chart_function(basis.model, basis.modes[ids[0]]),
                basis.model.chart_dim)
    raise ParameterError(f"unknown function spec {spec!r}")


def _center_from_params(params, dim: int):
    raw = str(params.get("center", "0"))
    parts = [float(c) for c in raw.split(",")]
    if len(parts) == 1 and dim == 2:
        parts = parts * 2
    if len(parts) != dim:
        raise ParameterError(f"center needs {dim} coordinates")
    return tuple(parts) if dim > 1 else parts[0]


def _cmd_remez(config, cache_dir):
    params = config["params"]
    fn, dim = _function_from_config(config, cache_dir)
    center = _center_from_params(params, dim)
    side = float(params.get("side", 2.0))
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
    return results, {"package_version": __version__}, artifacts, summary


def _cmd_doubling(config, cache_dir):
    params = config["params"]
    fn, dim = _function_from_config(config, cache_dir)
    center = _center_from_params(params, dim)
    r = float(params.get("r", 0.25))
    report = doubling_index(fn, center, r)
    results = {
        "r": report.r, "sup_r": report.sup_r, "sup_2r": report.sup_2r,
        "index": report.index,
    }
    summary = f"doubling: N={report.index:.6f}"
    return results, {"package_version": __version__}, {}, summary


def _cmd_good_set(config, cache_dir):
    params = config["params"]
    basis, ids = _resolve_basis_and_factors(config["model"], params, cache_dir)
    spec = ProductSpec(basis, ids)
    center = _center_from_params(params, basis.model.chart_dim)
    side = float(params.get("side", 2.0))
    result = good_set_experiment(basis, spec, center, side)
    results = {
        "thresholds": list(result.thresholds),
        "measure_e": result.measure_e,
        "measure_half_cube": result.measure_half_cube,
        "min_product_bound": result.min_product_bound,
    }
    summary = (f"good-set: measure {result.measure_e:.6f} of "
               f"{result.measure_half_cube:.6f}")
    return results, _provenance(basis), {}, summary


_HANDLERS = {
    "basis": _cmd_basis,
    "product": _cmd_product,
    "decay": _cmd_decay,
    "truncate": _cmd_truncate,
    "lower-bound": _cmd_lower_bound,
    "remark-s2": _cmd_remark_s2,
    "greens": _cmd_greens,
    "extension-params": _cmd_extension_params,
    "remez": _cmd_remez,
    "doubling": _cmd_doubling,
    "good-set": _cmd_good_set,
}


def run_config(config: dict, out_dir: str, cache_dir: str):
    """Execute a canonical configuration; returns (report, artifacts, summary)."""
    command = config["command"]
    if command not in _HANDLERS:
        raise ParameterError(f"unknown command {command!r}")
    results, provenance, artifacts, summary = _HANDLERS[command](config, cache_dir)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenprod",
        description="spectral coefficients of eigenfunction products on "
                    "model analytic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True, factors=False):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--cache", default=None,
                       help=f"basis cache directory (default ${CACHE_ENV} "
                            f"or <out>/cache)")
        p.add_argument("--config", default=None,
                       help="sectioned key=value config file; explicit flags win")
        if model:
            p.add_argument("--model", choices=["flat-torus", "sphere", "rev-torus"])
            p.add_argument("--dim", type=int, default=None)
            p.add_argument("--periods", default=None,
                           help="comma-separated periods for the flat torus")
            p.add_argument("--R", dest="major", type=float, default=None)
            p.add_argument("--r", dest="minor", type=float, default=None)
        if factors:
            p.add_argument("--factors", default=None,
                           help="comma-separated mode ids or names (cos2, Y2m1, ...)")
            p.add_argument("--lambda-max", dest="lambda_max", type=float,
                           default=None)
            p.add_argument("--lambda-max-mult", dest="lambda_max_mult",
                           type=float, default=None)

    p = sub.add_parser("basis");            add_common(p)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p = sub.add_parser("product");          add_common(p, factors=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--svg", action="store_true")
    p = sub.add_parser("decay");            add_common(p, factors=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--window-lo-mult", dest="window_lo_mult", type=float,
                   default=None)
    p = sub.add_parser("truncate");         add_common(p, factors=True)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p = sub.add_parser("lower-bound");      add_common(p, factors=True)
    p.add_argument("--family", choices=["self", "pairs", "rotated-s2"],
                   default=None)
    p.add_argument("--k-min", dest="k_min", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--l-min", dest="l_min", type=int, default=None)
    p.add_argument("--l-max", dest="l_max", type=int, default=None)
    p.add_argument("--pairs", default=None, help="semicolon-separated id pairs")
    p = sub.add_parser("remark-s2");        add_common(p, model=False)
    p.add_argument("--k-min", dest="k_min", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p = sub.add_parser("greens");           add_common(p, factors=True)
    p.add_argument("--heights", default=None, help="comma-separated heights")
    p = sub.add_parser("extension-params"); add_common(p)
    p.add_argument("--R2", dest="r2", type=float, default=None)
    p = sub.add_parser("remez");            add_common(p)
    p.add_argument("--function", default=None,
                   help="linear | power:<k> | mode:<token>")
    p.add_argument("--center", default=None)
    p.add_argument("--side", type=float, default=None)
    p.add_argument("--csv", action="store_true")
    p = sub.add_parser("doubling");         add_common(p)
    p.add_argument("--function", default=None)
    p.add_argument("--center", default=None)
    p.add_argument("--radius", dest="r_value", type=float, default=None)
    p = sub.add_parser("good-set");         add_common(p, factors=True)
    p.add_argument("--center", default=None)
    p.add_argument("--side", type=float, default=None)
    p = sub.add_parser("report")
    p.add_argument("--replay", required=True, help="existing report to re-run")
    p.add_argument("--out", default="out")
    p.add_argument("--cache", default=None)
    p.add_argument("--check", action="store_true",
                   help="exit 3 unless the replay matches numerically")
    return parser


_PARAM_FIELDS = {
    "product": ("factors", "lambda_max", "lambda_max_mult", "csv", "svg"),
    "decay": ("factors", "lambda_max", "lambda_max_mult", "window_lo_mult",
              "csv", "svg"),
    "truncate": ("factors", "lambda_max", "lambda_max_mult", "target", "c2"),
    "lower-bound": ("family", "k_min", "k_max", "l_min", "l_max", "pairs",
                    "lambda_max", "lambda_max_mult"),
    "remark-s2": ("k_min", "k_max"),
    "greens": ("factors", "lambda_max", "lambda_max_mult", "heights"),
    "extension-params": ("r2",),
    "remez": ("function", "center", "side", "csv"),
    "doubling": ("function", "center", "r_value"),
    "good-set": ("factors", "lambda_max", "lambda_max_mult", "center", "side"),
    "basis": ("lambda_max",),
}

_PARAM_RENAME = {"r_value": "r", "r2": "R2"}


def _config_from_args(args) -> dict:
    file_config = None
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            file_config = config_from_text(handle.read())
        if file_config["command"] != args.command:
            raise ParameterError(
                f"config file is for {file_config['command']!r}, "
                f"not {args.command!r}")
    params = dict(file_config["params"]) if file_config else {}
    for field in _PARAM_FIELDS.get(args.command, ()):
        value = getattr(args, field, None)
        if isinstance(value, bool):
            if value:
                params[_PARAM_RENAME.get(field, field)] = True
        elif value is not None:
            params[_PARAM_RENAME.get(field, field)] = value
    model = _model_config(args)
    if model is None and file_config:
        model = file_config.get("model")
    config = {"command": args.command, "model": model, "params": params}
    return config


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
        stem = os.path.join(out_dir, args.command)
        atomic_write_text(stem + ".json", canonical_json(report))
        for kind, payload in artifacts.items():
            atomic_write_text(f"{stem}.{kind}", payload)
        print(f"{summary} -> {stem}.json")
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except EigenprodError as exc:  # pragma: no cover - catch-all mapping
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _replay(args, out_dir: str, cache_dir: str) -> int:
    original = load_json(args.replay)
    config = original.get("config")
    if not isinstance(config, dict):
        raise ParameterError(f"{args.replay} carries no embedded configuration")
    report, artifacts, summary = run_config(config, out_dir, cache_dir)
    stem = os.path.join(out_dir, f"replay-{config['command']}")
    atomic_write_text(stem + ".json", canonical_json(report))
    for kind, payload in artifacts.items():
        atomic_write_text(f"{stem}.{kind}", payload)
    differences = diff_paths(original.get("results"), report["results"])
    differences += diff_paths(original.get("provenance", {}).get("basis_digest"),
                              report["provenance"].get("basis_digest"))
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
