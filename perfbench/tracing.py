"""In-memory span tracing around calls into eigenprod's public functions.

Each traced function is wrapped at every module attribute that refers to
it, so the wrapper sits at the name its caller looks up (for example
``cli.load_basis`` or ``manifolds.sym_generalized_eig``).  A span records
(name, start, end, parent, op id, size); self time is a span's duration
minus the durations of its direct children.  Functions that no longer
exist are skipped and report zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs wrapped in traced runs.  A span is named
# "<module>.<function>" after the module that defines the function.
TARGETS = (
    ("numerics", "sym_generalized_eig"),
    ("numerics", "assemble_periodic_galerkin"),
    ("numerics", "trig_bandwidth"),
    ("numerics", "circle_basis"),
    ("manifolds", "build_basis"),
    ("manifolds", "load_basis"),
    ("manifolds", "save_basis"),
    ("manifolds", "basis_digest"),
    ("coefficients", "expand_product"),
    ("coefficients", "gaunt_real"),
    ("coefficients", "parseval_report"),
    ("analysis", "fit_decay"),
    ("analysis", "find_truncation"),
    ("remez", "remez_fit"),
    ("remez", "sublevel_measure"),
    ("extension", "harmonic_extension_flat"),
    ("extension", "greens_coefficient"),
    ("cli", "cli_main"),
    ("cli", "run_config"),
    ("reportio", "canonical_json"),
    ("reportio", "atomic_write_text"),
)

OP_SPAN = "bench.op"


def _pencil_dim(args, _kwargs):
    """Size recorded for sym_generalized_eig: the pencil dimension."""
    return int(getattr(args[0], "dim", 0)) if args else 0


SIZE_OF = {"numerics.sym_generalized_eig": _pencil_dim}


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, package: str = "eigenprod", targets=TARGETS):
        self.spans = []  # (name, start, end, parent, op_id, size)
        self._stack = []
        self._op_id = None
        self._bindings = []  # (module object, attribute, original, wrapper)
        for module_name, func_name in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == package or name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn):
        sizer = SIZE_OF.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            size = sizer(args, kwargs) if sizer else 0
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op_id, size)

        return wrapper

    def install(self):
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _wrapper in self._bindings:
            setattr(mod, attr, original)

    def run_op(self, op_id, fn):
        """Run fn() as op ``op_id`` under a root span with the wrappers on."""
        self._op_id = op_id
        self.install()
        try:
            return self._wrap(OP_SPAN, fn)()
        finally:
            self.uninstall()
            self._op_id = None

    def dump(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], s, e, p, o, z] for n, s, e, p, o, z in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size"],
                       "names": names, "spans": rows}, handle)


def self_times(spans):
    """Self time of each span: its duration minus its children's durations.

    Children of one span never overlap in a single-threaded run, so the
    part of the parent's interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_rest in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_name, start, end, _parent, *_rest) in enumerate(spans)]


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, n_ops):
    """Per-layer figures of a traced run: {metric name: (value, unit)}."""
    calls = {}
    self_s = {}
    dim3 = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "numerics.sym_generalized_eig":
            dim3 += span[5] ** 3
    profile_evals = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "numerics.circle_basis"
        and _has_ancestor(spans, i, "coefficients.expand_product"))

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("numerics.sym_generalized_eig", "numerics.assemble_periodic_galerkin",
                 "numerics.circle_basis", "manifolds.build_basis",
                 "coefficients.expand_product", "coefficients.gaunt_real"):
        out[f"{name}.calls"] = (n(name), "count")
        out[f"{name}.self_s"] = (s(name), "s")
    out["numerics.sym_generalized_eig.dim3_sum"] = (dim3, "count")
    for name in ("numerics.trig_bandwidth", "remez.sublevel_measure",
                 "extension.greens_coefficient"):
        out[f"{name}.calls"] = (n(name), "count")
    for name in ("manifolds.load_basis", "manifolds.basis_digest", "manifolds.save_basis",
                 "analysis.fit_decay", "analysis.find_truncation", "remez.remez_fit",
                 "extension.harmonic_extension_flat", "cli.run_config",
                 "reportio.canonical_json", "reportio.atomic_write_text"):
        out[f"{name}.self_s"] = (s(name), "s")
    builds, loads = n("manifolds.build_basis"), n("manifolds.load_basis")
    out["cli.builds_per_op"] = (ratio(builds, n_ops), "count/op")
    out["cli.disk_cache.hit_ratio"] = (ratio(loads, loads + builds), "ratio")
    out["coefficients.profile_evals_per_expand"] = (
        ratio(profile_evals, n("coefficients.expand_product")), "count/call")
    return out
