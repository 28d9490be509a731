"""The golden corpus: CLI invocations whose report results are pinned.

``golden/corpus.json`` records, for each invocation in
:data:`INVOCATIONS`, its argv, its ``basis_digest`` (None for commands
without a basis) and its report's ``results``, together with the numpy
version and the BLAS builds that made it (:func:`blas_build`: numpy's
bundled OpenBLAS, which runs numpy's products, and scipy's, which runs
the LAPACK calls that make the rev-torus bits; OpenBLAS picks its
kernels by CPU, so the low bits of a BLAS product can differ between
machines running one wheel).  ``test_golden.py`` reruns
every invocation in process through ``cli_main`` with one shared cache.
Under the recorded numpy and both BLAS builds the canonical JSON of the results and
the basis digests must match exactly; under another build the numbers
must agree to 1e-12 relative, and the digests are not compared.

Regenerate the corpus, and print every entry that moved, with::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from eigenprod.cli import cli_main
from eigenprod.reportio import canonical_json

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json"
RELATIVE_TOL = 1e-12

FLAT1 = ("--model", "flat-torus", "--dim", "1")
FLAT2 = ("--model", "flat-torus", "--dim", "2")
FLAT2_RECT = ("--model", "flat-torus", "--dim", "2", "--periods", "6.283185307179586,4")
SPHERE = ("--model", "sphere")
# the rev-torus basis of the cli-warm benchmark
REV = ("--model", "rev-torus", "--R", "2", "--r", "1", "--lambda-max", "4.5")

# name -> argv without --out and --cache; "{work}" is the directory whose
# subdirectory <name> holds each invocation's output, so a replay can read
# an earlier entry's report
INVOCATIONS = {
    "basis-flat1": ("basis", *FLAT1, "--lambda-max", "6"),
    "basis-flat2": ("basis", *FLAT2_RECT, "--lambda-max", "4"),
    "basis-sphere": ("basis", *SPHERE, "--lambda-max", "6"),
    "product-flat1": ("product", *FLAT1, "--factors", "cos2,sin3"),
    "product-flat2": ("product", *FLAT2_RECT, "--factors", "c1c0,s1c2"),
    "product-sphere": ("product", *SPHERE, "--factors", "Y2m1,Y3m-2"),
    "decay-flat1": ("decay", *FLAT1, "--factors", "cos1,cos3"),
    "decay-flat2": ("decay", *FLAT2, "--factors", "c1c1,c0s1"),
    "decay-sphere": ("decay", *SPHERE, "--factors", "Y1m0,Y2m-1"),
    "truncate-flat1": ("truncate", *FLAT1, "--factors", "cos2,cos3", "--target", "0.99"),
    "truncate-flat2": ("truncate", *FLAT2_RECT, "--factors", "c1c1,c0s1", "--target", "0.9"),
    "truncate-sphere": ("truncate", *SPHERE, "--factors", "Y2m0,Y2m2,Y1m-1"),
    "lower-bound-self-flat1": ("lower-bound", *FLAT1, "--family", "self",
                               "--k-min", "1", "--k-max", "4"),
    "lower-bound-pairs-flat2": ("lower-bound", *FLAT2, "--family", "pairs",
                                "--pairs", "c1c0,c0c1;c1c1,c2c0;c2c2,c1c2;s1c0,c0s2"),
    "lower-bound-pairs-sphere": ("lower-bound", *SPHERE, "--family", "pairs",
                                 "--pairs", "Y1m0,Y1m1;Y2m1,Y3m0;Y3m-3,Y2m2;Y1m-1,Y2m0"),
    "lower-bound-rotated-s2": ("lower-bound", "--family", "rotated-s2",
                               "--l-min", "2", "--l-max", "5"),
    "remark-s2": ("remark-s2", "--k-min", "2", "--k-max", "6"),
    "greens-flat1": ("greens", *FLAT1, "--factors", "cos2,cos3", "--heights", "0.003,0.006"),
    "greens-flat1-cauchy": ("greens", *FLAT1, "--factors", "cos1,sin2,cos4"),
    "greens-flat2": ("greens", *FLAT2_RECT, "--factors", "c1c0,s1c2", "--heights", "0.001,0.002"),
    "greens-flat2-cauchy": ("greens", *FLAT2, "--factors", "c1c0,c0c2"),
    "extension-params-flat1": ("extension-params", *FLAT1),
    "extension-params-flat2": ("extension-params", *FLAT2_RECT, "--R2", "0.3"),
    "remez-linear": ("remez", "--function", "linear", "--center", "0", "--side", "2"),
    "remez-power": ("remez", "--function", "power:3", "--center", "0,0", "--side", "1"),
    "remez-mode-flat2": ("remez", *FLAT2, "--function", "mode:c1s2", "--center", "1,1",
                         "--side", "1"),
    "remez-mode-sphere": ("remez", *SPHERE, "--function", "mode:Y3m1", "--center", "1,2",
                          "--side", "0.5"),
    "doubling-power": ("doubling", "--function", "power:3", "--center", "0,0",
                       "--radius", "0.3"),
    "doubling-mode-flat1": ("doubling", *FLAT1, "--function", "mode:cos3", "--center", "0.2",
                            "--radius", "0.25"),
    "doubling-mode-flat2": ("doubling", *FLAT2, "--function", "mode:c3c0", "--center", "0.2,0.5",
                            "--radius", "0.25"),
    "doubling-mode-sphere": ("doubling", *SPHERE, "--function", "mode:Y3m1", "--center", "1,2",
                             "--radius", "0.2"),
    "good-set-flat1": ("good-set", *FLAT1, "--factors", "cos1,cos2", "--center", "0",
                       "--side", "2"),
    "good-set-flat2": ("good-set", *FLAT2, "--factors", "c1c0,s1s1", "--center", "1,1",
                       "--side", "1"),
    "good-set-sphere": ("good-set", *SPHERE, "--factors", "Y2m1,Y1m0", "--center", "1,1",
                        "--side", "0.5"),
    "good-set-sphere-3": ("good-set", *SPHERE, "--factors", "Y2m1,Y1m0,Y3m-2", "--center", "1,1",
                          "--side", "0.5"),
    "good-set-rev": ("good-set", *REV, "--factors", "1,3", "--center", "2,2", "--side", "1"),
    # the cli-warm benchmark's 2-d good-set op
    "good-set-flat2-warm": ("good-set", *FLAT2, "--lambda-max", "8", "--factors", "c1s1,c0c2",
                            "--center", "0.5,0.5", "--side", "1"),
    "report-replay-greens": ("report", "--replay", "{work}/greens-flat1/greens.json",
                             "--check"),
    "product-rev-1-1": ("product", *REV, "--factors", "1,1"),
    "product-rev-2-2": ("product", *REV, "--factors", "2,2"),
    "truncate-rev-1-1": ("truncate", *REV, "--factors", "1,1", "--target", "0.99"),
    "truncate-rev-2-2": ("truncate", *REV, "--factors", "2,2", "--target", "0.99"),
    "decay-rev-1-1": ("decay", *REV, "--factors", "1,1"),
    "decay-rev-2-2": ("decay", *REV, "--factors", "2,2"),
    # a rev-cold op: plain ids sized on the lambda=2 probe basis
    "decay-rev-probe": ("decay", "--model", "rev-torus", "--R", "1.8", "--r", "0.9",
                        "--factors", "1,3", "--lambda-max-mult", "5"),
}


def run_invocation(name: str, work: pathlib.Path, cache: pathlib.Path) -> dict:
    """Run one invocation into ``work/name`` and return its corpus record."""
    out = work / name
    argv = [arg.replace("{work}", str(work)) for arg in INVOCATIONS[name]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv + ["--out", str(out), "--cache", str(cache)])
    if code != 0:
        raise AssertionError(f"{name}: {' '.join(argv)} exited {code}")
    (path,) = out.glob("*.json")
    report = json.loads(path.read_text(encoding="utf-8"))
    results = report["results"]
    return {
        "argv": list(INVOCATIONS[name]),
        "basis_digest": report["provenance"].get("basis_digest"),
        "results": results,
    }


def run_all(work: pathlib.Path) -> dict:
    """Every invocation in order, sharing one cache under ``work``."""
    cache = work / "cache"
    return {name: run_invocation(name, work, cache) for name in INVOCATIONS}


def _openblas_config(package: str) -> str | None:
    """The runtime configuration of the OpenBLAS bundled in ``package``'s
    wheel (its ``<package>.libs`` directory): its version and the CPU core
    whose kernels it picked.  None when none is found.  The package's
    ``__init__`` is not run."""
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = pathlib.Path(spec.submodule_search_locations[0]).resolve().parent / f"{package}.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                return " ".join(getter().decode().split())
    return None


def blas_build() -> dict:
    """The configuration of numpy's and of scipy's bundled OpenBLAS, by
    package name: scipy's runs the LAPACK calls that make the rev-torus
    bits, numpy's every numpy product.  A value is None when that library
    is not found: its kernels are then unknown, and no digest is compared."""
    return {package: _openblas_config(package) for package in ("numpy", "scipy")}


def same_build(corpus: dict) -> bool:
    """Whether this process runs the numpy and both BLAS builds that made ``corpus``."""
    blas = blas_build()
    return corpus["numpy"] == np.__version__ and None not in blas.values() \
        and corpus.get("blas") == blas


def _short_digest(results) -> str:
    return hashlib.sha256(canonical_json(results).encode()).hexdigest()[:12]


def _numbers(value):
    """The numbers of a JSON value, depth first."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _numbers(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _skeleton(value):
    """A JSON value with every number replaced by 0: its shape, keys,
    strings, booleans and nulls."""
    if isinstance(value, dict):
        return {key: _skeleton(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_skeleton(item) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0
    return value


def numbers_agree(want, got, rel: float = RELATIVE_TOL) -> bool:
    """Same shape and non-numeric fields, and every number within ``rel``
    of the largest magnitude among the two reports' numbers."""
    if _skeleton(want) != _skeleton(got):
        return False
    pairs = list(zip(_numbers(want), _numbers(got)))
    scale = max((max(abs(a), abs(b)) for a, b in pairs), default=0.0)
    return all(abs(a - b) <= rel * scale for a, b in pairs)


def moved_entries(corpus: dict, records: dict) -> list:
    """Names whose record differs from the corpus, with a reason each:
    changed results or basis digest under the corpus's build, else numbers
    off by more than 1e-12 relative."""
    exact = same_build(corpus)
    moved = []
    for name, want in corpus["entries"].items():
        got = records.get(name)
        if got is None:
            moved.append(f"{name}: not run")
        elif got["argv"] != want["argv"]:
            moved.append(f"{name}: argv changed")
        elif exact and (canonical_json(got["results"]), got["basis_digest"]) != \
                (canonical_json(want["results"]), want["basis_digest"]):
            moved.append(f"{name}: results {_short_digest(want['results'])} -> "
                         f"{_short_digest(got['results'])}, basis "
                         f"{str(want['basis_digest'])[:12]} -> {str(got['basis_digest'])[:12]}")
        elif not exact and not numbers_agree(want["results"], got["results"]):
            moved.append(f"{name}: numbers moved by more than {RELATIVE_TOL:g} relative")
    moved += [f"{name}: new entry" for name in records if name not in corpus["entries"]]
    return moved


def main() -> int:
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() \
        else {"numpy": np.__version__, "blas": blas_build(), "entries": {}}
    with tempfile.TemporaryDirectory(prefix="eigenprod-golden-") as work:
        records = run_all(pathlib.Path(work))
    for line in moved_entries(old, records):
        print(line)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(canonical_json({"numpy": np.__version__, "blas": blas_build(),
                                      "entries": records}), encoding="utf-8")
    print(f"wrote {len(records)} entries to {CORPUS} "
          f"(numpy {np.__version__}, BLAS {blas_build()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
