"""The golden corpus: every pinned CLI invocation reproduces its results."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import eigenprod
import golden_corpus
from golden_corpus import (
    CORPUS,
    INVOCATIONS,
    blas_build,
    moved_entries,
    numbers_agree,
    run_all,
    run_invocation,
    same_build,
)

# the rev-torus entries, whose bases come from LAPACK and so from the kernels
# that scipy's bundled OpenBLAS picks by CPU
REV_ENTRIES = [name for name, argv in INVOCATIONS.items() if "rev-torus" in argv]


def test_golden_corpus_reproduces(tmp_path):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    # every invocation is pinned, and no entry is dropped
    assert sorted(corpus["entries"]) == sorted(INVOCATIONS)
    if not same_build(corpus):
        warnings.warn(f"golden corpus made with numpy {corpus['numpy']} and BLAS "
                      f"{corpus.get('blas')}, running numpy {np.__version__} and BLAS "
                      f"{blas_build()}: numbers compared to 1e-12 relative, "
                      "digests not compared")
    moved = moved_entries(corpus, run_all(tmp_path))
    assert not moved, "golden entries moved (regenerate with " \
        "tests/golden_corpus.py and declare each move):\n" + "\n".join(moved)


def test_rev_entries_agree_under_another_openblas_kernel(tmp_path):
    # under another core every rev number stays within 1e-12 of the corpus,
    # and some basis digest moves from this process's own, which shows that
    # the LAPACK extension really ran the other kernel
    build = blas_build()["scipy"]
    if build is None or "DYNAMIC_ARCH" not in build.split():
        pytest.skip(f"scipy's OpenBLAS is not a DYNAMIC_ARCH build ({build}), so "
                    "OPENBLAS_CORETYPE cannot pick another LAPACK kernel")
    core = "Haswell" if "Sandybridge" in build.split() else "Sandybridge"
    code = ("import json, pathlib, sys; import golden_corpus as g; "
            "work = pathlib.Path(sys.argv[1]); "
            "records = {name: g.run_invocation(name, work, work / 'cache') "
            "for name in sys.argv[2:]}; "
            "print(json.dumps({'blas': g.blas_build(), 'records': records}))")
    path = os.pathsep.join([str(pathlib.Path(eigenprod.__file__).parents[1]),
                            str(pathlib.Path(__file__).parent)])
    other = json.loads(subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "other"), *REV_ENTRIES],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": core},
        check=True, capture_output=True, text=True, timeout=300).stdout.splitlines()[-1])
    assert core in other["blas"]["scipy"].split()
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]
    assert [name for name in REV_ENTRIES if not numbers_agree(
        corpus[name]["results"], other["records"][name]["results"])] == []
    native = tmp_path / "native"
    digests = {name: run_invocation(name, native, native / "cache")["basis_digest"]
               for name in REV_ENTRIES}
    assert any(digests[name] != other["records"][name]["basis_digest"] for name in REV_ENTRIES)


def test_numbers_agree_is_relative_to_the_report_scale():
    want = {"a": [1.0, 2.0], "b": 1e-16, "name": "x"}
    assert numbers_agree(want, {"a": [1.0, 2.0 * (1 + 4e-13)], "b": 2e-16, "name": "x"})
    assert not numbers_agree(want, {"a": [1.0, 2.0 * (1 + 2e-12)], "b": 1e-16, "name": "x"})
    assert not numbers_agree(want, {"a": [1.0, 2.0], "b": 1e-16, "name": "y"})
    assert not numbers_agree(want, {"a": [1.0], "b": 1e-16, "name": "x"})


def test_digests_are_compared_only_under_the_corpus_numpy_and_blas(monkeypatch):
    # a last-bit move is a move under the corpus's own builds, and within
    # 1e-12 relative under another kernel of either BLAS or an unknown one
    build = {"numpy": "OpenBLAS 0.3.31 SkylakeX", "scipy": "OpenBLAS 0.3.30 SkylakeX"}
    monkeypatch.setattr(golden_corpus, "blas_build", lambda: build)
    want = {"argv": ["x"], "basis_digest": None, "results": {"v": 1.0}}
    got = {"argv": ["x"], "basis_digest": None, "results": {"v": 1.0 + 4e-16}}
    corpus = {"numpy": np.__version__, "blas": dict(build), "entries": {"x": want}}
    assert [line.split(":")[0] for line in moved_entries(corpus, {"x": got})] == ["x"]
    assert moved_entries(corpus, {"x": want}) == []
    for package in build:
        corpus["blas"] = {**build, package: "OpenBLAS 0.3 Haswell"}
        assert moved_entries(corpus, {"x": got}) == []
    unknown = {"numpy": "OpenBLAS 0.3.31 SkylakeX", "scipy": None}
    monkeypatch.setattr(golden_corpus, "blas_build", lambda: unknown)
    corpus["blas"] = unknown
    assert moved_entries(corpus, {"x": got}) == []
