"""The golden corpus: every pinned CLI invocation reproduces its results."""

import json
import warnings

import numpy as np

import golden_corpus
from golden_corpus import (
    CORPUS,
    INVOCATIONS,
    blas_build,
    moved_entries,
    numbers_agree,
    run_all,
    same_build,
)


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


def test_numbers_agree_is_relative_to_the_report_scale():
    want = {"a": [1.0, 2.0], "b": 1e-16, "name": "x"}
    assert numbers_agree(want, {"a": [1.0, 2.0 * (1 + 4e-13)], "b": 2e-16, "name": "x"})
    assert not numbers_agree(want, {"a": [1.0, 2.0 * (1 + 2e-12)], "b": 1e-16, "name": "x"})
    assert not numbers_agree(want, {"a": [1.0, 2.0], "b": 1e-16, "name": "y"})
    assert not numbers_agree(want, {"a": [1.0], "b": 1e-16, "name": "x"})


def test_digests_are_compared_only_under_the_corpus_numpy_and_blas(monkeypatch):
    # a last-bit move is a move under the corpus's own build, and within
    # 1e-12 relative under another BLAS kernel or an unknown one
    monkeypatch.setattr(golden_corpus, "blas_build", lambda: "OpenBLAS 0.3 SkylakeX")
    want = {"argv": ["x"], "basis_digest": None, "results": {"v": 1.0}}
    got = {"argv": ["x"], "basis_digest": None, "results": {"v": 1.0 + 4e-16}}
    corpus = {"numpy": np.__version__, "blas": "OpenBLAS 0.3 SkylakeX", "entries": {"x": want}}
    assert [line.split(":")[0] for line in moved_entries(corpus, {"x": got})] == ["x"]
    assert moved_entries(corpus, {"x": want}) == []
    corpus["blas"] = "OpenBLAS 0.3 Haswell"
    assert moved_entries(corpus, {"x": got}) == []
    monkeypatch.setattr(golden_corpus, "blas_build", lambda: None)
    corpus["blas"] = None
    assert moved_entries(corpus, {"x": got}) == []
