"""Report text: canonical_json writes json.dumps's indented bytes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenprod.errors import ParameterError
from eigenprod.reportio import canonical_json
from golden_corpus import CORPUS
from reference import canonical_json_reference

# quotes, backslashes, raw newlines, brackets and non-ASCII: the characters
# that an encoder escapes or that could pass for JSON structure
TEXT = st.text(st.sampled_from('ab"\\\n\t],[{: é \U0001f600\x00'), max_size=8)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7]),
    TEXT,
)
# lists of non-empty scalar rows, as a product report's entries
ROWS = st.lists(st.lists(SCALARS, min_size=1, max_size=4)
                | st.tuples(SCALARS, SCALARS, SCALARS), min_size=1, max_size=6)
TREES = st.recursive(
    SCALARS | ROWS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


@given(TREES)
@settings(max_examples=150, deadline=None)
def test_canonical_json_is_json_dumps_indented(tree):
    assert canonical_json(tree) == canonical_json_reference(tree)


@pytest.mark.parametrize("tree", [
    [], {}, [[]], [[], [1]], [[1], []], [[1, [2]], [3]], [[{"a": 1}], [2]],
    [["],\n      [", "]"], ["["]], {"rows": [[1, 2.5, "x"], (3, -0.0, None)]},
    {"a": [{"b": []}, [True]], "": {"": [[0]]}},
    {"value": np.float64(0.1), "rows": [[np.float64(-0.0)]]},  # greens stores float64s
], ids=repr)
def test_canonical_json_on_edge_shapes(tree):
    assert canonical_json(tree) == canonical_json_reference(tree)


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, [1.0, math.nan], {"rows": [[0.0, -math.inf]]},
    np.int64(3), np.float32(1.5), np.bool_(True), {"a": [1, np.int64(2)]}, [[np.int32(1)]],
    {1: "x"}, {"a": {None: 1}}, {"a": [{2.5: 1}]}, {("t",): 1}, {True: 0},
], ids=repr)
def test_canonical_json_refuses_what_a_report_cannot_hold(bad):
    # non-str keys are refused where json.dumps would convert them
    with pytest.raises(ParameterError):
        canonical_json(bad)


def test_canonical_json_refuses_a_circular_report():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ParameterError):
        canonical_json(loop)


def test_canonical_json_rewrites_the_golden_corpus_unchanged():
    text = CORPUS.read_text(encoding="utf-8")
    assert canonical_json(json.loads(text)) == text
