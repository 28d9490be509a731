"""Tests of the benchmark itself (not of eigenprod).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run; the
smoke runs take over a minute on 2 cores.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def first_ops(name, seed, n=40):
    return list(itertools.islice(workloads.WORKLOADS[name]().ops(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_ops(name, 7) == first_ops(name, 7)
    assert first_ops(name, 7) != first_ops(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_come_in_passes(name):
    turns = [op["turn"] for op in first_ops(name, 3)]
    assert turns[0] == 0 and all(b in (a, a + 1) for a, b in zip(turns, turns[1:]))


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 7] > b [2, 3], b [4, 6]; op > c [8, 9]
    spans = [
        ("op", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 7.0, 0, 0, 0),
        ("b", 2.0, 3.0, 1, 0, 0),
        ("b", 4.0, 6.0, 1, 0, 0),
        ("c", 8.0, 9.0, 0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0]


def test_layer_ratios_and_dim3_sum():
    spans = [
        ("bench.op", 0.0, 10.0, -1, 0, 0),
        ("manifolds.build_basis", 0.0, 4.0, 0, 0, 0),
        ("numerics.sym_generalized_eig", 0.0, 1.0, 1, 0, 3),
        ("numerics.sym_generalized_eig", 1.0, 2.0, 1, 0, 2),
        ("manifolds.load_basis", 4.0, 5.0, 0, 0, 0),
        ("coefficients.expand_product", 5.0, 9.0, 0, 0, 0),
        ("numerics.circle_basis", 5.0, 6.0, 5, 0, 0),
        ("numerics.circle_basis", 6.0, 7.0, 5, 0, 0),
        ("numerics.circle_basis", 9.0, 9.5, 0, 0, 0),
    ]
    metrics = tracing.layer_metrics(spans, n_ops=1)
    assert metrics["numerics.sym_generalized_eig.dim3_sum"][0] == 27 + 8
    assert metrics["manifolds.build_basis.self_s"][0] == 2.0
    assert metrics["cli.builds_per_op"][0] == 1.0
    assert metrics["cli.disk_cache.hit_ratio"][0] == 0.5
    assert metrics["coefficients.profile_evals_per_expand"][0] == 2.0
    assert metrics["numerics.circle_basis.calls"][0] == 3


def test_speedometer_calibrates_spans_second_by_second(monkeypatch):
    import run

    nominal = run.REF_NOMINAL_S
    # One disturbed timing (5x) among unloaded ones, then a step to half speed.
    timings = iter([nominal, 5 * nominal, nominal, nominal, nominal,
                    2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(timings))
    wall = [0.0]
    speed = run.Speedometer(timer=lambda: wall[0])
    for second in range(10):
        wall[0] = float(second)
        speed._sample()
    assert [position for position, _timing in speed.samples] == list(range(10))
    # 0-5 s at full speed (the disturbed timing is smoothed away), then half.
    assert speed.calibrate([(0.0, 5.0), (5.0, 7.0), (4.5, 5.5), (8.0, 12.0)]) == \
        pytest.approx([5.0, 1.0, 0.75, 2.0])


def test_tracer_wraps_lookup_names_and_skips_missing(monkeypatch):
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    lib.leaf = leaf
    user.leaf = leaf
    user.caller = lambda x: user.leaf(x) * 2
    for module in (lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer(package="fakepkg", targets=(("lib", "leaf"), ("lib", "gone")))
    assert tracer.run_op(0, lambda: user.caller(1)) == 4
    assert user.leaf is leaf  # wrappers are removed after the op
    names = [span[0] for span in tracer.spans]
    assert names == [tracing.OP_SPAN, "lib.leaf"]
    assert tracer.spans[1][3] == 0  # the leaf's parent is the op span
    metrics = tracing.layer_metrics(tracer.spans, n_ops=1)
    assert metrics["numerics.sym_generalized_eig.calls"][0] == 0


def test_metric_names_are_well_formed():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in declared)
    assert set(tracing.layer_metrics([], 1)) <= set(declared)


def run_bench(cwd, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    done = run_bench(ROOT, workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(NAME.fullmatch(name) for name in result["metrics"])


def test_smoke_traced_run():
    done = run_bench(ROOT, "cli-warm", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0 and result["metrics"]["trace.ops_per_s.traced"]["value"] > 0
    # The known greens replay defect is reported, not counted as a failed op.
    assert json.loads(lines[-2])["known_defects"]["greens_exit"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "rev-cold", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
