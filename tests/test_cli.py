"""Command-line surface: reports, exit codes, caching, replay, SVG."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

from eigenprod import cli, numerics, remez
from eigenprod.cli import cli_main, config_from_text
from eigenprod.errors import ParameterError
from eigenprod.manifolds import (
    COS,
    SIN,
    FlatTorus,
    RevTorus,
    basis_digest,
    build_basis,
    load_basis,
    model_descriptor,
    save_basis,
)
from eigenprod.reportio import canonical_json, diff_paths
from eigenprod.svgplot import svg_coefficient_plot

TWO_PI = 2.0 * math.pi


def run(tmp_path, *argv):
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    code = cli_main(list(argv) + ["--out", str(out), "--cache", str(cache)])
    return code, out


def read(out, name):
    with open(out / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_basis_command_flat_torus(tmp_path):
    code, out = run(tmp_path, "basis", "--model", "flat-torus", "--dim", "1",
                    "--lambda-max", "3")
    assert code == 0
    doc = read(out, "basis.json")
    assert doc["results"]["mode_count"] == 7
    assert doc["schema"] == "eigenprod-report/1"
    assert doc["provenance"]["basis_digest"] == doc["results"]["digest"]


def test_truncate_command_matches_hand_case(tmp_path):
    code, out = run(tmp_path, "truncate", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3", "--target", "0.99")
    assert code == 0
    doc = read(out, "truncate.json")
    assert doc["results"]["C5"] == 1.0
    assert doc["results"]["captured_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert doc["results"]["sum_lambda"] == 5.0


def test_product_command_csv_and_svg(tmp_path):
    code, out = run(tmp_path, "product", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3", "--csv", "--svg")
    assert code == 0
    assert (out / "product.csv").exists()
    svg = (out / "product.svg").read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "circle" in svg
    doc = read(out, "product.json")
    assert doc["results"]["method"] == "both"
    assert doc["results"]["parseval_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_sphere_four_factor_product_is_exact(tmp_path):
    code, out = run(tmp_path, "product", "--model", "sphere",
                    "--factors", "Y1m1,Y1m1,Y2m0,Y2m0")
    assert code == 0
    results = read(out, "product.json")["results"]
    assert results["method"] == "both"
    assert results["parseval_ratio"] == pytest.approx(1.0, abs=1e-10)


def test_cache_file_with_one_grid_size_exits_2(tmp_path, capsys):
    # a sphere cache file whose header lists one grid size for two chart
    # axes, under a matching digest, is corrupt: exit 2, no traceback
    args = ("basis", "--model", "sphere", "--lambda-max", "2")
    assert run(tmp_path, *args)[0] == 0
    (path,) = (tmp_path / "cache").glob("*.eprd")
    blob = path.read_bytes()
    header_text, _, block = blob[46:].partition(b"\n")
    header = json.loads(header_text)
    header["grid_axis_sizes"] = header["grid_axis_sizes"][:1]
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + block
    path.write_bytes(blob[:6] + hashlib.sha256(body).digest()
                     + struct.pack("<Q", len(body)) + body)
    assert run(tmp_path, *args)[0] == 2
    assert "grid axis sizes" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["descending", "nan"])
def test_cache_file_with_a_bad_lambda_column_exits_2(tmp_path, capsys, damage):
    # a flat-torus cache file whose lambda column is reversed, or holds a
    # NaN, under a matching digest, is corrupt: exit 2, no traceback
    args = ("basis", "--model", "flat-torus", "--dim", "1", "--lambda-max", "3")
    assert run(tmp_path, *args)[0] == 0
    (path,) = (tmp_path / "cache").glob("*.eprd")
    blob = path.read_bytes()
    header_text, _, block = blob[46:].partition(b"\n")
    lams = np.frombuffer(block, dtype="<f8").copy()
    if damage == "descending":
        lams = lams[::-1]
    else:
        lams[-1] = np.nan
    body = header_text + b"\n" + lams.tobytes()
    path.write_bytes(blob[:6] + hashlib.sha256(body).digest()
                     + struct.pack("<Q", len(body)) + body)
    assert run(tmp_path, *args)[0] == 2
    assert "the lambda column is not finite, >= 0 and ascending" in capsys.readouterr().err


def test_cache_warm_equals_cold(tmp_path):
    args = ("product", "--model", "flat-torus", "--dim", "1",
            "--factors", "cos2,cos3")
    code, out = run(tmp_path, *args)
    assert code == 0
    cold = (out / "product.json").read_bytes()
    cache_files = os.listdir(tmp_path / "cache")
    assert any(name.endswith(".eprd") for name in cache_files)
    code, out = run(tmp_path, *args)
    assert code == 0
    assert (out / "product.json").read_bytes() == cold


MODEL_ARGS = {
    "flat1": ("--model", "flat-torus", "--dim", "1"),
    "flat2": ("--model", "flat-torus", "--dim", "2"),
    "sphere": ("--model", "sphere"),
    "rev": ("--model", "rev-torus", "--R", "2", "--r", "1"),
}


def mode_rep(basis, mode_id) -> tuple:
    """Mode ``mode_id``'s entries of the ``basis.reps`` columns as ints, a
    flat torus's rows as tuples."""
    rep = (basis.reps[name][mode_id].tolist() for name in basis.model.rep_names)
    return tuple(tuple(v) if isinstance(v, list) else v for v in rep)


@pytest.mark.parametrize("model, token, names", [
    ("flat1", "const", ((0,), (COS,))),
    ("flat1", "sin2", ((2,), (SIN,))),
    ("flat1", "cos3", ((3,), (COS,))),
    ("flat2", "c1s2", ((1, 2), (COS, SIN))),
    ("sphere", "Y2m-1", (2, -1)),
    ("rev", "2", 2),  # a numeric id names the mode at that position
    ("flat1", "Y2m-1", None),  # a sphere label on a flat torus
    ("sphere", "cos3", None),  # a flat-torus label on the sphere
    ("flat1", "cos200", None),  # beyond the frequency cap (128)
    ("flat1", "cosX", None),  # not a number
    ("flat1", "cos" + "9" * 400, None),  # a frequency beyond floating point range
    ("sphere", "Y2m3", None),  # |m| > l
    ("flat1", "sin0", None),  # a zero frequency has no sine mode
    ("flat1", ",", None),  # no token at all
])
def test_factor_token_grammar(tmp_path, model, token, names):
    code, out = run(tmp_path, "product", *MODEL_ARGS[model], "--factors", token)
    if names is None:
        assert code == 2
        return
    assert code == 0
    doc = read(out, "product.json")
    digest = doc["provenance"]["basis_digest"]
    (basis,) = [b for b in map(load_basis, (tmp_path / "cache").iterdir())
                if basis_digest(b) == digest]
    # a one-factor product is its factor: one unit coefficient
    mode_id = max(doc["results"]["entries"], key=lambda e: abs(e[2]))[0]
    assert (mode_id if isinstance(names, int) else mode_rep(basis, mode_id)) == names


@pytest.mark.parametrize("model, factors, files", [
    ("flat1", "cos2,cos3", 1),
    ("flat2", "c1s2,s2c0", 1),
    ("sphere", "Y2m1,Y1m0,Y2m1", 1),
    ("flat1", "2,cos1", 2),  # a numeric id sizes the basis from a probe
    ("rev", "1,3", 2),
])
def test_label_factors_need_no_probe_basis(tmp_path, monkeypatch, model, factors, files):
    code, out = run(tmp_path / "closed", "product", *MODEL_ARGS[model], "--factors", factors)
    assert code == 0
    assert len(list((tmp_path / "closed" / "cache").glob("*.eprd"))) == files
    # the probe route sizes the same basis, to the bit
    monkeypatch.setattr(cli, "_label_lambdas", lambda model, keys: None)
    code, probed = run(tmp_path / "probed", "product", *MODEL_ARGS[model], "--factors", factors)
    assert code == 0
    assert len(list((tmp_path / "probed" / "cache").glob("*.eprd"))) >= 2
    for key in ("results", "provenance"):
        assert read(out, "product.json")[key] == read(probed, "product.json")[key]


def test_explicit_lambda_max_builds_no_probe_basis(tmp_path, capsys):
    # with --lambda-max, plain ids are resolved on the final basis alone
    argv = ("product", *MODEL_ARGS["rev"], "--lambda-max", "4.5", "--factors")
    code, _out = run(tmp_path / "held", *argv, "1,3")
    assert code == 0
    assert len(list((tmp_path / "held" / "cache").glob("*.eprd"))) == 1
    code, _out = run(tmp_path / "missing", *argv, "1,999")
    assert code == 2
    assert "mode id 999" in capsys.readouterr().err
    assert len(list((tmp_path / "missing" / "cache").glob("*.eprd"))) == 1


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def fresh_python(code, **env):
    """stdout lines of ``code`` run in a fresh interpreter on this checkout,
    with ``env`` added to the environment."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout.splitlines()


def test_parser_is_built_once_and_not_on_import(tmp_path):
    assert fresh_python("import eigenprod.cli as cli; "
                        "print(cli._build_parser.cache_info().misses)") == ["0"]
    cli._build_parser.cache_clear()
    assert run(tmp_path, "product", "--model", "flat-torus", "--no-such-flag")[0] == 2
    for _ in range(3):
        code, out = run(tmp_path, "truncate", *MODEL_ARGS["flat1"], "--factors", "cos2,cos3")
        assert code == 0
    assert read(out, "truncate.json")["results"]["C5"] == 1.0
    assert cli._build_parser.cache_info().misses == 1


def test_import_loads_no_scipy():
    # scipy is imported by the first eigensolve, not by the package
    assert fresh_python(f"import sys, eigenprod, eigenprod.cli; print({SCIPY_LOADED})") \
        == ["[]"]


@pytest.mark.parametrize("argv", [
    ("product", *MODEL_ARGS["flat2"], "--factors", "c1s2,s2c0"),
    ("product", *MODEL_ARGS["sphere"], "--factors", "Y2m1,Y1m0,Y2m1"),
    # plain ids: the probe basis and the final basis both come from the cache
    ("decay", *MODEL_ARGS["rev"], "--factors", "1,1", "--lambda-max-mult", "5"),
], ids=["flat2-product", "sphere-product", "rev-decay"])
def test_cache_hits_load_no_scipy(tmp_path, argv):
    argv = [*argv, "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache")]
    assert cli_main(argv) == 0
    filled = sorted((tmp_path / "cache").iterdir())
    lines = fresh_python(f"import sys; from eigenprod.cli import cli_main; "
                         f"code = cli_main({argv!r}); print(code); print({SCIPY_LOADED})")
    assert lines[-2:] == ["0", "[]"]
    assert sorted((tmp_path / "cache").iterdir()) == filled


def test_rev_build_in_a_fresh_process_loads_scipy():
    # the LAPACK extension alone is loaded, without scipy.linalg's package
    lines = fresh_python(
        f"import sys; from eigenprod import RevTorus, basis_digest, build_basis; "
        f"before = {SCIPY_LOADED}; digest = basis_digest(build_basis(RevTorus(2.0, 1.0), 3.0)); "
        f"print(before); print({SCIPY_LOADED}); print('scipy.linalg' in sys.modules); "
        f"print(digest)")
    assert lines[:3] == ["[]", "['scipy.linalg._flapack']", "False"]
    assert lines[3] == basis_digest(build_basis(RevTorus(2.0, 1.0), 3.0))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the peak resident set is read from /proc/self/status")
def test_rev_build_in_a_fresh_process_grows_peak_rss_by_less_than_12_mb():
    # importing scipy.linalg's whole package for its LAPACK routines grew
    # the peak by about 25 MB; the extension alone costs a few MB.  VmHWM is
    # the peak of this process's own memory: ru_maxrss would start from the
    # peak of the process that spawned it, which exec carries over
    lines = fresh_python(
        "import eigenprod; from eigenprod import RevTorus, build_basis; "
        "peak = lambda: int(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:'))); "
        "before = peak(); build_basis(RevTorus(2.0, 1.0), 3.0); print(peak() - before)")
    assert int(lines[0]) < 12 * 1024  # kB


def test_lapack_loaded_first_is_the_one_scipy_linalg_imports():
    # scipy.linalg.lapack re-exports the routines of the extension that the
    # loader put into sys.modules; scipy.linalg keeps working around it
    lines = fresh_python(
        "from eigenprod import numerics; lapack = numerics._lapack(); "
        "import numpy as np, scipy.linalg, scipy.linalg.lapack as scipy_lapack; "
        "print([getattr(lapack, name) is getattr(scipy_lapack, name) "
        "for name in ('dpotrf', 'dtrtri', 'dsyevr', 'dsyevr_lwork')]); "
        "print(scipy.linalg.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))[0].tolist())")
    assert lines == ["[True, True, True, True]", "[1.0, 3.0]"]


@pytest.mark.parametrize("routine, info, message", [
    ("dsyevr_lwork", -1, "dsyevr workspace query failed (info=-1)"),
    ("dsyevr", 7, "dsyevr failed (info=7)"),
])
def test_a_failed_dsyevr_exits_3(tmp_path, capsys, monkeypatch, routine, info, message):
    # LAPACK's info != 0 reaches the CLI as a numerical breakdown; the
    # planted routine runs the real one and replaces its info, the last value
    real = numerics._lapack()
    fake = types.SimpleNamespace(**{name: getattr(real, name)
                                    for name in ("dpotrf", "dtrtri", "dsyevr_lwork", "dsyevr")})
    setattr(fake, routine,
            lambda *args, **kwargs: (*getattr(real, routine)(*args, **kwargs)[:-1], info))
    monkeypatch.setattr(numerics, "_lapack", lambda: fake)
    capsys.readouterr()
    code, _out = run(tmp_path, "decay", *MODEL_ARGS["rev"], "--factors", "1,3",
                     "--lambda-max-mult", "5")
    assert code == 3
    assert capsys.readouterr().err == f"numerical breakdown: {message}\n"
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_rev_product_results_do_not_depend_on_blas_threads(tmp_path):
    # the rev oracle convolves and dots without BLAS, and so do the s rows
    # of a lattice; the whole report, norms included, must keep its bits
    # at any thread count.  Each count builds its bases in a fresh process
    results = []
    for threads in ("1", "2"):
        cache = ["--cache", str(tmp_path / threads / "cache")]
        runs = [["product", *MODEL_ARGS["rev"], "--factors", factors,
                 "--out", str(tmp_path / threads / factors), *cache]
                for factors in ("1,3", "1,2,3")]
        runs.append(["good-set", *MODEL_ARGS["rev"], "--factors", "1,2,3", "--center", "2,2",
                     "--side", "1", "--out", str(tmp_path / threads / "good-set"), *cache])
        fresh_python(f"from eigenprod.cli import cli_main; "
                     f"assert [cli_main(argv) for argv in {runs!r}] == [0, 0, 0]",
                     OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        results.append([read(tmp_path / threads / factors, "product.json")["results"]
                        for factors in ("1,3", "1,2,3")]
                       + [read(tmp_path / threads / "good-set", "good-set.json")["results"]])
    assert [r["method"] for r in results[0][:2]] == ["both", "both"]
    assert results[0] == results[1]


def test_extension_params_command(tmp_path):
    code, out = run(tmp_path, "extension-params", "--model", "flat-torus",
                    "--dim", "1")
    assert code == 0
    doc = read(out, "extension-params.json")
    assert doc["results"]["delta0"] == pytest.approx(32.0 * math.e**2, rel=1e-12)


def test_greens_command(tmp_path):
    code, out = run(tmp_path, "greens", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3", "--heights", "0.003,0.006")
    assert code == 0
    doc = read(out, "greens.json")
    assert doc["results"]["max_error"] <= 1e-8


def test_greens_replay_check_passes(tmp_path):
    code, out = run(tmp_path, "greens", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3", "--heights", "0.003,0.006")
    assert code == 0
    code2, out2 = run(tmp_path, "report", "--replay", str(out / "greens.json"),
                      "--check")
    assert code2 == 0
    assert read(out2, "replay-greens.json")["results"] == \
        read(out, "greens.json")["results"]


@pytest.mark.parametrize("argv", [("--dim", "2", "--factors", "c0c0"),
                                  ("--dim", "1", "--factors", "const,const")],
                         ids=["flat2", "flat1"])
def test_greens_on_a_basis_without_positive_lambda_exits_2(tmp_path, capsys, argv):
    # a product of constants sizes a basis of the constant alone, whose
    # boundary identity has no mode to recover
    code, out = run(tmp_path, "greens", "--model", "flat-torus", *argv)
    assert code == 2
    assert capsys.readouterr().err == \
        "error: the basis has no mode with lambda > 0 left to recover\n"
    assert not (out / "greens.json").exists()


@pytest.mark.parametrize("model", [("--model", "rev-torus", "--R", "2", "--r", "1"),
                                   ("--model", "sphere")], ids=["rev", "sphere"])
def test_greens_refuses_a_curved_model_before_any_basis(tmp_path, capsys, model):
    code, out = run(tmp_path, "greens", *model, "--factors",
                    "1,3" if "rev-torus" in model else "Y1m0,Y2m1")
    assert code == 2
    assert capsys.readouterr().err == \
        "error: the explicit cosh extension exists only on the flat torus\n"
    assert not (out / "greens.json").exists()
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def _write_version1_cache(cache_dir, model, lambda_max, stale):
    """Store ``stale`` as a format-1 file under the key of the format-1
    CLI, which hashed only the model descriptor and lambda_max."""
    blob = json.dumps({"model": model_descriptor(model),
                       "lambda_max": float(lambda_max).hex()},
                      sort_keys=True).encode()
    path = cache_dir / f"{hashlib.sha256(blob).hexdigest()[:24]}.eprd"
    save_basis(stale, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 1)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("argv, lambdas", [
    (("basis", "--lambda-max", "3"), (3.0,)),
    (("product", "--factors", "cos2,cos3"), (2.0, 4.0, 10.0)),
], ids=["basis", "product"])
def test_version1_cache_files_are_not_served(tmp_path, argv, lambdas):
    model = FlatTorus(1, (TWO_PI,))
    head = ("--model", "flat-torus", "--dim", "1")
    code, clean = run(tmp_path / "clean", argv[0], *head, *argv[1:])
    assert code == 0
    stale_dir = tmp_path / "stale"
    (stale_dir / "cache").mkdir(parents=True)
    stale = build_basis(model, 12.0)
    for lam in lambdas:
        _write_version1_cache(stale_dir / "cache", model, lam, stale)
    code, out = run(stale_dir, argv[0], *head, *argv[1:])
    assert code == 0
    for key in ("results", "provenance"):
        assert read(out, f"{argv[0]}.json")[key] == read(clean, f"{argv[0]}.json")[key]


def test_doubling_command(tmp_path):
    code, out = run(tmp_path, "doubling", "--function", "power:3",
                    "--center", "0,0", "--radius", "0.3")
    assert code == 0
    doc = read(out, "doubling.json")
    assert doc["results"]["index"] == pytest.approx(3.0 * math.log(2.0), abs=1e-6)


def test_remez_command_linear(tmp_path):
    code, out = run(tmp_path, "remez", "--function", "linear", "--center", "0",
                    "--side", "2")
    assert code == 0
    doc = read(out, "remez.json")
    assert doc["results"]["beta_hat"] == pytest.approx(math.log(2.0), rel=0.02)


@pytest.mark.parametrize("argv", [
    ("remez", "--function", "power:1100", "--center", "0,0", "--side", "4"),
    ("doubling", "--function", "power:1100", "--center", "0,0", "--radius", "2"),
])
def test_non_finite_sup_exits_2_before_the_measures(tmp_path, monkeypatch, capsys, argv):
    # (x + iy)^1100 overflows on the outer cube: the command stops where
    # that sup is taken, naming it, and evaluates no measure lattice
    def measure_axes(*args):
        raise AssertionError("a measure lattice was evaluated")

    monkeypatch.setattr(remez, "_measure_axes", measure_axes)
    with np.errstate(all="ignore"):
        code, out = run(tmp_path, *argv)
    assert code == 2
    assert "sampled sup on the cube of half-side 2 about (0.0, 0.0) is inf" \
        in capsys.readouterr().err
    assert not (out / f"{argv[0]}.json").exists()


def test_good_set_command(tmp_path):
    code, out = run(tmp_path, "good-set", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos1,cos2", "--center", "0", "--side", "2")
    assert code == 0
    doc = read(out, "good-set.json")
    assert doc["results"]["measure_e"] >= 0.5 * doc["results"]["measure_half_cube"]


def test_replay_reproduces_numeric_fields(tmp_path):
    code, out = run(tmp_path, "truncate", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3", "--target", "0.99")
    assert code == 0
    code2, out2 = run(tmp_path, "report", "--replay", str(out / "truncate.json"),
                      "--check")
    assert code2 == 0
    original = read(out, "truncate.json")
    replayed = read(out2, "replay-truncate.json")
    assert diff_paths(original["results"], replayed["results"]) == []
    assert original["provenance"]["basis_digest"] == \
        replayed["provenance"]["basis_digest"]


def test_replay_check_flags_tampering(tmp_path):
    code, out = run(tmp_path, "truncate", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3")
    assert code == 0
    doc = read(out, "truncate.json")
    doc["results"]["captured_ratio"] = 0.5
    (out / "tampered.json").write_text(json.dumps(doc))
    code2, _ = run(tmp_path, "report", "--replay", str(out / "tampered.json"),
                   "--check")
    assert code2 == 3


def test_replay_names_a_mismatched_basis_digest(tmp_path, capsys):
    code, out = run(tmp_path, "truncate", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos2,cos3")
    assert code == 0
    doc = read(out, "truncate.json")
    doc["provenance"]["basis_digest"] = "0" * 64
    (out / "old-digest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code2, _ = run(tmp_path, "report", "--replay", str(out / "old-digest.json"), "--check")
    assert code2 == 3
    assert "replay mismatch at 1 fields: provenance.basis_digest" in capsys.readouterr().err


def test_validation_exit_code(tmp_path):
    code, _ = run(tmp_path, "truncate", "--model", "flat-torus", "--dim", "1",
                  "--factors", "cos999")
    assert code == 2
    code, _ = run(tmp_path, "basis", "--model", "rev-torus", "--R", "1.0",
                  "--r", "2.0", "--lambda-max", "2")
    assert code == 2


def test_unknown_flag_exit_code():
    assert cli_main(["truncate", "--definitely-not-a-flag"]) == 2


def test_config_file_round_trip(tmp_path):
    text = "\n".join([
        "[run]", "command = truncate",
        "[model]", "dim = 1", "kind = flat-torus", f"periods = {TWO_PI!r}",
        "[params]", "factors = cos2,cos3", "target = 0.99",
    ]) + "\n"
    parsed = config_from_text(text)
    assert parsed["command"] == "truncate"
    assert parsed["model"]["dim"] == 1
    assert parsed["model"]["periods"] == [TWO_PI]
    assert parsed["params"]["target"] == 0.99


def test_config_file_drives_run(tmp_path):
    text = "\n".join([
        "[run]", "command = truncate",
        "[model]", "kind = flat-torus", "dim = 1",
        "[params]", "factors = cos2,cos3", "target = 0.99", ""])
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    code, out = run(tmp_path, "truncate", "--config", str(cfg_path))
    assert code == 0
    assert read(out, "truncate.json")["results"]["C5"] == 1.0


def test_config_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        config_from_text("[run]\ncommand = truncate\n[params2]\nx = 1\n")
    # [model] keys are checked against the kind when the section is read
    with pytest.raises(ParameterError):
        cli._model_from_config(config_from_text(
            "[run]\ncommand = truncate\n[model]\nbogus = 1\n")["model"])
    with pytest.raises(ParameterError):
        config_from_text("[run]\ncommand = not-a-command\n")


@pytest.mark.parametrize("command, config_text, named", [
    # a misspelt flag dest would otherwise run on the default-sized basis
    ("truncate", "[run]\ncommand = truncate\n[model]\nkind = flat-torus\ndim = 1\n"
                 "[params]\nfactors = cos2,cos3\nlamda_max = 40\n", "'lamda_max'"),
    # a real flag of another command
    ("product", "[run]\ncommand = product\n[model]\nkind = flat-torus\ndim = 1\n"
                "[params]\nfactors = cos2,cos3\ntarget = 0.5\n", "'target'"),
    ("truncate", "[run]\ncommand = truncate\n[model]\nkind = sphere\nR = 2\n"
                 "[params]\nfactors = Y1m0,Y1m1\n", "'R'"),
    ("truncate", "[run]\ncommand = truncate\n[model]\nkind = flat-torus\ndim = 1\n"
                 "r = 1\n[params]\nfactors = cos2,cos3\n", "'r'"),
    ("remark-s2", "[run]\ncommand = remark-s2\n[model]\nkind = sphere\n", "takes no model"),
    # checked although a closed-form function never reads the model
    ("remez", "[run]\ncommand = remez\n[model]\nkind = sphere\nR = 2\n"
              "[params]\nfunction = linear\n", "'R'"),
], ids=["misspelt", "another-commands-flag", "sphere-R", "flat-r", "model-free-command",
        "unread-model"])
def test_config_keys_the_command_or_model_does_not_take_exit_2(tmp_path, capsys, command,
                                                                config_text, named):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    code, out = run(tmp_path, command, "--config", str(cfg_path))
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("params", "lamda_max", 40.0),
    ("params", "replay", "x.json"),
    ("model", "R", 2.0),
], ids=["misspelt", "report-flag", "sphere-R"])
def test_replay_of_a_key_the_run_does_not_take_exits_2(tmp_path, capsys, section, key, value):
    code, out = run(tmp_path, "truncate", "--model", "sphere", "--factors", "Y1m0,Y1m1")
    assert code == 0
    doc = read(out, "truncate.json")
    doc["config"][section][key] = value
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code2, _ = run(tmp_path, "report", "--replay", str(tmp_path / "edited.json"), "--check")
    assert code2 == 2
    assert repr(key) in capsys.readouterr().err
    assert not (out / "replay-truncate.json").exists()


@pytest.mark.parametrize("argv, named", [
    (("--model", "sphere", "--R", "2", "--factors", "Y1m0,Y1m1"), "model sphere takes no --R"),
    (("--model", "sphere", "--dim", "2", "--factors", "Y1m0,Y1m1"), "model sphere takes no --dim"),
    (("--model", "flat-torus", "--dim", "1", "--r", "1", "--factors", "cos1,cos2"),
     "model flat-torus takes no --r"),
    (("--model", "rev-torus", "--R", "2", "--r", "1", "--periods", "1,2", "--factors", "1,1"),
     "model rev-torus takes no --periods"),
    (("--dim", "1", "--factors", "cos1,cos2"), "--dim needs --model"),
    (("--R", "2", "--r", "1", "--factors", "1,1"), "--R needs --model"),
], ids=["sphere-R", "sphere-dim", "flat-r", "rev-periods", "flat-without-model",
        "rev-without-model"])
def test_model_flags_the_model_does_not_take_exit_2(tmp_path, capsys, argv, named):
    # a dropped flag would run without it, and the report would not show it
    code, out = run(tmp_path, "product", *argv)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_a_model_flag_beside_a_config_files_model_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[run]\ncommand = product\n[model]\nkind = rev-torus\nR = 2\nr = 1\n"
                        "[params]\nfactors = 1,1\n")
    code, out = run(tmp_path, "product", "--config", str(cfg_path), "--R", "3")
    assert code == 2
    assert "--R needs --model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (("remez", "--function", "linear", "--model", "flat-torus", "--dim", "2"),
     "--function linear reads no model"),
    (("remez", "--function", "power:2", "--center", "0,0", "--model", "sphere"),
     "--function power:2 reads no model"),
    (("doubling", "--function", "power:3", "--center", "0,0", "--model", "flat-torus",
      "--dim", "2"), "--function power:3 reads no model"),
    (("doubling", "--model", "sphere"), "--function linear reads no model"),
    (("lower-bound", "--family", "rotated-s2", "--model", "sphere"),
     "--family rotated-s2 reads no model"),
], ids=["remez-linear", "remez-power", "doubling-power", "doubling-default", "rotated-s2"])
def test_a_model_the_run_never_reads_exits_2(tmp_path, capsys, argv, named):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_replay_of_a_model_the_run_never_reads_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, "doubling", "--function", "power:2", "--center", "0,0")
    assert code == 0
    doc = read(out, "doubling.json")
    assert doc["config"]["model"] is None
    doc["config"]["model"] = {"kind": "sphere"}
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code2, _ = run(tmp_path, "report", "--replay", str(tmp_path / "edited.json"), "--check")
    assert code2 == 2
    assert "reads no model" in capsys.readouterr().err
    assert not (out / "replay-doubling.json").exists()


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_flat_torus_dimension_outside_1_and_2_exits_2(tmp_path, capsys, dim):
    # --dim 0 is refused like --dim 3, not read as the default 1-d torus
    code, out = run(tmp_path, "basis", "--model", "flat-torus", f"--dim={dim}",
                    "--lambda-max", "2")
    assert code == 2
    assert "flat torus dimension must be 1 or 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["remez", "doubling"])
@pytest.mark.parametrize("spec", ["mode:cos1,cos9", "mode:cos1,", "mode:"])
def test_function_mode_names_exactly_one_mode(tmp_path, capsys, command, spec):
    code, out = run(tmp_path, command, "--function", spec, "--model", "flat-torus",
                    "--dim", "1", "--center", "0.3")
    assert code == 2
    assert f"--function {spec} must name exactly one mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, token", [
    (("--model", "flat-torus", "--dim", "1", "--factors", "\u00b2,1"), "\u00b2"),
    (("--model", "flat-torus", "--dim", "1", "--factors=--1,1"), "--1"),
    (("--model", "flat-torus", "--dim", "1", "--factors", "cos1_0,cos1"), "cos1_0"),
    (("--model", "flat-torus", "--dim", "1", "--factors", "cos\u0663,cos1"), "cos\u0663"),
    (("--model", "flat-torus", "--dim", "2", "--factors", "c 1s2,c1c1"), "c 1s2"),
    (("--model", "sphere", "--factors", "Y+2m-1,Y1m0"), "Y+2m-1"),
    # more digits than int() reads
    (("--model", "sphere", "--factors", "1" * 5000), "1" * 5000),
], ids=["superscript", "double-minus", "underscore", "arabic-indic", "space", "plus",
        "digit-limit"])
def test_factor_tokens_outside_the_ascii_grammar_exit_2(tmp_path, capsys, argv, token):
    code, out = run(tmp_path, "product", *argv)
    assert code == 2
    assert f"cannot parse factor token {token!r}" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_json_is_deterministic_and_round_trip_safe():
    payload = {"b": [1.0, 0.1, 12345.678901234567], "a": {"x": True, "y": None}}
    text1 = canonical_json(payload)
    text2 = canonical_json(payload)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["b"][2] == 12345.678901234567
    assert parsed == payload
    with pytest.raises(ParameterError):
        canonical_json({"bad": float("inf")})


def test_svg_determinism_and_single_point():
    lams = np.array([1.0, 2.0, 3.0])
    mags = np.exp(-0.5 * lams)
    one = svg_coefficient_plot(lams, mags, envelope=(0.5, 0.0))
    two = svg_coefficient_plot(lams, mags, envelope=(0.5, 0.0))
    assert one == two
    assert 'class="envelope"' in one
    solo = svg_coefficient_plot([2.0], [0.25])
    assert 'class="envelope"' not in solo
    assert solo.count("<circle") == 1
    with pytest.raises(ParameterError):
        svg_coefficient_plot([1.0], [0.0])


def test_remark_command(tmp_path):
    code, out = run(tmp_path, "remark-s2", "--k-min", "2", "--k-max", "6")
    assert code == 0
    doc = read(out, "remark-s2.json")
    norms = [n for _k, n in doc["results"]["samples"]]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_lower_bound_command_self_family(tmp_path):
    code, out = run(tmp_path, "lower-bound", "--model", "flat-torus", "--dim", "1",
                    "--family", "self", "--k-min", "1", "--k-max", "8")
    assert code == 0
    doc = read(out, "lower-bound.json")
    expected = math.sqrt(3.0) / (2.0 * math.sqrt(math.pi))
    for _s, norm in doc["results"]["samples"]:
        assert norm == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("pairs", [
    ("cos1,cos1", "cos2,cos2", "cos3,cos3", "cos9,cos9"),
    ("1,1", "3,3", "5,5", "17,17"),  # the same modes by id, sized through the probe
], ids=["labels", "ids"])
def test_lower_bound_pairs_size_from_every_group(tmp_path, pairs):
    docs = []
    for name, order in (("last", pairs), ("first", pairs[-1:] + pairs[:-1])):
        code, out = run(tmp_path / name, "lower-bound", "--model", "flat-torus", "--dim", "1",
                        "--family", "pairs", "--pairs", ";".join(order))
        assert code == 0
        docs.append(read(out, "lower-bound.json"))
    assert docs[0]["provenance"]["basis_digest"] == docs[1]["provenance"]["basis_digest"]
    assert sorted(docs[0]["results"]["samples"]) == sorted(docs[1]["results"]["samples"])


LOWER_BOUND = ("lower-bound", "--model", "flat-torus", "--dim", "1")


@pytest.mark.parametrize("argv, message", [
    ((*LOWER_BOUND, "--family", "self", "--k-min", "5", "--k-max", "2"),
     "--k-min must not exceed --k-max"),
    ((*LOWER_BOUND, "--family", "pairs", "--pairs", ",;,"), "--pairs names no pair"),
    # remark-s2 words its exponent range as lower-bound does
    (("remark-s2", "--k-min", "5", "--k-max", "3"), "--k-min must not exceed --k-max"),
], ids=["k-range", "comma-pairs", "remark-s2-k-range"])
def test_lower_bound_errors_name_its_own_flags(tmp_path, capsys, argv, message):
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert message in capsys.readouterr().err


def test_lower_bound_rotated_pairs_reject_negative_degrees(tmp_path):
    code, out = run(tmp_path, "lower-bound", "--family", "rotated-s2",
                    "--l-min", "-6", "--l-max", "-2")
    assert code == 2
    assert not (out / "lower-bound.json").exists()


@pytest.mark.parametrize("argv, named", [
    (("--family", "rotated-s2", "--l-min", "2", "--l-max", "6", "--k-min", "3"),
     "--family rotated-s2 reads no --k-min"),
    (("--family", "rotated-s2", "--lambda-max", "9"), "--family rotated-s2 reads no --lambda-max"),
    ((*LOWER_BOUND[1:], "--family", "self", "--pairs", "1,1"), "--family self reads no --pairs"),
    ((*LOWER_BOUND[1:], "--family", "self", "--l-max", "4"), "--family self reads no --l-max"),
    ((*LOWER_BOUND[1:], "--family", "pairs", "--pairs", "1,1", "--k-max", "4"),
     "--family pairs reads no --k-max"),
], ids=["rotated-k-min", "rotated-lambda-max", "self-pairs", "self-l-max", "pairs-k-max"])
def test_lower_bound_flag_its_family_never_reads_exits_2(tmp_path, capsys, argv, named):
    code, out = run(tmp_path, "lower-bound", *argv)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_lower_bound_config_and_replay_of_a_param_its_family_never_reads_exit_2(
        tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[run]\ncommand = lower-bound\n"
                        "[params]\nfamily = rotated-s2\nl_max = 6\npairs = 1,2\n")
    code, out = run(tmp_path, "lower-bound", "--config", str(cfg_path))
    assert code == 2
    assert "--family rotated-s2 reads no --pairs" in capsys.readouterr().err
    assert not out.exists()
    code, out = run(tmp_path, "lower-bound", "--family", "rotated-s2", "--l-max", "6")
    assert code == 0
    doc = read(out, "lower-bound.json")
    doc["config"]["params"]["k_min"] = 3
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, _ = run(tmp_path, "report", "--replay", str(tmp_path / "edited.json"), "--check")
    assert code == 2
    assert "--family rotated-s2 reads no --k-min" in capsys.readouterr().err
    assert not (out / "replay-lower-bound.json").exists()


def test_decay_command_rev_torus(tmp_path):
    code, out = run(tmp_path, "decay", "--model", "rev-torus", "--R", "2",
                    "--r", "1", "--factors", "1,3", "--lambda-max-mult", "6",
                    "--csv", "--svg")
    assert code == 0
    doc = read(out, "decay.json")
    assert doc["results"]["c_hat"] > 0.0
    assert doc["results"]["r_squared"] >= 0.9
    assert (out / "decay.csv").exists()
    assert (out / "decay.svg").exists()


@pytest.mark.parametrize("factors", ["1,3", "2,3"])
def test_decay_sizes_its_basis_with_its_own_multiple(tmp_path, factors):
    # without sizing flags the basis must reach the 6 x sum-lambda cut of
    # the series, so the run equals one with the multiple given explicitly
    head = ("decay", "--model", "rev-torus", "--R", "2", "--r", "1", "--factors", factors)
    code, out = run(tmp_path / "default", *head)
    assert code == 0
    results = read(out, "decay.json")["results"]
    assert results["c_hat"] > 0.0
    assert results["r_squared"] >= 0.9
    code, explicit = run(tmp_path / "explicit", *head, "--lambda-max-mult", "6")
    assert code == 0
    assert read(explicit, "decay.json")["results"] == results


@pytest.mark.parametrize("sizing", [("--lambda-max", "1.2"), ("--lambda-max-mult", "0.5"),
                                    ("--lambda-max-mult", "-1")],
                         ids=["below-sum", "mult-half", "mult-negative"])
def test_decay_refuses_a_series_that_stops_at_the_frequency_sum(tmp_path, sizing):
    # (1, 3) has sum lambda 1.39: a series cut at or below it has no tail,
    # which is not a band limit
    code, out = run(tmp_path, "decay", "--model", "rev-torus", "--R", "2", "--r", "1",
                    "--factors", "1,3", *sizing)
    assert code == 2
    assert not (out / "decay.json").exists()


@pytest.mark.parametrize("argv", [
    ("--model", "sphere", "--lambda-max", "1e200"),
    ("--model", "flat-torus", "--dim", "1", "--periods", "1e10", "--lambda-max", "1e308"),
], ids=["sphere", "flat1"])
def test_basis_past_the_cap_at_huge_lambda_max_exits_2(tmp_path, argv, capsys):
    code, out = run(tmp_path, "basis", *argv)
    assert code == 2
    assert "cap" in capsys.readouterr().err
    assert not (out / "basis.json").exists()


def test_basis_on_a_thin_neck_past_the_truncation_cap_exits_2(tmp_path, capsys):
    # R / r = 1.02: the strip width arccosh(1.02) = 0.20 asks for N = 184
    code, out = run(tmp_path, "basis", "--model", "rev-torus", "--R", "1.02", "--r", "1",
                    "--lambda-max", "2")
    assert code == 2
    assert "truncation N=184 exceeds cap 128" in capsys.readouterr().err
    assert not (out / "basis.json").exists()
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_basis_with_an_overflowing_radius_exits_2(tmp_path, capsys):
    # 2 pi R overflows: the geometry is refused before any solve
    code, out = run(tmp_path, "basis", "--model", "rev-torus", "--R", "1e308", "--r", "1",
                    "--lambda-max", "0")
    assert code == 2
    assert "major radius 1e+308" in capsys.readouterr().err
    assert not (out / "basis.json").exists()


def _modes(basis) -> list:
    return [(float(basis.lams[i]), mode_rep(basis, i)) for i in range(basis.size)]


def test_cached_basis_serves_hits_and_rebuilds_mismatched_files(tmp_path, monkeypatch):
    model = FlatTorus(1, (TWO_PI,))
    cache = str(tmp_path / "cache")
    first = cli._cached_basis(model, 3.0, cache)
    (path,) = (tmp_path / "cache").iterdir()

    def no_build(*_args, **_kwargs):
        raise AssertionError("a matching cache file must be served")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_basis", no_build)
        assert _modes(cli._cached_basis(model, 3.0, cache)) == _modes(first)
    # a file under the right key that holds another request is a miss
    for stale in (build_basis(model, 5.0), build_basis(FlatTorus(1, (3.0,)), 3.0)):
        save_basis(stale, path)
        served = cli._cached_basis(model, 3.0, cache)
        assert served.model == model and served.lambda_max == 3.0
        assert _modes(served) == _modes(first)
        assert load_basis(path).lambda_max == 3.0  # overwritten with the rebuild


def test_positional_id_guard_rejects_a_mode_shift():
    model = RevTorus(2.0, 1.0)
    probe = build_basis(model, 2.0)
    final = build_basis(model, 3.0)
    cli._check_positional_ids(probe, final, [1, 2], (1, 2))
    # the same ids against a final basis whose modes 1 and 2 swapped places
    swap = np.array([0, 2, 1, *range(3, final.size)])
    shifted = dataclasses.replace(final, lams=final.lams[swap],
                                  reps={name: column[swap] for name, column in final.reps.items()})
    assert mode_rep(probe, 1) != mode_rep(shifted, 1)
    with pytest.raises(ParameterError):
        cli._check_positional_ids(probe, shifted, [1, 2], (1, 2))
    # same representation, lambda off by more than 1e-9 relative
    lams = final.lams.copy()
    lams[2] *= 1.0 + 1e-8
    shifted = dataclasses.replace(final, lams=lams)
    with pytest.raises(ParameterError):
        cli._check_positional_ids(probe, shifted, [2], (2,))


@pytest.mark.parametrize("argv, config_text", [
    (("basis", "--model", "flat-torus", "--periods", "", "--lambda-max", "4"), None),
    (("basis", "--model", "flat-torus", "--periods", "1,x", "--lambda-max", "4"), None),
    (("truncate",), "[run]\ncommand = truncate\n[model]\nkind = flat-torus\n"
                    "dim = 2\nperiods = 1,q\n[params]\nfactors = c1c0\n"),
    (("remez", "--function", "linear", "--center", "x"), None),
    (("greens", "--model", "flat-torus", "--dim", "1", "--factors", "cos2,cos3",
      "--heights", "0.003,y"), None),
    (("remez", "--function", "power:x"), None),
    (("truncate",), "[run]\ncommand = truncate\n[model]\nkind = flat-torus\ndim = 1\n"
                    "[params]\nfactors = cos2,cos3\ntarget = abc\n"),
    (("remez",), "[run]\ncommand = remez\n[params]\nfunction = linear\nside = x\n"),
    (("remark-s2",), "[run]\ncommand = remark-s2\n[params]\nk_min = x\n"),
    (("basis",), "[run]\ncommand = basis\n[model]\nkind = flat-torus\ndim = x\n"
                 "[params]\nlambda_max = 3\n"),
    (("basis",), "[run]\ncommand = basis\n[model]\nkind = rev-torus\nR = x\nr = 1\n"
                 "[params]\nlambda_max = 3\n"),
    (("basis",), "[run]\ncommand = basis\n[model]\nkind = rev-torus\nR = 2\nr = q\n"
                 "[params]\nlambda_max = 3\n"),
    (("remark-s2",), "[run]\ncommand = remark-s2\n[params]\nk_min = 1.7\n"),
    (("basis",), "[run]\ncommand = basis\n[model]\nkind = flat-torus\ndim = 2.5\n"
                 "[params]\nlambda_max = 3\n"),
], ids=["empty-period", "period", "config-period", "center", "height", "power",
        "config-target", "config-side", "config-k-min", "config-dim", "config-R",
        "config-r", "config-k-min-fraction", "config-dim-fraction"])
def test_malformed_numbers_exit_2(tmp_path, capsys, argv, config_text):
    if config_text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config_text)
        argv = (*argv, "--config", str(path))
    code, _ = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, content", [
    (("product", "--config", "{path}"), None),
    (("report", "--replay", "{path}"), None),
    (("report", "--replay", "{tmp}"), None),
    (("report", "--replay", "{path}"), b"not json"),
    (("report", "--replay", "{path}"), b"\xff\xfe"),
    (("report", "--replay", "{path}"), b"[1, 2]"),
    (("report", "--replay", "{path}"), b'{"config": {"model": null, "params": {}}}'),
    (("report", "--replay", "{path}"), b'{"config": {"command": "basis", "params": {}}}'),
    (("report", "--replay", "{path}"), b'{"config": {"command": "basis", "model": null, '
                                       b'"params": [1]}}'),
    (("report", "--replay", "{path}"), b'{"config": {"command": "basis", "model": "sphere", '
                                       b'"params": {"lambda_max": 2}}}'),
    (("report", "--replay", "{path}"), b'{"config": {"command": "basis", "model": '
                                       b'{"kind": "sphere"}, "params": {"lambda_max": 2}}, '
                                       b'"provenance": []}'),
], ids=["config-missing", "replay-missing", "replay-directory", "replay-not-json",
        "replay-not-utf8", "replay-list", "replay-no-command", "replay-no-model",
        "replay-params-list", "replay-model-string", "replay-provenance-list"])
def test_unreadable_run_inputs_exit_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    code, _ = run(tmp_path, *(a.format(path=path, tmp=tmp_path) for a in argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("basis", "--model", "sphere"),
    ("basis", "--lambda-max", "2"),
    ("product", "--model", "flat-torus", "--dim", "1"),
    ("decay", "--model", "flat-torus", "--dim", "1"),
    ("truncate", "--model", "flat-torus", "--dim", "1"),
    ("lower-bound", "--model", "flat-torus", "--dim", "1", "--family", "pairs"),
    ("lower-bound", "--model", "flat-torus", "--dim", "1", "--family", "pairs",
     "--pairs", ";"),
], ids=["basis-lambda-max", "basis-model", "product-factors", "decay-factors", "truncate-factors",
        "lower-bound-pairs", "lower-bound-empty-pairs"])
def test_missing_required_params_exit_2(tmp_path, capsys, argv):
    code, _ = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("side", ["0", "-2"])
def test_good_set_rejects_a_nonpositive_side(tmp_path, side):
    code, out = run(tmp_path, "good-set", "--model", "flat-torus", "--dim", "1",
                    "--factors", "cos1,cos3", "--center", "0", f"--side={side}")
    assert code == 2
    assert not (out / "good-set.json").exists()


@pytest.mark.parametrize("center", ["0.1,1", "nan,1"], ids=["theta-below-0", "nan"])
def test_good_set_on_the_sphere_rejects_a_bad_half_cube(tmp_path, capsys, center):
    # the half-cube of side 0.5 about theta = 0.1 reaches theta < 0, outside
    # the chart's [0, pi]; a nan center is no chart point at all
    code, out = run(tmp_path, "good-set", "--model", "sphere", "--lambda-max", "4",
                    "--factors", "Y1m0,Y2m1", "--side", "1", "--center", center)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "good-set.json").exists()


def test_lower_bound_does_not_offer_factors(tmp_path):
    code, _ = run(tmp_path, "lower-bound", "--model", "flat-torus", "--dim", "1",
                  "--family", "self", "--factors", "cos1")
    assert code == 2


@pytest.mark.parametrize("argv, params", [
    (("doubling", "--function", "power:3", "--center", "0,0", "--radius", "0.2"),
     {"function": "power:3", "center": "0,0", "r": 0.2}),
    (("extension-params", "--model", "flat-torus", "--dim", "1", "--R2", "0.3"),
     {"R2": 0.3}),
    (("product", "--model", "flat-torus", "--dim", "1", "--factors", "cos2,cos3"),
     {"factors": "cos2,cos3"}),
    (("decay", "--model", "flat-torus", "--dim", "1", "--factors", "cos2,cos3", "--csv"),
     {"factors": "cos2,cos3", "csv": True}),
], ids=["radius", "R2", "no-csv", "csv"])
def test_report_config_records_exactly_the_flags_given(tmp_path, argv, params):
    code, out = run(tmp_path, *argv)
    assert code == 0
    assert read(out, f"{argv[0]}.json")["config"]["params"] == params
