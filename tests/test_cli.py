"""Command-line surface: reports, exit codes, caching, replay, SVG."""

import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest

from eigenprod import cli
from eigenprod.cli import cli_main, config_from_text, config_to_text
from eigenprod.errors import ParameterError
from eigenprod.manifolds import (
    FlatTorus,
    Mode,
    Resolution,
    RevTorus,
    build_basis,
    load_basis,
    model_descriptor,
    save_basis,
)
from eigenprod.reportio import canonical_json, diff_paths, format_float
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
    config = {
        "command": "truncate",
        "model": {"kind": "flat-torus", "dim": 1, "periods": [TWO_PI]},
        "params": {"factors": "cos2,cos3", "target": 0.99},
    }
    text = config_to_text(config)
    parsed = config_from_text(text)
    assert parsed["command"] == "truncate"
    assert parsed["model"]["dim"] == 1
    assert parsed["model"]["periods"] == [TWO_PI]
    assert parsed["params"]["target"] == 0.99
    assert config_to_text(parsed) == text  # canonical form is a fixed point


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
    with pytest.raises(ParameterError):
        config_from_text("[run]\ncommand = truncate\n[model]\nbogus = 1\n")
    with pytest.raises(ParameterError):
        config_from_text("[run]\ncommand = not-a-command\n")


def test_canonical_json_is_deterministic_and_round_trip_safe():
    payload = {"b": [1.0, 0.1, 12345.678901234567], "a": {"x": True, "y": None}}
    text1 = canonical_json(payload)
    text2 = canonical_json(payload)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["b"][2] == 12345.678901234567
    assert format_float(0.1) == "0.10000000000000001"
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


def test_cache_key_covers_the_resolution():
    model = FlatTorus(1, (TWO_PI,))
    default = cli._cache_key(model, 3.0, Resolution())
    for changed in (Resolution(margin=9), Resolution(max_product_factors=4),
                    Resolution(rev_fourier_n=64)):
        assert cli._cache_key(model, 3.0, changed) != default


def test_cached_basis_serves_hits_and_rebuilds_mismatched_files(tmp_path, monkeypatch):
    model = FlatTorus(1, (TWO_PI,))
    cache = str(tmp_path / "cache")
    first = cli._cached_basis(model, 3.0, cache)
    (path,) = (tmp_path / "cache").iterdir()

    def no_build(*_args, **_kwargs):
        raise AssertionError("a matching cache file must be served")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_basis", no_build)
        assert cli._cached_basis(model, 3.0, cache).modes == first.modes
    # a file under the right key that holds another request is a miss
    for stale in (build_basis(model, 5.0), build_basis(FlatTorus(1, (3.0,)), 3.0)):
        save_basis(stale, path)
        served = cli._cached_basis(model, 3.0, cache)
        assert served.model == model and served.lambda_max == 3.0
        assert served.modes == first.modes
        assert load_basis(path).lambda_max == 3.0  # overwritten with the rebuild


def test_positional_id_guard_rejects_a_mode_shift():
    model = RevTorus(2.0, 1.0)
    probe = build_basis(model, 2.0)
    final = build_basis(model, 3.0)
    cli._check_positional_ids(probe, final, ["1", "2"], (1, 2))
    # the same ids against a final basis whose modes 1 and 2 swapped places
    modes = list(final.modes)
    modes[1], modes[2] = (Mode(1, modes[2].lam, modes[2].rep),
                          Mode(2, modes[1].lam, modes[1].rep))
    shifted = build_basis(model, 3.0)
    shifted.modes = tuple(modes)
    assert probe.modes[1].rep[:2] != shifted.modes[1].rep[:2]
    with pytest.raises(ParameterError):
        cli._check_positional_ids(probe, shifted, ["1", "2"], (1, 2))
    # same representation, lambda off by more than 1e-9 relative
    modes = list(final.modes)
    modes[2] = Mode(2, modes[2].lam * (1.0 + 1e-8), modes[2].rep)
    shifted.modes = tuple(modes)
    with pytest.raises(ParameterError):
        cli._check_positional_ids(probe, shifted, ["2"], (2,))
