"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figures (run with ``pytest -s`` to watch them).

Each criterion pins its tolerance here; nothing is deferred to later
calibration.
"""

import itertools
import math

import numpy as np
import pytest

from eigenprod.analysis import (
    captured_norm_ratio,
    find_truncation,
    fit_decay,
    lower_bound_experiment,
    sphere_remark_experiment,
    sphere_rotated_pair_experiment,
)
from eigenprod.cli import cli_main
from eigenprod.coefficients import (
    ProductSpec,
    expand_product,
    parseval_report,
    quadrature_coefficients,
)
from eigenprod.extension import (
    compute_extension_params,
    greens_coefficients,
    harmonic_extension_flat,
)
from eigenprod.manifolds import (
    COS,
    SIN,
    REV_M_CAP,
    FlatTorus,
    RevTorus,
    build_basis,
)
from eigenprod.numerics import gaunt_real, wigner_3j
from eigenprod.remez import (
    coordinate_function,
    default_a_grid,
    doubling_index,
    good_set_experiment,
    harmonic_power_function,
    remez_fit,
    sublevel_measure,
)
from eigenprod.reportio import diff_paths, load_json
from reference import envelope_dominates, grid_weights, mode_reps, torus_support_lambda

TWO_PI = 2.0 * math.pi
NOISE_FLOOR_REL = 1e-12
MIN_TAIL_ENTRIES = 8


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def circle_basis():
    # frequencies to 8 with tail room above the largest frequency sum (24)
    return build_basis(FlatTorus(1, (TWO_PI,)), 30.0)


@pytest.fixture(scope="module")
def torus2_basis():
    # covers tails of sampled pairs with per-axis frequencies to 8
    return build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 25.0)


@pytest.fixture(scope="module")
def rev_setup():
    """Six two-factor products on the revolution torus, each with its
    coefficient series cut at six times its frequency sum."""
    model = RevTorus(2.0, 1.0)
    lambda_cap = REV_M_CAP / (model.major_radius + model.minor_radius)
    probe = build_basis(model, 2.0)
    low = np.flatnonzero(probe.lams > 0.0)[:6].tolist()
    candidates = []
    for i in range(len(low)):
        for j in range(i, len(low)):
            sum_lambda = float(probe.lams[low[i]]) + float(probe.lams[low[j]])
            if 6.0 * sum_lambda <= lambda_cap:
                candidates.append(((low[i], low[j]), sum_lambda))
    candidates.sort(key=lambda entry: (entry[1], entry[0]))
    basis = build_basis(model, 6.0 * max(s for _ids, s in candidates))
    chosen = []
    for ids, sum_lambda in candidates:
        spec = ProductSpec(basis, ids)
        series = expand_product(spec).truncated(6.0 * sum_lambda)
        floor = NOISE_FLOOR_REL * math.sqrt(series.f_norm_sq)
        tail = (series.lams > sum_lambda) & (np.abs(series.coeffs) > floor)
        if int(tail.sum()) >= MIN_TAIL_ENTRIES:
            chosen.append((spec, series))
        if len(chosen) == 6:
            break
    assert len(chosen) == 6, "could not assemble six admissible products"
    return basis, chosen


def torus_modes_up_to(basis, freq_cap):
    """Ids of the flat-torus modes with every frequency <= ``freq_cap``."""
    return np.flatnonzero(basis.reps["freqs"].max(axis=1) <= freq_cap).tolist()


# ---------------------------------------------------------------------------
# criterion 1: flat-torus selection rule


def test_acceptance_1_selection_rule(circle_basis, torus2_basis):
    checked_exact = 0
    worst_quad_tail = 0.0
    # dimension one: fully exhaustive, both routes, frequencies <= 8
    ids1 = torus_modes_up_to(circle_basis, 8)
    for count in (2, 3):
        for combo in itertools.combinations_with_replacement(ids1, count):
            spec = ProductSpec(circle_basis, combo)
            series = expand_product(spec)  # enforces exact == quadrature
            limit = spec.sum_lambda * (1.0 + 1e-12)
            tail = series.lams > limit
            assert np.all(series.coeffs[tail] == 0.0), combo
            quad, _norm = quadrature_coefficients(spec)
            worst_quad_tail = max(worst_quad_tail, float(np.max(np.abs(quad[tail]))))
            checked_exact += 1
    assert worst_quad_tail <= 1e-12
    # dimension two: exhaustive exact-support scan (pairs to frequency 8,
    # triples to 4), plus a deterministic quadrature subsample
    modes2_pairs = torus_modes_up_to(torus2_basis, 8)
    checked_support = 0
    for combo in itertools.combinations_with_replacement(modes2_pairs, 2):
        spec = ProductSpec(torus2_basis, combo)
        assert torus_support_lambda(spec) <= spec.sum_lambda * (1.0 + 1e-12)
        checked_support += 1
    modes2_triples = torus_modes_up_to(torus2_basis, 4)
    for combo in itertools.combinations_with_replacement(modes2_triples, 3):
        spec = ProductSpec(torus2_basis, combo)
        assert torus_support_lambda(spec) <= spec.sum_lambda * (1.0 + 1e-12)
        checked_support += 1
    rng = np.random.default_rng(2024)
    sampled = 0
    for count, draws in ((2, 25), (3, 10)):
        pool = modes2_pairs if count == 2 else modes2_triples
        for _ in range(draws):
            combo = tuple(sorted(int(rng.choice(pool)) for _ in range(count)))
            spec = ProductSpec(torus2_basis, combo)
            series = expand_product(spec)
            limit = spec.sum_lambda * (1.0 + 1e-12)
            tail = series.lams > limit
            assert np.all(series.coeffs[tail] == 0.0)
            quad, _norm = quadrature_coefficients(spec)
            worst_quad_tail = max(worst_quad_tail, float(np.max(np.abs(quad[tail]))))
            sampled += 1
    assert worst_quad_tail <= 1e-12
    print(f"\nACCEPTANCE 1 PASS: selection rule exact on {checked_exact} "
          f"1-d products, {checked_support} 2-d supports, quadrature tail "
          f"<= {worst_quad_tail:.2e} on {checked_exact + sampled} products")


# ---------------------------------------------------------------------------
# criterion 2: sphere oracle agreement


def test_acceptance_2_sphere_oracles(sphere12_basis, grid_values):
    basis = sphere12_basis
    n = basis.size
    values = grid_values(basis)
    weighted = values * grid_weights(basis)
    exact = np.zeros((n, n, n))
    reps = mode_reps(basis)
    for ia in range(n):
        la, ma = reps[ia]
        for ib in range(ia, n):
            lb, mb = reps[ib]
            for ic in range(ib, n):
                lc, mc = reps[ic]
                g = gaunt_real(la, ma, lb, mb, lc, mc)
                if g != 0.0:
                    for i, j, k in set(itertools.permutations((ia, ib, ic))):
                        exact[i, j, k] = g
    worst = 0.0
    for a in range(n):
        quad_slice = (values * values[a]) @ weighted.T
        worst = max(worst, float(np.max(np.abs(quad_slice - exact[a]))))
    assert worst <= 1e-10
    worst_orth = 0.0
    for l1 in range(9):
        for l2 in range(9):
            for m1 in range(-l1, l1 + 1):
                for m2 in range(-l2, l2 + 1):
                    total = sum(
                        (2 * l3 + 1)
                        * wigner_3j(l1, l2, l3, m1, m2, -(m1 + m2)) ** 2
                        for l3 in range(abs(l1 - l2), l1 + l2 + 1)
                        if abs(m1 + m2) <= l3)
                    worst_orth = max(worst_orth, abs(total - 1.0))
    assert worst_orth <= 1e-10
    print(f"\nACCEPTANCE 2 PASS: gaunt vs quadrature <= {worst:.2e} over all "
          f"l<=12 triples; 3j orthogonality defect <= {worst_orth:.2e} for l<=8")


# ---------------------------------------------------------------------------
# criterion 3: Parseval across the three models


def test_acceptance_3_parseval(circle_basis, torus2_basis, sphere12_basis,
                               rev_setup):
    worst_defect = 0.0
    band_limited_count = 0
    modes1 = torus_modes_up_to(circle_basis, 8)
    for combo in [(1, 2), (3, 4), (7, 8), (modes1[-1], modes1[-2]),
                  (1, 2, 3), (5, 9, 13)]:
        series = expand_product(ProductSpec(circle_basis, combo))
        _ratio, defect = parseval_report(series)
        worst_defect = max(worst_defect, abs(defect))
        band_limited_count += 1
    for combo in [(1, 2), (5, 11), (9, 20)]:
        series = expand_product(ProductSpec(torus2_basis, combo))
        _ratio, defect = parseval_report(series)
        worst_defect = max(worst_defect, abs(defect))
        band_limited_count += 1
    sphere_modes = np.flatnonzero(sphere12_basis.reps["l"] <= 6).tolist()
    for a, b in [(sphere_modes[1], sphere_modes[4]),
                 (sphere_modes[-1], sphere_modes[-2])]:
        series = expand_product(ProductSpec(sphere12_basis, (a, b)))
        _ratio, defect = parseval_report(series)
        worst_defect = max(worst_defect, abs(defect))
        band_limited_count += 1
    assert worst_defect <= 1e-8
    # revolution torus: the defect drops monotonically with the cutoff and
    # ends at or below 1e-3 at six times the frequency sum
    _basis, chosen = rev_setup
    worst_tail = 0.0
    for spec, series in chosen:
        defects = []
        for mult in (2.0, 4.0, 6.0):
            sub = series.truncated(mult * spec.sum_lambda)
            defects.append(1.0 - sub.mass_captured / sub.f_norm_sq)
        assert defects[0] >= defects[1] >= defects[2]
        assert defects[2] <= 1e-3
        worst_tail = max(worst_tail, defects[2])
    print(f"\nACCEPTANCE 3 PASS: band-limited defect <= {worst_defect:.2e} on "
          f"{band_limited_count} products; revolution-torus tail defect "
          f"<= {worst_tail:.2e} at 6x the frequency sum")


# ---------------------------------------------------------------------------
# criteria 4 and 5: genuine decay and uniform truncation


def test_acceptance_4_genuine_decay(rev_setup):
    _basis, chosen = rev_setup
    rates = []
    for spec, series in chosen:
        window = (2.0 * spec.sum_lambda, 6.0 * spec.sum_lambda)
        fit = fit_decay(series, window=window)
        assert not fit.band_limited
        assert fit.c_hat > 0.0
        assert fit.r_squared >= 0.9
        assert envelope_dominates(series, fit)
        rates.append(fit.c_hat)
    print(f"\nACCEPTANCE 4 PASS: 6 products, decay rates "
          f"{min(rates):.3f}..{max(rates):.3f}, all r^2 >= 0.9, envelopes "
          f"dominate their windows")


def test_acceptance_5_truncation(rev_setup, circle_basis):
    _basis, chosen = rev_setup
    c5_star = 0.0
    for _spec, series in chosen:
        result = find_truncation(series, target=0.99)
        c5_star = max(c5_star, result.c5)
    ratios = [captured_norm_ratio(series, c5_star) for _s, series in chosen]
    assert all(r >= 0.99 for r in ratios)
    # the paper's claim is a finite C5 shared by the family; 1.1 is
    # measured on these six (2, 1) products, so a slower capture fails
    assert c5_star <= 1.2
    # band-limited models: C5 = 1.0 suffices exactly (cumulative sums)
    series1 = expand_product(ProductSpec(circle_basis, (3, 6)))
    flat = find_truncation(series1, target=0.99)
    assert flat.c5 <= 1.0
    assert captured_norm_ratio(series1, 1.0) == pytest.approx(1.0, abs=1e-12)
    print(f"\nACCEPTANCE 5 PASS: C5*={c5_star:.1f} captures >= "
          f"{min(ratios):.6f} on all six products; flat-torus C5=1.0 exact")


# ---------------------------------------------------------------------------
# criterion 6: boundary-integral coefficient recovery


def test_acceptance_6_green_identity(circle_basis):
    worst = 0.0
    cases = 0
    params1 = compute_extension_params(circle_basis.model)
    one_d_pairs = [((2,), (3,)), ((1,), (7,)), ((4,), (5,)), ((1,), (2,), (3,))]
    for freqs in one_d_pairs:
        ids = [mode_reps(circle_basis).index(((k,), (COS,))) for (k,) in freqs]
        spec = ProductSpec(circle_basis, tuple(ids))
        assert spec.sum_lambda <= 10.0
        series = expand_product(spec)
        ext = harmonic_extension_flat(series, params1.T)
        for height in (params1.T, params1.T / 2.0):
            ids, recovered = greens_coefficients(ext, height)
            assert ids.tolist() == np.flatnonzero(circle_basis.lams > 0.0).tolist()
            worst = max(worst, float(np.max(np.abs(recovered - series.coeffs[ids]))))
            cases += 1
    torus2 = build_basis(FlatTorus(2, (TWO_PI, TWO_PI)), 8.0)
    params2 = compute_extension_params(torus2.model)
    for rep_a, rep_b in [
        (((1, 0), (COS, COS)), ((0, 2), (COS, COS))),
        (((2, 1), (COS, SIN)), ((1, 2), (SIN, COS))),
    ]:
        spec = ProductSpec(torus2, (mode_reps(torus2).index(rep_a),
                                    mode_reps(torus2).index(rep_b)))
        assert spec.sum_lambda <= 10.0
        series = expand_product(spec)
        ext = harmonic_extension_flat(series, params2.T)
        for height in (params2.T, params2.T / 2.0):
            ids, recovered = greens_coefficients(ext, height)
            assert ids.tolist() == np.flatnonzero(torus2.lams > 0.0).tolist()
            worst = max(worst, float(np.max(np.abs(recovered - series.coeffs[ids]))))
            cases += 1
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 6 PASS: boundary-integral recovery error <= "
          f"{worst:.2e} over {cases} (product, height) cases on both tori")


# ---------------------------------------------------------------------------
# criterion 7: extension constants


def test_acceptance_7_extension_parameters():
    params1 = compute_extension_params(FlatTorus(1, (TWO_PI,)))
    delta0_expected = 2.0 * (2.0**2 * math.e) ** 2  # 2 (4e)^2 = 32 e^2
    assert abs(params1.delta0 - delta0_expected) <= 1e-12 * delta0_expected
    delta_expected = 1.0 / math.sqrt(delta0_expected)
    assert abs(params1.delta - delta_expected) <= 1e-12 * delta_expected
    t_expected = (math.pi / 16.0) * delta_expected / 2.0
    assert abs(params1.T - t_expected) <= 1e-12 * t_expected
    params2 = compute_extension_params(FlatTorus(2, (TWO_PI, TWO_PI)))
    delta0_2 = 2.0 * (2.0**3 * math.e) ** 2 * 2.0  # 256 e^2
    assert abs(params2.delta0 - delta0_2) <= 1e-12 * delta0_2
    print(f"\nACCEPTANCE 7 PASS: delta0={params1.delta0:.6f} (32 e^2), "
          f"delta={params1.delta:.7f}, T={params1.T:.7f}; "
          f"d=2 delta0={params2.delta0:.4f} (256 e^2), all to 1e-12 relative")


# ---------------------------------------------------------------------------
# criterion 8: norm lower bounds


def test_acceptance_8_lower_bounds(circle_basis, rev_setup):
    expected = math.sqrt(3.0) / (2.0 * math.sqrt(math.pi))
    cos_ids = [i for i, (freqs, parities) in enumerate(mode_reps(circle_basis))
               if parities == (COS,) and 1 <= freqs[0] <= 8]
    self_fit = lower_bound_experiment([ProductSpec(circle_basis, (i, i)) for i in cos_ids])
    for _s, norm in self_fit.samples:
        assert abs(norm - expected) <= 1e-10
    basis, chosen = rev_setup
    rev_fit = lower_bound_experiment([spec for spec, _ in chosen])
    rotated = sphere_rotated_pair_experiment(range(2, 13))
    for fit in (self_fit, rev_fit, rotated):
        norms = [n for _s, n in fit.samples]
        assert all(n > 0.0 for n in norms)
        bounds = [fit.C3_hat * math.exp(-fit.C4_hat * s) for s, _n in fit.samples]
        assert all(b <= n * (1.0 + 1e-12) for b, n in zip(bounds, norms))
        assert any(abs(b - n) <= 1e-9 * n for b, n in zip(bounds, norms))
    print(f"\nACCEPTANCE 8 PASS: all norms positive in 3 families; self-product "
          f"constant {expected:.10f} reproduced to 1e-10; envelopes valid "
          f"(rotated-pair C4={rotated.C4_hat:.4f} > 0)")


# ---------------------------------------------------------------------------
# criterion 9: sphere triple-product decay


def test_acceptance_9_sphere_remark():
    result = sphere_remark_experiment(range(2, 21))
    norms = [n for _k, n in result.samples]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert result.log_slope < 0.0
    assert result.r_squared >= 0.95
    print(f"\nACCEPTANCE 9 PASS: triple-product norms strictly decreasing for "
          f"k=2..20, log-linear slope {result.log_slope:.4f} with "
          f"r^2={result.r_squared:.4f}")


# ---------------------------------------------------------------------------
# criterion 10: doubling and sublevel machinery


def test_acceptance_10_remez_doubling(circle_basis):
    worst_doubling = 0.0
    for k in range(1, 9):
        report = doubling_index(harmonic_power_function(k), (0.0, 0.0), 0.3)
        worst_doubling = max(worst_doubling,
                             abs(report.index - k * math.log(2.0)))
    assert worst_doubling <= 1e-6
    probes = [
        (coordinate_function(), 0.0, 8192),
        (lambda x: np.cos(2.0 * np.asarray(x)), 0.0, 8192),
        (harmonic_power_function(3), (0.0, 0.0), 1024),
    ]
    for fn, center, per_axis in probes:
        measures = [sublevel_measure(fn, center, 2.0, float(a), per_axis)
                    for a in default_a_grid()]
        assert all(b <= a for a, b in zip(measures, measures[1:]))
    linear = remez_fit(coordinate_function(), 0.0, 2.0)
    assert linear.defined
    assert abs(linear.beta_hat - math.log(2.0)) <= 0.02 * math.log(2.0)
    suite = [(0,), (1, 3), (3, 5), (1, 3, 5)]
    for ids in suite:
        spec = ProductSpec(circle_basis, ids)
        result = good_set_experiment(spec, 0.0, 2.0)
        assert result.measure_e >= 0.5 * result.measure_half_cube
    print(f"\nACCEPTANCE 10 PASS: doubling defect <= {worst_doubling:.2e} for "
          f"k<=8; sublevel measures nonincreasing; linear rate "
          f"{linear.beta_hat:.5f} vs log2 within 2%; {len(suite)} good sets "
          f">= half the half-cube")


# ---------------------------------------------------------------------------
# criterion 11: reproducibility


def test_acceptance_11_reproducibility(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    cache = str(root / "cache")
    runs = [
        ("truncate", ["truncate", "--model", "flat-torus", "--dim", "1",
                      "--factors", "cos2,cos3", "--target", "0.99"]),
        ("decay", ["decay", "--model", "rev-torus", "--R", "2", "--r", "1",
                   "--factors", "1,3", "--lambda-max-mult", "6"]),
    ]
    for name, argv in runs:
        out = str(root / name)
        assert cli_main(argv + ["--out", out, "--cache", cache]) == 0
        original = load_json(f"{out}/{name}.json")
        replay_out = str(root / f"{name}-replay")
        assert cli_main(["report", "--replay", f"{out}/{name}.json",
                         "--check", "--out", replay_out, "--cache", cache]) == 0
        replayed = load_json(f"{replay_out}/replay-{name}.json")
        assert diff_paths(original["results"], replayed["results"]) == []
        assert original["provenance"]["basis_digest"] == \
            replayed["provenance"]["basis_digest"]
    print("\nACCEPTANCE 11 PASS: truncate and decay reports replay "
          "field-identically from their embedded configurations")
