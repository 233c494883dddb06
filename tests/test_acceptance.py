"""Acceptance gate: twelve end-to-end checks, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
also for passing checks).  Criterion 12 needs a user-supplied macroeconomic
CSV (see README); without one it passes vacuously.
"""

import json
import os
import time

import numpy as np
from numpy.testing import assert_allclose

from oracles import (
    cross_condition_residuals,
    dense_cross_solve,
    partial_autocorr_oracle,
    random_subprocess_corr,
)
from mcvar.closure import (
    CrossFixedBlock,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    fixed_lag_for_labels,
    solve_cross_pair,
    verify_closure,
)
from mcvar.estimation import (
    ModelConfig,
    construct_model,
    count_params,
    fit_model,
    loglik_full,
    simulate_model,
)
from mcvar.linalg import is_positive_definite
from mcvar.margins import MarginSpec, pit_to_normal
from mcvar.varprocess import (
    VarRepresentation,
    durbin_levinson,
    implied_autocov,
)
from oracles import copula_loglik_oracle


def _report(num, ok, detail=""):
    line = "criterion %02d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def scalar_sub(values):
    return SubprocessCorr(blocks=tuple(np.array([[v]]) for v in values))


def solve_pipeline(labels, fixed_value, k=2, b1=(1.0, -0.8, 0.6), b2=(1.0, 0.6, 0.5)):
    """solve_cross_pair -> assemble_full_R -> durbin_levinson for two scalar subs."""
    r1, r2 = scalar_sub(list(b1)[: k + 1]), scalar_sub(list(b2)[: k + 1])
    lag = fixed_lag_for_labels(labels, k)
    sol = solve_cross_pair(r1, r2, labels, CrossFixedBlock((0, 1), lag, [[fixed_value]]))
    part = Partition(sets=((0,), (1,)), d=2)
    rtm = assemble_full_R(part, [r1, r2], [sol])
    slices = [rtm[:2, l * 2:(l + 1) * 2] for l in range(k + 1)]
    return durbin_levinson(slices, k), rtm, part, sol


def test_criterion_01_univariate_representations():
    t0 = time.perf_counter()
    var1 = durbin_levinson([np.array([[v]]) for v in (1.0, -0.8, 0.6)], 2)
    var2 = durbin_levinson([np.array([[v]]) for v in (1.0, 0.6, 0.5)], 2)
    got1 = (var1.phi[0][0, 0], var1.phi[1][0, 0], var1.sigma[0, 0])
    got2 = (var2.phi[0][0, 0], var2.phi[1][0, 0], var2.sigma[0, 0])
    elapsed = time.perf_counter() - t0
    ok = (
        np.allclose(got1, (-0.889, -0.111, 0.356), atol=1e-3)
        and np.allclose(got2, (0.469, 0.219, 0.609), atol=1e-3)
        and elapsed < 1.0
    )
    _report(1, ok, "AR(2) coefficients and variances, %.2fs" % elapsed)


# coefficient matrices and innovation covariance for cross value 0.35,
# 3-decimal reference values for each condition label pair
_TABLE1 = {
    (1, 1): ([[-0.889, 0.0], [0.0, 0.469]],
             [[-0.111, 0.0], [0.0, 0.219]],
             [[0.356, 0.447], [0.447, 0.609]]),
    (1, 2): ([[-0.889, 0.0], [0.778, 0.469]],
             [[-0.111, 0.0], [0.972, 0.219]],
             [[0.356, 0.039], [0.039, 0.269]]),
    (2, 1): ([[-0.889, -0.328], [0.0, 0.469]],
             [[-0.111, 0.547], [0.0, 0.219]],
             [[0.164, -0.077], [-0.077, 0.609]]),
    (2, 2): ([[-0.716, 0.656], [-1.184, 0.296]],
             [[0.353, -0.330], [-0.863, 0.736]],
             [[0.194, -0.196], [-0.196, 0.287]]),
}


def test_criterion_02_coefficient_table():
    t0 = time.perf_counter()
    worst = 0.0
    for labels, (p1, p2, sig) in _TABLE1.items():
        var, _, _, _ = solve_pipeline(labels, 0.35)
        worst = max(
            worst,
            np.max(np.abs(var.phi[0] - np.array(p1))),
            np.max(np.abs(var.phi[1] - np.array(p2))),
            np.max(np.abs(var.sigma - np.array(sig))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    _report(2, ok, "max deviation %.2e, %.2fs" % (worst, elapsed))


# fixed value per label pair chosen to equalize the innovation correlation,
# with the implied coefficient matrices and innovation correlation
_TABLE3 = {
    (1, 1): (0.292, [[-0.889, 0.0], [0.0, 0.469]], [[-0.111, 0.0], [0.0, 0.219]], 0.801),
    (1, 2): (0.464, [[-0.889, 0.0], [1.031, 0.469]], [[-0.111, 0.0], [1.289, 0.219]], 0.812),
    (2, 1): (-0.459, [[-0.889, 0.430], [0.0, 0.469]], [[-0.111, -0.717], [0.0, 0.219]], 0.792),
    (2, 2): (-0.346, [[-0.787, -0.590], [1.080, 0.367]], [[0.243, 0.246], [0.721, 0.630]], 0.797),
}


def test_criterion_03_equalized_innovation_correlation():
    t0 = time.perf_counter()
    worst = 0.0
    corr_ok = True
    for labels, (fixed, p1, p2, rho) in _TABLE3.items():
        var, _, _, _ = solve_pipeline(labels, fixed)
        icorr = var.sigma[0, 1] / np.sqrt(var.sigma[0, 0] * var.sigma[1, 1])
        worst = max(
            worst,
            np.max(np.abs(var.phi[0] - np.array(p1))),
            np.max(np.abs(var.phi[1] - np.array(p2))),
            abs(icorr - rho),
        )
        corr_ok = corr_ok and 0.79 <= icorr <= 0.82
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and corr_ok and elapsed < 1.0
    _report(3, ok, "max deviation %.2e, correlations in [0.79, 0.82]: %s, %.2fs"
            % (worst, corr_ok, elapsed))


def test_criterion_04_pd_region_scan():
    t0 = time.perf_counter()
    part = Partition(sets=((0,), (1,)), d=2)
    grid = np.round(np.arange(-0.99, 0.995, 0.01), 2)

    def scan(rho1, rho2):
        out = {}
        r1, r2 = scalar_sub([1.0, rho1]), scalar_sub([1.0, rho2])
        for c0 in grid:
            sol = solve_cross_pair(
                r1, r2, (2, 2), CrossFixedBlock((0, 1), 0, [[c0]])
            )
            out[float(c0)] = is_positive_definite(assemble_full_R(part, [r1, r2], [sol]))
        return out

    same = scan(0.9, 0.9)
    mixed = scan(0.9, -0.9)
    all_pd_same = all(same.values())
    non_pd_above = all(not pd for c0, pd in mixed.items() if c0 > 0.15)
    elapsed = time.perf_counter() - t0
    ok = all_pd_same and non_pd_above and elapsed < 5.0
    _report(4, ok, "equal-sign scan all PD: %s; opposite-sign non-PD above 0.15: %s; %.2fs"
            % (all_pd_same, non_pd_above, elapsed))


def test_criterion_05_three_subprocess_feasibility():
    t0 = time.perf_counter()
    part = Partition(sets=((0,), (1,), (2,)), d=3)
    subs = [scalar_sub([1.0, r]) for r in (0.6, 0.7, 0.8)]
    labels = (2, 2, 2)
    crosses = []
    for i in range(3):
        for j in range(i + 1, 3):
            crosses.append(
                solve_cross_pair(
                    subs[i], subs[j], (2, 2), CrossFixedBlock((i, j), 0, [[0.5]])
                )
            )
    rtm = assemble_full_R(part, subs, crosses)
    pd_ok = is_positive_definite(rtm)
    report = verify_closure(rtm, part, 1, tol=1e-8)
    residual_ok = all(
        min(s.cond1_residual, s.cond2_residual) < 1e-8 for s in report.subs
    )
    elapsed = time.perf_counter() - t0
    ok = rtm.shape == (6, 6) and pd_ok and report.all_pass and residual_ok and elapsed < 1.0
    _report(5, ok, "6x6 PD: %s, closure: %s, %.2fs" % (pd_ok, report.all_pass, elapsed))


def test_criterion_06_closure_counterexample():
    a12 = a22 = 0.5
    var = VarRepresentation(phi=(np.array([[0.0, a12], [0.0, a22]]),), sigma=np.eye(2))
    gam = implied_autocov(var, 2)
    rho = [gam[l][0, 0] / gam[0][0, 0] for l in range(3)]
    pacf2 = durbin_levinson([np.array([[r]]) for r in rho], 2).phi[1][0, 0]
    closed_form = (
        a12 ** 2 * a22 ** 2 * (1.0 - a22 ** 2)
        / ((1.0 + a12 ** 2 - a22 ** 2) ** 2 - a12 ** 4 * a22 ** 2)
    )
    match = abs(pacf2 - closed_form) < 1e-10 and abs(pacf2) > 1e-6
    # the oracle agrees through an entirely different computation
    assert_allclose(partial_autocorr_oracle(rho, 2), closed_form, atol=1e-10)

    scale = 1.0 / np.sqrt(np.diag(gam[0]))
    corr = [g * np.outer(scale, scale) for g in gam[:2]]
    rtm = np.block([[corr[0], corr[1]], [corr[1].T, corr[0]]])
    report = verify_closure(rtm, Partition(sets=((0,), (1,)), d=2), 1)
    fails_s1 = report.subs[0].holds is None and not report.all_pass
    _report(6, match and fails_s1,
            "lag-2 partial autocorrelation %.10f = closed form, sub-process 1 fails" % pacf2)


def test_criterion_07_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    label_choices = [(1, 1), (2, 2), (1, 2), (2, 1)]
    worst_res, worst_diff = 0.0, 0.0
    for trial in range(100):
        di = int(rng.integers(1, 3))
        dj = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        labels = label_choices[trial % 4]
        ri = random_subprocess_corr(rng, di, k)
        rj = random_subprocess_corr(rng, dj, k)
        lag = fixed_lag_for_labels(labels, k)
        value = 0.3 * rng.uniform(-1.0, 1.0, size=(di, dj))
        sol = solve_cross_pair(ri, rj, labels, CrossFixedBlock((0, 1), lag, value))
        blocks_i = [ri.block(l) for l in range(k + 1)]
        blocks_j = [rj.block(l) for l in range(k + 1)]
        res = cross_condition_residuals(blocks_i, blocks_j, labels,
                                        {l: sol.block(l) for l in range(-k, k + 1)})
        worst_res = max(worst_res, *(float(np.max(np.abs(r))) for r in res))
        ref = dense_cross_solve(blocks_i, blocks_j, labels, lag, value)
        for l in range(-k, k + 1):
            worst_diff = max(worst_diff, float(np.max(np.abs(sol.block(l) - ref[l]))))
    ok = worst_res < 1e-10 and worst_diff < 1e-10
    _report(7, ok, "100 instances, max residual %.1e, max oracle gap %.1e"
            % (worst_res, worst_diff))


def test_criterion_08_autocovariance_roundtrip():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        sub = random_subprocess_corr(rng, d, k)
        blocks = [sub.block(l) for l in range(k + 1)]
        var = durbin_levinson(blocks, k)
        back = implied_autocov(var, k)
        for l in range(k + 1):
            worst = max(worst, float(np.max(np.abs(back[l] - blocks[l]))))
    ok = worst < 1e-10
    _report(8, ok, "100 instances, max identity gap %.1e" % worst)


def test_criterion_09_simulation_recovery():
    t0 = time.perf_counter()
    margins = (
        MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
        MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738)),
    )
    part = Partition(sets=((0,), (1,)), d=2)
    truth = construct_model(
        part,
        (2, 2),
        2,
        margins,
        [scalar_sub([1.0, -0.8, 0.6]), scalar_sub([1.0, 0.6, 0.5])],
        [CrossFixedBlock((0, 1), 0, [[0.35]])],
    )
    config = ModelConfig(
        partition=part, labels=(2, 2), k=2, margin_families=("skewt", "skewt")
    )
    true_serial = [(-0.8, 0.6), (0.6, 0.5)]
    hits = 0
    for seed in range(20):
        x = simulate_model(truth, 2000, seed=seed)
        fit = fit_model(x, config)
        good = abs(fit.model.crosses[0].block(0)[0, 0] - 0.35) <= 0.05
        for s, (r1, r2) in zip(fit.model.subs, true_serial):
            good = good and abs(s.block(1)[0, 0] - r1) <= 0.05
            good = good and abs(s.block(2)[0, 0] - r2) <= 0.05
        hits += int(good)
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 120.0
    _report(9, ok, "%d/20 seeds within +-0.05, %.1fs" % (hits, elapsed))


def test_criterion_10_parameter_counts():
    part = Partition(sets=((0,), (1,), (2,)), d=3)
    one_set = Partition(sets=((0, 1, 2),), d=3)
    families = ("skewt", "gaussian", "skewt")
    closed, unres = [], []
    for k in range(1, 6):
        cfg = ModelConfig(partition=part, labels=(2, 2, 2), k=k, margin_families=families)
        closed.append(count_params(cfg))
        unres.append(count_params(
            ModelConfig(partition=one_set, labels=(1,), k=k, margin_families=families)))
    ok = closed == [16, 19, 22, 25, 28] and unres == [22, 31, 40, 49, 58]
    _report(10, ok, "margin-closed %s, unrestricted %s" % (closed, unres))


def test_criterion_11_likelihood_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    cases = [
        # (partition sets, labels, k, T, margins)
        ((((0,), (1,))), (1, 1), 1, 8,
         (MarginSpec("gaussian", (0.0, 1.0)), MarginSpec("skewt", (0.1, 0.8, 3.0, 5.0)))),
        ((((0,), (1,))), (2, 2), 2, 8,
         (MarginSpec("skewt", (0.5, 1.2, 4.0, 2.5)), MarginSpec("gaussian", (-0.3, 0.6)))),
        ((((0,),)), (1,), 2, 6, (MarginSpec("skewt", (0.0, 1.0, 2.0, 6.0)),)),
        ((((0, 1),)), (2,), 1, 7,
         (MarginSpec("gaussian", (1.0, 2.0)), MarginSpec("gaussian", (0.0, 0.5)))),
    ]
    for sets, labels, k, T, margins in cases:
        d = sum(len(s) for s in sets)
        part = Partition(sets=tuple(sets), d=d)
        subs = [random_subprocess_corr(rng, len(s), k) for s in sets]
        fixed = []
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                lag = fixed_lag_for_labels((labels[i], labels[j]), k)
                fixed.append(CrossFixedBlock(
                    (i, j), lag,
                    0.1 * rng.uniform(-1, 1, (len(sets[i]), len(sets[j]))),
                ))
        model = construct_model(part, labels, k, margins, subs, fixed)
        x = simulate_model(model, T, seed=int(rng.integers(1000)))
        r = model.time_major_R()
        ll = loglik_full(x, margins, r, k)
        ref = copula_loglik_oracle(x, margins, r, k,
                                   pit=lambda row, m: pit_to_normal(row, m))
        worst = max(worst, abs(ll - ref))
    ok = worst < 1e-8
    _report(11, ok, "%d instances, max |difference| %.1e" % (len(cases), worst))


def test_criterion_12_empirical_pipeline(tmp_path):
    path = os.environ.get("MCVAR_MACRO_CSV", "")
    if not path or not os.path.exists(path):
        _report(12, True, "vacuous: no user-supplied macro CSV (set MCVAR_MACRO_CSV)")
        return
    from mcvar.cli import main

    transforms = [
        {"log_diff": 2, "scale_percent": True},
        {"log_diff": 1, "scale_percent": True},
        {"log_diff": 2, "scale_percent": True},
    ]
    closed_cfg = tmp_path / "closed.json"
    closed_cfg.write_text(json.dumps({
        "format": "mcvar-config/1",
        "k": 2,
        "partition": [[0], [1], [2]],
        "labels": [2, 2, 2],
        "margin_families": ["skewt", "gaussian", "skewt"],
        "columns": ["CLL", "PCE", "CPI"],
        "transform": transforms,
    }))
    unres_cfg = tmp_path / "unres.json"
    unres_cfg.write_text(json.dumps({
        "format": "mcvar-config/1",
        "kind": "unrestricted",
        "k": 2,
        "margin_families": ["skewt", "gaussian", "skewt"],
        "columns": ["CLL", "PCE", "CPI"],
        "transform": transforms,
    }))
    out = tmp_path / "cmp.json"
    code = main(["compare", "--config", str(closed_cfg), "--config", str(unres_cfg),
                 "--data", path, "--out", str(out)])
    doc = json.loads(out.read_text())
    rows = {r["kind"]: r for r in doc["rows"]}
    ok = code == 0 and rows["margin-closed"]["aic"] <= rows["unrestricted"]["aic"]
    _report(12, ok, "margin-closed AIC %.2f vs unrestricted %.2f"
            % (rows["margin-closed"]["aic"], rows["unrestricted"]["aic"]))
