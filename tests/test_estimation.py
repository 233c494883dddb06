"""Tests for likelihoods, model construction, the multi-stage fit, and scoring."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import copula_loglik_oracle, random_subprocess_corr
from mcvar.closure import CrossFixedBlock, Partition, SubprocessCorr, verify_closure
from mcvar.estimation import (
    Model,
    ModelConfig,
    construct_model,
    count_params,
    fit_model,
    fit_stage2,
    fit_stage3,
    fit_unrestricted,
    gaussian_var_loglik,
    loglik_full,
    portmanteau,
    simulate_model,
)
from mcvar.margins import MarginSpec, pit_to_normal
from mcvar.varprocess import seeded_normals, simulate


def scalar_sub(values):
    return SubprocessCorr(blocks=tuple(np.array([[v]]) for v in values))


def two_sub_model(margins, labels=(2, 2), c0=0.35):
    part = Partition(sets=((0,), (1,)), d=2)
    return construct_model(
        part,
        labels,
        2,
        margins,
        [scalar_sub([1.0, -0.8, 0.6]), scalar_sub([1.0, 0.6, 0.5])],
        [CrossFixedBlock(pair=(0, 1), lag=0, value=[[c0]])],
    )


GAUSS_MARGINS = (MarginSpec("gaussian", (0.2, 1.3)), MarginSpec("gaussian", (-0.5, 0.8)))
TRUE_MODEL = two_sub_model(GAUSS_MARGINS)
CONFIG = ModelConfig(
    partition=TRUE_MODEL.partition,
    labels=(2, 2),
    k=2,
    margin_families=("gaussian", "gaussian"),
)
DATA = simulate_model(TRUE_MODEL, 600, seed=42)
FIT = fit_model(DATA, CONFIG)


# ------------------------------------------------------------- configuration


def test_model_config_validation():
    part = Partition(sets=((0,), (1,)), d=2)
    with pytest.raises(ValueError):
        ModelConfig(partition=part, labels=(1,), k=2, margin_families=("gaussian", "gaussian"))
    with pytest.raises(ValueError):
        ModelConfig(partition=part, labels=(1, 3), k=2, margin_families=("gaussian", "gaussian"))
    with pytest.raises(ValueError):
        ModelConfig(partition=part, labels=(1, 1), k=0, margin_families=("gaussian", "gaussian"))
    with pytest.raises(ValueError):
        ModelConfig(partition=part, labels=(1, 1), k=2, margin_families=("gaussian",))


def test_count_params_reference_values():
    # three scalar sub-processes with (skewt, gaussian, skewt) margins:
    # 10 margin parameters, 3 fixed cross blocks, plus k per-lag terms
    part = Partition(sets=((0,), (1,), (2,)), d=3)
    restricted = []
    unrestricted = []
    for k in range(1, 6):
        cfg = ModelConfig(
            partition=part,
            labels=(1, 1, 1),
            k=k,
            margin_families=("skewt", "gaussian", "skewt"),
        )
        restricted.append(count_params(cfg))
        unrestricted.append(count_params(cfg, restricted=False))
    assert restricted == [16, 19, 22, 25, 28]
    assert unrestricted == [22, 31, 40, 49, 58]


# ---------------------------------------------------------------- likelihood


def test_gaussian_var_loglik_matches_big_covariance():
    # standard normal margins make the copula correction vanish, so the
    # sequential decomposition must equal one joint Gaussian density
    model = two_sub_model((MarginSpec("gaussian", (0.0, 1.0)),) * 2)
    z = simulate_model(model, 35, seed=7)
    r = model.time_major_R()
    ll = gaussian_var_loglik(z, r, 2)
    ref = copula_loglik_oracle(
        z, model.margins, r, 2, pit=lambda row, m: pit_to_normal(row, m)
    )
    assert_allclose(ll, ref, atol=1e-7)


def test_loglik_full_matches_oracle_skewt():
    margins = (
        MarginSpec("skewt", (0.85, 0.79, 5.7, 9.3)),
        MarginSpec("skewt", (-0.03, 0.17, 3.0, 2.7)),
    )
    model = two_sub_model(margins)
    x = simulate_model(model, 40, seed=11)
    r = model.time_major_R()
    ll = loglik_full(x, margins, r, 2)
    ref = copula_loglik_oracle(x, margins, r, 2, pit=lambda row, m: pit_to_normal(row, m))
    assert_allclose(ll, ref, atol=1e-7)


def test_loglik_full_matches_oracle_three_vars_mixed_margins():
    rng = np.random.default_rng(3)
    part = Partition(sets=((0, 2), (1,)), d=3)
    margins = (
        MarginSpec("gaussian", (0.5, 2.0)),
        MarginSpec("skewt", (0.0, 1.0, 4.0, 3.0)),
        MarginSpec("gaussian", (-1.0, 0.5)),
    )
    model = construct_model(
        part,
        (1, 1),
        1,
        margins,
        [random_subprocess_corr(rng, 2, 1), random_subprocess_corr(rng, 1, 1)],
        [CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.1], [-0.05]])],
    )
    x = simulate_model(model, 30, seed=13)
    r = model.time_major_R()
    ll = loglik_full(x, margins, r, 1)
    ref = copula_loglik_oracle(x, margins, r, 1, pit=lambda row, m: pit_to_normal(row, m))
    assert_allclose(ll, ref, atol=1e-7)


# -------------------------------------------------------------- construction


def test_construct_model_properties():
    model = TRUE_MODEL
    assert model.partition.d == 2 and model.k == 2
    r = model.partitioned_R()
    assert_allclose(r, r.T, atol=1e-12)
    report = verify_closure(model.time_major_R(), model.partition, 2)
    assert report.all_pass
    assert tuple(s.holds for s in report.subs) == (2, 2)
    # fixed block preserved
    assert_allclose(model.crosses[0].block(0)[0, 0], 0.35, atol=1e-12)


def test_model_dict_roundtrip():
    doc = TRUE_MODEL.to_dict()
    back = Model.from_dict(doc)
    assert back.labels == TRUE_MODEL.labels
    assert back.partition.sets == TRUE_MODEL.partition.sets
    assert_allclose(back.time_major_R(), TRUE_MODEL.time_major_R(), atol=1e-15)
    assert back.margins == TRUE_MODEL.margins


def test_model_var_is_closed_over_partition():
    # labels (1, 1): both latent sub-processes evolve autonomously, so the
    # implied VAR coefficient blocks across sub-processes vanish
    model = two_sub_model(GAUSS_MARGINS, labels=(1, 1))
    var = model.var()
    for p in var.phi:
        assert abs(p[0, 1]) < 1e-10
        assert abs(p[1, 0]) < 1e-10


# ---------------------------------------------------------------- simulation


def test_simulate_model_deterministic_and_marginals():
    x1 = simulate_model(TRUE_MODEL, 200, seed=3)
    x2 = simulate_model(TRUE_MODEL, 200, seed=3)
    assert_allclose(x1, x2, rtol=0, atol=0)
    x = simulate_model(TRUE_MODEL, 50_000, seed=4)
    assert_allclose(np.mean(x[0]), 0.2, atol=0.05)
    assert_allclose(np.std(x[0]), 1.3, atol=0.05)
    assert_allclose(np.mean(x[1]), -0.5, atol=0.05)
    # latent serial correlation survives the margin map
    z0 = (x[0] - 0.2) / 1.3
    assert_allclose(np.corrcoef(z0[1:], z0[:-1])[0, 1], -0.8, atol=0.03)


def test_simulate_model_skewt_margin_is_applied():
    margins = (
        MarginSpec("skewt", (1.0, 0.5, 3.0, 9.0)),
        MarginSpec("gaussian", (0.0, 1.0)),
    )
    model = two_sub_model(margins)
    x = simulate_model(model, 2000, seed=9)
    # PIT back through the margin recovers the latent normal scores
    z = pit_to_normal(x[0], margins[0])
    latent = simulate(model.var(), 2000, seed=9)
    assert_allclose(z, latent[0], atol=1e-6)


# ------------------------------------------------------------------- fitting


def test_fit_model_recovers_truth():
    fit = FIT
    assert fit.converged
    assert fit.n_params == count_params(CONFIG) == 2 + 2 + 2 + 2 + 1
    # margins
    assert abs(fit.model.margins[0].params[0] - 0.2) < 0.15
    assert abs(fit.model.margins[0].params[1] - 1.3) < 0.15
    assert abs(fit.model.margins[1].params[0] - (-0.5)) < 0.15
    # serial structure
    s1, s2 = fit.model.subs
    assert abs(s1.block(1)[0, 0] - (-0.8)) < 0.08
    assert abs(s1.block(2)[0, 0] - 0.6) < 0.10
    assert abs(s2.block(1)[0, 0] - 0.6) < 0.08
    assert abs(s2.block(2)[0, 0] - 0.5) < 0.10
    # cross dependence
    assert abs(fit.model.crosses[0].block(0)[0, 0] - 0.35) < 0.10
    # information criteria are consistent with the reported likelihood
    assert_allclose(fit.aic, 2 * fit.n_params - 2 * fit.loglik, atol=1e-9)
    assert_allclose(fit.bic, fit.n_params * np.log(600) - 2 * fit.loglik, atol=1e-9)
    # the fitted closure still holds exactly (a constructed model, not a patch)
    report = verify_closure(fit.model.time_major_R(), fit.model.partition, 2)
    assert report.all_pass


def test_fit_stage2_univariate_recovery():
    sub = TRUE_MODEL.subs[0]
    margins = (GAUSS_MARGINS[0],)
    z = simulate_model(
        construct_model(
            Partition(sets=((0,),), d=1), (1,), 2, margins, [sub], []
        ),
        1500,
        seed=21,
    )
    sf = fit_stage2(z, margins, (0,), 2)
    assert sf.converged
    assert abs(sf.corr.block(1)[0, 0] - (-0.8)) < 0.05
    assert abs(sf.corr.block(2)[0, 0] - 0.6) < 0.07
    assert sf.corr.is_pd()


def test_fit_stage3_recovers_cross_given_truth():
    st3 = fit_stage3(
        DATA,
        GAUSS_MARGINS,
        list(TRUE_MODEL.subs),
        (2, 2),
        TRUE_MODEL.partition,
        2,
    )
    assert st3.converged
    assert abs(st3.fixed_blocks[0].value[0, 0] - 0.35) < 0.06
    assert st3.crosses[0].pair == (0, 1)


def test_stage4_does_not_degrade_loglik():
    fit4 = fit_model(DATA, CONFIG, stage4=True)
    assert fit4.loglik >= FIT.loglik - 1e-9
    assert "stage4" in fit4.stage_logliks


def test_unrestricted_fit_nests_more_parameters():
    un = fit_unrestricted(DATA, ("gaussian", "gaussian"), 2)
    assert un.n_params == count_params(CONFIG, restricted=False) == 4 + 1 + 8
    assert un.aic == pytest.approx(2 * un.n_params - 2 * un.loglik)
    # more parameters should not fit (noticeably) worse
    assert un.loglik > FIT.loglik - 3.0


def test_one_set_fit_model_is_the_unrestricted_benchmark():
    one_set = ModelConfig(
        partition=Partition(sets=((0, 1),), d=2),
        labels=(1,),
        k=2,
        margin_families=("gaussian", "gaussian"),
    )
    fm = fit_model(DATA, one_set)
    un = fit_unrestricted(DATA, ("gaussian", "gaussian"), 2)
    assert (fm.loglik, fm.n_params, fm.aic) == (un.loglik, un.n_params, un.aic)
    assert fm.model.crosses == ()
    assert fm.stage_logliks["stage3"] == fm.stage_logliks["stage2"][0]


def test_fit_model_rejects_bad_data():
    with pytest.raises(ValueError):
        fit_model(np.vstack([np.ones(100), np.zeros(100)]), CONFIG)
    with pytest.raises(ValueError):
        fit_model(DATA[:1], CONFIG)


# --------------------------------------------------------------- diagnostics


def test_portmanteau_matches_direct_computation():
    e = seeded_normals(31, (2, 400))
    res = portmanteau(e, 6, 2)
    ec = e - e.mean(axis=1, keepdims=True)
    T = 400
    c0 = ec @ ec.T / T
    c0i = np.linalg.inv(c0)
    q = 0.0
    for l in range(1, 7):
        cl = ec[:, l:] @ ec[:, :T - l].T / T
        q += np.trace(cl.T @ c0i @ cl @ c0i) / (T - l)
    q *= T * T
    assert_allclose(res.statistic, q, atol=1e-8)
    assert res.df == 4 * (6 - 2)
    assert 0.0 < res.pvalue < 1.0


def test_portmanteau_calibration():
    # white noise passes, a strongly autocorrelated series fails
    white = portmanteau(seeded_normals(5, (2, 800)), 8, 0)
    assert white.pvalue > 1e-3
    z = simulate(TRUE_MODEL.var(), 800, seed=6)
    auto = portmanteau(z, 8, 0)
    assert auto.pvalue < 1e-6


def test_portmanteau_rejects_bad_lags():
    e = seeded_normals(1, (2, 100))
    with pytest.raises(ValueError):
        portmanteau(e, 2, 2)
    with pytest.raises(ValueError):
        portmanteau(e, 100, 0)
